"""Weight sequences and their power-log symbolic algebra.

A weight is an increasing sequence G_n >= 1.  The families handled
symbolically here are products  scale * n^a * (ln n)^b * (lnln n)^c,
optionally composed with an index subsequence n_k (power, monomial or
super-exponential k^k schedules).  Anything outside that algebra is still
supported numerically through callable-backed sequences.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .accum import running_sums

__all__ = [
    "WeightExpr",
    "WeightSeq",
    "Schedule",
    "GapSeq",
    "WeightSyntaxError",
    "parse_weight",
    "twisted_weight",
    "asymptotic_class",
]

#: materialization cap: indices above this are never enumerated
INDEX_CAP = 2**62
#: cap for fractional-power schedules: above 2^53 a float no longer holds
#: every integer.  Below it n_k is the floor of the rounded power, which can
#: still be one off the exact floor (102571^2.5 = 3369469069481.9997... but
#: libm rounds it to ...482.0), so value() and values() share one numpy
#: expression for it
FLOAT_EXACT_CAP = 2**53
_CHUNK = 2**15            # indices evaluated at a time by WeightSeq.values


# ---------------------------------------------------------------------------
# symbolic expressions


@dataclass(frozen=True)
class WeightExpr:
    """scale * n^a * (ln n)^b * (lnln n)^c, optionally times n^(s*n).

    ``superexp_coeff`` (s above) only appears in asymptotic classes produced
    by composing an expression with the k^k schedule; user-parsed expressions
    always have s = 0.
    """

    scale: float = 1.0
    n_exp: float = 0.0
    log_exp: float = 0.0
    loglog_exp: float = 0.0
    superexp_coeff: float = 0.0

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be a positive finite real, got {self.scale}")
        for e in (self.n_exp, self.log_exp, self.loglog_exp, self.superexp_coeff):
            if not math.isfinite(e):
                raise ValueError(f"non-finite exponent {e}")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, n, out=None):
        """Value at index n (scalar or array), written into the array
        ``out`` when given. Requires lnln-safe n if c != 0.

        The first of the factors n^a, (ln n)^b, (lnln n)^c and n^(s n), the
        scale and then the others multiply in that order, in place; ln n is
        taken once, a scale of 1 is skipped, and an array n needs at most two
        scratch arrays besides ``out`` (three with s)."""
        n = np.asarray(n, dtype=float)
        v = np.empty(n.shape) if out is None else out
        factors = []
        if self.log_exp or self.loglog_exp:
            ln = np.log(n)          # a numpy scalar for a scalar n
            if self.loglog_exp:
                lnln = np.log(ln, out=ln if n.ndim and not self.log_exp else None)
                lnln **= self.loglog_exp
            if self.log_exp:
                ln **= self.log_exp
                factors.append(ln)
            if self.loglog_exp:
                factors.append(lnln)
        if self.superexp_coeff:
            factors.append(n ** (self.superexp_coeff * n))
        scaled = bool(self.n_exp or factors) and self.scale != 1.0
        if self.n_exp:
            np.copyto(v, n)
            v **= self.n_exp
        elif factors:
            np.copyto(v, factors.pop(0))
        else:
            v[...] = self.scale
        if scaled:
            v *= self.scale
        for f in factors:
            v *= f
        if v.ndim == 0:
            return float(v)
        return v

    def log_value(self, n):
        """ln of the value at n, computed in log space (safe for huge n)."""
        n = np.asarray(n, dtype=float)
        ln = np.log(n)
        out = math.log(self.scale) + self.n_exp * ln
        if self.log_exp or self.loglog_exp:
            lln = np.log(ln)
            out = out + self.log_exp * lln
            if self.loglog_exp:
                out = out + self.loglog_exp * np.log(lln)
        if self.superexp_coeff:
            out = out + self.superexp_coeff * n * ln
        if np.ndim(out) == 0:
            return float(out)
        return out

    # -- algebra ------------------------------------------------------------

    # A product or power whose scale or exponents leave the float range is
    # refused with a ValueError that names the operands.

    def __mul__(self, other: "WeightExpr") -> "WeightExpr":
        try:
            return WeightExpr(
                self.scale * other.scale,
                self.n_exp + other.n_exp,
                self.log_exp + other.log_exp,
                self.loglog_exp + other.loglog_exp,
                self.superexp_coeff + other.superexp_coeff,
            )
        except ValueError:
            raise ValueError(f"WeightExpr product ({self}) * ({other}) leaves the "
                             "float range") from None

    def __truediv__(self, other: "WeightExpr") -> "WeightExpr":
        return self * other**-1.0

    def __pow__(self, t: float) -> "WeightExpr":
        t = float(t)
        try:
            return WeightExpr(
                self.scale**t,
                self.n_exp * t,
                self.log_exp * t,
                self.loglog_exp * t,
                self.superexp_coeff * t,
            )
        except (OverflowError, ValueError):
            raise ValueError(f"WeightExpr ({self}) to the power {t!r} leaves the "
                             "float range") from None

    @property
    def exponents(self):
        return (self.n_exp, self.log_exp, self.loglog_exp)

    # -- serialization ------------------------------------------------------

    def canonical(self) -> str:
        """Canonical form ``scale * n^a * ln(n)^b * lnln(n)^c`` (17 sig digits)."""
        parts = [_fmt(self.scale)]
        for base, e in (("n", self.n_exp), ("ln(n)", self.log_exp), ("lnln(n)", self.loglog_exp)):
            if e != 0.0:
                parts.append(f"{base}^{_fmt(e)}")
        return " * ".join(parts)

    def __str__(self) -> str:
        return self.canonical()


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# parser for the weight grammar
#
#   expr   := factor ('*' factor)*
#   factor := ('n' | 'ln(n)' | 'lnln(n)' | number) ['^' signed-number]
#
# Duplicate bases are merged by adding exponents; numeric factors fold into
# the scale.


class WeightSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


# One pattern reads a factor, its power and the separator after it; each part
# is optional, so the first missing group names the fault.  [0-9] refuses
# non-ASCII digits; \Z, unlike $, does not match before a final newline.
_NUM = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_FACTOR = re.compile(rf"\s*(?:(?:(lnln\(n\)|ln\(n\)|n)|({_NUM}))"  # longest base first
                     rf"\s*(?:(\^)\s*([+-]?{_NUM})?)?)?\s*(\*|\Z)?")


def parse_weight(text: str) -> WeightExpr:
    """Parse the weight grammar into a normalized :class:`WeightExpr`; a
    number or numeric factor outside the float range is a syntax error."""
    def fail(message, pos):     # at the next non-space, as a UTF-8 offset
        pos = len(text) - len(text[pos:].lstrip())
        raise WeightSyntaxError(message, len(text[:pos].encode()))

    scale, exps = 1.0, {"n": 0.0, "ln(n)": 0.0, "lnln(n)": 0.0}
    pos, sep = 0, "*"
    while sep:
        m = _FACTOR.match(text, pos)
        base, literal, caret, exponent, sep = m.groups()
        if not (base or literal) or caret and not exponent:
            fail("expected number", m.end(3) if caret else pos)
        value, exp = float(literal or 1.0), float(exponent or 1.0)
        if value <= 0.0:
            fail("numeric factor must be positive", pos)
        if not math.isfinite(exp):
            fail("number outside the float range", m.start(4))
        if base:
            exps[base] += exp
        else:
            try:
                factor = value**exp
            except OverflowError:
                factor = math.inf
            if not (value < math.inf and 0.0 < factor < math.inf):
                fail("numeric factor outside the float range", pos)
            scale *= factor
        if sep is None:
            fail("expected '*' or end of input", m.end())
        pos = m.end()
    return WeightExpr(scale, exps["n"], exps["ln(n)"], exps["lnln(n)"])


# ---------------------------------------------------------------------------
# schedules and gap sequences


class _PastReach(ValueError, IndexError):
    """A schedule read past its reach: bad input to a caller (ValueError)
    and, for an explicit list, a read past its end (IndexError)."""


class Schedule:
    """Strictly increasing index subsequence n_k (k >= 1).

    kinds:
      power(r)     n_k = floor(k^r) + 1, 1 <= r <= 62
      monomial(r)  n_k = k^r exactly (integer 1 <= r <= 62)
      superexp     n_k = k^k
      geometric(q) n_k = ceil(q^k), q^3 > 3
      explicit     user-supplied list

    A geometric q is the float a / 2^e exactly, so ceil(q^k) is the integer
    shift -(-a^k >> e k).  Its ceilings increase exactly when
    ceil(q) < ceil(q^2) < ceil(q^3), that is when q^3 > 3: from k = 3 on,
    q^{k+1} - q^k = q^k (q - 1) > 3 (3^{1/3} - 1) > 1 keeps them apart.
    ``geometric`` checks those three ceilings.
    """

    def __init__(self, kind: str, param=None, values=None):
        self.kind = kind
        self.param = param
        self._explicit = None
        self._max_k = None
        fractional = kind == "power" and not float(param).is_integer()
        self.cap = FLOAT_EXACT_CAP if fractional else INDEX_CAP  # largest n_k max_k() counts
        if kind == "explicit":
            vals = [int(v) for v in values]
            if not vals:
                raise ValueError("explicit schedule must be nonempty")
            if any(v <= 0 for v in vals):
                raise ValueError("schedule entries must be positive")
            if any(b <= a for a, b in zip(vals, vals[1:])):
                raise ValueError("schedule must be strictly increasing")
            self._explicit = vals

    # -- constructors -------------------------------------------------------

    @classmethod
    def power(cls, r: float) -> "Schedule":
        if not math.isfinite(r):
            raise ValueError(f"power schedule needs a finite r, got {r}")
        if r < 1:
            raise ValueError("power schedule needs r >= 1")
        if r > 62:          # n_2 > 2^62, and k^r of a huge integer r never ends
            raise ValueError(f"power schedule needs r <= 62, got {r}")
        return cls("power", float(r))

    @classmethod
    def monomial(cls, r: int) -> "Schedule":
        if int(r) != r or r < 1:
            raise ValueError("monomial schedule needs integer r >= 1")
        if r > 62:          # as for power
            raise ValueError(f"monomial schedule needs r <= 62, got {r}")
        return cls("monomial", int(r))

    @classmethod
    def identity(cls) -> "Schedule":
        return cls.monomial(1)

    @classmethod
    def superexp(cls) -> "Schedule":
        return cls("superexp")

    @classmethod
    def geometric(cls, q: float) -> "Schedule":
        if not math.isfinite(q):
            raise ValueError(f"geometric schedule needs a finite q, got {q}")
        if q <= 1:
            raise ValueError("geometric schedule needs q > 1")
        sched = cls("geometric", float(q))
        n = [sched.value(k) for k in (1, 2, 3)]
        for k in (2, 3):
            if n[k - 1] == n[k - 2]:
                raise ValueError(f"geometric schedule q={q} repeats n_{k} = {n[k - 1]}: "
                                 f"ceil(q^k) increases only for q^3 > 3")
        return sched

    @classmethod
    def explicit(cls, vals) -> "Schedule":
        return cls("explicit", values=vals)

    # -- evaluation ---------------------------------------------------------

    def value(self, k: int) -> int:
        if k < 1:
            raise ValueError("schedule index k starts at 1")
        if self.kind == "power":
            r = self.param
            if float(r).is_integer():
                return k ** int(r) + 1
            v = float((np.asarray([k], dtype=float) ** r)[0])  # as in values()
            if v > FLOAT_EXACT_CAP:
                raise OverflowError(f"n_{k} exceeds the exact-floor cap for fractional r")
            return int(math.floor(v)) + 1
        if self.kind == "monomial":
            return k**self.param
        if self.kind == "superexp":
            return k**k
        if self.kind == "geometric":
            a, b = self.param.as_integer_ratio()
            return -(-a**k >> (b.bit_length() - 1) * k)
        vals = self._explicit
        if k > len(vals):
            raise IndexError(f"explicit schedule has only {len(vals)} entries")
        return vals[k - 1]

    def first_k(self, n: int) -> int:
        """Least k >= 1 with n_k >= n, by galloping and then bisection
        (Bentley and Yao 1976).  An n_k that cannot be evaluated, past an
        explicit list or a fractional power's cap, counts as >= n."""
        def below(k: int) -> bool:
            try:
                return self.value(k) < n
            except (IndexError, OverflowError):
                return False

        lo, hi = 0, 1           # n_lo < n <= n_hi, with n_0 read as 0
        while below(hi):
            lo, hi = hi, 2 * hi
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if below(mid):
                lo = mid
            else:
                hi = mid
        return hi

    def max_k(self) -> int:
        """Largest k with n_k <= cap (0 when already n_1 exceeds it).
        A schedule never changes after construction, so it is found once."""
        if self._max_k is None:
            self._max_k = self.first_k(self.cap + 1) - 1
        return self._max_k

    def values(self, kmax: int, first: int = 1) -> np.ndarray:
        """n_first..n_kmax as an int64 array.  A kmax past max_k() is
        refused; past an explicit list's end that refusal is an IndexError,
        too."""
        if kmax > self.max_k():
            raise _PastReach(f"schedule {self.describe()} has only {self.max_k()} "
                             f"terms with n_k <= 2^{self.cap.bit_length() - 1}; "
                             f"n={kmax} is out of reach")
        if self.kind == "explicit":
            return np.array(self._explicit[first - 1:kmax], dtype=np.int64)
        if self.kind in ("superexp", "geometric"):    # reach at most 117
            return np.array([self.value(k) for k in range(first, kmax + 1)],
                            dtype=np.int64)
        ks = np.arange(first, kmax + 1, dtype=np.int64)
        r = self.param
        if self.kind == "monomial":
            return ks**r
        if float(r).is_integer():
            return ks**int(r) + 1
        return np.floor(ks.astype(float) ** r).astype(np.int64) + 1

    def gap_values(self, kmax: int, first: int = 1, n=None) -> np.ndarray:
        """xi_k = n_{k+1} - n_k for k = first..kmax as floats, from
        ``n`` = values(kmax, first) when given; the last gap is taken in
        Python ints, since n_{kmax+1} may pass int64 (superexp)."""
        vals = self.values(kmax, first) if n is None else n
        gaps = np.empty(vals.size)
        np.subtract(vals[1:], vals[:-1], out=gaps[:-1])
        gaps[-1] = float(self.value(kmax + 1) - int(vals[-1]))
        return gaps

    def gap_class(self) -> WeightExpr | None:
        """Class of xi_k = n_{k+1} - n_k for symbolic schedules."""
        if self.kind in ("power", "monomial"):
            r = float(self.param)
            return WeightExpr(scale=r, n_exp=r - 1.0)
        if self.kind == "superexp":
            # n_{k+1} - n_k ~ (k+1)^{k+1} ~ e * k * k^k
            return WeightExpr(scale=math.e, n_exp=1.0, superexp_coeff=1.0)
        return None

    def describe(self) -> dict:
        d = {"kind": self.kind}
        if self.param is not None:
            d["param"] = self.param
        if self._explicit is not None:
            d["values"] = list(self._explicit)
        return d


class GapSeq:
    """Auxiliary sequence xi_k of (W2): derived gaps, an explicit list, or a
    symbolic expression evaluated at n_k (e.g. xi_k = n_k^{1/p})."""

    def __init__(self, mode: str, schedule: Schedule | None = None,
                 values=None, expr: WeightExpr | None = None):
        self.mode = mode
        self.schedule = schedule
        self.expr = expr
        self._values = None if values is None else np.asarray(values, dtype=float)
        if mode not in ("derived", "explicit", "expr_of_nk"):
            raise ValueError(f"unknown GapSeq mode {mode!r}")

    @classmethod
    def derived(cls, schedule: Schedule) -> "GapSeq":
        return cls("derived", schedule=schedule)

    @classmethod
    def explicit(cls, values) -> "GapSeq":
        vals = np.asarray(values, dtype=float)
        if np.any(vals <= 0):
            raise ValueError("gap entries must be positive")
        return cls("explicit", values=vals)

    @classmethod
    def of_schedule_expr(cls, expr: WeightExpr, schedule: Schedule) -> "GapSeq":
        return cls("expr_of_nk", schedule=schedule, expr=expr)

    def max_k(self) -> int:
        """Last k with a gap: an explicit list's length; for derived gaps the
        last k whose n_{k+1} is exact, one short of an explicit list (and
        within its reach) or of a fractional power's reach; otherwise the
        schedule's max_k()."""
        if self.mode == "explicit":
            return len(self._values)
        sched = self.schedule
        if self.mode == "derived" and sched.kind == "explicit":
            return min(len(sched._explicit) - 1, sched.max_k())
        if self.mode == "derived" and sched.cap == FLOAT_EXACT_CAP:
            return sched.max_k() - 1
        return sched.max_k()

    def values(self, kmax: int, first: int = 1, n=None) -> np.ndarray:
        """xi_first..xi_kmax as floats; ``n``, when given, holds the
        schedule's n_first..n_kmax."""
        if n is None and self.mode != "explicit":
            n = self.schedule.values(kmax, first)
        if self.mode == "derived":
            return self.schedule.gap_values(kmax, first, n)
        if self.mode == "expr_of_nk":
            return self.expr(n.astype(float))
        if kmax > len(self._values):
            raise IndexError(f"explicit gap sequence has only {len(self._values)} entries")
        return self._values[first - 1:kmax]


# ---------------------------------------------------------------------------
# weight sequences


class WeightSeq:
    """A weight realized either by a symbolic expression or a callable.

    Small-index singularities (ln 1 = 0, lnln undefined for n <= e) are cut
    off by the start index n0.  When not given, n0 defaults to the smallest
    n >= ``search_from`` (3 unless given) whose value is >= 1 and
    nondecreasing over a 64-index lookahead (all 65 window values finite),
    searched below 2^20.  The search scans blocks of candidates, doubling
    from 256 to 2^16: one evaluation per block, and prefix sums of the
    decreasing-or-NaN steps and of the non-finite values test every window
    of the block at once; a constant expression is its scale at every n and
    is not scanned.  Every evaluation, ``prefix`` and the n0 search
    included, goes through ``values``, 2^15 indices at a time.
    Every audit that the values from n0 on are finite and nondecreasing is
    an ``audit()``, fed the values in index order in chunks.
    """

    LOOKAHEAD = 64
    _N0_SEARCH_LIMIT = 1 << 20
    _N0_BLOCK_MIN = 1 << 8
    _N0_BLOCK_MAX = 1 << 16

    def __init__(self, expr: WeightExpr | None = None, fn=None, n0: int | None = None,
                 label: str = "", search_from: int = 3):
        if (expr is None) == (fn is None):
            raise ValueError("exactly one of expr / fn must be given")
        self.expr = expr
        self.fn = fn
        self.label = label or (expr.canonical() if expr is not None else "callable")
        self._search_from = int(search_from)
        if n0 is None:
            n0 = self._default_n0()
        else:
            n0 = int(n0)
            if n0 < 1:
                raise ValueError("n0 must be >= 1")
            with np.errstate(all="ignore"):   # ln 1 = 0 and the like
                v0 = self.value(n0)
            if not (v0 >= 1.0):
                raise ValueError(f"weight value at n0={n0} is {v0}, must be >= 1")
        self.n0 = n0

    @classmethod
    def from_text(cls, text: str, n0: int | None = None,
                  search_from: int = 3) -> "WeightSeq":
        return cls(expr=parse_weight(text), n0=n0, search_from=search_from)

    @classmethod
    def from_callable(cls, fn, n0: int, label: str = "") -> "WeightSeq":
        return cls(fn=fn, n0=n0, label=label)

    # -- evaluation ---------------------------------------------------------

    def value(self, n) -> float:
        return float(self.values(np.asarray([n], dtype=float))[0])

    def values(self, n, out=None) -> np.ndarray:
        """Values at the indices n (at least 1-d, in n's shape), written
        into the contiguous array ``out`` when given: the one evaluation of a
        weight.  The expression or callable fills the output _CHUNK indices
        at a time, so its temporaries stay in cache and a million-index
        evaluation adds no full-size scratch arrays."""
        n = np.asarray(n, dtype=float)
        out = np.empty(n.shape) if out is None else out
        flat, dest = n.reshape(-1), out.reshape(-1)
        for lo in range(0, flat.size, _CHUNK):
            if self.expr is not None:
                self.expr(flat[lo:lo + _CHUNK], dest[lo:lo + _CHUNK])
            else:
                dest[lo:lo + _CHUNK] = self.fn(flat[lo:lo + _CHUNK])
        return np.atleast_1d(out)

    def _default_n0(self) -> int:
        L = self.LOOKAHEAD
        n, size = self._search_from, self._N0_BLOCK_MIN
        e = self.expr
        if e is not None and not (e.n_exp or e.log_exp or e.loglog_exp
                                  or e.superexp_coeff):
            # a constant is its scale at every n: the scan would start it at
            # search_from or refuse it, so skip to its answer
            if e.scale >= 1.0 and n < self._N0_SEARCH_LIMIT:
                return n
            n = self._N0_SEARCH_LIMIT
        while n < self._N0_SEARCH_LIMIT:
            hi = min(n + size, self._N0_SEARCH_LIMIT)
            m = hi - n
            # candidate n + c has the window v[c..c+L]; overflow to inf,
            # ln 1 = 0 and NaN are expected here and count below as a failed window
            with np.errstate(all="ignore"):
                v = self.values(np.arange(n, hi + L, dtype=float))
                bad = np.concatenate(([0], np.cumsum(~(np.diff(v) >= 0.0))))
                nonfinite = np.concatenate(([0], np.cumsum(~np.isfinite(v))))
            ok = (v[:m] >= 1.0) & (bad[L:] == bad[:m]) \
                & (nonfinite[L + 1:] == nonfinite[:m])
            if ok.any():
                return n + int(np.argmax(ok))
            n, size = hi, min(2 * size, self._N0_BLOCK_MAX)
        raise ValueError(f"no valid start index found for weight {self.label!r}")

    def audit(self) -> "_Audit":
        """A new audit of the values from n0 on (see ``_Audit``)."""
        return _Audit(self.label)

    def prefix(self, N: int) -> np.ndarray:
        """Values at n0..N (inclusive), audited: finite and nondecreasing."""
        if N < self.n0:
            raise IndexError(f"index {N} below start index n0={self.n0}")
        with np.errstate(all="ignore"):   # overflow is refused below
            v = self.values(np.arange(self.n0, N + 1, dtype=float))
        audit = self.audit()
        audit.add(self.n0, v)
        audit.check()
        return v

    def __repr__(self):
        return f"WeightSeq({self.label!r}, n0={self.n0})"


class _Audit:
    """Whether a weight's values, fed in index order in chunks by ``add``,
    are finite and nondecreasing.  ``check`` then refuses the weight at its
    first non-finite value, or else at its first decrease."""

    def __init__(self, label: str):
        self.label = label
        self.last = None            # the value before the next chunk
        self.not_finite = self.drop = None      # first index of each fault

    def add(self, n: int, v) -> None:
        """Audit the values v at n, n + 1, ..."""
        # one sweep: v[i + 1] >= v[i] is False at any nan, so with finite
        # ends it proves the chunk finite and nondecreasing
        if (math.isfinite(v[0]) and math.isfinite(v[-1])
                and (self.last is None or v[0] >= self.last)
                and np.greater_equal(v[1:], v[:-1]).all()):
            self.last = v[-1]
            return
        if self.not_finite is None and not np.isfinite(v).all():
            self.not_finite = n + int(np.argmin(np.isfinite(v)))
        if self.drop is None:
            # down[i]: v[i] lies below the value before it
            down = np.empty(len(v), dtype=bool)
            down[0] = self.last is not None and v[0] < self.last
            np.less(v[1:], v[:-1], out=down[1:])
            if down.any():
                self.drop = n + int(np.argmax(down))
        self.last = v[-1]

    def check(self) -> None:
        if self.not_finite is not None:
            raise ArithmeticError(f"weight {self.label!r} is not finite at "
                                  f"index {self.not_finite}: not a weight")
        if self.drop is not None:
            raise ArithmeticError(f"weight {self.label!r} decreases near index "
                                  f"{self.drop}: not a weight")


# ---------------------------------------------------------------------------
# derived weights


def twisted_weight(G: WeightSeq, r: float, n):
    """G_{n,r} = G_n/|r| + sum_{k=n0}^{n-1} G_k/k (Abel-summation weight), a
    float for an integer n and an array for an array of them: every G_{n,r}
    from one ``prefix`` to the largest n and one ``running_sums`` of G_k/k,
    whose prefix sums are each bit-equal to their fsum."""
    if r == 0:
        raise ValueError("twist parameter r must be nonzero")
    ns = np.asarray(n, dtype=np.int64)
    if ns.min() < G.n0:
        raise IndexError(f"index {int(ns.min())} below start index n0={G.n0}")
    top = int(ns.max())
    g = G.prefix(top)
    sums = np.array([0.0] + running_sums(g[:-1] / np.arange(G.n0, top, dtype=float)))
    out = g[ns - G.n0] / abs(r) + sums[ns - G.n0]
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# symbolic composition with a schedule


def asymptotic_class(expr: WeightExpr, sched: Schedule) -> WeightExpr | None:
    """Power-log class of k -> expr(n_k), or None for numeric-only schedules.

    power(r)/monomial(r): (a, b, c) -> (r*a, b, c), scale *= r^b.  The floor
    "+1" of power schedules and the additive ln r of lnln n_k are dropped:
    n_k/k^r -> 1 gives ln n_k = r ln k + o(1) and lnln n_k = lnln k + ln r
    + o(1), so expr(n_k) divided by the class tends to 1, and by limit
    comparison a series of either converges exactly when the other does.

    superexp (n_k = k^k): ln n_k ~ k ln k and lnln n_k ~ ln k, giving the
    class  k^(a*k) * k^b * (ln k)^(b+c)  marked with superexp_coeff = a.
    """
    if expr.superexp_coeff:
        raise ValueError("cannot compose an already-composed class")
    if sched.kind in ("power", "monomial"):
        r = float(sched.param)
        return WeightExpr(
            scale=expr.scale * (r**expr.log_exp if expr.log_exp else 1.0),
            n_exp=r * expr.n_exp,
            log_exp=expr.log_exp,
            loglog_exp=expr.loglog_exp,
        )
    if sched.kind == "superexp":
        return WeightExpr(
            scale=expr.scale,
            n_exp=expr.log_exp,
            log_exp=expr.log_exp + expr.loglog_exp,
            loglog_exp=0.0,
            superexp_coeff=expr.n_exp,
        )
    return None
