"""Weight sequences and their power-log symbolic algebra.

A weight is an increasing sequence G_n >= 1.  The families handled
symbolically here are products  scale * n^a * (ln n)^b * (lnln n)^c,
optionally composed with an index subsequence n_k (power, monomial or
super-exponential k^k schedules).  Anything outside that algebra is still
supported numerically through callable-backed sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .accum import kahan_cumsum

__all__ = [
    "WeightExpr",
    "WeightSeq",
    "Schedule",
    "GapSeq",
    "WeightSyntaxError",
    "parse_weight",
    "twisted_weight",
    "interpolated_weight",
    "scale_weight",
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

    def __call__(self, n):
        """Value at index n (scalar or array). Requires lnln-safe n if c != 0."""
        n = np.asarray(n, dtype=float)
        v = np.full(n.shape, float(self.scale))
        if self.n_exp:
            v = v * n**self.n_exp
        if self.log_exp:
            v = v * np.log(n) ** self.log_exp
        if self.loglog_exp:
            v = v * np.log(np.log(n)) ** self.loglog_exp
        if self.superexp_coeff:
            v = v * n ** (self.superexp_coeff * n)
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

    def __mul__(self, other: "WeightExpr") -> "WeightExpr":
        return WeightExpr(
            self.scale * other.scale,
            self.n_exp + other.n_exp,
            self.log_exp + other.log_exp,
            self.loglog_exp + other.loglog_exp,
            self.superexp_coeff + other.superexp_coeff,
        )

    def __truediv__(self, other: "WeightExpr") -> "WeightExpr":
        return self * other**-1.0

    def __pow__(self, t: float) -> "WeightExpr":
        t = float(t)
        return WeightExpr(
            self.scale**t,
            self.n_exp * t,
            self.log_exp * t,
            self.loglog_exp * t,
            self.superexp_coeff * t,
        )

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
    s = f"{x:.17g}"
    return s


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


_BASES = ("lnln(n)", "ln(n)", "n")  # longest first


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def accept(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def number(self, signed: bool) -> float:
        self.skip_ws()
        start = self.pos
        i = self.pos
        t = self.text
        if signed and i < len(t) and t[i] in "+-":
            i += 1
        digits = 0
        while i < len(t) and t[i] in "0123456789":
            i += 1
            digits += 1
        if i < len(t) and t[i] == ".":
            i += 1
            while i < len(t) and t[i] in "0123456789":
                i += 1
                digits += 1
        if digits == 0:
            raise WeightSyntaxError("expected number", start)
        if i < len(t) and t[i] in "eE":
            j = i + 1
            if j < len(t) and t[j] in "+-":
                j += 1
            edigits = 0
            while j < len(t) and t[j] in "0123456789":
                j += 1
                edigits += 1
            if edigits:
                i = j
        self.pos = i
        return float(t[start:i])


def parse_weight(text: str) -> WeightExpr:
    """Parse the weight grammar into a normalized :class:`WeightExpr`."""
    sc = _Scanner(text)
    scale = 1.0
    exps = {"n": 0.0, "ln(n)": 0.0, "lnln(n)": 0.0}

    def factor():
        nonlocal scale
        sc.skip_ws()
        start = sc.pos
        base = None
        for cand in _BASES:
            if sc.accept(cand):
                base = cand
                break
        if base is None:
            value = sc.number(signed=False)
        exp = 1.0
        if sc.accept("^"):
            exp = sc.number(signed=True)
        if base is None:
            if value <= 0.0:
                raise WeightSyntaxError("numeric factor must be positive", start)
            scale *= value**exp
        else:
            exps[base] += exp

    factor()
    while True:
        if sc.eof():
            break
        if not sc.accept("*"):
            raise WeightSyntaxError("expected '*' or end of input", sc.pos)
        factor()
    return WeightExpr(scale, exps["n"], exps["ln(n)"], exps["lnln(n)"])


# ---------------------------------------------------------------------------
# schedules and gap sequences


class Schedule:
    """Strictly increasing index subsequence n_k (k >= 1).

    kinds:
      power(r)     n_k = floor(k^r) + 1
      monomial(r)  n_k = k^r exactly (integer r >= 1)
      superexp     n_k = k^k
      geometric(q) n_k = ceil(q^k), q > 1
      explicit     user-supplied list
    """

    def __init__(self, kind: str, param=None, values=None):
        self.kind = kind
        self.param = param
        self._explicit = None
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
        if r < 1:
            raise ValueError("power schedule needs r >= 1")
        return cls("power", float(r))

    @classmethod
    def monomial(cls, r: int) -> "Schedule":
        if int(r) != r or r < 1:
            raise ValueError("monomial schedule needs integer r >= 1")
        return cls("monomial", int(r))

    @classmethod
    def identity(cls) -> "Schedule":
        return cls.monomial(1)

    @classmethod
    def superexp(cls) -> "Schedule":
        return cls("superexp")

    @classmethod
    def geometric(cls, q: float) -> "Schedule":
        if q <= 1:
            raise ValueError("geometric schedule needs q > 1")
        return cls("geometric", float(q))

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
            return math.ceil(self.param**k)
        vals = self._explicit
        if k > len(vals):
            raise IndexError(f"explicit schedule has only {len(vals)} entries")
        return vals[k - 1]

    def max_k(self, index_cap: int = INDEX_CAP) -> int:
        """Largest k with n_k <= index_cap (0 when already n_1 exceeds it)."""
        if self.kind == "explicit":
            vals = self._explicit
            ks = [i + 1 for i, v in enumerate(vals) if v <= index_cap]
            return ks[-1] if ks else 0
        cap = index_cap
        if self.kind == "power" and not float(self.param).is_integer():
            cap = min(cap, FLOAT_EXACT_CAP)

        def fits(k: int) -> bool:
            try:
                return self.value(k) <= cap
            except OverflowError:
                return False

        lo, hi = 1, 2
        if not fits(1):
            return 0
        while fits(hi):
            lo = hi
            hi *= 2
            if hi > cap:  # e.g. identity schedule: every k works up to the cap
                break
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def values(self, kmax: int) -> np.ndarray:
        """n_1..n_kmax as an int64 array; caller must keep kmax <= max_k()."""
        ks = np.arange(1, kmax + 1, dtype=np.int64)
        if self.kind == "power":
            r = self.param
            if float(r).is_integer():
                r = int(r)
                return ks**r + 1
            return np.floor(ks.astype(float) ** r).astype(np.int64) + 1
        if self.kind == "monomial":
            return ks**self.param
        if self.kind == "superexp":
            return np.array([k**k for k in range(1, kmax + 1)], dtype=np.int64)
        if self.kind == "geometric":
            return np.array([self.value(int(k)) for k in ks], dtype=np.int64)
        if kmax > len(self._explicit):
            raise IndexError(f"explicit schedule has only {len(self._explicit)} entries")
        return np.array(self._explicit[:kmax], dtype=np.int64)

    def gap_values(self, kmax: int) -> np.ndarray:
        """xi_k = n_{k+1} - n_k for k = 1..kmax."""
        if self.kind != "explicit" and self.value(kmax + 1) > np.iinfo(np.int64).max:
            # n_{kmax+1} overflows int64 (e.g. superexp): exact int fallback
            vals = [self.value(k) for k in range(1, kmax + 2)]
            return np.array([b - a for a, b in zip(vals, vals[1:])], dtype=np.float64)
        return np.diff(self.values(kmax + 1))

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

    def values(self, kmax: int) -> np.ndarray:
        if self.mode == "derived":
            return self.schedule.gap_values(kmax).astype(float)
        if self.mode == "expr_of_nk":
            return self.expr(self.schedule.values(kmax).astype(float))
        if kmax > len(self._values):
            raise IndexError(f"explicit gap sequence has only {len(self._values)} entries")
        return self._values[:kmax]


# ---------------------------------------------------------------------------
# weight sequences


class WeightSeq:
    """A weight realized either by a symbolic expression or a callable.

    Small-index singularities (ln 1 = 0, lnln undefined for n <= e) are cut
    off by the start index n0.  When not given, n0 defaults to the smallest
    n >= 3 whose value is >= 1 and nondecreasing over a 64-index lookahead
    (all 65 window values finite), searched below 2^20.  The search scans
    blocks of candidates, doubling from 256 to 2^16: one evaluation per
    block, and prefix sums of the decreasing-or-NaN steps and of the
    non-finite values test every window of the block at once.
    """

    LOOKAHEAD = 64
    _N0_SEARCH_LIMIT = 1 << 20
    _N0_BLOCK_MIN = 1 << 8
    _N0_BLOCK_MAX = 1 << 16

    def __init__(self, expr: WeightExpr | None = None, fn=None, n0: int | None = None,
                 label: str = ""):
        if (expr is None) == (fn is None):
            raise ValueError("exactly one of expr / fn must be given")
        self.expr = expr
        self.fn = fn
        self.label = label or (expr.canonical() if expr is not None else "callable")
        self._memo = np.empty(0)
        self._twisted_prefix = None  # cumulative sums of G_k/k from n0
        if n0 is None:
            n0 = self._default_n0()
        else:
            n0 = int(n0)
            if n0 < 1:
                raise ValueError("n0 must be >= 1")
            v0 = self.value(n0)
            if not (v0 >= 1.0):
                raise ValueError(f"weight value at n0={n0} is {v0}, must be >= 1")
        self.n0 = n0

    @classmethod
    def from_text(cls, text: str, n0: int | None = None) -> "WeightSeq":
        return cls(expr=parse_weight(text), n0=n0)

    @classmethod
    def from_callable(cls, fn, n0: int, label: str = "") -> "WeightSeq":
        return cls(fn=fn, n0=n0, label=label)

    # -- raw evaluation (no memo, safe for sparse huge indices) -------------

    def value(self, n) -> float:
        return float(self.values(np.asarray([n], dtype=float))[0])

    def values(self, n) -> np.ndarray:
        n = np.asarray(n, dtype=float)
        if self.expr is not None:
            out = self.expr(n)
        else:
            out = np.asarray(self.fn(n), dtype=float)
        return np.atleast_1d(out)

    def _default_n0(self) -> int:
        L = self.LOOKAHEAD
        n, size = 3, self._N0_BLOCK_MIN
        while n < self._N0_SEARCH_LIMIT:
            hi = min(n + size, self._N0_SEARCH_LIMIT)
            m = hi - n
            # candidate n + c has the window v[c..c+L]
            v = self.values(np.arange(n, hi + L, dtype=float))
            bad = np.concatenate(([0], np.cumsum(~(np.diff(v) >= 0.0))))
            nonfinite = np.concatenate(([0], np.cumsum(~np.isfinite(v))))
            ok = (v[:m] >= 1.0) & (bad[L:] == bad[:m]) \
                & (nonfinite[L + 1:] == nonfinite[:m])
            if ok.any():
                return n + int(np.argmax(ok))
            n, size = hi, min(2 * size, self._N0_BLOCK_MAX)
        raise ValueError(f"no valid start index found for weight {self.label!r}")

    # -- memoized prefix ----------------------------------------------------

    def prefix(self, N: int) -> np.ndarray:
        """Values at n0..N (inclusive), memoized and monotonicity-audited."""
        if N < self.n0:
            raise IndexError(f"index {N} below start index n0={self.n0}")
        need = N - self.n0 + 1
        if need > len(self._memo):
            ns = np.arange(self.n0 + len(self._memo), N + 1, dtype=float)
            new = self.values(ns)
            prev = self._memo[-1] if len(self._memo) else None
            block = new if prev is None else np.concatenate(([prev], new))
            if np.any(np.diff(block) < 0.0):
                bad = int(np.argmax(np.diff(block) < 0.0))
                raise ArithmeticError(
                    f"weight {self.label!r} decreases near index "
                    f"{self.n0 + len(self._memo) + bad}: not a weight"
                )
            self._memo = np.concatenate((self._memo, new))
        return self._memo[:need]

    def eval(self, n: int) -> float:
        """Memoized value at n; repeated calls are bit-identical."""
        if n < self.n0:
            raise IndexError(f"index {n} below start index n0={self.n0}")
        return float(self.prefix(n)[n - self.n0])

    def twisted_prefix_sums(self, N: int) -> np.ndarray:
        """Compensated cumulative sums of G_k/k for k = n0..N."""
        need = N - self.n0 + 1
        if self._twisted_prefix is None or need > len(self._twisted_prefix):
            vals = self.prefix(N)
            ks = np.arange(self.n0, N + 1, dtype=float)
            self._twisted_prefix = kahan_cumsum(vals / ks)
        return self._twisted_prefix[:need]

    def __repr__(self):
        return f"WeightSeq({self.label!r}, n0={self.n0})"


# ---------------------------------------------------------------------------
# derived weights


def twisted_weight(G: WeightSeq, r: float, n: int) -> float:
    """G_{n,r} = G_n/|r| + sum_{k=n0}^{n-1} G_k/k (Abel-summation weight)."""
    if r == 0:
        raise ValueError("twist parameter r must be nonzero")
    if n < G.n0:
        raise IndexError(f"index {n} below start index n0={G.n0}")
    head = G.eval(n) / abs(r)
    if n == G.n0:
        return head
    return head + float(G.twisted_prefix_sums(n - 1)[-1])


def interpolated_weight(G: WeightSeq, p: float, n: int) -> float:
    """G_n^(p) = G_n^{2(p-1)/p} * n^{(2-p)/p}; equals G_n at p = 2."""
    if not (1.0 < p <= 2.0):
        raise ValueError("p must lie in (1, 2]")
    a = 2.0 * (p - 1.0) / p
    b = (2.0 - p) / p
    return G.eval(n) ** a * float(n) ** b


def scale_weight(W: WeightSeq, delta: float) -> WeightSeq:
    """The weight {W_n / delta}; n0 advances until the value is back >= 1."""
    if not delta > 0:
        raise ValueError("delta must be positive")
    if delta == 1.0:
        return W
    expr = fn = None
    if W.expr is not None:
        expr = replace(W.expr, scale=W.expr.scale / delta)
        label = ""
    else:
        fn = lambda n, _fn=W.fn, _d=delta: np.asarray(_fn(n)) / _d  # noqa: E731
        label = f"({W.label})/{delta:g}"
    at = expr if expr is not None else fn
    n0 = W.n0
    while np.atleast_1d(at(np.asarray([n0], dtype=float)))[0] < 1.0:
        n0 += 1
        if n0 - W.n0 > 1 << 20:
            raise ValueError("scaled sequence never reaches 1; not a weight")
    return WeightSeq(expr=expr, fn=fn, n0=n0, label=label)


# ---------------------------------------------------------------------------
# symbolic composition with a schedule


def asymptotic_class(expr: WeightExpr, sched: Schedule) -> WeightExpr | None:
    """Power-log class of k -> expr(n_k), or None for numeric-only schedules.

    power(r)/monomial(r): (a, b, c) -> (r*a, b, c), scale *= r^b; the floor
    "+1" of power schedules and additive lnln corrections are dropped (they
    do not move the convergence class; the numeric ratio audit guards this).

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
