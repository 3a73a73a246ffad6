"""Summability condition checks behind the admissible-weight calculus.

Every check produces an :class:`AdmissibilityReport` combining a verdict with
numeric partial-sum diagnostics.  Verdicts are *symbolic* (exact, via the
Bertrand convergence region of the term's power-log class) whenever the
operands live in the power-log algebra; otherwise the verdict falls back to a
conservative numeric heuristic and is labeled as such.  Numeric summation can
never prove convergence, so the heuristic only claims a verdict when the
evidence is unambiguous and reports ``unknown`` otherwise.

Every check is one pass over its range, _CHUNK indices at a time: it
evaluates the weights once per chunk, audits them, forms every term it sums
and feeds them to one ``_Series`` per series, whose pieces an
``accum.PieceSums`` sums while they are in cache.  No check holds a
whole-range array.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .accum import PieceSums, fsum, running_sums
from .weights import _CHUNK, GapSeq, Schedule, WeightExpr, WeightSeq, asymptotic_class

__all__ = [
    "LADDER",
    "MAX_TERMS",
    "AdmissibilityReport",
    "bertrand_converges",
    "series_report",
    "check_weak_admissible",
    "check_admissible",
    "check_T21",
    "check_rrr",
    "check_index_series",
    "class_1RT1",
    "check_1RT1",
]

LADDER = (10**2, 10**3, 10**4, 10**5, 10**6)
MAX_TERMS = 10**6   # no series is summed past this index or over more terms

_CONV_REL_TOL = 1e-3    # S_hi - S_mid < tol * S_mid  => converged heuristically
_DIVERGE_RATIO_FLOOR = 0.8  # block ratios below this never read as divergence


def bertrand_converges(cls: WeightExpr) -> bool:
    """Exact convergence of sum k^a (ln k)^b (lnln k)^c (times k^(s k))."""
    if cls.superexp_coeff != 0.0:
        return cls.superexp_coeff < 0.0
    a, b, c = cls.exponents
    return a < -1.0 or (a == -1.0 and (b < -1.0 or (b == -1.0 and c < -1.0)))


@dataclass
class AdmissibilityReport:
    VERDICTS = ("converges", "diverges", "unknown")

    kind: str
    params: dict
    verdict: str                 # one of VERDICTS
    verdict_source: str          # symbolic | numeric-heuristic
    partial_sums: list           # [(K, S_K), ...]
    comparison_class: tuple | None = None
    class_scale: float | None = None
    superexp_coeff: float = 0.0
    tail_estimate: float | None = None
    value: float | None = None   # truncated sum, when meaningful (e.g. gamma)
    meaningful: bool | None = None  # only for the divergence-regime check
    block_sums: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        d = {
            "kind": self.kind,
            "params": self.params,
            "verdict": self.verdict,
            "verdict_source": self.verdict_source,
            "partial_sums": [[int(k), s] for k, s in self.partial_sums],
            "class": list(self.comparison_class) if self.comparison_class else None,
            "tail_bound": self.tail_estimate,
        }
        if self.class_scale is not None:
            d["class_scale"] = self.class_scale
        if self.superexp_coeff:
            d["superexp_coeff"] = self.superexp_coeff
        if self.value is not None:
            d["value"] = self.value
        if self.meaningful is not None:
            d["meaningful"] = self.meaningful
        return d

    def digest(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# series accumulation engine


class _Series:
    """sum_{k=k_start}^{kmax} term(k), fed its terms in chunks.

    The range is cut into pieces between consecutive rungs and dyadic
    points.  ``add`` audits a chunk of terms (finite and nonnegative) and
    feeds it to one ``accum.PieceSums``; a refused chunk is kept and raised
    by ``report``, so that a pass can finish and raise its faults in the
    order the checks state them.
    """

    def __init__(self, k_start: int, kmax: int, ladder):
        if kmax < k_start:
            raise ValueError(f"empty summation range [{k_start}, {kmax}]")
        if kmax - k_start >= MAX_TERMS:
            raise ValueError(f"summation range [{k_start}, {kmax}] has more than "
                             f"{MAX_TERMS} terms")
        self.k_start, self.kmax = k_start, kmax
        self.rungs = sorted({min(r, kmax) for r in ladder if r >= k_start} | {kmax})
        dyadic = {2**j for j in range(int(kmax).bit_length()) if k_start <= 2**j < kmax}
        self.bounds = sorted({k_start - 1, *self.rungs} | dyadic)
        self.pieces = PieceSums([b - k_start + 1 for b in self.bounds])
        self.fault = None

    def add(self, k: int, terms) -> None:
        """Audit and sum the terms at k, k + 1, ..."""
        if self.fault is not None:
            return
        least, most = terms.min(), terms.max()
        if least >= 0.0 and most < math.inf:     # false for any nan, too
            self.pieces.add(k - self.k_start, terms, (least, most))
        else:
            self.fault = ArithmeticError("series terms must be finite and nonnegative")

    def report(self, kind: str, params: dict,
               symbolic_class: WeightExpr | None = None) -> AdmissibilityReport:
        """The report, with the partial sums at the rungs, each the running
        sum of the pieces up to it, and the dyadic block sums (blocks
        (2^j, 2^{j+1}]), each the ``accum.fsum`` of its pieces, for the decay
        heuristic."""
        if self.fault is not None:
            raise self.fault
        pieces = self.pieces.sums()
        through = dict(zip(self.bounds[1:], running_sums(pieces)))
        partial_sums = [(K, through[K]) for K in self.rungs]
        blocks = {}
        for lo, s in zip(self.bounds, pieces):
            blocks.setdefault(int(math.log2(lo)) if lo > 0 else -1, []).append(s)
        top = max(blocks)
        if len(blocks) > 1 and self.kmax < 2 ** (top + 1):
            # the top block (2^j, 2^{j+1}] was cut off at kmax; a truncated
            # block would fake decay in the ratio heuristic
            del blocks[top]
        block_sums = [fsum(blocks[j]) for j in sorted(blocks)]

        if symbolic_class is not None:
            verdict = "converges" if bertrand_converges(symbolic_class) else "diverges"
            source = "symbolic"
            tail = _tail_estimate(symbolic_class, self.kmax)
            cls_tuple = symbolic_class.exponents
            cls_scale = symbolic_class.scale
            sx = symbolic_class.superexp_coeff
        else:
            claim = _heuristic_claim(partial_sums, block_sums)
            verdict = claim if claim != "indeterminate" else "unknown"
            source = "numeric-heuristic"
            tail = None
            cls_tuple = None
            cls_scale = None
            sx = 0.0

        return AdmissibilityReport(
            kind=kind, params=params, verdict=verdict, verdict_source=source,
            partial_sums=partial_sums, comparison_class=cls_tuple,
            class_scale=cls_scale, superexp_coeff=sx, tail_estimate=tail,
            block_sums=block_sums,
        )


def _heuristic_claim(partial_sums, block_sums) -> str:
    """Three-valued claim: converges / diverges / indeterminate.

    Divergence detection extrapolates the dyadic block ratios: for terms in
    the power-log family, log2(B_{j+1}/B_j) ~ (1+a) + b*log2(e)/j, so the
    intercept of a fit against 1/j estimates the power offset 1+a and the
    slope estimates the log exponent b.
    """
    if len(partial_sums) >= 2:
        (_, s_mid), (_, s_hi) = partial_sums[-2], partial_sums[-1]
    else:
        s_mid = s_hi = partial_sums[-1][1]
    if s_hi == s_mid:
        return "converges"
    if s_hi - s_mid < _CONV_REL_TOL * s_mid:
        return "converges"
    tail = block_sums[-8:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0.0]
    if len(ratios) >= 3 and min(ratios) >= _DIVERGE_RATIO_FLOOR:
        j0 = len(block_sums) - len(ratios)
        xs = np.array([1.0 / (j0 + i + 1) for i in range(len(ratios))])
        ys = np.log2(np.asarray(ratios))
        slope, intercept = np.polyfit(xs, ys, 1)
        if intercept > 0.01:
            return "diverges"
        if abs(intercept) <= 0.01 and slope / math.log2(math.e) > -0.95:
            # boundary power class a ~ -1: divergence is decided by the
            # log exponent; near b = -1 the claim stays indeterminate
            return "diverges"
    return "indeterminate"


# exp-sinh (double exponential) trapezoid on [0, inf), Takahasi and Mori 1974:
# t = exp(pi/2 sinh u) at u = k h, h = 1/32, |u| <= 4.5, with weights h dt/du
_DE_U = np.arange(-144, 145) / 32.0
_DE_T = np.exp(0.5 * np.pi * np.sinh(_DE_U))
_DE_W = _DE_T * np.cosh(_DE_U) * (0.5 * np.pi / 32.0)


def _class_integral(cls: WeightExpr, N: float) -> float:
    """int_N^inf cls(x) dx of a converging class s x^a (ln x)^b (lnln x)^c.

    Exact for pure powers; y = ln x maps the class (-1, b, c) at N onto
    (b, c, 0) at ln N, so the chains a = -1 (and then b = -1) end in a pure
    power too.  A log-modified class with a < -1 takes the exp-sinh rule in
    t = ln(x/N) on int_0^inf x cls(x) dt, evaluated in log space."""
    a, b, c = cls.exponents
    if a == -1.0:
        return _class_integral(WeightExpr(cls.scale, b, c), math.log(N))
    if b == c == 0.0:
        return cls.scale * N ** (a + 1.0) / (-a - 1.0)
    L = math.log(N) + _DE_T
    log_x_cls = (a + 1.0) * L + b * np.log(L)
    if c:
        log_x_cls += c * np.log(np.log(L))
    return cls.scale * fsum(_DE_W * np.exp(log_x_cls))


def _tail_estimate(cls: WeightExpr, kmax: int) -> float | None:
    """int_kmax^inf cls(x) dx + cls(kmax + 1) when the class converges, else
    None; superexponential classes take 2 cls(kmax + 1).  The value bounds
    the class remainder sum_{k>kmax} cls(k) whenever cls decreases past kmax."""
    if not bertrand_converges(cls):
        return None
    if cls.superexp_coeff < 0.0:
        # terms decay at least geometrically with ratio <= 1/2 past k=2
        return 2.0 * float(cls(float(kmax + 1)))
    return _class_integral(cls, float(kmax)) + float(cls(kmax + 1.0))


def series_report(kind: str, params: dict, terms, k_start: int, kmax: int,
                  symbolic_class: WeightExpr | None = None,
                  ladder=LADDER) -> AdmissibilityReport:
    """Build a report for sum_{k>=k_start} term(k), summed to kmax, from the
    array ``terms`` of term(k) for k = k_start..kmax: the one-chunk case of
    a check's pass."""
    series = _Series(k_start, kmax, ladder)
    terms = np.asarray(terms, dtype=float)
    if terms.shape != (kmax - k_start + 1,):
        raise ValueError(f"{terms.size} terms given for the summation range "
                         f"[{k_start}, {kmax}]")
    series.add(k_start, terms)
    return series.report(kind, params, symbolic_class)


# ---------------------------------------------------------------------------
# shared pieces


def _ratio_class(num: WeightSeq, den: WeightSeq) -> WeightExpr | None:
    if num.expr is None or den.expr is None:
        return None
    return num.expr / den.expr


def _schedule_start(sched: Schedule, *seqs: WeightSeq) -> int:
    """First k whose n_k clears every operand's start index."""
    n_min = max(s.n0 for s in seqs)
    k = sched.first_k(n_min)
    if k > sched.max_k():
        raise ValueError(f"schedule {sched.describe()} ends before n_k reaches "
                         f"the start index {n_min}")
    return k


def _summation_end(ladder, start: int, sched: Schedule | None = None) -> int:
    """The one summation range rule: every check sums from its start index
    to the ladder top, capped at MAX_TERMS and, along a schedule, at its
    last index.  An empty range is refused."""
    end = min(max(ladder), MAX_TERMS, MAX_TERMS if sched is None else sched.max_k())
    if end < start:
        raise ValueError(f"empty summation range [{start}, {end}]")
    return end


def log_derivative_shift(W: WeightExpr) -> WeightExpr | None:
    """Class of 1 - W_n/W_{n+1}, i.e. of the discrete derivative of log W."""
    if W.n_exp > 0.0:
        return WeightExpr(scale=W.n_exp, n_exp=-1.0)
    if W.n_exp == 0.0 and W.log_exp > 0.0:
        return WeightExpr(scale=W.log_exp, n_exp=-1.0, log_exp=-1.0)
    if W.n_exp == 0.0 and W.log_exp == 0.0 and W.loglog_exp > 0.0:
        return WeightExpr(scale=W.loglog_exp, n_exp=-1.0, log_exp=-1.0, loglog_exp=-1.0)
    return None


def _t21_terms(g, w, out=None, shift=None) -> np.ndarray:
    """The (T21) terms (G_n/W_n)(1 - W_n/W_{n+1}) from the values g of G at
    n = a..b and w of W at n = a..b+1, one index further; ``out`` and
    ``shift``, when given, take the terms and 1 - W_n/W_{n+1}."""
    terms = np.divide(g, w[:-1], out=out)
    shift = np.divide(w[:-1], w[1:], out=shift)
    terms *= np.subtract(1.0, shift, out=shift)
    return terms


def _t21_class(G: WeightSeq, W: WeightSeq) -> WeightExpr | None:
    """Class of the (T21) term (G_n/W_n)(1 - W_n/W_{n+1}), when symbolic."""
    shift = None if W.expr is None else log_derivative_shift(W.expr)
    if G.expr is None or shift is None:
        return None
    return (G.expr / W.expr) * shift


# ---------------------------------------------------------------------------
# the condition checks


def check_weak_admissible(W: WeightSeq, G: WeightSeq, sched: Schedule,
                          xi: GapSeq, p: float, ladder=LADDER):
    """(W1)/(W2) reports for the pair (W, G) along the schedule, from one
    pass over k that evaluates G and W once at each chunk of n_k."""
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    if not p > 1.0:
        raise ValueError("weak admissibility requires p > 1")
    k_start = _schedule_start(sched, W, G)
    kmax = min(_summation_end(ladder, k_start, sched), xi.max_k())

    ratio = _ratio_class(G, W)
    cls1 = None
    if ratio is not None:
        composed = asymptotic_class(ratio, sched)
        cls1 = composed**p if composed is not None else None
    w1, w2 = _Series(k_start, kmax, ladder), _Series(k_start, kmax, ladder)
    n_vals, terms, w = _buffers(3, kmax - k_start + 1)
    with np.errstate(all="ignore"):     # the term audit refuses what overflows
        for a, b in _chunks(k_start, kmax + 1):
            m = b - a
            n_ints = sched.values(b - 1, a)
            np.copyto(n_vals[:m], n_ints, casting="unsafe")
            G.values(n_vals[:m], terms[:m])
            W.values(n_vals[:m], w[:m])
            terms[:m] /= w[:m]
            terms[:m] **= p
            w1.add(a, terms[:m])
            np.divide(xi.values(b - 1, a, n_ints), w[:m], out=terms[:m])
            terms[:m] **= p
            w2.add(a, terms[:m])

    params = {"p": p, "W": W.label, "G": G.label, "schedule": sched.describe()}
    rep1 = w1.report("W1", params, cls1)
    cls2 = None
    if W.expr is not None:
        if xi.mode == "derived":
            gap = sched.gap_class()
            wc = asymptotic_class(W.expr, sched)
            if gap is not None and wc is not None:
                cls2 = (gap / wc) ** p
        elif xi.mode == "expr_of_nk":
            composed = asymptotic_class(xi.expr / W.expr, sched)
            cls2 = composed**p if composed is not None else None
    rep2 = w2.report("W2", params, cls2)
    return rep1, rep2


def check_admissible(W: WeightSeq, G: WeightSeq, sched: Schedule, p: float,
                     ladder=LADDER):
    """(W3)/(W4) reports; W is p-admissible w.r.t. G iff both converge."""
    rep1, rep2 = check_weak_admissible(W, G, sched, GapSeq.derived(sched), p, ladder)
    rep1.kind, rep2.kind = "W3", "W4"
    return rep1, rep2


def _chunks(lo: int, hi: int):
    """(a, b) for the chunks a..b-1 that cover lo..hi-1, cut at the
    multiples of _CHUNK, so that a dyadic piece of a series fills whole
    chunks."""
    while lo < hi:
        b = min((lo // _CHUNK + 1) * _CHUNK, hi)
        yield lo, b
        lo = b


def _buffers(count: int, size: int) -> list:
    """``count`` work arrays for the chunks of a range of ``size`` indices,
    one index longer than a chunk; a pass reuses them for every chunk."""
    return [np.empty(min(size, _CHUNK) + 1) for _ in range(count)]


def _index_chunks(weights, n_start: int, n_end: int, ahead: bool = False):
    """The pass over n = n_start..n_end: (a, m, values) for each chunk, where
    values[i] holds weights[i] at n = a..a+m-1, and at a+m when ``ahead``
    (as (T21) needs), in a work array that the next chunk reuses.  Each
    weight is evaluated once per chunk and audited finite and nondecreasing
    from its own n0 up to n_end + ahead; the audit faults are raised after
    the last chunk, in the order of ``weights``."""
    top = n_end + ahead                               # the last index audited
    audits = [S.audit() for S in weights]
    ns, *values = _buffers(1 + len(weights), top - min(S.n0 for S in weights) + 1)
    offsets = np.arange(ns.size, dtype=float)

    def evaluate(S, audit, a, size, audited, out):
        np.add(offsets[:size], a, out=ns[:size])
        with np.errstate(all="ignore"):               # the audit refuses overflow
            S.values(ns[:size], out[:size])
        audit.add(a, out[:audited])

    for S, audit, out in zip(weights, audits, values):    # from a lower n0 on
        for a, b in _chunks(S.n0, n_start):
            evaluate(S, audit, a, b - a, b - a, out)
    for a, b in _chunks(n_start, top + 1):            # audits n = a..b-1
        for S, audit, out in zip(weights, audits, values):
            evaluate(S, audit, a, b - a + (b <= top and ahead), b - a, out)
        m = min(b, n_end + 1) - a
        if m > 0:
            yield a, m, values
    for audit in audits:
        audit.check()


def check_index_series(G: WeightSeq, W: WeightSeq, kinds, p: float = 1.0,
                       ladder=LADDER) -> dict:
    """Reports of the series over every index n from both start indices,
    one for each of ``kinds``, from one pass (``_index_chunks``):

      "T21"      sum (G_n/W_n)(1 - W_n/W_{n+1});
      "rrr"      sum G_n/W_n, whose divergence marks the meaningful regime;
      "full-W1"  sum (G_n/W_n)^p, not only along a schedule.

    Faults are raised after the pass in the order of separate checks: the
    weights' first, then each series' class and terms in the order of
    ``kinds``.
    """
    if not set(kinds) <= {"T21", "rrr", "full-W1"}:
        raise ValueError(f"unknown index series in {kinds}")
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    n_start = max(G.n0, W.n0)
    n_end = _summation_end(ladder, n_start)
    series = {kind: _Series(n_start, n_end, ladder) for kind in kinds}
    terms, shift = _buffers(2, n_end - n_start + 1)
    for a, m, (g, w) in _index_chunks((G, W), n_start, n_end, "T21" in series):
        with np.errstate(all="ignore"):   # the term audit refuses what overflows
            if "T21" in series:
                series["T21"].add(a, _t21_terms(g[:m], w[:m + 1], terms[:m], shift[:m]))
            if "rrr" in series or "full-W1" in series:
                np.divide(g[:m], w[:m], out=terms[:m])
                if "rrr" in series:
                    series["rrr"].add(a, terms[:m])
                if "full-W1" in series:
                    terms[:m] **= p
                    series["full-W1"].add(a, terms[:m])

    labels = {"G": G.label, "W": W.label}
    reports = {}
    for kind in kinds:
        if kind == "T21":
            name, params, cls = "T21", labels, _t21_class(G, W)
        else:
            cls = _ratio_class(G, W)
            cls = None if cls is None else cls**(1.0 if kind == "rrr" else p)
            name, params = ("RRR-divergence", labels) if kind == "rrr" else \
                ("full-W1", {**labels, "p": p})
        reports[kind] = series[kind].report(name, params, cls)
    if "rrr" in reports:
        reports["rrr"].meaningful = reports["rrr"].verdict == "diverges"
    return reports


def check_T21(G: WeightSeq, W: WeightSeq, ladder=LADDER) -> AdmissibilityReport:
    """Series sum (G_n/W_n)(1 - W_n/W_{n+1})."""
    return check_index_series(G, W, ("T21",), ladder=ladder)["T21"]


def check_rrr(G: WeightSeq, W: WeightSeq, ladder=LADDER) -> AdmissibilityReport:
    """Divergence of sum G_k/W_k; divergence marks the meaningful regime."""
    return check_index_series(G, W, ("rrr",), ladder=ladder)["rrr"]


def _gamma_class(G: WeightSeq, sched: Schedule, alpha: float) -> WeightExpr | None:
    """Class of n_k^alpha / G_k^2, when symbolic."""
    if G.expr is None:
        return None
    composed = asymptotic_class(WeightExpr(n_exp=alpha), sched)
    return None if composed is None else composed * G.expr**-2.0


def _gamma_range(G: WeightSeq, sched: Schedule, alpha: float, ladder):
    """The input validation of (1RT1) and its summation range [k_start, kmax]."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return G.n0, _summation_end(ladder, G.n0, sched)


def class_1RT1(G: WeightSeq, sched: Schedule, alpha: float,
               ladder=LADDER) -> WeightExpr | None:
    """The class of the gamma series of ``check_1RT1``, when symbolic, after
    the same input validation and without its pass: the report's verdict is
    then ``bertrand_converges`` of it."""
    _gamma_range(G, sched, alpha, ladder)
    return _gamma_class(G, sched, alpha)


def check_1RT1(G: WeightSeq, sched: Schedule, alpha: float,
               ladder=LADDER) -> AdmissibilityReport:
    """gamma = sum_k n_k^alpha / G_k^2; returns gamma on convergence.

    Here G is indexed by k directly (not through the schedule).
    """
    k_start, kmax = _gamma_range(G, sched, alpha, ladder)
    series = _Series(k_start, kmax, ladder)
    (terms,) = _buffers(1, kmax - k_start + 1)
    for a, m, (g,) in _index_chunks((G,), k_start, kmax):
        with np.errstate(all="ignore"):   # the term audit refuses what overflows
            np.copyto(terms[:m], sched.values(a + m - 1, a), casting="unsafe")
            terms[:m] **= alpha
            g[:m] **= 2
            terms[:m] /= g[:m]
        series.add(a, terms[:m])
    cls = _gamma_class(G, sched, alpha)
    params = {"alpha": alpha, "G": G.label, "schedule": sched.describe()}
    rep = series.report("RT1gamma", params, cls)
    if rep.verdict == "converges":
        rep.value = rep.partial_sums[-1][1]
    return rep
