"""Summability condition checks behind the admissible-weight calculus.

Every check produces an :class:`AdmissibilityReport` combining a verdict with
numeric partial-sum diagnostics.  Verdicts are *symbolic* (exact, via the
Bertrand convergence region of the term's power-log class) whenever the
operands live in the power-log algebra; otherwise the verdict falls back to a
conservative numeric heuristic and is labeled as such.  Numeric summation can
never prove convergence, so the heuristic only claims a verdict when the
evidence is unambiguous and reports ``unknown`` otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .accum import block_sums, fsum, running_sums
from .weights import GapSeq, Schedule, WeightExpr, WeightSeq, asymptotic_class

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
    "check_full_W1",
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


def _accumulate(terms, k_start: int, kmax: int, rungs) -> tuple[list, list]:
    """Partial sums of sum_{k=k_start}^{K} terms[k - k_start] at the rungs.

    ``terms`` holds every term from k_start to kmax; it is audited once
    (finite and nonnegative) and cut into pieces between consecutive rungs
    and dyadic points, each piece summed by ``accum.block_sums``.  The
    partial sums are ``accum.running_sums`` of the pieces, read at the
    rungs.  Also returns dyadic block sums (blocks (2^j, 2^{j+1}]), each the
    ``accum.fsum`` of its pieces, for the decay heuristic.
    """
    least, most = terms.min(), terms.max()
    if not (least >= 0.0 and most < math.inf):     # false for any nan, too
        raise ArithmeticError("series terms must be finite and nonnegative")
    rungs = sorted({min(r, kmax) for r in rungs if r >= k_start} | {kmax})
    dyadic = {2**j for j in range(int(kmax).bit_length()) if k_start <= 2**j < kmax}
    bounds = sorted({k_start - 1, *rungs} | dyadic)

    pieces = block_sums(terms, [b - k_start + 1 for b in bounds])
    through = dict(zip(bounds[1:], running_sums(pieces)))
    partial_sums = [(K, through[K]) for K in rungs]
    blocks = {}
    for lo, s in zip(bounds, pieces):
        blocks.setdefault(int(math.log2(lo)) if lo > 0 else -1, []).append(s)
    top = max(blocks)
    if len(blocks) > 1 and kmax < 2 ** (top + 1):
        # the top block (2^j, 2^{j+1}] was cut off at kmax; a truncated
        # block would fake decay in the ratio heuristic
        del blocks[top]
    return partial_sums, [fsum(blocks[j]) for j in sorted(blocks)]


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
    array ``terms`` of term(k) for k = k_start..kmax."""
    if kmax < k_start:
        raise ValueError(f"empty summation range [{k_start}, {kmax}]")
    if kmax - k_start >= MAX_TERMS:
        raise ValueError(f"summation range [{k_start}, {kmax}] has more than "
                         f"{MAX_TERMS} terms")
    terms = np.asarray(terms, dtype=float)
    if terms.shape != (kmax - k_start + 1,):
        raise ValueError(f"{terms.size} terms given for the summation range "
                         f"[{k_start}, {kmax}]")
    partial_sums, block_sums = _accumulate(terms, k_start, kmax, ladder)

    if symbolic_class is not None:
        verdict = "converges" if bertrand_converges(symbolic_class) else "diverges"
        source = "symbolic"
        tail = _tail_estimate(symbolic_class, kmax)
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


def _t21_terms(G: WeightSeq, W: WeightSeq, n_start: int, n_end: int) -> np.ndarray:
    """The (T21) terms (G_n/W_n)(1 - W_n/W_{n+1}) for n = n_start..n_end."""
    g = G.prefix(n_end + 1)[n_start - G.n0:]
    w = W.prefix(n_end + 1)[n_start - W.n0:]
    terms = g[:-1] / w[:-1]
    shift = w[:-1] / w[1:]
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
    """(W1)/(W2) reports for the pair (W, G) along the schedule."""
    if not p > 1.0:
        raise ValueError("weak admissibility requires p > 1")
    k_start = _schedule_start(sched, W, G)
    kmax = min(_summation_end(ladder, k_start, sched), xi.max_k())

    # G and W at n_k for k = k_start..kmax, each evaluated once
    n_vals = sched.values(kmax)[k_start - 1:].astype(float)
    terms = G.values(n_vals)
    w = W.values(n_vals)
    del n_vals
    terms /= w
    terms **= p

    ratio = _ratio_class(G, W)
    cls1 = None
    if ratio is not None:
        composed = asymptotic_class(ratio, sched)
        cls1 = composed**p if composed is not None else None
    params = {"p": p, "W": W.label, "G": G.label, "schedule": sched.describe()}
    rep1 = series_report("W1", params, terms, k_start, kmax, cls1, ladder)
    del terms

    terms = np.divide(xi.values(kmax)[k_start - 1:], w, out=w)
    terms **= p

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
    rep2 = series_report("W2", params, terms, k_start, kmax, cls2, ladder)
    return rep1, rep2


def check_admissible(W: WeightSeq, G: WeightSeq, sched: Schedule, p: float,
                     ladder=LADDER):
    """(W3)/(W4) reports; W is p-admissible w.r.t. G iff both converge."""
    rep1, rep2 = check_weak_admissible(W, G, sched, GapSeq.derived(sched), p, ladder)
    rep1.kind, rep2.kind = "W3", "W4"
    return rep1, rep2


def check_T21(G: WeightSeq, W: WeightSeq, ladder=LADDER) -> AdmissibilityReport:
    """Series sum (G_n/W_n)(1 - W_n/W_{n+1})."""
    n_start = max(G.n0, W.n0)
    n_end = _summation_end(ladder, n_start)
    params = {"G": G.label, "W": W.label}
    return series_report("T21", params, _t21_terms(G, W, n_start, n_end), n_start,
                         n_end, _t21_class(G, W), ladder)


def _ratio_power_report(kind: str, params: dict, G: WeightSeq, W: WeightSeq,
                        p: float, ladder) -> AdmissibilityReport:
    """Report for sum (G_n/W_n)^p over every index n from both start indices."""
    n_start = max(G.n0, W.n0)
    n_end = _summation_end(ladder, n_start)
    terms = G.prefix(n_end)[n_start - G.n0:] / W.prefix(n_end)[n_start - W.n0:]
    terms **= p
    cls = _ratio_class(G, W)
    return series_report(kind, params, terms, n_start, n_end,
                         None if cls is None else cls**p, ladder)


def check_rrr(G: WeightSeq, W: WeightSeq, ladder=LADDER) -> AdmissibilityReport:
    """Divergence of sum G_k/W_k; divergence marks the meaningful regime."""
    rep = _ratio_power_report("RRR-divergence", {"G": G.label, "W": W.label}, G, W,
                              1.0, ladder)
    rep.meaningful = rep.verdict == "diverges"
    return rep


def check_full_W1(G: WeightSeq, W: WeightSeq, p: float,
                  ladder=LADDER) -> AdmissibilityReport:
    """Series sum (G_n/W_n)^p over every index n, not only along a schedule."""
    return _ratio_power_report("full-W1", {"G": G.label, "W": W.label, "p": p}, G, W,
                               p, ladder)


def _gamma_class(G: WeightSeq, sched: Schedule, alpha: float) -> WeightExpr | None:
    """Class of n_k^alpha / G_k^2, when symbolic."""
    if G.expr is None:
        return None
    composed = asymptotic_class(WeightExpr(n_exp=alpha), sched)
    return None if composed is None else composed * G.expr**-2.0


def check_1RT1(G: WeightSeq, sched: Schedule, alpha: float,
               ladder=LADDER) -> AdmissibilityReport:
    """gamma = sum_k n_k^alpha / G_k^2; returns gamma on convergence.

    Here G is indexed by k directly (not through the schedule).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    k_start = G.n0
    kmax = _summation_end(ladder, k_start, sched)
    g = G.prefix(kmax)
    terms = sched.values(kmax)[k_start - 1:].astype(float)
    terms **= alpha
    terms /= g**2
    cls = _gamma_class(G, sched, alpha)
    params = {"alpha": alpha, "G": G.label, "schedule": sched.describe()}
    rep = series_report("RT1gamma", params, terms, k_start, kmax, cls, ladder)
    if rep.verdict == "converges":
        rep.value = rep.partial_sums[-1][1]
    return rep
