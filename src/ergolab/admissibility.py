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
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .accum import KahanSum
from .weights import GapSeq, Schedule, WeightExpr, WeightSeq, asymptotic_class

__all__ = [
    "LADDER",
    "AdmissibilityReport",
    "bertrand_converges",
    "series_report",
    "check_weak_admissible",
    "check_admissible",
    "check_T21",
    "check_T72",
    "check_T73",
    "check_T322",
    "check_rrr",
    "check_full_W1",
    "check_1RT1",
]

LADDER = (10**2, 10**3, 10**4, 10**5, 10**6)

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
    kind: str
    params: dict
    verdict: str                 # converges | diverges | unknown
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


def _accumulate(term_fn, k_start: int, kmax: int, rungs) -> tuple[list, list, float]:
    """Partial sums of sum_{k=k_start}^{K} term(k) at the requested rungs.

    Accumulation is compensated and strictly ascending in k (deterministic).
    Also returns dyadic block sums (blocks (2^j, 2^{j+1}]) for the decay
    heuristic.
    """
    rungs = sorted({min(r, kmax) for r in rungs if r >= k_start} | {kmax})
    edges = {k_start - 1, kmax} | set(rungs)
    j = 0
    while 2**j < kmax:
        if 2**j >= k_start:
            edges.add(2**j)
        j += 1
    bounds = sorted(e for e in edges if k_start - 1 <= e <= kmax)

    acc = KahanSum()
    partials = {}
    blocks = {}
    for lo, hi in zip(bounds, bounds[1:]):
        pos = lo
        block_acc = 0.0
        while pos < hi:
            sub = min(hi, pos + (1 << 20))
            ks = np.arange(pos + 1, sub + 1, dtype=np.int64)
            vals = np.asarray(term_fn(ks), dtype=float)
            if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
                raise ArithmeticError("series terms must be finite and nonnegative")
            s = math.fsum(vals)
            block_acc += s
            acc.add(s)
            pos = sub
        jlo = int(math.log2(lo)) if lo > 0 else -1
        blocks[jlo] = blocks.get(jlo, 0.0) + block_acc
        if hi in rungs:
            partials[hi] = acc.value

    partial_sums = [(K, partials[K]) for K in rungs]
    top = max(blocks)
    if len(blocks) > 1 and kmax < 2 ** (top + 1):
        # the top block (2^j, 2^{j+1}] was cut off at kmax; a truncated
        # block would fake decay in the ratio heuristic
        del blocks[top]
    block_sums = [blocks[j] for j in sorted(blocks)]
    return partial_sums, block_sums, acc.value


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


def _tail_estimate(cls: WeightExpr, kmax: int) -> float | None:
    """Upper estimate for sum_{k>kmax} cls(k) when the class converges."""
    if not bertrand_converges(cls):
        return None
    if cls.superexp_coeff < 0.0:
        # terms decay at least geometrically with ratio <= 1/2 past k=2
        return 2.0 * float(cls(float(kmax + 1)))
    # integrate over (0, 1] via x = kmax/u; quad mishandles slowly decaying
    # tails on the raw infinite interval
    N = float(kmax)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _err = quad(lambda u: cls(N / u) * N / u**2, 0.0, 1.0, limit=200)
    return float(val) + float(cls(N + 1.0))


def series_report(kind: str, params: dict, term_fn, k_start: int, kmax: int,
                  symbolic_class: WeightExpr | None = None,
                  ladder=LADDER) -> AdmissibilityReport:
    """Build a report for sum_{k>=k_start} term(k)."""
    if kmax < k_start:
        raise ValueError(f"empty summation range [{k_start}, {kmax}]")
    partial_sums, block_sums, _total = _accumulate(term_fn, k_start, kmax, ladder)
    claim = _heuristic_claim(partial_sums, block_sums)

    if symbolic_class is not None:
        verdict = "converges" if bertrand_converges(symbolic_class) else "diverges"
        source = "symbolic"
        tail = _tail_estimate(symbolic_class, kmax)
        cls_tuple = symbolic_class.exponents
        cls_scale = symbolic_class.scale
        sx = symbolic_class.superexp_coeff
    else:
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


def _gap_class(sched: Schedule) -> WeightExpr | None:
    """Class of xi_k = n_{k+1} - n_k for symbolic schedules."""
    if sched.kind in ("power", "monomial"):
        r = float(sched.param)
        return WeightExpr(scale=r, n_exp=r - 1.0)
    if sched.kind == "superexp":
        # n_{k+1} - n_k ~ (k+1)^{k+1} ~ e * k * k^k
        return WeightExpr(scale=math.e, n_exp=1.0, superexp_coeff=1.0)
    return None


def _schedule_start(sched: Schedule, *seqs: WeightSeq) -> int:
    """First k whose n_k clears every operand's start index."""
    n_min = max(s.n0 for s in seqs)
    reach = sched.max_k()
    # gallop, then bisect: n_lo < n_min <= n_hi, with n_0 read as 0
    lo, hi = 0, 1
    while hi < reach and sched.value(hi) < n_min:
        lo, hi = hi, min(2 * hi, reach)
    if reach < 1 or sched.value(hi) < n_min:
        raise ValueError(f"schedule {sched.describe()} ends before n_k reaches "
                         f"the start index {n_min}")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if sched.value(mid) < n_min:
            lo = mid
        else:
            hi = mid
    return hi


def _sched_kmax(sched: Schedule, ladder) -> int:
    return min(max(ladder), sched.max_k())


def log_derivative_shift(W: WeightExpr) -> WeightExpr | None:
    """Class of 1 - W_n/W_{n+1}, i.e. of the discrete derivative of log W."""
    if W.n_exp > 0.0:
        return WeightExpr(scale=W.n_exp, n_exp=-1.0)
    if W.n_exp == 0.0 and W.log_exp > 0.0:
        return WeightExpr(scale=W.log_exp, n_exp=-1.0, log_exp=-1.0)
    if W.n_exp == 0.0 and W.log_exp == 0.0 and W.loglog_exp > 0.0:
        return WeightExpr(scale=W.loglog_exp, n_exp=-1.0, log_exp=-1.0, loglog_exp=-1.0)
    return None


def _t21_class(G: WeightSeq, W: WeightSeq) -> WeightExpr | None:
    """Class of the (T21) term (G_n/W_n)(1 - W_n/W_{n+1}), when symbolic."""
    shift = None if W.expr is None else log_derivative_shift(W.expr)
    if G.expr is None or shift is None:
        return None
    return (G.expr / W.expr) * shift


def twisted_class(G: WeightExpr, r: float) -> WeightExpr | None:
    """Class of G_{n,r} = G_n/|r| + sum_{k<n} G_k/k."""
    a = G.n_exp
    if a > 0.0:
        return WeightExpr(scale=G.scale * (1.0 / abs(r) + 1.0 / a),
                          n_exp=a, log_exp=G.log_exp, loglog_exp=G.loglog_exp)
    if a == 0.0 and G.log_exp > -1.0:
        # sum (ln k)^b (lnln k)^c / k ~ (ln n)^{b+1} (lnln n)^c / (b+1)
        return WeightExpr(scale=G.scale / (G.log_exp + 1.0),
                          log_exp=G.log_exp + 1.0, loglog_exp=G.loglog_exp)
    return None


# ---------------------------------------------------------------------------
# the condition checks


def check_weak_admissible(W: WeightSeq, G: WeightSeq, sched: Schedule,
                          xi: GapSeq, p: float, ladder=LADDER):
    """(W1)/(W2) reports for the pair (W, G) along the schedule."""
    if not p > 1.0:
        raise ValueError("weak admissibility requires p > 1")
    k_start = _schedule_start(sched, W, G)
    kmax = _sched_kmax(sched, ladder)
    if xi.mode == "explicit":
        kmax = min(kmax, len(xi._values))
    if xi.mode == "derived" and sched.kind == "explicit":
        # derived gaps need n_{k+1}, so the last index has no gap
        kmax = min(kmax, len(sched._explicit) - 1)

    n_vals = sched.values(kmax).astype(float)

    def term_w1(ks):
        nv = n_vals[ks - 1]
        return (G.values(nv) / W.values(nv)) ** p

    ratio = _ratio_class(G, W)
    cls1 = None
    if ratio is not None:
        composed = asymptotic_class(ratio, sched)
        cls1 = composed**p if composed is not None else None
    params = {"p": p, "W": W.label, "G": G.label, "schedule": sched.describe()}
    rep1 = series_report("W1", params, term_w1, k_start, kmax, cls1, ladder)

    xi_vals = xi.values(kmax)

    def term_w2(ks):
        nv = n_vals[ks - 1]
        return (xi_vals[ks - 1] / W.values(nv)) ** p

    cls2 = None
    if W.expr is not None:
        if xi.mode == "derived":
            gap = _gap_class(sched)
            wc = asymptotic_class(W.expr, sched)
            if gap is not None and wc is not None:
                cls2 = (gap / wc) ** p
        elif xi.mode == "expr_of_nk":
            composed = asymptotic_class(xi.expr / W.expr, sched)
            cls2 = composed**p if composed is not None else None
    rep2 = series_report("W2", params, term_w2, k_start, kmax, cls2, ladder)
    return rep1, rep2


def check_admissible(W: WeightSeq, G: WeightSeq, sched: Schedule, p: float,
                     ladder=LADDER):
    """(W3)/(W4) reports; W is p-admissible w.r.t. G iff both converge."""
    rep1, rep2 = check_weak_admissible(W, G, sched, GapSeq.derived(sched), p, ladder)
    rep1.kind, rep2.kind = "W3", "W4"
    return rep1, rep2


def check_T21(G: WeightSeq, W: WeightSeq, N_max: int = 10**6,
              ladder=LADDER) -> AdmissibilityReport:
    """Series sum (G_n/W_n)(1 - W_n/W_{n+1})."""
    n_start = max(G.n0, W.n0)
    g = G.prefix(N_max + 1)[n_start - G.n0:]
    w = W.prefix(N_max + 1)[n_start - W.n0:]

    def term(ks):
        i = ks - n_start
        return (g[i] / w[i]) * (1.0 - w[i] / w[i + 1])

    params = {"G": G.label, "W": W.label}
    return series_report("T21", params, term, n_start, N_max, _t21_class(G, W),
                         ladder)


def check_T72(G: WeightSeq, W: WeightSeq, N_max: int = 10**6,
              ladder=LADDER) -> AdmissibilityReport:
    """(T21) with the Abel weight G_{n,1} in place of G_n.

    W is increasing, so |1 - W_n/W_{n+1}| needs no absolute value.
    """
    n_start = max(G.n0, W.n0)
    g = G.prefix(N_max + 1)
    pre = G.twisted_prefix_sums(N_max)  # sums of G_k/k, k = G.n0 .. N
    w = W.prefix(N_max + 1)[n_start - W.n0:]

    def term(ks):
        i = ks - n_start
        gi = ks - G.n0
        # G_{n,1} = G_n + sum_{k=n0}^{n-1} G_k/k
        g_tw = g[gi] + np.where(gi > 0, pre[gi - 1], 0.0)
        return (g_tw / w[i]) * (1.0 - w[i] / w[i + 1])

    cls = None
    if G.expr is not None and W.expr is not None:
        tw = twisted_class(G.expr, 1.0)
        shift = log_derivative_shift(W.expr)
        if tw is not None and shift is not None:
            cls = (tw / W.expr) * shift
    params = {"G": G.label, "W": W.label}
    return series_report("T72", params, term, n_start, N_max, cls, ladder)


def check_T73(W: WeightSeq, beta: float, N_max: int = 10**6,
              ladder=LADDER) -> AdmissibilityReport:
    """Series sum 1/(k^beta W_k)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    w = W.prefix(N_max)

    def term(ks):
        return 1.0 / (ks.astype(float) ** beta * w[ks - W.n0])

    cls = None
    if W.expr is not None:
        cls = (WeightExpr(n_exp=beta) * W.expr) ** -1.0
    return series_report("T73", {"beta": beta, "W": W.label}, term, W.n0, N_max, cls, ladder)


def check_T322(a_values, G: WeightSeq, W: WeightSeq, N_max: int = 10**6,
               ladder=LADDER, increment_class: WeightExpr | str | None = None
               ) -> AdmissibilityReport:
    """Series sum |a_k - a_{k+1}| G_k / W_k.

    ``a_values``: callable k-array -> complex values of the modulation
    (transforms.ModulationSeq.term_values fits).  ``increment_class``: the
    symbolic class of |a_k - a_{k+1}| when known, or "zero" for a constant
    modulation.
    """
    n_start = max(G.n0, W.n0)
    g = G.prefix(N_max)[n_start - G.n0:]
    w = W.prefix(N_max)[n_start - W.n0:]

    def term(ks):
        a_k = np.asarray(a_values(ks))
        a_k1 = np.asarray(a_values(ks + 1))
        i = ks - n_start
        return np.abs(a_k - a_k1) * g[i] / w[i]

    cls = None
    if increment_class == "zero":
        # increments vanish identically; the series is exactly 0
        rep = series_report("T322", {"G": G.label, "W": W.label}, term,
                            n_start, N_max, None, ladder)
        rep.verdict, rep.verdict_source = "converges", "symbolic"
        rep.comparison_class, rep.tail_estimate = None, 0.0
        return rep
    if increment_class is not None and G.expr is not None and W.expr is not None:
        cls = increment_class * (G.expr / W.expr)
    return series_report("T322", {"G": G.label, "W": W.label}, term,
                         n_start, N_max, cls, ladder)


def check_rrr(G: WeightSeq, W: WeightSeq, N_max: int = 10**6,
              ladder=LADDER) -> AdmissibilityReport:
    """Divergence of sum G_k/W_k; divergence marks the meaningful regime."""
    n_start = max(G.n0, W.n0)
    g = G.prefix(N_max)[n_start - G.n0:]
    w = W.prefix(N_max)[n_start - W.n0:]

    def term(ks):
        i = ks - n_start
        return g[i] / w[i]

    cls = _ratio_class(G, W)
    rep = series_report("RRR-divergence", {"G": G.label, "W": W.label}, term,
                        n_start, N_max, cls, ladder)
    rep.meaningful = rep.verdict == "diverges"
    return rep


def check_full_W1(G: WeightSeq, W: WeightSeq, p: float,
                  ladder=LADDER) -> AdmissibilityReport:
    """Series sum (G_n/W_n)^p over every index n, not only along a schedule."""
    n_start = max(G.n0, W.n0)
    n_max = min(max(ladder), 10**6)
    g = G.prefix(n_max)[n_start - G.n0:]
    w = W.prefix(n_max)[n_start - W.n0:]

    def term(ks):
        i = ks - n_start
        return (g[i] / w[i]) ** p

    cls = _ratio_class(G, W)
    if cls is not None:
        cls = cls**p
    return series_report("full-W1", {"G": G.label, "W": W.label, "p": p},
                         term, n_start, n_max, cls, ladder)


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
    kmax = _sched_kmax(sched, ladder)
    g = G.prefix(kmax)
    n_vals = sched.values(kmax).astype(float)

    def term(ks):
        return n_vals[ks - 1] ** alpha / g[ks - G.n0] ** 2

    cls = _gamma_class(G, sched, alpha)
    params = {"alpha": alpha, "G": G.label, "schedule": sched.describe()}
    rep = series_report("RT1gamma", params, term, k_start, kmax, cls, ladder)
    if rep.verdict == "converges":
        rep.value = rep.partial_sums[-1][1]
    return rep
