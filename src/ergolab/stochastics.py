"""Random modulations and Monte Carlo convergence experiments.

Random streams are counter-based (Philox keyed by (seed, sample id)), so the
draw for index k never depends on how many indices were materialized:
extending a ladder never perturbs earlier draws, and reruns are bit-identical
at any thread count (samples are independent tasks; reductions happen in a
fixed order after the parallel map).
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .admissibility import AdmissibilityReport, check_rrr
from .operators import Cocycle, SampleSpace, VectorField
from .transforms import ModulationSeq, TransformTrace, circle_column_sups
from .weights import Schedule, WeightSeq

__all__ = [
    "RandomModulation",
    "MCEstimate",
    "random_sup_stat",
    "random_hilbert",
    "ae_convergence_diag",
    "slln_chain",
    "slln_diagnosis",
    "canonical_hash",
]

_LAWS = ("rademacher", "gaussian", "complex-gaussian", "zero")
_BLOCK_ENTRIES = 1 << 13  # complex running-sum entries per block of one sample


def canonical_hash(obj) -> str:
    """sha256 of the canonical (sorted-keys) JSON form."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _parallel_map(fn, items, threads: int):
    """Ordered map; results are reduced in input order regardless of timing."""
    if threads <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# random modulation streams


class RandomModulation:
    """Symmetric mean-zero i.i.d. stream f_k(y), reproducible from (seed, y, k).

    laws: rademacher (+-1), gaussian (real standard normal), complex-gaussian
    (symmetric, E|f|^2 = 1), zero (deterministic test double).
    """

    def __init__(self, law: str, seed: int):
        if law not in _LAWS:
            raise ValueError(f"unknown law {law!r}; choose from {_LAWS}")
        self.law = law
        self.seed = int(seed)

    def draws(self, y: int, kmax: int, sign: int = 1) -> np.ndarray:
        """f_1(y)..f_kmax(y); prefixes are stable under growing kmax."""
        if kmax < 1:
            raise ValueError("kmax must be >= 1")
        if self.law == "zero":
            return np.zeros(kmax, dtype=complex)
        rng = np.random.Generator(np.random.Philox(key=[self.seed, int(y)]))
        if self.law == "rademacher":
            out = (2.0 * rng.integers(0, 2, kmax) - 1.0).astype(complex)
        elif self.law == "gaussian":
            out = rng.standard_normal(kmax).astype(complex)
        else:
            out = (rng.standard_normal(kmax)
                   + 1j * rng.standard_normal(kmax)) / math.sqrt(2.0)
        return sign * out

    def modulation(self, y: int, kmax: int, sign: int = 1) -> ModulationSeq:
        return ModulationSeq.explicit(self.draws(y, kmax, sign))

    def describe(self) -> dict:
        return {"law": self.law, "seed": self.seed}


# ---------------------------------------------------------------------------
# Monte Carlo estimates


@dataclass
class MCEstimate:
    statistic: str
    per_sample: list
    seed: int
    config: dict
    regime: str                    # "theorem" | "unchecked"
    admissibility_hashes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    final_fields: list = field(default_factory=list, repr=False)  # not serialized

    @property
    def samples(self) -> int:
        return len(self.per_sample)

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_sample))

    @property
    def max(self) -> float:
        return float(np.max(self.per_sample))

    def moment(self, p: float = 2.0) -> float:
        return float(np.mean(np.asarray(self.per_sample) ** p) ** (1.0 / p))

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.per_sample, q))

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "seed": self.seed,
            "samples": self.samples,
            "per_sample": [float(v) for v in self.per_sample],
            "mean": self.mean,
            "max": self.max,
            "moment2": self.moment(2.0),
            "config_hash": canonical_hash(self.config),
            "regime": self.regime,
            "admissibility_hashes": list(self.admissibility_hashes),
            "extra": self.extra,
        }

    def digest(self) -> str:
        return canonical_hash(self.to_json())


def _gate_regime(reports, no_regime_check: bool):
    """All precondition reports must converge for the theorem-regime label."""
    hashes = []
    ok = reports is not None and len(reports) > 0
    for rep in reports or ():
        hashes.append(rep.digest())
        if rep.verdict != "converges":
            ok = False
    if not ok and not no_regime_check and reports is not None:
        bad = [r.kind for r in reports if r.verdict != "converges"]
        raise ValueError(
            f"precondition checks failed ({bad}); rerun with the regime "
            "check disabled to proceed unlabeled")
    return ("theorem" if ok else "unchecked"), hashes


def random_sup_stat(mod: RandomModulation, G: WeightSeq, sched: Schedule,
                    n_ladder, n_lambda: int, samples: int,
                    regime_reports=None, no_regime_check: bool = False,
                    threads: int = 1) -> MCEstimate:
    """Per-sample sup over the ladder and lambda grid of
    |(1/G_n) sum_{k<=n} f_k(y) lam^{n_k}|, with the normalized series
    sum f_k lam^{n_k}/G_k traced alongside."""
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    regime, hashes = _gate_regime(regime_reports, no_regime_check)
    ladder = sorted(int(n) for n in n_ladder)
    n_max = ladder[-1]
    k_start = G.n0
    g = G.prefix(n_max)[k_start - G.n0:]
    cols = np.asarray([n for n in ladder if n >= k_start], dtype=np.int64)
    g_at = g[cols - k_start]

    def one_sample(y: int):
        draws = mod.draws(y, n_max)
        a = ModulationSeq.explicit(draws)
        sups, _ = circle_column_sups(a, sched, n_max, n_lambda, cols, k_start)
        sup_stat = float((sups / g_at).max(initial=0.0))
        # normalized series sum f_k lam^{n_k}/G_k, traced on the same grid
        bound = float(np.abs(draws[k_start - 1:] / g).max(initial=0.0))
        shifted = ModulationSeq.from_fn(
            lambda ks, d=draws, gg=g, k0=k_start: d[ks - 1] / gg[ks - k0],
            bound=bound if bound > 0.0 else 1.0)
        series_sups, _ = circle_column_sups(shifted, sched, n_max, n_lambda,
                                            cols, k_start)
        return sup_stat, series_sups

    results = _parallel_map(one_sample, range(samples), threads)
    per_sample = [r[0] for r in results]
    series_trace = [list(map(float, r[1])) for r in results]
    config = {"statistic": "sup-circle-ladder", "law": mod.describe(),
              "G": G.label, "schedule": sched.describe(),
              "ladder": ladder, "n_lambda": n_lambda, "samples": samples}
    return MCEstimate("sup-circle-ladder", per_sample, mod.seed, config, regime,
                      hashes, extra={"ladder": [int(c) for c in cols],
                                     "series_sup_trace": series_trace})


# ---------------------------------------------------------------------------
# random one-sided ergodic Hilbert transforms over a cocycle


def _cocycle_coefficients(C: Cocycle, h_values, g, n_vals) -> np.ndarray:
    """V[k, w] = h(alpha^{n_k} w) * (T_w ... T_{alpha^{n_k - 1} w}) g, for all
    base points w at once (shared across Monte Carlo samples)."""
    M = C.space.size
    d = C.dim
    g = np.asarray(g, dtype=complex)
    step = C.base.index_map(1)
    V = np.empty((len(n_vals), M, d), dtype=complex)
    # prods[w] = product of the first m fibers along the orbit of w
    prods = np.broadcast_to(np.eye(d, dtype=complex), (M, d, d)).copy()
    idx = np.arange(M)         # alpha^m applied to each w
    m = 0
    for ki, target in enumerate(n_vals.tolist()):
        while m < target:
            prods = np.einsum("wij,wjk->wik", prods, C.fibers[idx])
            idx = step[idx]
            m += 1
        vec = prods @ g
        if h_values is not None:
            vec = vec * h_values[idx][:, None]
        V[ki] = vec
    return V


def random_hilbert(mod, C: Cocycle, h: VectorField | None, g, sched: Schedule,
                   W: WeightSeq, n_ladder, samples: int,
                   regime_reports=None, no_regime_check: bool = False,
                   threads: int = 1) -> MCEstimate:
    """Monte Carlo study of sum_k f_k(y) h(alpha^{n_k} w) T_w...T g / W_k.

    ``mod`` may be a RandomModulation or a deterministic ModulationSeq (then
    the sample count collapses to 1).  Returns per-sample L2 norms of the
    running maximal function, with max-over-w Cauchy gaps between consecutive
    ladder entries in ``extra``.
    """
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    regime, hashes = _gate_regime(regime_reports, no_regime_check)
    ladder = sorted(int(n) for n in n_ladder)
    k_start = W.n0
    kmax = ladder[-1]
    if ladder[0] < k_start:
        raise ValueError(f"ladder starts below the weight start index {k_start}")

    h_values = None
    if h is not None:
        if h.space != C.space or h.dim != 1:
            raise ValueError("h must be a scalar field on the cocycle's space")
        h_values = h.values[:, 0]
    n_vals = sched.values(kmax)
    V = _cocycle_coefficients(C, h_values, g, n_vals)
    terms = V[k_start - 1:]
    w = W.prefix(kmax)[k_start - W.n0:]
    mu = C.space.weights
    rows = np.unique(ladder) - k_start
    # the running sums are taken in blocks of B rows with the last row carried,
    # so that a sample's working set stays O(B M d) instead of O(kmax M d)
    B = max(1, _BLOCK_ENTRIES // (V.shape[1] * V.shape[2]))

    deterministic = isinstance(mod, ModulationSeq)
    if deterministic:
        samples = 1

    def one_sample(y: int):
        if deterministic:
            draws = mod.values(np.arange(1, kmax + 1), n_vals.astype(float))
        else:
            draws = mod.draws(y, kmax)
        coeff = draws[k_start - 1:] / w
        running = np.zeros(V.shape[1])
        S = np.zeros(V.shape[1:], dtype=complex)
        snaps = []
        for lo in range(0, coeff.size, B):
            # row i: S_k = sum_{k_start <= j <= k} coeff_j V_j at k = k_start + lo + i
            blk = coeff[lo:lo + B, None, None] * terms[lo:lo + B]
            blk[0] += S
            np.cumsum(blk, axis=0, out=blk)
            S = blk[-1]
            np.maximum(running, np.linalg.norm(blk, axis=2).max(axis=0), out=running)
            snaps.append(blk[rows[(rows >= lo) & (rows < lo + B)] - lo])
        snaps = np.concatenate(snaps)
        gaps = np.linalg.norm(np.diff(snaps, axis=0), axis=2).max(axis=1)
        maxfn_l2 = float(np.sqrt(np.sum(mu * running**2)))
        return maxfn_l2, gaps.tolist(), snaps[-1]

    results = _parallel_map(one_sample, range(samples), threads)
    per_sample = [r[0] for r in results]
    gaps = [r[1] for r in results]
    config = {"statistic": "hilbert-maximal-L2",
              "law": mod.describe(),
              "W": W.label, "schedule": sched.describe(),
              "ladder": ladder, "samples": samples,
              "space": C.space.describe()}
    est = MCEstimate("hilbert-maximal-L2", per_sample,
                     getattr(mod, "seed", 0), config, regime, hashes,
                     extra={"ladder": ladder, "cauchy_gaps": gaps})
    est.final_fields = [r[2] for r in results]
    return est


# ---------------------------------------------------------------------------
# a.e. convergence diagnostics


@dataclass
class AEDiagnosis:
    verdict: str                 # consistent-with-convergence | inconsistent | indeterminate
    gaps: list
    exponent: float | None
    ladder: list

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "gaps": self.gaps,
                "exponent": self.exponent, "ladder": self.ladder}


def ae_convergence_diag(partials, ladder) -> AEDiagnosis:
    """Cauchy-gap decay surrogate for almost-everywhere convergence.

    ``partials``: array (n_points, n_ladder[, d]) of partial sums at the
    ladder entries, one row per sample point.  The verdict is
    consistent-with-convergence when the max-over-points gaps decrease
    monotonically over the last 4 ladder entries and the fitted log-log decay
    exponent is negative; a flat or growing gap profile is inconsistent.
    """
    arr = np.asarray(partials)
    ladder = [int(n) for n in ladder]
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[1] != len(ladder):
        raise ValueError("one column per ladder entry expected")
    diffs = arr[:, 1:] - arr[:, :-1]
    if diffs.ndim == 3:
        gaps = np.linalg.norm(diffs, axis=2).max(axis=0)
    else:
        gaps = np.abs(diffs).max(axis=0)
    gaps = np.asarray(gaps, dtype=float)

    if np.all(gaps == 0.0):
        return AEDiagnosis("consistent-with-convergence", gaps.tolist(), None, ladder)

    mask = gaps > 0.0
    xs = np.log(np.asarray(ladder[1:], dtype=float)[mask])
    ys = np.log(gaps[mask])
    exponent = None
    if mask.sum() >= 2:
        exponent = float(np.polyfit(xs, ys, 1)[0])

    tail = gaps[-3:] if len(gaps) >= 3 else gaps
    monotone = bool(np.all(np.diff(tail) < 0.0)) or bool(np.all(tail == 0.0))
    if monotone and exponent is not None and exponent < 0.0:
        verdict = "consistent-with-convergence"
    elif exponent is not None and exponent > -0.05 and not monotone:
        verdict = "inconsistent"
    else:
        verdict = "indeterminate"
    return AEDiagnosis(verdict, gaps.tolist(), exponent, ladder)


# ---------------------------------------------------------------------------
# weighted strong law on the circle


def slln_chain(G: WeightSeq, W: WeightSeq, amplitude, n_max: int, M: int,
               seed: int, ladder, sample_points: int):
    """Weighted strong-law chain for the orthogonal fields
    f_k(x) = amplitude(k) e^{2 pi i k x} on the M-point circle grid.

    Returns the trace of ||S_n||_2/W_n, of the weighted series
    sum_{k<=n} f_k/W_k and of its running maximal function, and the series
    at ``sample_points`` seeded grid points, one array per ladder entry
    reached by n_max.
    """
    k_start = max(G.n0, W.n0)
    if n_max < k_start:
        raise ValueError(f"n_max={n_max} is below the start index {k_start}")
    space = SampleSpace.circle(M)
    base = np.exp(2j * np.pi * space.points)    # e^{2 pi i x}; f_k = amp(k) base^k
    phase = np.ones(M, dtype=complex)
    trace = TransformTrace(space_weights=space.weights, p=2.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    sample_idx = np.sort(rng.choice(np.arange(1, M), size=sample_points,
                                    replace=False))
    step = max(1, n_max // 2048)
    record = sorted(set(range(1, n_max + 1, step)) | set(ladder) | {n_max})

    S = np.zeros(M, dtype=complex)
    series = np.zeros(M, dtype=complex)
    snapshots = []
    w_vals = W.prefix(n_max)
    ri = 0
    for n in range(1, n_max + 1):
        phase = phase * base
        f = phase * amplitude(n)
        S += f
        if n >= k_start:
            series += f / w_vals[n - W.n0]
        if n in ladder:
            snapshots.append(series[sample_idx].copy())
        if ri < len(record) and n == record[ri]:
            ri += 1
            if n >= k_start:
                sw = np.abs(series)
                trace.record(n,
                             pointwise=sw,
                             norm_Sn_over_Wn=np.sqrt(np.mean(np.abs(S)**2))
                             / w_vals[n - W.n0],
                             series_partial_norm=np.sqrt(np.mean(sw**2)))
    return trace, snapshots


def slln_diagnosis(G: WeightSeq, W: WeightSeq, snapshots, ladder,
                   n_max: int) -> tuple[AEDiagnosis, AdmissibilityReport]:
    """a.e. diagnosis of the sampled series from ``slln_chain`` and the
    divergence check of sum G_k/W_k that marks the meaningful regime."""
    diag = ae_convergence_diag(np.stack(snapshots, axis=1), ladder)
    rrr = check_rrr(G, W, min(10**6, max(10**5, n_max)))
    return diag, rrr
