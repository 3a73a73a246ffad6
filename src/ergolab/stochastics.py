"""Random modulations and Monte Carlo convergence experiments.

Random streams are counter-based (Philox keyed by (seed, sample id)), so the
draw for index k never depends on how many indices were materialized:
extending a ladder never perturbs earlier draws.  Both statistics run their
samples in ordered groups of max(1, 2^14 // n) for n series terms, each group
one stacked kernel call, and no bit depends on the grouping, so reruns are
bit-identical: ``random_sup_stat`` takes a group's draws and normalized series
as the rows of one ``circle_column_sups`` call (one ``circle_prefix_rows``
call, each row with its own bins and sums), and ``random_hilbert`` takes a
group as one series over the samples' stacked coefficients, each sample with
its own products and sequential sums, and over the distinct atoms: atoms
whose term rows are bytewise equal share one series.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .accum import block_sums, running_sums
from .admissibility import (LADDER, AdmissibilityReport, bertrand_converges,
                            check_1RT1, check_rrr, class_1RT1)
from .operators import Cocycle, VectorField, pointwise_norms, skew_operator
from .transforms import (ModulationSeq, TransformTrace, circle_column_sups,
                         circle_prefix_rows, ladder_rows, series_rows)
from .weights import Schedule, WeightSeq

__all__ = [
    "RandomModulation",
    "MCEstimate",
    "random_sup_stat",
    "random_sup_1rt1",
    "random_hilbert",
    "ae_convergence_diag",
    "slln_chain",
    "slln_diagnosis",
    "canonical_hash",
]

_LAWS = ("rademacher", "gaussian", "complex-gaussian", "zero")
_GROUP_TERMS = 1 << 14  # series terms times samples in one Monte Carlo group


def canonical_hash(obj) -> str:
    """sha256 of the canonical (sorted-keys) JSON form."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


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

    def draws(self, y: int, kmax: int) -> np.ndarray:
        """f_1(y)..f_kmax(y); prefixes are stable under growing kmax."""
        if kmax < 1:
            raise ValueError("kmax must be >= 1")
        if self.law == "zero":
            return np.zeros(kmax, dtype=complex)
        rng = np.random.Generator(np.random.Philox(key=[self.seed, int(y)]))
        if self.law == "rademacher":
            return (2.0 * rng.integers(0, 2, kmax) - 1.0).astype(complex)
        if self.law == "gaussian":
            return rng.standard_normal(kmax).astype(complex)
        return (rng.standard_normal(kmax)
                + 1j * rng.standard_normal(kmax)) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Monte Carlo estimates


@dataclass
class MCEstimate:
    statistic: str
    per_sample: list
    seed: int
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

    def to_json(self) -> dict:
        return {
            "statistic": self.statistic,
            "seed": self.seed,
            "samples": self.samples,
            "per_sample": [float(v) for v in self.per_sample],
            "mean": self.mean,
            "max": self.max,
            "moment2": self.moment(2.0),
            "regime": self.regime,
            "admissibility_hashes": list(self.admissibility_hashes),
            "extra": self.extra,
        }


def _gate_regime(reports, no_regime_check: bool):
    """The regime label and the digests of the summed precondition
    ``reports``: "theorem" when every report converges, else "unchecked",
    which refuses the run unless ``no_regime_check``."""
    hashes = []
    ok = reports is not None and len(reports) > 0
    for rep in reports or ():
        hashes.append(rep.digest())
        if rep.verdict != "converges":
            ok = False
    if not ok and not no_regime_check and reports is not None:
        raise _refusal([r.kind for r in reports if r.verdict != "converges"])
    return ("theorem" if ok else "unchecked"), hashes


def _refusal(kinds) -> ValueError:
    return ValueError(f"precondition checks failed ({kinds}); rerun with the "
                      "regime check disabled to proceed unlabeled")


def random_sup_stat(mod: RandomModulation, G: WeightSeq, sched: Schedule,
                    n_ladder, n_lambda: int, samples: int,
                    regime_reports=None,
                    no_regime_check: bool = False) -> MCEstimate:
    """Per-sample sup over the ladder and lambda grid of
    |(1/G_n) sum_{k<=n} f_k(y) lam^{n_k}|, with the normalized series
    sum f_k lam^{n_k}/G_k traced alongside.

    The samples run in ordered groups of max(1, _GROUP_TERMS // n) for n
    terms: one ``circle_column_sups`` over a group's stacked draws and
    normalized series gives every row the sups it would have alone, bit for
    bit.  The schedule is read once per run; the residues and hit residues
    are found once per group.

    ``regime_reports`` are the summed precondition reports that
    ``_gate_regime`` labels the run by; without them the run is "unchecked".
    ``random_sup_1rt1`` gives the (1RT1) report."""
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    regime, hashes = _gate_regime(regime_reports, no_regime_check)
    k_start = G.n0
    ladder = ladder_rows(n_ladder, k_start)
    n_max = ladder[-1]
    g = G.prefix(n_max)
    cols = np.asarray(ladder, dtype=np.int64)
    g_at = g[cols - k_start]
    n_ints = sched.values(n_max)[k_start - 1:]

    def one_group(ys):
        # the first len(ys) rows are the samples' draws f_k, the others their
        # normalized series f_k/G_k traced on the same grid: one kernel call
        rows = np.zeros((2 * len(ys), n_max), dtype=complex)
        for row, y in zip(rows, ys):
            row[:] = mod.draws(y, n_max)
        np.divide(rows[:len(ys), k_start - 1:], g, out=rows[len(ys):, k_start - 1:])
        sups = circle_column_sups(rows[:, k_start - 1:], n_ints, n_lambda, cols,
                                  k_start)[0]
        return [(float((s / g_at).max(initial=0.0)), list(map(float, t)))
                for s, t in zip(sups[:len(ys)], sups[len(ys):])]

    size = max(1, _GROUP_TERMS // len(g))
    results = [r for y0 in range(0, samples, size)
               for r in one_group(range(y0, min(y0 + size, samples)))]
    per_sample = [r[0] for r in results]
    series_trace = [r[1] for r in results]
    return MCEstimate("sup-circle-ladder", per_sample, mod.seed, regime, hashes,
                      extra={"ladder": ladder, "series_sup_trace": series_trace})


def random_sup_1rt1(mod: RandomModulation, G: WeightSeq, sched: Schedule,
                    n_ladder, n_lambda: int, samples: int,
                    no_regime_check: bool = False) -> MCEstimate:
    """``random_sup_stat`` gated on its precondition (1RT1), the series
    gamma = sum_k n_k^{1/2} / G_k^2 of ``check_1RT1`` at alpha = 1/2.

    The series' class comes first from ``class_1RT1``, after the check's own
    input validation.  With the regime check on, a G whose exponents are all
    nonnegative is nondecreasing from n = 3 on, so the pass's weight audit
    cannot refuse it and a symbolic class that does not converge refuses the
    run, with its report's message, before any series is summed.  Every
    other run sums the series and gates on its report.
    """
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    cls = class_1RT1(G, sched, 0.5)
    if (not no_regime_check and cls is not None and min(G.expr.exponents) >= 0
            and not bertrand_converges(cls)):
        raise _refusal(["RT1gamma"])
    return random_sup_stat(mod, G, sched, n_ladder, n_lambda, samples,
                           regime_reports=[check_1RT1(G, sched, 0.5)],
                           no_regime_check=no_regime_check)


# ---------------------------------------------------------------------------
# random one-sided ergodic Hilbert transforms over a cocycle


def _atom_classes(blocks, size: int):
    """(keep, atom_class) for the atoms 0..size-1 of the term blocks (axis 1
    the atom): two atoms share a class when their columns V[:, w] are
    bytewise equal in every block, so -0.0 and +0.0 stay apart.  Each block
    splits the classes by the bytes of its columns, and the scan stops once
    every atom is alone.  ``keep`` holds the first atom of each class, in
    order, and ``atom_class`` the class of each atom."""
    labels = [0] * size
    for V in blocks:
        if len(set(labels)) == size:
            break
        keys = {}
        labels = [keys.setdefault((c, V[:, w].tobytes()), len(keys))
                  for w, c in enumerate(labels)]
    labels = np.asarray(labels)
    return np.unique(labels, return_index=True)[1], labels


def random_hilbert(mod, C: Cocycle, h: VectorField | None, g, sched: Schedule,
                   W: WeightSeq, n_ladder, samples: int,
                   regime_reports=None,
                   no_regime_check: bool = False) -> MCEstimate:
    """Monte Carlo study of sum_k f_k(y) h(alpha^{n_k} w) T_w...T g / W_k.

    ``mod`` may be a RandomModulation or a deterministic ModulationSeq (then
    the sample count collapses to 1).  Returns per-sample L2 norms of the
    running maximal function, with max-over-w Cauchy gaps between consecutive
    ladder entries in ``extra``.

    The blocks of V_k are built once and cut to one atom per class of
    ``_atom_classes``: atoms whose rows V_k(w) are bytewise equal have equal
    sums, norms and maxima, so the series runs over the distinct atoms and
    the results are spread back to every atom.  The samples run in ordered
    groups of max(1, _GROUP_TERMS // n) for n terms: one ``series_rows``
    over the blocks V[:, None] and the group's coefficients as the columns
    of one (n, g) array gives every sample the rows it would have alone,
    bit for bit, at the cost of one pass over the blocks per group.
    """
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    regime, hashes = _gate_regime(regime_reports, no_regime_check)
    k_start = W.n0
    ladder = ladder_rows(n_ladder, k_start)
    kmax = ladder[-1]

    h_values = 1.0
    if h is not None:
        if h.space != C.space or h.dim != 1:
            raise ValueError("h must be a scalar field on the cocycle's space")
        h_values = h.values
    f = VectorField(C.space, np.broadcast_to(h_values * np.asarray(g, dtype=complex),
                                             (C.space.size, C.dim)))
    n_vals = sched.values(kmax)
    # blocks of V_k(w) = (T^{n_k} f)(w) = T_w ... T_{alpha^{n_k - 1} w} g h(alpha^{n_k} w)
    # for the skew operator T of C, shared across Monte Carlo samples
    blocks = list(skew_operator(C).blocks(n_vals[k_start - 1:], f))
    keep, atom_class = _atom_classes(blocks, C.space.size)
    for i, V in enumerate(blocks):      # one full block held at a time
        blocks[i] = V.take(keep, axis=1)
    w = W.prefix(kmax)
    mu = C.space.weights
    rows = np.asarray(ladder) - k_start

    deterministic = isinstance(mod, ModulationSeq)
    if deterministic:
        samples = 1

    def coefficients(y: int):
        if deterministic:
            draws = mod.values(np.arange(1, kmax + 1), n_vals.astype(float))
        else:
            draws = mod.draws(y, kmax)
        return draws[k_start - 1:] / w

    def one_group(ys):
        # column j of the coefficients, and of every row, is sample ys[j]
        coefs = np.stack([coefficients(y) for y in ys], axis=1)
        running = np.zeros((len(ys), len(keep)))
        snaps = []
        for i0, S in series_rows((V[:, None] for V in blocks), coefs):
            np.maximum(running, pointwise_norms(S).max(axis=0), out=running)
            snaps.append(S[rows[(rows >= i0) & (rows < i0 + len(S))] - i0])
        snaps = np.concatenate(snaps).take(atom_class, axis=2)
        gaps = pointwise_norms(np.diff(snaps, axis=0)).max(axis=2)
        return [(float(np.sqrt(np.sum(mu * r**2))), gap.tolist(), final)
                for r, gap, final in zip(running.take(atom_class, axis=1), gaps.T,
                                         snaps[-1])]

    size = max(1, _GROUP_TERMS // len(w))
    results = [r for y0 in range(0, samples, size)
               for r in one_group(range(y0, min(y0 + size, samples)))]
    per_sample = [r[0] for r in results]
    gaps = [r[1] for r in results]
    est = MCEstimate("hilbert-maximal-L2", per_sample,
                     getattr(mod, "seed", 0), regime, hashes,
                     extra={"ladder": ladder, "cauchy_gaps": gaps})
    est.final_fields = [r[2] for r in results]
    return est


# ---------------------------------------------------------------------------
# a.e. convergence diagnostics


@dataclass
class AEDiagnosis:
    VERDICTS = ("consistent-with-convergence", "inconsistent", "indeterminate")

    verdict: str                 # one of VERDICTS
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
        gaps = pointwise_norms(diffs).max(axis=0)
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
    f_k(x) = amplitude(k) e^{2 pi i k x} on the M-point circle grid, with
    real amplitudes.

    Returns the trace of ||S_n||_2/W_n, of the weighted series
    sum_{k<=n} f_k/W_k and of its running maximal function, and the series
    at ``sample_points`` seeded grid points, one array per ladder entry
    reached by n_max.  The series rows come from the exact circle kernel
    ``circle_prefix_rows``; since M > n_max the characters are orthonormal on
    the grid, so both norm columns are exact sums of squares (Parseval).
    The coefficients amplitude(k)/W_k are real, so the kernel yields half
    rows j = 0..M//2 and the value at j > M//2 is conj(row[M - j]): the
    maximal function is kept on the half row, and its L_2 norm weighs
    j = 0 and, for even M, j = M/2 by 1/M and every other j by 2/M, once
    for itself and once for its mirror.
    """
    k_start = max(G.n0, W.n0)
    if n_max < k_start:
        raise ValueError(f"n_max={n_max} is below the start index {k_start}")
    if not any(k_start <= j <= n_max for j in ladder):
        raise ValueError(f"no ladder entry lies in [{k_start}, {n_max}], "
                         "from the start index to n_max")
    if ladder[0] < 1 or ladder[-1] > n_max or \
            any(lo >= hi for lo, hi in zip(ladder, ladder[1:])):
        raise ValueError(f"ladder {list(ladder)} must be strictly increasing "
                         f"within [1, {n_max}]")
    if sum(j >= k_start for j in ladder) < 2:
        raise ValueError(f"only one ladder entry lies in [{k_start}, {n_max}]; "
                         "the a.e. diagnosis needs two for a Cauchy gap")
    if M <= n_max:
        raise ValueError(f"grid of {M} points must exceed n_max={n_max}, so "
                         "that the characters stay distinct on it")
    if not 1 <= sample_points <= M - 1:
        raise ValueError(f"the number of sample points must lie in "
                         f"[1, {M - 1}], got {sample_points}")
    half_weights = np.full(M // 2 + 1, 2.0 / M)
    half_weights[0] = 1.0 / M
    if M % 2 == 0:
        half_weights[-1] = 1.0 / M
    trace = TransformTrace(space_weights=half_weights, p=2.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    sample_idx = np.sort(rng.choice(np.arange(1, M), size=sample_points,
                                    replace=False))
    mirrored = sample_idx > M // 2
    read_idx = np.where(mirrored, M - sample_idx, sample_idx)
    step = max(1, n_max // 2048)
    record = sorted(set(range(1, n_max + 1, step)) | set(ladder) | {n_max})
    cols = [n for n in record if n >= k_start]

    amp = np.fromiter(map(amplitude, range(1, n_max + 1)), float, n_max)
    w = W.prefix(n_max)[k_start - W.n0:]         # W_k for k = k_start..n_max
    coefs = amp[k_start - 1:] / w
    # ||S_n||_2^2 = sum_{k<=n} amp(k)^2 and ||sum_{k_start<=k<=n} c_k e_k||_2^2
    # = sum c_k^2, each partial sum the fsum of its block sums
    amp_sums = running_sums(block_sums(amp**2, [0] + cols))
    coef_sums = running_sums(block_sums(coefs**2, [0] + [n - k_start + 1 for n in cols]))

    snaps = {n: np.zeros(sample_points, dtype=complex) for n in ladder}
    for b0, X in circle_prefix_rows(coefs, np.arange(k_start, n_max + 1), M,
                                    cols, k_start):
        ns = cols[b0:b0 + len(X)]
        for n, row in zip(ns, X):
            if n in snaps:
                vals = row[read_idx]
                snaps[n] = np.where(mirrored, vals.conj(), vals)
        trace.record_block(ns, np.abs(X),
                           [math.sqrt(s) / w[n - k_start]
                            for n, s in zip(ns, amp_sums[b0:b0 + len(ns)])],
                           [math.sqrt(s) for s in coef_sums[b0:b0 + len(ns)]])
    return trace, [snaps[n] for n in ladder]


def slln_diagnosis(G: WeightSeq, W: WeightSeq, snapshots, ladder,
                   n_max: int) -> tuple[AEDiagnosis, AdmissibilityReport]:
    """a.e. diagnosis of the sampled series from ``slln_chain`` and the
    divergence check of sum G_k/W_k that marks the meaningful regime."""
    diag = ae_convergence_diag(np.stack(snapshots, axis=1), ladder)
    top = max(10**5, n_max)
    rrr = check_rrr(G, W, tuple(r for r in LADDER if r < top) + (top,))
    return diag, rrr
