"""Weighted series, modulated polynomials and the one-sided ergodic
Hilbert transforms built from them.

Everything here works with explicit truncations.  Suprema over the unit
circle are computed on oversampled grids with a local refinement and are
reported as certified lower bounds / heuristic values, never exact suprema.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import erfc

from .accum import block_sums
from .admissibility import _gamma_class, _t21_class, _tail_estimate
from .operators import (LinearOperator, SampleSpace, Transformation, VectorField,
                        operator_from_json, operator_norm, random_field)
from .weights import Schedule, WeightSeq, twisted_weight

__all__ = [
    "ModulationSeq",
    "TransformTrace",
    "weighted_series",
    "modulated_poly",
    "circle_prefix_rows",
    "circle_column_sups",
    "measure_K",
    "hilbert_partial",
    "hilbert_trace",
    "twisted_bound_check",
    "interpolation_bound",
    "interpolation_bound_check",
    "opnorm_series",
    "sigma_grid",
    "gamma_tail",
    "rearrangement_and_I",
    "I_majorant",
]

_CHUNK = 1 << 21  # complex entries per evaluation chunk


# ---------------------------------------------------------------------------
# modulation sequences


class ModulationSeq:
    """Bounded coefficient sequence {a_k}.

    kinds: constant c; rotation (a_k = lam^{n_k}, |lam| = 1); twist
    (a_k = k^{ir}); explicit list (used for random streams); product of two
    modulations.
    """

    def __init__(self, kind: str, *, c=None, lam=None, r=None, values=None,
                 parts=None):
        self.kind = kind
        self.c = c
        self.r = r
        self.parts = parts
        self._values = None if values is None else np.asarray(values, dtype=complex)
        if kind == "constant":
            self.sup_bound = abs(c)
        elif kind == "rotation":
            if abs(abs(lam) - 1.0) > 1e-12:
                raise ValueError("rotation modulation needs |lam| = 1")
            self.lam = lam / abs(lam)
            self.angle = math.atan2(self.lam.imag, self.lam.real)
            self.sup_bound = 1.0
        elif kind == "twist":
            self.sup_bound = 1.0
        elif kind == "explicit":
            self.sup_bound = float(np.abs(self._values).max(initial=0.0))
        elif kind == "product":
            self.sup_bound = parts[0].sup_bound * parts[1].sup_bound
        else:
            raise ValueError(f"unknown modulation kind {kind!r}")

    @classmethod
    def constant(cls, c) -> "ModulationSeq":
        return cls("constant", c=complex(c))

    @classmethod
    def rotation(cls, lam) -> "ModulationSeq":
        return cls("rotation", lam=complex(lam))

    @classmethod
    def power_twist(cls, r: float) -> "ModulationSeq":
        return cls("twist", r=float(r))

    @classmethod
    def explicit(cls, values) -> "ModulationSeq":
        return cls("explicit", values=values)

    def compose(self, other: "ModulationSeq") -> "ModulationSeq":
        """Termwise product a_k * b_k."""
        return ModulationSeq("product", parts=(self, other))

    def is_zero(self) -> bool:
        if self.kind == "constant":
            return self.c == 0
        if self.kind == "product":
            return self.parts[0].is_zero() or self.parts[1].is_zero()
        return self.sup_bound == 0.0

    def values(self, ks, n_vals=None) -> np.ndarray:
        """a_k for the given k indices; rotation kinds need the n_k values."""
        ks = np.asarray(ks, dtype=np.int64)
        if self.kind == "constant":
            return np.full(ks.shape, self.c, dtype=complex)
        if self.kind == "rotation":
            if n_vals is None:
                raise ValueError("rotation modulation needs schedule values n_k")
            return np.exp(1j * self.angle * np.asarray(n_vals, dtype=float))
        if self.kind == "twist":
            return np.exp(1j * self.r * np.log(ks.astype(float)))
        if self.kind == "explicit":
            if ks.max(initial=0) > len(self._values):
                raise IndexError("explicit modulation is too short")
            return self._values[ks - 1]
        left = self.parts[0].values(ks, n_vals)
        right = self.parts[1].values(ks, n_vals)
        return left * right

    def describe(self) -> dict:
        d = {"kind": self.kind, "bound": self.sup_bound}
        if self.kind == "constant":
            d["c"] = [self.c.real, self.c.imag]
        elif self.kind == "rotation":
            d["lam"] = [self.lam.real, self.lam.imag]
        elif self.kind == "twist":
            d["r"] = self.r
        elif self.kind == "product":
            d["parts"] = [p.describe() for p in self.parts]
        return d


# ---------------------------------------------------------------------------
# traces


class TransformTrace:
    """Per-index records for a transform run.

    Rows are keyed by a strictly increasing index n.  When pointwise norms
    are supplied, the trace maintains the running pointwise maximum (the
    discrete maximal function) and records its L_p norm.
    """

    COLUMNS = ("n", "norm_Sn_over_Wn", "series_partial_norm", "running_max_Lp")

    def __init__(self, space_weights=None, p: float = 2.0):
        self.space_weights = None if space_weights is None else np.asarray(space_weights)
        self.p = float(p)
        self.rows: list[dict] = []
        self._max = None

    def record(self, n: int, *, pointwise=None, norm_Sn_over_Wn=None,
               series_partial_norm=None) -> None:
        if self.rows and n <= self.rows[-1]["n"]:
            raise ValueError("trace indices must be strictly increasing")
        row = {"n": int(n)}
        if norm_Sn_over_Wn is not None:
            row["norm_Sn_over_Wn"] = float(norm_Sn_over_Wn)
        if series_partial_norm is not None:
            row["series_partial_norm"] = float(series_partial_norm)
        if pointwise is not None:
            pointwise = np.asarray(pointwise, dtype=float)
            if self._max is None:
                self._max = pointwise.copy()
            else:
                np.maximum(self._max, pointwise, out=self._max)
            row["running_max_Lp"] = self._lp(self._max)
        self.rows.append(row)

    def _lp(self, arr: np.ndarray) -> float:
        w = self.space_weights
        if w is None:
            w = np.full(arr.shape, 1.0 / arr.size)
        if math.isinf(self.p):
            return float(arr.max(initial=0.0))
        return float(np.sum(w * arr**self.p) ** (1.0 / self.p))

    def to_csv(self, path) -> None:
        present = [c for c in self.COLUMNS
                   if c == "n" or any(c in row for row in self.rows)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(present)
            for row in self.rows:
                writer.writerow([_csv_cell(row.get(c)) for c in present])


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


# ---------------------------------------------------------------------------
# weighted series


def weighted_series(fseq, W: WeightSeq, n: int, k_start: int | None = None):
    """Partial sum sum_{k<=n} f_k/W_k computed two ways.

    Returns (direct, abel) where the Abel form is
    S_n/W_n + sum_{k<n} (1/W_k - 1/W_{k+1}) S_k; the two agree algebraically.
    """
    if k_start is None:
        k_start = W.n0
    if n < max(k_start, W.n0):
        raise ValueError(f"n={n} is below the start index")
    w = W.prefix(n + 1)[k_start - W.n0:]
    S = None
    direct = None
    correction = None
    for k in range(k_start, n + 1):
        f = fseq(k)
        if f is None:
            raise ValueError(f"field f_{k} is undefined")
        S = f.copy() if S is None else S + f
        i = k - k_start
        term = f * (1.0 / w[i])
        direct = term if direct is None else direct + term
        if k < n:
            coeff = 1.0 / w[i] - 1.0 / w[i + 1]
            piece = S * coeff
            correction = piece if correction is None else correction + piece
    abel = S * (1.0 / w[n - k_start])
    if correction is not None:
        abel = abel + correction
    return direct, abel


# ---------------------------------------------------------------------------
# modulated polynomials on the circle


def _schedule_ints(sched: Schedule, n: int) -> np.ndarray:
    """n_1..n_n as exact int64, rejecting n past the schedule's reach."""
    reach = sched.max_k()
    if n > reach:
        raise ValueError(f"schedule {sched.describe()} has only {reach} terms "
                         f"with n_k <= 2^62; n={n} is out of reach")
    return sched.values(n)


def _terms(a: ModulationSeq, sched: Schedule, n: int, k_start: int):
    """(n_k, a_k) for k = k_start..n: the exact int64 indices and the
    coefficients evaluated at them, the one source of both for every series."""
    n_ints = _schedule_ints(sched, n)[k_start - 1:]
    ks = np.arange(k_start, n + 1, dtype=np.int64)
    return n_ints, a.values(ks, n_ints.astype(float))


def modulated_poly(a: ModulationSeq, sched: Schedule, n: int, lam: complex,
                   k_start: int = 1) -> complex:
    """psi_n(lam) = sum_{k<=n} a_k lam^{n_k}; real and imaginary parts fsum'd."""
    if a.is_zero() or n < k_start:
        return 0j
    n_ints, coefs = _terms(a, sched, n, k_start)
    ang = math.atan2(complex(lam).imag, complex(lam).real)
    terms = coefs * np.exp(1j * ang * n_ints.astype(float))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


_BLOCK_ENTRIES = 1 << 18  # complex grid values per block of prefix rows


def _block_rows(M: int, n_cols: int) -> int:
    return min(n_cols, max(1, _BLOCK_ENTRIES // M))


def circle_prefix_rows(coefs, residues, M: int, cols, k_start: int = 1):
    """Blocks of running-prefix rows psi_m(omega^j) = sum_{k_start<=k<=m}
    c_k omega^{j r_k}, j = 0..M-1, omega = e^{2 pi i/M}, for each m in the
    nondecreasing ``cols``.

    ``coefs`` and ``residues`` hold c_k and the exact int64 residues
    r_k = n_k mod M for k = k_start..cols[-1], so every row is one
    unnormalized inverse DFT of the coefficients scattered at their residues
    and no phase is ever rounded.  Yields (b0, X), X[i] being the row of
    cols[b0 + i], in blocks of B = max(1, 2^18 // M) rows; the last prefix
    carries into the next block, so memory stays O(B M + n).  X is one
    reused buffer, valid until the next block is drawn.
    """
    cols = np.asarray(cols, dtype=np.int64)
    B = _block_rows(M, cols.size)
    prefix = np.zeros(M, dtype=complex)
    X_buf = np.empty((B, M), dtype=complex)
    lo = k_start
    for b0 in range(0, cols.size, B):
        block = cols[b0:b0 + B]
        X = X_buf[:block.size]
        hi = int(block[-1])
        sl = slice(lo - k_start, hi - k_start + 1)
        rows = np.searchsorted(block, np.arange(lo, hi + 1), side="left")
        # only the residues hit in this block change between rows
        hit, where = np.unique(residues[sl], return_inverse=True)
        flat = rows * hit.size + where
        size = block.size * hit.size
        D = (np.bincount(flat, coefs[sl].real, size)
             + 1j * np.bincount(flat, coefs[sl].imag, size)).reshape(block.size, hit.size)
        D[0] += prefix[hit]
        np.cumsum(D, axis=0, out=D)
        X[:] = prefix
        X[:, hit] = D
        prefix = X[-1].copy()
        np.fft.ifft(X, axis=1, norm="forward", out=X)
        yield b0, X
        lo = hi + 1


def circle_column_sups(a: ModulationSeq, sched: Schedule, n: int, M: int, cols,
                       k_start: int = 1):
    """max_j |psi_m(omega^j)| over the M-th roots of unity omega^j, and the
    lowest j attaining it, for each m in the nondecreasing ``cols``; the rows
    come from ``circle_prefix_rows`` at the residues n_k mod M.
    """
    if M < 1:
        raise ValueError(f"grid size must be >= 1, got {M}")
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    if cols[0] < k_start or cols[-1] > n or np.any(np.diff(cols) < 0):
        raise ValueError(f"columns must be nondecreasing within [{k_start}, {n}]")
    n_ints, coefs = _terms(a, sched, n, k_start)
    sups = np.empty(cols.size)
    argj = np.empty(cols.size, dtype=np.int64)
    mags_buf = np.empty((_block_rows(M, cols.size), M))
    for b0, X in circle_prefix_rows(coefs, n_ints % M, M, cols, k_start):
        mags = mags_buf[:len(X)]
        np.abs(X, out=mags)
        argj[b0:b0 + len(X)] = mags.argmax(axis=1)
        sups[b0:b0 + len(X)] = mags.max(axis=1)
    return sups, argj


def _grid_guard(M_grid: int | None, degree: int, allow_coarse: bool) -> int:
    # M_grid >= 4 * degree keeps the grid-miss error of the polynomial
    # modulus well below test tolerances
    required = 4 * degree
    if M_grid is None:
        return max(required, 8)
    if M_grid < required and not allow_coarse:
        raise ValueError(
            f"grid of {M_grid} points is too coarse for degree {degree} "
            f"(need >= {required}); pass allow_coarse to override")
    return M_grid


def _refine(a: ModulationSeq, sched: Schedule, n: int, M_grid: int, j: int,
            k_start: int):
    """Bounded 1-d maximization of |psi_n| on the grid cells next to omega^j;
    returns (value, its angle, the angle of omega^j)."""
    def neg(theta):
        return -abs(modulated_poly(a, sched, n, np.exp(1j * theta), k_start))

    theta_j = 2.0 * np.pi * j / M_grid
    h = 2.0 * np.pi / M_grid
    res = minimize_scalar(neg, bounds=(theta_j - h, theta_j + h),
                          method="bounded", options={"xatol": 1e-12})
    return float(-res.fun), float(res.x), theta_j


@dataclass
class KMeasurement:
    K: float
    n_at_max: int
    lam: complex
    grid_size: int
    n_max: int


def measure_K(a: ModulationSeq, sched: Schedule, G: WeightSeq, n_max: int,
              M_grid: int | None = None, allow_coarse: bool = False,
              k_start: int | None = None) -> KMeasurement:
    """Measured sup over n <= n_max and the lambda grid of |psi_n|/G_n.

    The sup runs over every n (not just a ladder) so downstream Abel-type
    bounds can rely on |psi_k| <= K G_k for all k.  Exact grid ties go to
    the lowest grid index, then to the lowest n.
    """
    if k_start is None:
        k_start = G.n0
    M_grid = _grid_guard(M_grid, sched.value(n_max), allow_coarse)
    g = G.prefix(n_max)[k_start - G.n0:]
    if a.is_zero():
        return KMeasurement(0.0, k_start, 1 + 0j, M_grid, n_max)
    cols = np.arange(k_start, n_max + 1)
    sups, argj = circle_column_sups(a, sched, n_max, M_grid, cols, k_start)
    ratios = sups / g
    K_grid = float(ratios.max())
    tied = np.flatnonzero(ratios == K_grid)
    ni = int(tied[np.argmin(argj[tied])])
    n_star = int(cols[ni])
    value, theta_x, theta_j = _refine(a, sched, n_star, M_grid, int(argj[ni]), k_start)
    K = max(K_grid, value / g[ni])
    theta = theta_x if value / g[ni] >= K_grid else theta_j
    return KMeasurement(K, n_star, complex(np.exp(1j * theta)), M_grid, n_max)


# ---------------------------------------------------------------------------
# one-sided ergodic Hilbert transforms


def _require_contraction(T: LinearOperator):
    if not T.contraction:
        raise ValueError("operator must be a contraction")


def hilbert_partial(a: ModulationSeq, T: LinearOperator, sched: Schedule,
                    W: WeightSeq, f: VectorField, n: int,
                    trace: TransformTrace | None = None,
                    k_start: int | None = None) -> VectorField:
    """sum_{k<=n} a_k T^{n_k} f / W_k."""
    _require_contraction(T)
    if k_start is None:
        k_start = W.n0
    if n < k_start:
        raise ValueError(f"n={n} is below the start index {k_start}")
    out = VectorField.zero(f.space, f.dim)
    if a.is_zero():
        return out
    n_ints, coeffs = _terms(a, sched, n, k_start)
    coeffs = coeffs / W.prefix(n)[k_start - W.n0:]

    for i, (k, P) in enumerate(zip(range(k_start, n + 1), T.powers(n_ints))):
        out = out + T.act(P, f) * coeffs[i]
        if trace is not None:
            norms = out.pointwise_norms()
            trace.record(k, pointwise=norms, series_partial_norm=out.norm(trace.p))
    return out


def hilbert_trace(W: WeightSeq, sched: Schedule, n: int, seed: int,
                  lam: float | None = None, operator: dict | None = None) -> TransformTrace:
    """Trace of the transform sum_{k<=n} a_k T^{n_k} f / W_k of a seeded
    random scalar field f, with a_k = 1, or a_k = e^{2 pi i lam n_k} when the
    angle ``lam`` (in turns) is given.

    ``operator`` is a JSON operator description (see operator_from_json); by
    default T is the Koopman operator of x -> x + 1/1024 on a 1024-point grid.
    """
    if lam is not None and not math.isfinite(lam):
        raise ValueError(f"lam must be a finite number, got {lam!r}")
    if operator is not None:
        T = operator_from_json(operator)
        if T.kind == "koopman":
            space, d = T.transformation.space, 1
        elif T.kind == "skew":
            space, d = T.cocycle.space, T.cocycle.dim
        elif T.kind == "matrix":
            space, d = SampleSpace.finite(1), T.matrix.shape[0]
        else:
            space, d = SampleSpace.finite(T.matrix.shape[0]), 1
    else:
        space, d = SampleSpace.circle(1024), 1
        T = LinearOperator.koopman(Transformation.rotation(space, 1))
    a = ModulationSeq.constant(1.0)
    if lam is not None:
        a = a.compose(ModulationSeq.rotation(np.exp(2j * np.pi * lam)))
    f = random_field(space, d, seed=seed)
    trace = TransformTrace(space_weights=space.weights, p=2.0)
    hilbert_partial(a, T, sched, W, f, n, trace=trace)
    return trace


# ---------------------------------------------------------------------------
# bound checks


@dataclass
class BoundReport:
    kind: str
    max_ratio: float
    worst: dict
    entries: list = field(default_factory=list, repr=False)

    def to_json(self) -> dict:
        return {"kind": self.kind, "max_ratio": self.max_ratio,
                "worst": self.worst, "entries": self.entries}


def twisted_bound_check(a: ModulationSeq, sched: Schedule, G: WeightSeq, K: float,
                        rs, n_ladder, n_lambda: int = 256) -> BoundReport:
    """max_lam |sum_{k<=n} a_k k^{ir} lam^{n_k}|  vs  |r| K G_{n,r}."""
    k_start = G.n0
    n_max = max(n_ladder)
    cols = np.asarray(sorted(n_ladder))
    entries = []
    max_ratio = 0.0
    worst = {}
    for r in rs:
        twisted = a.compose(ModulationSeq.power_twist(r))
        lhs, _ = circle_column_sups(twisted, sched, n_max, n_lambda, cols, k_start)
        per_r = 0.0
        for ci, nn in enumerate(cols):
            rhs = abs(r) * K * twisted_weight(G, r, int(nn))
            ratio = float(lhs[ci] / rhs) if rhs > 0 else math.inf
            entries.append({"r": r, "n": int(nn), "lhs": float(lhs[ci]),
                            "rhs": rhs, "ratio": ratio})
            per_r = max(per_r, ratio)
            if ratio > max_ratio:
                max_ratio = ratio
                worst = {"r": r, "n": int(nn), "ratio": ratio}
        entries.append({"r": r, "max_ratio": per_r})
    return BoundReport("twisted-T41", max_ratio, worst, entries)


def interpolation_bound(n: int, a_bound: float, K: float, G_n: float, p: float) -> float:
    """(n a_bound)^{(2-p)/p} (K G_n)^{2(p-1)/p}, with exact endpoint forms."""
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    if p == 2.0:
        return K * G_n
    if p == 1.0:
        return n * a_bound
    t = (2.0 - p) / p
    return (n * a_bound) ** t * (K * G_n) ** (1.0 - t)


def interpolation_bound_check(a: ModulationSeq, T: LinearOperator, sched: Schedule,
                              G: WeightSeq, K: float, p: float, fields,
                              n_ladder, k_start: int | None = None) -> BoundReport:
    """||sum_{k<=n} a_k T^{n_k} f||_p <= bound(n) ||f||_p for each field."""
    if not T.dunford_schwartz:
        raise ValueError("interpolation bound needs a Dunford-Schwartz operator")
    if k_start is None:
        k_start = G.n0
    ladder = sorted(n_ladder)
    n_max = ladder[-1]
    n_ints, coefs = _terms(a, sched, n_max, k_start)
    g_vals = G.prefix(n_max)[k_start - G.n0:]
    entries = []
    max_ratio = 0.0
    worst = {}
    for fi, f in enumerate(fields):
        fnorm = f.norm(p)
        partial = VectorField.zero(f.space, f.dim)
        li = 0
        for i, (k, P) in enumerate(zip(range(k_start, n_max + 1), T.powers(n_ints))):
            partial = partial + T.act(P, f) * coefs[i]
            if li < len(ladder) and k == ladder[li]:
                bound = interpolation_bound(k, a.sup_bound, K,
                                            float(g_vals[i]), p) * fnorm
                lhs = partial.norm(p)
                ratio = lhs / bound if bound > 0 else (0.0 if lhs == 0 else math.inf)
                entries.append({"field": fi, "n": k, "lhs": lhs,
                                "bound": bound, "ratio": ratio})
                if ratio > max_ratio:
                    max_ratio = ratio
                    worst = {"field": fi, "n": k, "ratio": ratio}
                li += 1
    return BoundReport("interpolation-T44", max_ratio, worst, entries)


@dataclass
class OpNormReport:
    gaps: list                   # [(j, n, gap, bound), ...] consecutive pairs
    all_pairs_ok: bool
    gaps_monotone: bool
    K_check_max: float           # max over ladder of ||S_n(A)|| / (K G_n)
    entries: list = field(default_factory=list, repr=False)


def opnorm_series(a: ModulationSeq, ops, sched: Schedule,
                  W: WeightSeq, n_ladder, K: float, G: WeightSeq,
                  tail_N: int = 10**6, k_start: int | None = None) -> list:
    """Operator-norm partial sums of sum a_k A^{n_k}/W_k with the tail bound

        gap(j, n) <= tail(j) + ||S_j(A)/W_j|| + ||S_n(A)/W_n||,
        tail(j) = K sum_{k>=j} (G_k/W_k)(1 - W_k/W_{k+1}),

    for each matrix operator A in ``ops``; returns one report per operator.
    The tail does not depend on A, so it is summed once for all of them.
    """
    for A in ops:
        if A.kind not in ("matrix", "markov"):
            raise ValueError("operator-norm series needs a matrix operator")
        _require_contraction(A)
    if k_start is None:
        k_start = max(W.n0, G.n0)
    ladder = sorted(n_ladder)
    n_max = ladder[-1]

    n_ints, coefs = _terms(a, sched, n_max, k_start)
    w = W.prefix(n_max)[k_start - W.n0:]
    g = G.prefix(n_max)[k_start - G.n0:]

    # tail(j): numeric suffix to tail_N plus the symbolic class remainder
    tail_top = max(tail_N, n_max)
    gt = G.prefix(tail_top + 1)[k_start - G.n0:]
    wt = W.prefix(tail_top + 1)[k_start - W.n0:]
    terms = (gt[:-1] / wt[:-1]) * (1.0 - wt[:-1] / wt[1:])
    cls = _t21_class(G, W)
    est = None if cls is None else _tail_estimate(cls, tail_top)
    cuts = [max(j - k_start, 0) for j in ladder] + [len(terms)]
    blocks = block_sums(terms, cuts) + [0.0 if est is None else est]
    first_block = {j: i for i, j in enumerate(ladder)}

    def tail(j: int) -> float:
        return K * math.fsum(blocks[first_block[j]:])

    return [_opnorm_report(A, n_ints, coefs, w, g, ladder, k_start, K, tail)
            for A in ops]


def _opnorm_report(A: LinearOperator, n_ints, coefs, w, g, ladder,
                   k_start: int, K: float, tail) -> OpNormReport:
    d = A.matrix.shape[0]
    S = np.zeros((d, d), dtype=complex)          # unweighted sum a_k A^{n_k}
    Sw = np.zeros((d, d), dtype=complex)         # weighted sum a_k A^{n_k}/W_k
    snapshots = {}
    li = 0
    for i, (k, P) in enumerate(zip(range(k_start, ladder[-1] + 1), A.powers(n_ints))):
        S = S + coefs[i] * P
        Sw = Sw + (coefs[i] / w[i]) * P
        if li < len(ladder) and k == ladder[li]:
            snapshots[k] = (operator_norm(S) / w[i], Sw.copy())
            li += 1

    entries = []
    all_ok = True
    k_check = 0.0
    for j in ladder:
        nrm, _sw = snapshots[j]
        k_check = max(k_check, nrm * w[j - k_start] / (K * g[j - k_start]))
    for ai in range(len(ladder)):
        for bi in range(ai + 1, len(ladder)):
            j, nn = ladder[ai], ladder[bi]
            gap = operator_norm(snapshots[nn][1] - snapshots[j][1])
            bound = tail(j) + snapshots[j][0] + snapshots[nn][0]
            ok = gap <= bound * (1.0 + 1e-12)
            all_ok = all_ok and ok
            entries.append({"j": j, "n": nn, "gap": float(gap),
                            "bound": float(bound), "ok": ok})
    adjacent = set(zip(ladder, ladder[1:]))
    consecutive = [(e["j"], e["n"], e["gap"], e["bound"]) for e in entries
                   if (e["j"], e["n"]) in adjacent]
    gaps_mono = all(a2[2] <= a1[2] for a1, a2 in zip(consecutive, consecutive[1:]))
    return OpNormReport(consecutive, all_ok, gaps_mono, k_check, entries)


# ---------------------------------------------------------------------------
# the sigma machinery


def gamma_tail(G: WeightSeq, sched: Schedule, alpha: float, N: int) -> float:
    """Upper estimate for sum_{k>N} n_k^alpha / G_k^2 (needs symbolic class)."""
    if G.expr is None:
        raise ValueError("tail estimate needs a symbolic weight")
    cls = _gamma_class(G, sched, alpha)
    if cls is None:
        raise ValueError("tail estimate needs a symbolic schedule")
    tail = _tail_estimate(cls, N)
    if tail is None:
        raise ValueError("gamma series diverges; no tail estimate")
    return tail


def sigma_grid(G: WeightSeq, sched: Schedule, ts, N: int, alpha: float,
               tail: float | None = None):
    """sigma(t) = 2 (sum_k sin^2(n_k t/2)/G_k^2)^{1/2}, truncated at N.

    Returns (lower, upper): the bare truncation and the truncation plus the
    tail majorized through sin^2 x <= |x|^alpha, which keeps the upper
    estimate 0 at t = 0 and below the |t|^{alpha/2} envelope everywhere.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    ts = np.asarray(ts, dtype=float)
    if tail is None:
        tail = gamma_tail(G, sched, alpha, N)
    k_start = G.n0
    g2 = G.prefix(N)[0:] ** 2
    n_half = _schedule_ints(sched, N)[k_start - 1:].astype(float) / 2.0
    inv_g2 = 1.0 / g2
    rows = max(1, _CHUNK // max(len(n_half), 1))
    partial = np.empty(ts.shape)
    for lo_i in range(0, len(ts), rows):
        chunk = ts[lo_i:lo_i + rows]
        s2 = np.sin(np.outer(chunk, n_half)) ** 2
        partial[lo_i:lo_i + rows] = s2 @ inv_g2
    lower = 2.0 * np.sqrt(partial)
    upper = 2.0 * np.sqrt(partial + (np.abs(ts) / 2.0) ** alpha * tail)
    return lower, upper


@dataclass
class RearrangementResult:
    sigma_bar: np.ndarray        # nondecreasing rearrangement (sorted samples)
    I: float
    diverged: bool
    u_min: float
    u_max: float

    def distribution(self, u: float) -> float:
        """m_sigma(u): measure of {t in [0, 2pi] : sigma(t) < u}."""
        count = int(np.searchsorted(self.sigma_bar, u, side="left"))
        return 2.0 * np.pi * count / len(self.sigma_bar)


def rearrangement_and_I(sigma_samples, min_samples: int = 1 << 14,
                        du: float = 1e-3, u_cap: float = 8.0) -> RearrangementResult:
    """Nondecreasing rearrangement of sigma on [0, 2pi] and the integral

        I = int_0^{2pi} sigma_bar(s) ds / (s (log 8pi/s)^{1/2}).

    Quadrature uses s = 8 pi exp(-u^2), under which the measure
    ds/(s sqrt(log 8pi/s)) becomes exactly 2 du, and trapezoid on u; the cap
    u_cap drops only a region where the integrand has decayed (checked).
    """
    samples = np.asarray(sigma_samples, dtype=float)
    if samples.ndim != 1 or len(samples) < min_samples:
        raise ValueError(f"need at least {min_samples} sigma samples on [0, 2pi]")
    if np.any(samples < 0.0):
        raise ValueError("sigma samples must be nonnegative")
    sbar = np.sort(samples)
    quantiles = (np.arange(len(sbar)) + 0.5) / len(sbar) * 2.0 * np.pi

    u_min = math.sqrt(math.log(4.0))
    us = np.arange(u_min, u_cap + du, du)
    ss = 8.0 * np.pi * np.exp(-(us**2))
    vals = np.interp(ss, quantiles, sbar, left=sbar[0], right=sbar[-1])
    integrand = 2.0 * vals
    I = float(np.trapezoid(integrand, us))
    # remaining mass if the integrand froze at its final value: it only fails
    # to be negligible when sigma_bar does not vanish at 0 (true divergence)
    peak = float(integrand.max(initial=0.0))
    diverged = bool(peak > 0.0 and integrand[-1] > 1e-6 * peak)
    return RearrangementResult(sbar, I, diverged, u_min, float(us[-1]))


def I_majorant(alpha: float, gamma: float) -> float:
    """2^{1-alpha/2} sqrt(gamma) int_0^{2pi} s^{alpha/2 - 1} (log 8pi/s)^{-1/2} ds,
    in closed form via the gaussian substitution."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    u_min = math.sqrt(math.log(4.0))
    integral = (2.0 * (8.0 * np.pi) ** (alpha / 2.0)
                * math.sqrt(math.pi / (2.0 * alpha))
                * float(erfc(u_min * math.sqrt(alpha / 2.0))))
    return 2.0 ** (1.0 - alpha / 2.0) * math.sqrt(gamma) * integral
