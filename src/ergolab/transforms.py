"""Weighted series, modulated polynomials and the one-sided ergodic
Hilbert transforms built from them.

Everything here works with explicit truncations.  Suprema over the unit
circle are computed on oversampled grids with a local refinement and are
reported as certified lower bounds / heuristic values, never exact suprema;
the one exception is nonnegative coefficients, whose sup is the closed-form
value at lam = 1.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .accum import PieceSums, fsum, running_sums
from .admissibility import (MAX_TERMS, _gamma_class, _index_chunks, _t21_class,
                            _t21_terms, _tail_estimate)
from .operators import (LinearOperator, SampleSpace, Transformation, VectorField,
                        _stacks, lp_norms, operator_from_json, operator_norm,
                        pointwise_norms, random_field)
from .weights import Schedule, WeightSeq, twisted_weight

__all__ = [
    "ModulationSeq",
    "TransformTrace",
    "series_rows",
    "ladder_rows",
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

# ---------------------------------------------------------------------------
# modulation sequences


class ModulationSeq:
    """Bounded coefficient sequence {a_k}.

    kinds: constant c; rotation (a_k = lam^{n_k}, |lam| = 1); twist
    (a_k = k^{ir}); explicit list (any bounded a_k, one row per sample when
    stacked as (S, n)); product of two modulations.  Each
    constructor builds the sequence's values function once; ``sup_bound``
    bounds every |a_k|.
    """

    def __init__(self, values, sup_bound: float):
        self._at = values               # (ks, n_vals) -> a_k
        self.sup_bound = sup_bound

    @classmethod
    def constant(cls, c) -> "ModulationSeq":
        c = complex(c)
        return cls(lambda ks, n_vals: np.full(ks.shape, c, dtype=complex), abs(c))

    @classmethod
    def rotation(cls, lam) -> "ModulationSeq":
        lam = complex(lam)
        if abs(abs(lam) - 1.0) > 1e-12:
            raise ValueError("rotation modulation needs |lam| = 1")
        lam = lam / abs(lam)
        angle = math.atan2(lam.imag, lam.real)

        def at(ks, n_vals):
            if n_vals is None:
                raise ValueError("rotation modulation needs schedule values n_k")
            return np.exp(1j * angle * np.asarray(n_vals, dtype=float))
        return cls(at, 1.0)

    @classmethod
    def power_twist(cls, r: float) -> "ModulationSeq":
        r = float(r)
        return cls(lambda ks, n_vals: np.exp(1j * r * np.log(ks.astype(float))), 1.0)

    @classmethod
    def explicit(cls, values) -> "ModulationSeq":
        stored = np.asarray(values, dtype=complex)

        def at(ks, n_vals):
            if ks.max(initial=0) > stored.shape[-1]:
                raise IndexError("explicit modulation is too short")
            return np.take(stored, ks - 1, axis=-1)
        return cls(at, float(np.abs(stored).max(initial=0.0)))

    def compose(self, other: "ModulationSeq") -> "ModulationSeq":
        """Termwise product a_k * b_k."""
        def at(ks, n_vals):
            return self._at(ks, n_vals) * other._at(ks, n_vals)
        return ModulationSeq(at, self.sup_bound * other.sup_bound)

    def is_zero(self) -> bool:
        return self.sup_bound == 0.0

    def values(self, ks, n_vals=None) -> np.ndarray:
        """a_k for the given k indices; rotation kinds need the n_k values."""
        return self._at(np.asarray(ks, dtype=np.int64), n_vals)


# ---------------------------------------------------------------------------
# traces


class TransformTrace:
    """Per-index records for a transform run.

    Rows are keyed by a strictly increasing index n.  Rows recorded with
    pointwise norms (``record_block``) maintain the running pointwise maximum
    (the discrete maximal function) and record its L_p norm.
    """

    COLUMNS = ("n", "norm_Sn_over_Wn", "series_partial_norm", "running_max_Lp")

    def __init__(self, space_weights=None, p: float = 2.0):
        self.space_weights = None if space_weights is None else np.asarray(space_weights)
        self.p = float(p)
        self.rows: list[dict] = []
        self._max = None

    def record(self, n: int, *, norm_Sn_over_Wn=None,
               series_partial_norm=None) -> None:
        if self.rows and n <= self.rows[-1]["n"]:
            raise ValueError("trace indices must be strictly increasing")
        row = {"n": int(n)}
        if norm_Sn_over_Wn is not None:
            row["norm_Sn_over_Wn"] = float(norm_Sn_over_Wn)
        if series_partial_norm is not None:
            row["series_partial_norm"] = float(series_partial_norm)
        self.rows.append(row)

    def record_block(self, ns, pointwise, norm_Sn_over_Wn, series_partial_norm) -> None:
        """``record`` for the increasing indices ``ns`` at once: row i of the
        2-D float array ``pointwise`` (overwritten by the running maximum)
        and entry i of each column belong to ns[i]."""
        if self._max is not None:
            np.maximum(pointwise[0], self._max, out=pointwise[0])
        # row by row: np.maximum.accumulate along axis 0 walks the block
        # column by column, several times slower on wide rows
        for prev, row in zip(pointwise, pointwise[1:]):
            np.maximum(row, prev, out=row)
        self._max = pointwise[-1].copy()
        w = 1.0 / pointwise.shape[1] if self.space_weights is None else self.space_weights
        for n, lp, a, b in zip(ns, lp_norms(pointwise, w, self.p), norm_Sn_over_Wn,
                               series_partial_norm):
            self.record(n, norm_Sn_over_Wn=a, series_partial_norm=b)
            self.rows[-1]["running_max_Lp"] = lp

    def to_csv(self, path) -> None:
        present = [c for c in self.COLUMNS
                   if c == "n" or any(c in row for row in self.rows)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(present)
            for row in self.rows:
                writer.writerow([row.get(c) for c in present])


# ---------------------------------------------------------------------------
# series of terms


def series_rows(blocks, coefs):
    """Running sums of the series sum_k v_k c_k, one block at a time.

    ``blocks`` yields consecutive stacks of the terms v_k (axis 0 runs over
    k, counted from 0) and ``coefs`` holds the c_k, broadcast from the left
    over each term.  Yields (i0, S) with S[i] = sum_{k <= i0 + i} v_k c_k:
    one product V * c per block, the previous block's last row (0.0 at
    first) added to its first row, then one cumulative sum along axis 0, so
    every row is the same sequential sum at any block size.  The product is
    v_k c_k in this order: a complex product is not bitwise commutative.
    """
    coefs = np.asarray(coefs)
    carry, i0 = 0.0, 0
    for V in blocks:
        c = coefs[i0:i0 + len(V)]
        S = V * c.reshape(c.shape + (1,) * (V.ndim - c.ndim))
        S[0] += carry
        np.cumsum(S, axis=0, out=S)
        yield i0, S
        carry, i0 = S[-1], i0 + len(V)


def ladder_rows(ladder, k_start: int) -> list:
    """The distinct ladder entries, sorted; an entry below the start index
    ``k_start`` has no partial sum and is refused."""
    rows = sorted({int(n) for n in ladder})
    if rows[0] < k_start:
        raise ValueError(f"ladder entry {rows[0]} lies below the start index {k_start}")
    return rows


def weighted_series(fseq, W: WeightSeq, n: int):
    """Partial sum sum_{k<=n} f_k/W_k computed two ways.

    Returns (direct, abel) where the Abel form is
    S_n/W_n + sum_{k<n} (1/W_k - 1/W_{k+1}) S_k; the two agree algebraically.
    Both are ``series_rows``, the Abel form over the running sums S_k.
    """
    if n < W.n0:
        raise ValueError(f"n={n} is below the start index")

    def values(k):
        f = fseq(k)
        if f is None:
            raise ValueError(f"field f_{k} is undefined")
        return f.values

    inv_w = 1.0 / W.prefix(n + 1)                        # k = n0..n+1
    plain, scaled = itertools.tee(_stacks(map(values, range(W.n0, n + 1))))
    sums = (S for _, S in series_rows(plain, np.ones(n - W.n0 + 1)))
    abel_coefs = np.append(inv_w[:-2] - inv_w[1:-1], inv_w[-2])
    for (_, direct), (_, abel) in zip(series_rows(scaled, inv_w[:-1]),
                                      series_rows(sums, abel_coefs)):
        pass
    space = fseq(W.n0).space
    return VectorField(space, direct[-1]), VectorField(space, abel[-1])


# ---------------------------------------------------------------------------
# modulated polynomials on the circle


def _terms(a: ModulationSeq, sched: Schedule, n: int, k_start: int):
    """(a_k, n_k) for k = k_start..n: the coefficients and the exact int64
    indices they are evaluated at, the one source of both for every series."""
    n_ints = sched.values(n)[k_start - 1:]
    ks = np.arange(k_start, n + 1, dtype=np.int64)
    return a.values(ks, n_ints.astype(float)), n_ints


def modulated_poly(coefs, n_ints, lam: complex) -> complex:
    """psi(lam) = sum_k c_k lam^{n_k} over the terms of ``_terms``' arrays
    (or any slice of them); real and imaginary parts fsum'd."""
    ang = math.atan2(complex(lam).imag, complex(lam).real)
    terms = coefs * np.exp(1j * ang * n_ints.astype(float))
    return complex(fsum(terms.real), fsum(terms.imag))


_BLOCK_ENTRIES = 1 << 18  # complex grid values per block of prefix rows


def _block_rows(M: int, n_cols: int, S: int) -> int:
    return min(n_cols, max(1, _BLOCK_ENTRIES // (M * S)))


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

    Coefficients with a leading sample axis, shape (S, K), share the
    residues: each block is then X[s, i], (S, B, M) with B = max(1,
    2^18 // (M S)), from one ``bincount`` whose bins hold one sample's
    terms in k order, one ``cumsum`` and one FFT, so row s is the 1-D row
    of coefs[s] bit for bit.  A block holds S B M <= max(2^18, S M)
    entries, so callers keep S <= max(1, 2^18 // M) to stay within
    max(2^18, M), as ``circle_column_sups`` does.

    The dtype of ``coefs`` is the one switch.  Complex coefficients give
    full rows, X[..., 0..M-1].  Real coefficients (``np.isrealobj``) give
    Hermitian rows, so only the half rows X[..., 0..M//2] are yielded, from
    ``np.fft.rfft`` of a real prefix; the value at j > M//2 is
    conj(X[..., M - j]).
    """
    C = np.asarray(coefs)
    stacked = C.ndim == 2
    C = C.reshape(-1, C.shape[-1])
    S = len(C)
    cols = np.asarray(cols, dtype=np.int64)
    B = _block_rows(M, cols.size, S)
    real = np.isrealobj(C)
    if real:
        # rfft sums against omega^{-j r}: scattered at -r, it gives omega^{+j r}
        residues = -residues % M
    prefix = np.zeros((S, M), dtype=float if real else complex)
    X_buf = np.empty(S * B * M, dtype=prefix.dtype)
    Y_buf = np.empty(S * B * (M // 2 + 1), dtype=complex) if real else None
    lo = k_start
    for b0 in range(0, cols.size, B):
        block = cols[b0:b0 + B]
        X = X_buf[:S * block.size * M].reshape(S, block.size, M)
        hi = int(block[-1])
        sl = slice(lo - k_start, hi - k_start + 1)
        rows = np.searchsorted(block, np.arange(lo, hi + 1), side="left")
        # only the residues hit in this block change between rows
        hit, where = np.unique(residues[sl], return_inverse=True)
        size = block.size * hit.size
        # sample s owns bins s*size.., each filled in k order; a block without
        # terms (a repeated column) counts into int64, hence the astype
        flat = (rows * hit.size + where + size * np.arange(S)[:, None]).ravel()
        D = np.bincount(flat, C[:, sl].real.ravel(), S * size).astype(float, copy=False)
        if not real:
            D = D + 1j * np.bincount(flat, C[:, sl].imag.ravel(), S * size)
        D = D.reshape(S, block.size, hit.size)
        D[:, 0] += prefix[:, hit]
        np.cumsum(D, axis=1, out=D)
        X[:] = prefix[:, None]
        X[:, :, hit] = D
        prefix[:] = X[:, -1]
        if real:
            Y = np.fft.rfft(X, axis=-1, out=Y_buf[:S * block.size * (M // 2 + 1)]
                            .reshape(S, block.size, M // 2 + 1))
        else:
            Y = np.fft.ifft(X, axis=-1, norm="forward", out=X)
        yield b0, (Y if stacked else Y[0])
        lo = hi + 1


def circle_column_sups(coefs, n_ints, M: int, cols, k_start: int = 1):
    """max_j |psi_m(omega^j)| over the M-th roots of unity omega^j, the
    lowest j attaining it, for each m in the nondecreasing ``cols``, and
    whether those sups are the exact closed form rather than grid values.

    ``coefs`` and ``n_ints`` are what ``_terms`` returns for k = k_start..n:
    the coefficients c_k, with any leading sample axis (S, K) giving
    (S, len(cols)) sups and (S,) flags, and the exact int64 n_k.  When every
    c_k of a row is finite, real and >= 0, the triangle inequality gives
    |psi_m(lam)| <= psi_m(1) on the whole circle, so the sup of column m is
    the running sum sum_{k_start<=k<=m} c_k (``accum.running_sums``, exactly
    rounded), attained first at j = 0, and no row is evaluated.  Any other
    row (signed, complex, nan or infinite) takes the rows of
    ``circle_prefix_rows`` at the residues n_k mod M, in stacks of at most
    max(1, 2^18 // M) rows, one call per stack.  A real ``coefs`` gives half
    rows j = 0..M//2: the max is the same and so is the lowest maximizing j,
    since |psi(omega^j)| = |psi(omega^{M-j})|.
    """
    if M < 1:
        raise ValueError(f"grid size must be >= 1, got {M}")
    coefs = np.asarray(coefs)
    lead, n = coefs.shape[:-1], k_start + len(n_ints) - 1
    if coefs.shape[-1] != len(n_ints):
        raise ValueError(f"{coefs.shape[-1]} coefficients for {len(n_ints)} indices n_k")
    cols = np.asarray(cols, dtype=np.int64)
    if cols.size == 0:
        return (np.zeros(lead + (0,)), np.zeros(lead + (0,), dtype=np.int64),
                np.zeros(lead, dtype=bool))
    if cols[0] < k_start or cols[-1] > n or np.any(np.diff(cols) < 0):
        raise ValueError(f"columns must be nondecreasing within [{k_start}, {n}]")
    coefs = coefs.reshape(-1, coefs.shape[-1])
    c = coefs.real
    # real, finite and >= 0 per row: a nan real part makes min() nan and a
    # nan imaginary part counts as nonzero; reductions, and only the rows
    # with min() >= 0 take the other two, so the FFT path pays little
    closed = c.min(axis=1) >= 0
    if closed.any():
        closed[closed] = ~coefs[closed].imag.any(axis=1) & (c[closed].max(axis=1) < np.inf)
    sups = np.empty((len(coefs), cols.size))
    argj = np.zeros(sups.shape, dtype=np.int64)
    for i in np.flatnonzero(closed):
        sups[i] = np.asarray(running_sums(c[i]))[cols - k_start]
    grid = np.flatnonzero(~closed)
    residues = n_ints % M
    # at most 2^18 // M rows per kernel call, so every block holds at most
    # max(2^18, M) entries, as with one row at a time
    step = max(1, _BLOCK_ENTRIES // M)
    mags_buf = np.empty(min(grid.size * cols.size, step) * M)
    for g0 in range(0, grid.size, step):
        part = grid[g0:g0 + step]
        rows = coefs if part.size == len(coefs) else coefs[part]
        for b0, X in circle_prefix_rows(rows, residues, M, cols, k_start):
            mags = np.abs(X, out=mags_buf[:X.size].reshape(X.shape))
            argj[part, b0:b0 + X.shape[1]] = mags.argmax(axis=2)
            sups[part, b0:b0 + X.shape[1]] = mags.max(axis=2)
        del X  # the stack's last block, freed before the next stack's
    shape = lead + (cols.size,)
    return sups.reshape(shape), argj.reshape(shape), closed.reshape(lead)


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


def _refine(coefs, n_ints, M_grid: int, j: int):
    """Golden-section maximization of |psi_n| = |sum_k c_k lam^{n_k}| over
    the given terms on the grid cells next to omega^j, to a bracket of width
    1e-12; returns (value, its angle, the angle of omega^j)."""
    def mod(theta):
        return abs(modulated_poly(coefs, n_ints, np.exp(1j * theta)))

    theta_j = 2.0 * np.pi * j / M_grid
    h = 2.0 * np.pi / M_grid
    lo, hi = theta_j - h, theta_j + h
    r = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - r * (hi - lo), lo + r * (hi - lo)
    f1, f2 = mod(x1), mod(x2)
    while hi - lo > 1e-12:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - r * (hi - lo)
            f1 = mod(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + r * (hi - lo)
            f2 = mod(x2)
    return (f1, x1, theta_j) if f1 >= f2 else (f2, x2, theta_j)


@dataclass
class KMeasurement:
    K: float
    n_at_max: int
    lam: complex
    grid_size: int
    n_max: int


def measure_K(a: ModulationSeq, sched: Schedule, G: WeightSeq, n_max: int,
              M_grid: int | None = None, allow_coarse: bool = False) -> KMeasurement:
    """Measured sup over n <= n_max and the lambda grid of |psi_n|/G_n.

    The sup runs over every n (not just a ladder) so downstream Abel-type
    bounds can rely on |psi_k| <= K G_k for all k.  Exact grid ties go to
    the lowest grid index, then to the lowest n.  Nonnegative coefficients
    take the closed form of ``circle_column_sups``: K is the circle sup
    itself, at lam = 1, with no refinement.  The series is evaluated once,
    and the refinement reads the first terms of its arrays.
    """
    k_start = G.n0
    M_grid = _grid_guard(M_grid, sched.value(n_max), allow_coarse)
    g = G.prefix(n_max)
    if a.is_zero():
        return KMeasurement(0.0, k_start, 1 + 0j, M_grid, n_max)
    cols = np.arange(k_start, n_max + 1)
    coefs, n_ints = _terms(a, sched, n_max, k_start)
    ratios, argj, exact = circle_column_sups(coefs, n_ints, M_grid, cols, k_start)
    ratios /= g
    K_grid = float(ratios.max())
    tied = np.flatnonzero(ratios == K_grid)
    ni = int(tied[np.argmin(argj[tied])])
    n_star = int(cols[ni])
    if exact:
        return KMeasurement(K_grid, n_star, 1 + 0j, M_grid, n_max)
    # psi_{n_star} is the series' first ni + 1 terms
    value, theta_x, theta_j = _refine(coefs[:ni + 1], n_ints[:ni + 1], M_grid,
                                      int(argj[ni]))
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
                    trace: TransformTrace | None = None) -> VectorField:
    """sum_{k<=n} a_k T^{n_k} f / W_k."""
    _require_contraction(T)
    k_start = W.n0
    if n < k_start:
        raise ValueError(f"n={n} is below the start index {k_start}")
    coeffs, n_ints = _terms(a, sched, n, k_start)
    coeffs = coeffs / W.prefix(n)
    for i0, S in series_rows(T.blocks(n_ints, f), coeffs):
        if trace is not None:
            norms = pointwise_norms(S)
            trace.record_block(range(k_start + i0, k_start + i0 + len(S)), norms,
                               [None] * len(S),
                               lp_norms(norms, f.space.weights, trace.p))
    return VectorField(f.space, S[-1])


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
    cols = np.asarray(ladder_rows(n_ladder, k_start))
    n_max = int(cols[-1])
    entries = []
    max_ratio = 0.0
    worst = {}
    for r in rs:
        twisted = a.compose(ModulationSeq.power_twist(r))
        lhs = circle_column_sups(*_terms(twisted, sched, n_max, k_start), n_lambda,
                                 cols, k_start)[0]
        rhss = abs(r) * K * twisted_weight(G, r, cols)
        per_r = 0.0
        for ci, nn in enumerate(cols):
            rhs = float(rhss[ci])
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
                              n_ladder) -> BoundReport:
    """||sum_{k<=n} a_k T^{n_k} f||_p <= bound(n) ||f||_p for each field.

    Each block of powers T^{n_k} is drawn once and applied to every field."""
    if not T.dunford_schwartz:
        raise ValueError("interpolation bound needs a Dunford-Schwartz operator")
    k_start = G.n0
    rows = np.asarray(ladder_rows(n_ladder, k_start)) - k_start
    n_max = k_start + int(rows[-1])
    coefs, n_ints = _terms(a, sched, n_max, k_start)
    g_vals = G.prefix(n_max)
    fields = list(fields)
    sums = [series_rows(map(T.act, powers, itertools.repeat(f)), coefs) for f, powers
            in zip(fields, itertools.tee(T.blocks(n_ints), len(fields)))]
    lhss = [[] for _ in fields]          # ||S_n f||_p at the ladder rows, per field
    for block in zip(*sums):
        for f, lhs, (i0, S) in zip(fields, lhss, block):
            hit = rows[(rows >= i0) & (rows < i0 + len(S))]
            lhs += lp_norms(pointwise_norms(S[hit - i0]), f.space.weights, p)
    entries = []
    max_ratio = 0.0
    worst = {}
    for fi, (f, lhs_f) in enumerate(zip(fields, lhss)):
        fnorm = f.norm(p)
        for i, lhs in zip(rows.tolist(), lhs_f):
            k = k_start + i
            bound = interpolation_bound(k, a.sup_bound, K, float(g_vals[i]), p) * fnorm
            ratio = lhs / bound if bound > 0 else (0.0 if lhs == 0 else math.inf)
            entries.append({"field": fi, "n": k, "lhs": lhs,
                            "bound": bound, "ratio": ratio})
            if ratio > max_ratio:
                max_ratio = ratio
                worst = {"field": fi, "n": k, "ratio": ratio}
    return BoundReport("interpolation-T44", max_ratio, worst, entries)


@dataclass
class OpNormReport:
    gaps: list                   # [(j, n, gap, bound), ...] consecutive pairs
    all_pairs_ok: bool
    gaps_monotone: bool


def opnorm_series(a: ModulationSeq, ops, sched: Schedule,
                  W: WeightSeq, n_ladder, K: float, G: WeightSeq,
                  tail_N: int = MAX_TERMS) -> list:
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
    k_start = max(W.n0, G.n0)
    ladder = ladder_rows(n_ladder, k_start)
    if len(ladder) < 2:
        raise ValueError(f"only one distinct ladder entry lies at or above the start "
                         f"index {k_start}; the operator-norm check needs two for a "
                         "Cauchy gap")
    n_max = ladder[-1]
    # tail(j): numeric suffix to tail_N plus the symbolic class remainder,
    # its blocks between ladder entries summed in one chunked (T21) pass
    tail_top = max(tail_N, n_max)
    pieces = PieceSums([j - k_start for j in ladder] + [tail_top - k_start + 1])
    for i, m, (g, w) in _index_chunks((G, W), k_start, tail_top, ahead=True):
        terms = _t21_terms(g[:m], w[:m + 1])
        pieces.add(i - k_start, terms, (terms.min(), terms.max()))
    del terms                   # not held through the operator powers below

    coefs, n_ints = _terms(a, sched, n_max, k_start)
    w = W.prefix(n_max)[k_start - W.n0:]

    cls = _t21_class(G, W)
    est = None if cls is None else _tail_estimate(cls, tail_top)
    blocks = pieces.sums() + [0.0 if est is None else est]
    first_block = {j: i for i, j in enumerate(ladder)}

    def tail(j: int) -> float:
        return K * fsum(blocks[first_block[j]:])

    return [_opnorm_report(A, n_ints, coefs, w, ladder, k_start, tail) for A in ops]


def _opnorm_report(A: LinearOperator, n_ints, coefs, w, ladder,
                   k_start: int, tail) -> OpNormReport:
    rows = np.asarray(ladder) - k_start
    snapshots = {}
    # S = sum a_k A^{n_k} and Sw = sum a_k A^{n_k}/W_k over one pass of powers
    plain, weighted = itertools.tee(A.blocks(n_ints))
    for (i0, S), (_, Sw) in zip(series_rows(plain, coefs),
                                series_rows(weighted, coefs / w)):
        for i in rows[(rows >= i0) & (rows < i0 + len(S))].tolist():
            snapshots[k_start + i] = (operator_norm(S[i - i0]) / w[i], Sw[i - i0].copy())

    entries = []
    all_ok = True
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
    return OpNormReport(consecutive, all_ok, gaps_mono)


# ---------------------------------------------------------------------------
# the sigma machinery


def gamma_tail(G: WeightSeq, sched: Schedule, alpha: float, N: int) -> float:
    """int_N^inf cls(x) dx + cls(N + 1) for the power-log class cls of
    k -> n_k^alpha / G_k^2 (``_tail_estimate``; needs a symbolic class).  It
    bounds the class remainder sum_{k>N} cls(k) whenever cls decreases past N."""
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
    Each t must round 2 pi j/M for the least power of two M <= 2^22 holding
    all t.  The sum is (C_0 - C_j)/2, C_j = Re sum_k G_k^-2 omega^{j r_k} at
    the exact r_k = n_k mod M, from one real half row of ``circle_prefix_rows``:
    0 at j = 0 mod M, within 2^-53 (6 log2 M + m) C_0, m the most k per residue.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    ts = np.asarray(ts, dtype=float)
    j = np.rint(ts * (2**22 / (2.0 * np.pi)))
    if not (np.isfinite(ts).all() and np.array_equal(2.0 * np.pi * j / 2**22, ts)):
        raise ValueError("sigma angles must be 2 pi j/M, M a power of two <= 2^22")
    j = (j % 2**22).astype(np.int64)
    step = int(np.gcd.reduce(j, initial=2**22))    # the coarsest grid holding all t
    M, j = 2**22 // step, j // step
    if tail is None:
        tail = gamma_tail(G, sched, alpha, N)
    inv_g2 = 1.0 / G.prefix(N) ** 2
    residues = sched.values(N)[G.n0 - 1:] % M
    C = next(circle_prefix_rows(inv_g2, residues, M, [N], G.n0))[1][0].real
    partial = np.maximum(0.5 * (C[0] - C[np.minimum(j, M - j)]), 0.0)  # >= 0 exactly
    return (2.0 * np.sqrt(partial),
            2.0 * np.sqrt(partial + (np.abs(ts) / 2.0) ** alpha * tail))


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


def rearrangement_and_I(sigma_samples) -> RearrangementResult:
    """Nondecreasing rearrangement of sigma on [0, 2pi] and the integral

        I = int_0^{2pi} sigma_bar(s) ds / (s (log 8pi/s)^{1/2}),

    from at least 2^14 samples of sigma.  Quadrature uses s = 8 pi exp(-u^2),
    under which the measure ds/(s sqrt(log 8pi/s)) becomes exactly 2 du, and
    trapezoid on u with step du = 1e-3; the cap u <= 8 drops only a region
    where the integrand has decayed (checked).
    """
    samples = np.asarray(sigma_samples, dtype=float)
    if samples.ndim != 1 or len(samples) < 1 << 14:
        raise ValueError(f"need at least {1 << 14} sigma samples on [0, 2pi]")
    if np.any(samples < 0.0):
        raise ValueError("sigma samples must be nonnegative")
    sbar = np.sort(samples)
    quantiles = (np.arange(len(sbar)) + 0.5) / len(sbar) * 2.0 * np.pi

    u_min = math.sqrt(math.log(4.0))
    us = np.arange(u_min, 8.0 + 1e-3, 1e-3)
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
                * math.erfc(u_min * math.sqrt(alpha / 2.0)))
    return 2.0 ** (1.0 - alpha / 2.0) * math.sqrt(gamma) * integral
