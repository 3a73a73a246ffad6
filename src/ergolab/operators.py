"""Concrete operator and dynamical-system models.

The Hilbert space of the paper-scale statements is realized as C^d and the
sample space is discretized (circle grid or finite atom space).  Koopman
operators of measure-preserving maps act by index remapping on the grid,
matrix operators act pointwise on the C^d values, Markov operators act across
the atoms of a finite space, and skew operators realize operator cocycles.
Every kind takes its powers T^n from one square-and-multiply over cached
squares, started at its one-step map; index maps compose exactly.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "SampleSpace",
    "Transformation",
    "VectorField",
    "LinearOperator",
    "Cocycle",
    "operator_norm",
    "lp_norms",
    "pointwise_norms",
    "skew_operator",
    "random_field",
    "character_field",
    "operator_from_json",
]

_CONTRACTION_SLACK = 1e-12
_BLOCK_ENTRIES = 1 << 13  # array entries per block of stacked series terms
_TABLE_ENTRIES = 1 << 13  # array entries of the residue table T^0..T^{L-1}


class SampleSpace:
    """Probability space: Lebesgue on [0,1) via an equispaced grid of M
    points, or a uniform finite space of m atoms."""

    def __init__(self, kind: str, size: int):
        if kind not in ("circle", "finite"):
            raise ValueError(f"unknown sample space kind {kind!r}")
        self.kind = kind
        self.size = int(size)
        if kind == "circle":
            if size < 2:
                raise ValueError("circle grid needs M >= 2")
            self.points = np.arange(size) / size
        else:
            if size < 1:
                raise ValueError("finite space needs m >= 1")
            self.points = np.arange(size)
        self.weights = np.full(self.size, 1.0 / self.size)

    @classmethod
    def circle(cls, M: int) -> "SampleSpace":
        return cls("circle", M)

    @classmethod
    def finite(cls, m: int) -> "SampleSpace":
        return cls("finite", m)

    def __eq__(self, other):
        return (isinstance(other, SampleSpace) and self.kind == other.kind
                and self.size == other.size)

    def __hash__(self):
        return hash((self.kind, self.size))


class Transformation:
    """Measure-preserving map on a sample space, kept as its one-step grid
    index map ``step``: x_i -> x_step[i].  Its n-th iterate is the power
    T^n of its Koopman operator.

    rotation(j, M): x -> x + j/M on the matching M-point grid, step
    (i + j) mod M.
    doubling: x -> 2x mod 1 on a grid of M = 2^m points, step 2i mod M
    (non-invertible).
    permutation(pi): atom i -> pi[i] on a finite space, step a copy of pi.
    """

    def __init__(self, kind: str, space: SampleSpace, *, shift: int | None = None,
                 pi=None):
        self.kind = kind
        self.space = space
        self.shift = shift
        M = space.size
        if kind == "rotation":
            if space.kind != "circle":
                raise ValueError("rotation needs a circle space")
            if shift is None:
                raise ValueError("grid rotation needs an integer shift j (theta = j/M)")
            self.step = (np.arange(M) + shift) % M
        elif kind == "doubling":
            if space.kind != "circle":
                raise ValueError("doubling needs a circle grid")
            if M & (M - 1):
                raise ValueError("doubling grid size must be a power of two")
            self.step = np.arange(M) * 2 % M
        elif kind == "permutation":
            if space.kind != "finite":
                raise ValueError("permutation needs a finite space")
            self.step = np.array(pi, dtype=np.int64)
            if sorted(self.step.tolist()) != list(range(M)):
                raise ValueError("pi must be a permutation of 0..m-1")
        else:
            raise ValueError(f"unknown transformation kind {kind!r}")

    @classmethod
    def rotation(cls, space: SampleSpace, shift: int) -> "Transformation":
        return cls("rotation", space, shift=int(shift) % space.size)

    @classmethod
    def doubling(cls, space: SampleSpace) -> "Transformation":
        return cls("doubling", space)

    @classmethod
    def permutation(cls, space: SampleSpace, pi) -> "Transformation":
        return cls("permutation", space, pi=pi)


class VectorField:
    """Sampled C^d-valued function on a sample space, with L_p norms."""

    def __init__(self, space: SampleSpace, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.shape[0] != space.size:
            raise ValueError(f"values have {values.shape[0]} rows, space has {space.size}")
        self.space = space
        self.values = values

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def norm(self, p: float = 2.0) -> float:
        """(integral of |f(x)|_H^p dmu)^(1/p) on the discrete measure."""
        return lp_norms(pointwise_norms(self.values)[None], self.space.weights, p)[0]


def pointwise_norms(values):
    """|v(w)|_H along the last axis of ``values``: the square root of the sum
    of the squares (v.conj() * v).real, bit-equal to
    ``np.linalg.norm(values, axis=-1)``.  Below 8 entries the squares are
    added left to right, which is numpy's own order there and skips the
    cost of a reduction over a short axis; from 8 entries up numpy sums
    pairwise, so ``np.add.reduce`` takes over."""
    values = np.asarray(values)
    prod = np.conjugate(values)     # a new array; a real .conj() is values itself
    np.multiply(prod, values, out=prod)
    squares = prod.real
    d = squares.shape[-1]
    if d >= 8:
        return np.sqrt(np.add.reduce(squares, axis=-1))
    total = squares[..., 0].copy()
    for j in range(1, d):
        total += squares[..., j]
    return np.sqrt(total, out=total)


def lp_norms(h, weights, p: float) -> list:
    """(sum_x weights[x] h[x]^p)^(1/p) of each row of the 2-D ``h`` (its max
    for p = inf), each row one contiguous pairwise sum at any number of rows."""
    if math.isinf(p):
        return h.max(axis=1, initial=0.0).tolist()
    terms = h**p
    terms *= weights
    return [float(s ** (1.0 / p)) for s in np.sum(terms, axis=1)]


def character_field(space: SampleSpace, mode: int) -> VectorField:
    """The scalar field f(x) = e^{2 pi i * mode * x} on a circle space."""
    if space.kind != "circle":
        raise ValueError("characters live on the circle")
    phase = np.exp(2j * np.pi * mode * space.points)
    return VectorField(space, phase[:, None])


def random_field(space: SampleSpace, d: int, seed: int) -> VectorField:
    """Seeded complex Gaussian field (deterministic via Philox)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    vals = rng.standard_normal((space.size, d)) + 1j * rng.standard_normal((space.size, d))
    return VectorField(space, vals / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# spectral norm


def operator_norm(A):
    """Spectral norm, the largest singular value: a float for one matrix, an
    array of norms for a stack (..., d, d)."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2:
        raise ValueError("matrix expected")
    nrm = np.linalg.norm(A, 2, axis=(-2, -1))
    return float(nrm) if A.ndim == 2 else nrm


# ---------------------------------------------------------------------------
# linear operators


class LinearOperator:
    """koopman / matrix / markov / skew operator with audited flags.

    ``contraction`` means spectral norm <= 1 + 1e-12 for matrix kinds.  It
    holds for every skew operator (checked fibers over a base that permutes
    the atoms or grid points) and for every koopman operator but doubling,
    which maps two grid points onto each even one.
    """

    def __init__(self, kind: str, *, matrix=None, transformation: Transformation | None = None,
                 cocycle: "Cocycle | None" = None):
        self.kind = kind
        self.transformation = transformation
        self.cocycle = cocycle
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=complex)
        self.dunford_schwartz = False
        self._table = None                    # (L, T^0..T^{L-1}), see _residues

        if kind == "koopman":
            if transformation is None:
                raise ValueError("koopman operator needs a transformation")
            self._pow_cache = [transformation.step]   # T^{2^b} for b = 0, 1, ...
            self.contraction = transformation.kind != "doubling"
        elif kind in ("matrix", "markov"):
            if self.matrix is None or self.matrix.ndim != 2 or \
                    self.matrix.shape[0] != self.matrix.shape[1]:
                raise ValueError("square matrix required")
            if not np.isfinite(self.matrix).all():
                raise ValueError("matrix has a non-finite entry")
            self._pow_cache = [self.matrix]   # T^{2^b} for b = 0, 1, ...
            self.contraction = operator_norm(self.matrix) <= 1.0 + _CONTRACTION_SLACK
            if kind == "markov":
                P = self.matrix
                rows = np.abs(P.sum(axis=1) - 1.0).max()
                cols = np.abs(P.sum(axis=0) - 1.0).max()
                nonneg = np.all(P.real >= -1e-15) and np.abs(P.imag).max(initial=0.0) < 1e-15
                self.dunford_schwartz = bool(nonneg and rows < 1e-12 and cols < 1e-12)
        elif kind == "skew":
            if cocycle is None:
                raise ValueError("skew operator needs a cocycle")
            self._pow_cache = [(cocycle.fibers, cocycle.base.step)]
            self.contraction = True
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def koopman(cls, transformation: Transformation) -> "LinearOperator":
        return cls("koopman", transformation=transformation)

    @classmethod
    def from_matrix(cls, A) -> "LinearOperator":
        return cls("matrix", matrix=A)

    @classmethod
    def markov(cls, P) -> "LinearOperator":
        return cls("markov", matrix=P)

    # -- powers and action ---------------------------------------------------

    def power(self, n: int):
        """T^n: for koopman the grid index map of the n-th iterate; for matrix
        kinds the matrix; for skew (A, idx) with A[w] = T_w T_{alpha w} ...
        T_{alpha^{n-1} w} and idx the index map of alpha^n.  Every kind comes
        from one square-and-multiply over the cached squares T^{2^b}, in
        ascending b, started at the lowest set bit of n.  Index maps compose
        by gathers, so they stay exact at any n; n times a shift is never
        formed."""
        n = int(n)
        if n < 0:
            raise ValueError("power must be nonnegative")
        if n == 0:
            if self.kind == "koopman":
                return np.arange(self.transformation.space.size)
            if self.kind == "skew":
                c = self.cocycle
                return (np.broadcast_to(np.eye(c.dim, dtype=complex), c.fibers.shape),
                        np.arange(c.space.size))
            return np.eye(self.matrix.shape[0], dtype=complex)
        while (1 << len(self._pow_cache)) <= n:
            last = self._pow_cache[-1]
            self._pow_cache.append(self._compose(last, last))
        out = None
        for bit, square in enumerate(self._pow_cache):
            if n >> bit & 1:
                out = square if out is None else self._compose(out, square)
        return out

    def _compose(self, P, Q):
        """T^{a+b} from P = T^a and Q = T^b.  Either may carry a leading stack
        axis: a stack P with one Q composes every row with Q, two stacks
        compose row by row."""
        if self.kind == "koopman":
            return _take(P, Q, 1)
        if self.kind == "skew":
            (A, i), (B, j) = P, Q
            return np.einsum("...ij,...jk->...ik", A, _take(B, i, 3)), _take(j, i, 1)
        return P @ Q

    def _residues(self):
        """(L, R): L the largest power of two whose L powers fit in
        _TABLE_ENTRIES array entries, at least one, and R the stack of
        T^0..T^{L-1}, built once.  Row 2^b + r is row r composed with the
        cached square T^{2^b}, the last step of ``power``'s ascending fold,
        so row r is bit-equal to power(r)."""
        if self._table is None:
            L = 1 << max(0, (_TABLE_ENTRIES // _entries(self.power(1))).bit_length() - 1)
            R, rows = _each(lambda p: p[None], self.power(0)), 1
            while rows < L:
                square = self.power(rows)
                R = _each(lambda r, s, c: np.concatenate([r, s[None], c]), R, square,
                          self._compose(_each(lambda r: r[1:], R), square))
                rows *= 2
            self._table = L, R
        return self._table

    def powers(self, n_ints, rows: int):
        """Consecutive stacks of the powers T^{n_k}, ``rows`` at a time, for
        the nondecreasing ``n_ints``.  T^n is T^{n mod L} from the residue
        table (see _residues) composed with the quotient power T^{L q},
        q = floor(n/L), which is stepped along the series: each new one is
        the previous one composed with power(L (q_k - q_{k-1})).  A block
        takes its quotient powers as they are for the rows with residue 0
        and composes the other rows in one batched product; with L = 1 every
        row is a stepped power.  Apply them to the original field with
        ``act``: stepping the field (v <- T v) instead leaves many cocycle
        entries denormal, which slows every later product."""
        L, R = self._residues()
        quot, res = np.divmod(np.asarray(n_ints, dtype=np.int64), L)
        Q, prev = None, 0
        for s in range(0, len(quot), rows):
            distinct, at = np.unique(quot[s:s + rows], return_inverse=True)
            stepped = []
            for q in distinct.tolist():
                if Q is None:
                    Q = self.power(L * q)
                elif q != prev:
                    Q = self._compose(Q, self.power(L * (q - prev)))
                prev = q
                stepped.append(Q)
            r = res[s:s + rows]
            hit = np.flatnonzero(r)
            if len(stepped) == 1 and not len(hit):   # every row is Q: no copy
                P = _each(lambda p: np.broadcast_to(p, (len(r),) + p.shape), Q)
            else:
                P = _each(lambda *ps: np.stack(ps)[at], *stepped)
            if len(hit):
                mixed = self._compose(_each(lambda t: t[r[hit]], R),
                                      _each(lambda p: p[hit], P))
                for p, m in zip(_parts(P), _parts(mixed)):
                    p[hit] = m
            yield P

    def blocks(self, n_ints, f: VectorField | None = None):
        """Consecutive stacks of the terms T^{n_k} f (``act`` of a stack of
        powers) for the nondecreasing ``n_ints``, or of the powers T^{n_k}
        themselves when ``f`` is None: the one block source of every
        operator series.  A block holds as many powers, and as many terms,
        as fit in _BLOCK_ENTRIES array entries, at least one, so a series
        holds one block, not all n terms."""
        entries = _entries(self.power(1))
        if f is not None:
            entries = max(entries, f.values.size)
        powers = self.powers(n_ints, max(1, _BLOCK_ENTRIES // entries))
        return powers if f is None else (self.act(P, f) for P in powers)

    def act(self, P, f: VectorField):
        """T^n f as a VectorField for a power P = power(n); for a stack of
        powers (a leading axis, as ``blocks`` yields them) the array of the
        values T^{n_k} f, one row per power.  Rows are gathered with ``take``,
        which is several times faster than fancy indexing on small arrays."""
        if self.kind == "koopman":
            if f.space != self.transformation.space:
                raise ValueError("field lives on a different space")
            values = f.values.take(P, axis=0)
        elif self.kind == "matrix":
            if f.dim != self.matrix.shape[0]:
                raise ValueError(f"field dimension {f.dim} != operator dimension "
                                 f"{self.matrix.shape[0]}")
            values = f.values @ np.swapaxes(P, -1, -2)
        elif self.kind == "markov":
            if f.space.kind != "finite" or f.space.size != self.matrix.shape[0]:
                raise ValueError("markov operator needs a matching finite space")
            values = P @ f.values
        else:
            # skew: (T^n f)(w) = A[w] f(alpha^n w)
            if f.space != self.cocycle.space:
                raise ValueError("field lives on a different space")
            A, idx = P
            values = np.einsum("...ij,...j->...i", A, f.values.take(idx, axis=0))
        return VectorField(f.space, values) if values.ndim == 2 else values


def _parts(P) -> tuple:
    """The arrays of a power or a stack of powers: a skew power is the pair
    (A, idx), any other one array."""
    return P if isinstance(P, tuple) else (P,)


def _each(fn, *powers):
    """``fn`` over the powers or stacks of powers ``powers``, part by part."""
    out = tuple(map(fn, *map(_parts, powers)))
    return out if isinstance(powers[0], tuple) else out[0]


def _take(X, idx, ndim: int):
    """``X.take(idx, axis=0)`` for one power's array X of ``ndim`` axes; for
    a stack X (one more leading axis) row s of ``idx`` gathers from X[s]."""
    if X.ndim > ndim:
        idx = idx + np.arange(0, len(X) * X.shape[1], X.shape[1])[:, None]
        X = X.reshape((-1,) + X.shape[2:])
    return X.take(idx, axis=0)


def _entries(P) -> int:
    """Array entries of the power P."""
    return sum(p.size for p in _parts(P))


def _stacks(terms):
    """``np.stack`` of consecutive runs of the equal-shape arrays ``terms``,
    each run as many as fit in _BLOCK_ENTRIES entries, at least one."""
    terms = iter(terms)
    for first in terms:
        rows = max(1, _BLOCK_ENTRIES // first.size)
        yield np.stack([first, *itertools.islice(terms, rows - 1)])


# ---------------------------------------------------------------------------
# cocycles


class Cocycle:
    """Family of fiber contractions driven by a base transformation.

    One d x d contraction per atom or grid point of an invertible base map.
    """

    def __init__(self, base: Transformation, fibers):
        if base.kind == "doubling":
            raise ValueError("a cocycle needs an invertible base map, not doubling")
        self.base = base
        self.space = base.space
        fibers = np.asarray(fibers, dtype=complex)
        if fibers.ndim != 3 or fibers.shape[0] != self.space.size or \
                fibers.shape[1] != fibers.shape[2]:
            raise ValueError("fibers must be (space.size, d, d)")
        bad = np.flatnonzero(~np.isfinite(fibers).all(axis=(1, 2)))
        if len(bad):
            raise ValueError(f"fiber {bad[0]} has a non-finite entry")
        bad = np.flatnonzero(operator_norm(fibers) > 1.0 + _CONTRACTION_SLACK)
        if len(bad):
            raise ValueError(f"fiber {bad[0]} is not a contraction")
        self.fibers = fibers

    @property
    def dim(self) -> int:
        return self.fibers.shape[1]

    @classmethod
    def constant(cls, base: Transformation, T) -> "Cocycle":
        T = np.asarray(T, dtype=complex)
        return cls(base, np.broadcast_to(T, (base.space.size,) + T.shape).copy())


def skew_operator(C: Cocycle) -> LinearOperator:
    """The operator (Tf)(w) = T_w f(alpha(w)), a contraction by construction."""
    return LinearOperator("skew", cocycle=C)


# ---------------------------------------------------------------------------
# JSON loading


MAX_SPACE_ATOMS = 1 << 20  # atoms or grid points of a sample space read from JSON


def operator_from_json(desc: dict) -> LinearOperator:
    """Load {kind, theta|matrix|pi|fibers, space:{kind,m|M}, seed}.

    A malformed description raises ValueError.  Koopman and skew operators
    need a space of at most MAX_SPACE_ATOMS atoms or grid points."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if kind in ("matrix", "markov"):
        A = _complex_array(desc.get("matrix"), 2)
        return LinearOperator.from_matrix(A) if kind == "matrix" else LinearOperator.markov(A)
    if kind not in ("koopman", "skew"):
        raise ValueError("an operator description must be a JSON object whose kind "
                         f"is matrix, markov, koopman or skew, got {desc!r:.80}")
    sp = desc.get("space")
    if not isinstance(sp, dict) or sp.get("kind") not in ("circle", "finite"):
        raise ValueError(f'{kind} operators need a space {{"kind": "circle", "M": ...}} '
                         'or {"kind": "finite", "m": ...}')
    size = sp.get("M" if sp["kind"] == "circle" else "m")
    if type(size) is not int or not 1 <= size <= MAX_SPACE_ATOMS:
        raise ValueError(f"space size must be an integer in [1, {MAX_SPACE_ATOMS}], "
                         f"got {size!r}")
    space = SampleSpace(sp["kind"], size)
    if "pi" in desc:
        if not isinstance(desc["pi"], list) or not all(type(v) is int for v in desc["pi"]):
            raise ValueError("pi must be a list of atom indices")
        tr = Transformation.permutation(space, desc["pi"])
    elif kind == "skew":
        if type(desc.get("shift")) is not int:
            raise ValueError("a skew rotation base needs an integer shift")
        tr = Transformation.rotation(space, desc["shift"])
    elif desc.get("map") == "doubling":
        tr = Transformation.doubling(space)
    else:
        theta = desc.get("theta")
        if not isinstance(theta, (int, float)) or not math.isfinite(theta):
            raise ValueError(f"theta must be a finite number, got {theta!r}")
        shift = round(theta * space.size)
        if not math.isclose(shift / space.size, theta, rel_tol=0, abs_tol=1e-12):
            raise ValueError("grid koopman rotations need theta = j/M")
        tr = Transformation.rotation(space, shift)
    if kind == "koopman":
        return LinearOperator.koopman(tr)
    if not isinstance(desc.get("fibers"), list):
        raise ValueError("fibers must be a list of matrices")
    return skew_operator(Cocycle(tr, _complex_array(desc["fibers"], 3)))


def _complex_array(entries, ndim: int) -> np.ndarray:
    """Finite numbers as a complex array of ``ndim`` axes; one more last axis
    of length 2 holds [re, im] pairs."""
    arr = np.asarray(entries)
    if arr.dtype.kind not in "iufc":
        raise ValueError("matrix entries must be numbers")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(complex)
