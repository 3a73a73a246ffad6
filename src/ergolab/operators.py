"""Concrete operator and dynamical-system models.

The Hilbert space of the paper-scale statements is realized as C^d and the
sample space is discretized (circle grid or finite atom space).  Koopman
operators of measure-preserving maps act by index remapping on the grid,
matrix operators act pointwise on the C^d values, Markov operators act across
the atoms of a finite space, and skew operators realize operator cocycles.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SampleSpace",
    "Transformation",
    "VectorField",
    "LinearOperator",
    "Cocycle",
    "operator_norm",
    "skew_operator",
    "random_field",
    "character_field",
    "operator_from_json",
]

_CONTRACTION_SLACK = 1e-12


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

    def describe(self) -> dict:
        return {"kind": self.kind, "M" if self.kind == "circle" else "m": self.size}

    def __eq__(self, other):
        return (isinstance(other, SampleSpace) and self.kind == other.kind
                and self.size == other.size)

    def __hash__(self):
        return hash((self.kind, self.size))


class Transformation:
    """Measure-preserving map on a sample space.

    rotation(j, M): x -> x + j/M on the matching M-point grid (exact index
    shift).
    doubling: x -> 2x mod 1 on a grid of M = 2^m points (exact index map,
    non-invertible).
    permutation(pi): atom i -> pi[i] on a finite space.
    """

    def __init__(self, kind: str, space: SampleSpace, *, shift: int | None = None,
                 pi=None):
        self.kind = kind
        self.space = space
        self.shift = shift
        self.pi = None if pi is None else np.asarray(pi, dtype=np.int64)
        if kind == "rotation":
            if space.kind != "circle":
                raise ValueError("rotation needs a circle space")
            if shift is None:
                raise ValueError("grid rotation needs an integer shift j (theta = j/M)")
        elif kind == "doubling":
            if space.kind != "circle":
                raise ValueError("doubling needs a circle grid")
            if space.size & (space.size - 1):
                raise ValueError("doubling grid size must be a power of two")
        elif kind == "permutation":
            if space.kind != "finite":
                raise ValueError("permutation needs a finite space")
            if sorted(self.pi.tolist()) != list(range(space.size)):
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

    def index_map(self, n: int = 1) -> np.ndarray:
        """Grid index map of the n-th iterate: x_i -> x_map[i]."""
        if n < 0:
            raise ValueError("iterate count must be nonnegative")
        M = self.space.size
        idx = np.arange(M, dtype=np.int64)
        if self.kind == "rotation":
            # reduce n * shift mod M in Python ints before it meets int64
            return (idx + int(n) % M * self.shift % M) % M
        if self.kind == "doubling":
            return (idx * pow(2, n, M)) % M
        # permutation: binary exponentiation on the map
        result = idx
        base = self.pi
        e = n
        while e:
            if e & 1:
                result = base[result]
            base = base[base]
            e >>= 1
        return result


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

    def pointwise_norms(self) -> np.ndarray:
        return np.linalg.norm(self.values, axis=1)

    def norm(self, p: float = 2.0) -> float:
        """(integral of |f(x)|_H^p dmu)^(1/p) on the discrete measure."""
        h = self.pointwise_norms()
        if math.isinf(p):
            return float(h.max(initial=0.0))
        return float(np.sum(self.space.weights * h**p) ** (1.0 / p))

    def copy(self) -> "VectorField":
        return VectorField(self.space, self.values.copy())

    def __add__(self, other):
        self._check(other)
        return VectorField(self.space, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return VectorField(self.space, self.values - other.values)

    def __mul__(self, c):
        return VectorField(self.space, self.values * c)

    __rmul__ = __mul__

    def _check(self, other):
        if other.space != self.space or other.values.shape != self.values.shape:
            raise ValueError("field mismatch (space or dimension)")

    @classmethod
    def zero(cls, space: SampleSpace, d: int) -> "VectorField":
        return cls(space, np.zeros((space.size, d), dtype=complex))


def character_field(space: SampleSpace, mode: int, vector=None) -> VectorField:
    """f(x) = e^{2 pi i * mode * x} v on a circle space."""
    if space.kind != "circle":
        raise ValueError("characters live on the circle")
    v = np.asarray([1.0] if vector is None else vector, dtype=complex)
    phase = np.exp(2j * np.pi * mode * space.points)
    return VectorField(space, phase[:, None] * v[None, :])


def random_field(space: SampleSpace, d: int, seed: int) -> VectorField:
    """Seeded complex Gaussian field (deterministic via Philox)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    vals = rng.standard_normal((space.size, d)) + 1j * rng.standard_normal((space.size, d))
    return VectorField(space, vals / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# spectral norm


def operator_norm(A, tol: float = 1e-10, max_iter: int = 5000) -> float:
    """Spectral norm via power iteration on A^H A, deterministic start."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError("matrix expected")
    B = A.conj().T @ A
    d = B.shape[0]
    if not np.any(B):
        return 0.0
    # deterministic, generically non-orthogonal start vector
    v = 1.0 + np.arange(d) / (2.0 * d) + 0.1j * np.cos(np.arange(d))
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(np.real(np.vdot(v, B @ v)))
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            lam = lam_new
            break
        lam = lam_new
    return math.sqrt(max(lam, 0.0))


# ---------------------------------------------------------------------------
# linear operators


class LinearOperator:
    """koopman / matrix / markov / skew operator with audited flags.

    Flags are finite audits, not proofs: ``contraction`` means spectral norm
    <= 1 + 1e-12 for matrix kinds and is analytic for koopman operators of
    measure-preserving maps; ``power_bound`` is checked over a finite horizon.
    """

    def __init__(self, kind: str, *, matrix=None, transformation: Transformation | None = None,
                 cocycle: "Cocycle | None" = None, power_bound: float | None = None,
                 audit_horizon: int = 64):
        self.kind = kind
        self.transformation = transformation
        self.cocycle = cocycle
        self.matrix = None if matrix is None else np.asarray(matrix, dtype=complex)
        self.dunford_schwartz = False
        self.power_bound = None

        if kind == "koopman":
            if transformation is None:
                raise ValueError("koopman operator needs a transformation")
            self.contraction = True  # composition with a measure-preserving map
        elif kind in ("matrix", "markov"):
            if self.matrix is None or self.matrix.ndim != 2 or \
                    self.matrix.shape[0] != self.matrix.shape[1]:
                raise ValueError("square matrix required")
            self._pow_cache = [self.matrix]   # T^{2^b} for b = 0, 1, ...
            nrm = operator_norm(self.matrix)
            self.contraction = nrm <= 1.0 + _CONTRACTION_SLACK
            if kind == "markov":
                P = self.matrix
                rows = np.abs(P.sum(axis=1) - 1.0).max()
                cols = np.abs(P.sum(axis=0) - 1.0).max()
                nonneg = np.all(P.real >= -1e-15) and np.abs(P.imag).max(initial=0.0) < 1e-15
                self.dunford_schwartz = bool(nonneg and rows < 1e-12 and cols < 1e-12)
            if power_bound is not None:
                worst = max((operator_norm(A) for A in
                             self.powers(range(1, audit_horizon + 1))), default=0.0)
                if worst <= power_bound:
                    self.power_bound = float(power_bound)
                else:
                    raise ValueError(
                        f"power-bound audit failed: max norm {worst} > {power_bound}")
            elif self.contraction:
                self.power_bound = 1.0
        elif kind == "skew":
            if cocycle is None:
                raise ValueError("skew operator needs a cocycle")
            self._pow_cache = [(cocycle.fibers, cocycle.base.index_map(1))]
            self.contraction = True  # re-verified numerically by skew_operator
        else:
            raise ValueError(f"unknown operator kind {kind!r}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def koopman(cls, transformation: Transformation) -> "LinearOperator":
        return cls("koopman", transformation=transformation)

    @classmethod
    def from_matrix(cls, A, power_bound: float | None = None) -> "LinearOperator":
        return cls("matrix", matrix=A, power_bound=power_bound)

    @classmethod
    def markov(cls, P) -> "LinearOperator":
        return cls("markov", matrix=P)

    # -- powers and action ---------------------------------------------------

    def power(self, n: int):
        """T^n: for koopman the exact index map of the n-th iterate; for matrix
        kinds the matrix; for skew (A, idx) with A[w] = T_w T_{alpha w} ...
        T_{alpha^{n-1} w} and idx the index map of alpha^n.  All but koopman
        come from one square-and-multiply over the cached squares T^{2^b}, in
        ascending b, started at the lowest set bit of n."""
        n = int(n)
        if n < 0:
            raise ValueError("power must be nonnegative")
        if self.kind == "koopman":
            return self.transformation.index_map(n)
        if n == 0:
            if self.kind == "skew":
                c = self.cocycle
                return (np.broadcast_to(np.eye(c.dim, dtype=complex), c.fibers.shape),
                        c.base.index_map(0))
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
        """T^{a+b} from P = T^a and Q = T^b."""
        if self.kind == "koopman":
            return P[Q]
        if self.kind == "skew":
            (A, i), (B, j) = P, Q
            return np.einsum("wij,wjk->wik", A, B.take(i, axis=0)), j[i]
        return P @ Q

    def powers(self, n_ints):
        """T^{n_k} for the nondecreasing ``n_ints``, each the previous one
        composed with the power of the gap.  Apply them to the original field
        with ``act``: stepping the field (v <- T v) instead leaves many
        cocycle entries denormal, which slows every later product."""
        P, prev = None, 0
        for n in n_ints:
            n = int(n)
            P = self.power(n) if P is None else self._compose(P, self.power(n - prev))
            prev = n
            yield P

    def act(self, P, f: VectorField) -> VectorField:
        """T^n f for a power P = power(n).  Rows are gathered with ``take``,
        which is several times faster than fancy indexing on small arrays."""
        if self.kind == "koopman":
            if f.space != self.transformation.space:
                raise ValueError("field lives on a different space")
            return VectorField(f.space, f.values.take(P, axis=0))
        if self.kind == "matrix":
            if f.dim != self.matrix.shape[0]:
                raise ValueError(f"field dimension {f.dim} != operator dimension "
                                 f"{self.matrix.shape[0]}")
            return VectorField(f.space, f.values @ P.T)
        if self.kind == "markov":
            if f.space.kind != "finite" or f.space.size != self.matrix.shape[0]:
                raise ValueError("markov operator needs a matching finite space")
            return VectorField(f.space, P @ f.values)
        # skew: (T^n f)(w) = A[w] f(alpha^n w)
        if f.space != self.cocycle.space:
            raise ValueError("field lives on a different space")
        A, idx = P
        return VectorField(f.space, np.einsum("mij,mj->mi", A, f.values.take(idx, axis=0)))

    def apply(self, f: VectorField) -> VectorField:
        return self.act(self.power(1), f)


# ---------------------------------------------------------------------------
# cocycles


class Cocycle:
    """Family of fiber contractions driven by a base transformation.

    One d x d contraction per atom or grid point of the base space.
    """

    def __init__(self, base: Transformation, fibers):
        self.base = base
        self.space = base.space
        fibers = np.asarray(fibers, dtype=complex)
        if fibers.ndim != 3 or fibers.shape[0] != self.space.size or \
                fibers.shape[1] != fibers.shape[2]:
            raise ValueError("fibers must be (space.size, d, d)")
        for i in range(fibers.shape[0]):
            if operator_norm(fibers[i]) > 1.0 + _CONTRACTION_SLACK:
                raise ValueError(f"fiber {i} is not a contraction")
        self.fibers = fibers

    @property
    def dim(self) -> int:
        return self.fibers.shape[1]

    @classmethod
    def constant(cls, base: Transformation, T) -> "Cocycle":
        T = np.asarray(T, dtype=complex)
        return cls(base, np.broadcast_to(T, (base.space.size,) + T.shape).copy())


def skew_operator(C: Cocycle, audit_fields: int = 10, audit_seed: int = 7) -> LinearOperator:
    """The operator (Tf)(w) = T_w f(alpha(w)); contraction re-verified on
    random fields before the flag is trusted."""
    op = LinearOperator("skew", cocycle=C)
    for i in range(audit_fields):
        f = random_field(C.space, C.dim, seed=audit_seed + i)
        if op.apply(f).norm(2) > f.norm(2) * (1.0 + 1e-10):
            raise ArithmeticError("skew operator failed its contraction audit")
    return op


# ---------------------------------------------------------------------------
# JSON loading


MAX_SPACE_ATOMS = 1 << 20  # atoms or grid points of a sample space read from JSON


def operator_from_json(desc: dict) -> LinearOperator:
    """Load {kind, theta|matrix|pi|fibers, space:{kind,m|M}, seed}.

    A malformed description raises ValueError.  Koopman and skew operators
    need a space of at most MAX_SPACE_ATOMS atoms or grid points."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if kind in ("matrix", "markov"):
        A = _complex_matrix(desc.get("matrix"))
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
    return skew_operator(Cocycle(tr, np.asarray([_complex_matrix(f) for f in desc["fibers"]])))


def _complex_matrix(entries) -> np.ndarray:
    arr = np.asarray(entries)
    if arr.dtype.kind not in "iufc":
        raise ValueError("matrix entries must be numbers")
    if arr.ndim == 3 and arr.shape[-1] == 2:  # [[ [re, im], ... ]]
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(complex)
