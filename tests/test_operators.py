"""Sample spaces, transformations, operators, cocycles."""

import tracemalloc

import numpy as np
import pytest

from ergolab.operators import (Cocycle, LinearOperator, SampleSpace,
                               Transformation, VectorField, character_field,
                               operator_from_json, operator_norm,
                               pointwise_norms, random_field, skew_operator)
from ergolab.transforms import ModulationSeq, hilbert_partial
from ergolab.weights import Schedule, WeightSeq


# ---------------------------------------------------------------------------
# spaces and fields


def test_space_weights_sum_to_one():
    for space in (SampleSpace.circle(64), SampleSpace.finite(5)):
        assert np.sum(space.weights) == pytest.approx(1.0)


def test_character_field_norm():
    space = SampleSpace.circle(128)
    f = character_field(space, 3)
    assert f.norm(2) == pytest.approx(1.0, rel=1e-12)
    assert f.norm(np.inf) == pytest.approx(1.0, rel=1e-12)


def test_random_field_seed_determinism():
    space = SampleSpace.circle(32)
    a = random_field(space, 2, seed=5)
    b = random_field(space, 2, seed=5)
    c = random_field(space, 2, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def _norm_inputs(d: int, dtype):
    """Arrays whose last axis has d entries, from 1e-8 to 1e8 in size: one
    C-contiguous, a Fortran-ordered copy, a strided view, a copy whose last
    axis is the slowest, a row selection, a single vector and all zeros."""
    rng = np.random.Generator(np.random.Philox(key=d))
    x = rng.standard_normal((2, 40, 3, d)) * 10.0 ** rng.integers(-8, 9, (2, 40, 3, d))
    x = x[0] + 1j * x[1] if dtype is complex else x[0]
    wide = np.zeros((40, 3, 2 * d), dtype=x.dtype)
    wide[..., ::2] = x
    moved = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
    return {"C": x, "F": np.asfortranarray(x), "strided": wide[..., ::2],
            "moved": moved, "rows": x[::3, 1], "one": x[0, 0],
            "zeros": np.zeros_like(x)}


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("d", range(1, 10))
def test_pointwise_norms_are_numpys_norms_bit_for_bit(d, dtype):
    # left to right below 8 entries, pairwise (add.reduce) from 8 up
    for name, x in _norm_inputs(d, dtype).items():
        got = pointwise_norms(x)
        want = np.linalg.norm(x, axis=-1)
        assert np.shape(got) == np.shape(want), name
        assert np.ascontiguousarray(got).tobytes() == \
            np.ascontiguousarray(want).tobytes(), name


# ---------------------------------------------------------------------------
# operator norm oracle


@pytest.mark.parametrize("seed", range(8))
def test_operator_norm_matches_svd(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    d = int(rng.integers(2, 9))
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert operator_norm(A) == pytest.approx(
        np.linalg.svd(A, compute_uv=False)[0], rel=1e-8)


def test_operator_norm_edge_cases():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.eye(4)) == pytest.approx(1.0)


def _near_tie_matrix():
    # Q diag(1 + 1e-6, 1 - 1e-5, 0.5, 0.2) U^H: closed-form norm 1 + 1e-6, with
    # a second singular value close enough to stall a power iteration
    rng = np.random.Generator(np.random.Philox(key=3))
    Q, U = (np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
            for _ in range(2))
    return Q @ np.diag([1 + 1e-6, 1 - 1e-5, 0.5, 0.2]) @ U.conj().T


def test_operator_norm_is_exact_on_near_tied_singular_values():
    A = _near_tie_matrix()
    assert operator_norm(A) == pytest.approx(1 + 1e-6, rel=1e-14, abs=0)
    assert not LinearOperator.from_matrix(A).contraction


def test_operator_norm_of_a_stack_matches_each_matrix():
    rng = np.random.Generator(np.random.Philox(key=9))
    stack = rng.standard_normal((2, 5, 3, 3)) + 1j * rng.standard_normal((2, 5, 3, 3))
    norms = operator_norm(stack)
    assert norms.shape == (2, 5)
    assert norms.tolist() == [[operator_norm(A) for A in row] for row in stack]


# ---------------------------------------------------------------------------
# transformations and koopman operators


def test_rotation_koopman_shifts_characters_exactly():
    space = SampleSpace.circle(64)
    T = LinearOperator.koopman(Transformation.rotation(space, 5))
    f = character_field(space, 2)
    g = T.act(T.power(7), f)
    # f(x + 35/64) = e^{2 pi i 2 (x + 35/64)}
    phase = np.exp(2j * np.pi * 2 * 35 / 64)
    assert np.allclose(g.values, f.values * phase, atol=1e-13)


def test_koopman_power_uses_exact_index_arithmetic():
    space = SampleSpace.circle(64)
    T = LinearOperator.koopman(Transformation.rotation(space, 3))
    f = random_field(space, 1, seed=0)
    big = T.act(T.power(10**18 + 7), f)
    shift = (3 * (10**18 + 7)) % 64
    assert np.array_equal(big.values, np.roll(f.values, -shift, axis=0))


@pytest.mark.parametrize("n", [2**62, 2**62 - 1, np.int64(2**62 - 3)])
def test_rotation_index_map_exact_near_index_cap(n):
    # n * shift overflows int64 here; the map must still match Python ints
    M, shift = 1000, 997
    T = Transformation.rotation(SampleSpace.circle(M), shift)
    expected = [(i + int(n) * shift) % M for i in range(M)]
    assert LinearOperator.koopman(T).power(n).tolist() == expected


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 2**10 - 1, 10**18 + 7, 2**62])
def test_koopman_and_skew_powers_match_the_closed_forms(n):
    # the cached squares give each iterate's closed form: rotation by n*shift
    # in Python ints, doubling by 2^n mod M, and pi applied n times (n mod
    # lcm(1..12) times, since the order of pi divides that lcm)
    circle, atoms = SampleSpace.circle(1024), SampleSpace.finite(12)
    rng = np.random.Generator(np.random.Philox(key=5))
    pi = rng.permutation(12)
    cycle = list(range(12))
    for _ in range(n % 27720):
        cycle = [int(pi[i]) for i in cycle]
    cases = [
        (Transformation.rotation(circle, 997), [(i + n * 997) % 1024 for i in range(1024)]),
        (Transformation.doubling(circle), [i * pow(2, n, 1024) % 1024 for i in range(1024)]),
        (Transformation.permutation(atoms, pi), cycle),
    ]
    for T, expected in cases:
        P = LinearOperator.koopman(T).power(n)
        assert P.dtype == np.int64 and P.tolist() == expected
        if T.kind != "doubling":
            fibers = np.broadcast_to(np.eye(2), (T.space.size, 2, 2))
            assert skew_operator(Cocycle(T, fibers)).power(n)[1].tolist() == expected


def test_doubling_isometry_on_bandlimited_fields():
    space = SampleSpace.circle(256)
    T = LinearOperator.koopman(Transformation.doubling(space))
    rng = np.random.Generator(np.random.Philox(key=3))
    coef = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    f = VectorField(space, sum(character_field(space, mode).values * coef[mode]
                               for mode in range(128)))
    # modes sit in [0, M/2), so one application keeps them alias-free
    assert T.act(T.power(1), f).norm(2) == pytest.approx(f.norm(2), rel=1e-10)


def test_doubling_koopman_is_not_a_contraction_on_the_grid():
    # the grid map hits each even point twice, so the indicator of the even
    # points has ||Uf||_2 / ||f||_2 = sqrt(2)
    space = SampleSpace.circle(64)
    T = LinearOperator.koopman(Transformation.doubling(space))
    f = VectorField(space, (np.arange(64) % 2 == 0).astype(float))
    assert T.act(T.power(1), f).norm(2) / f.norm(2) == pytest.approx(np.sqrt(2.0),
                                                                     rel=1e-15)
    assert not T.contraction


# ---------------------------------------------------------------------------
# matrix operators


def test_matrix_power_matches_numpy():
    rng = np.random.Generator(np.random.Philox(key=11))
    A = rng.standard_normal((4, 4)) * 0.4
    op = LinearOperator.from_matrix(A)
    for n in (0, 1, 2, 7, 33):
        assert np.allclose(op.power(n), np.linalg.matrix_power(A, n),
                           atol=1e-10)


def test_contraction_flag_from_norm():
    assert LinearOperator.from_matrix(np.eye(3) * 0.5).contraction
    assert not LinearOperator.from_matrix(np.eye(3) * 1.5).contraction


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_is_named(bad):
    A = np.eye(3) * 0.5
    A[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        LinearOperator.from_matrix(A)


def test_markov_dunford_schwartz_flag():
    P = np.full((4, 4), 0.25)
    assert LinearOperator.markov(P).dunford_schwartz
    Q = np.array([[0.5, 0.5], [0.3, 0.7]])   # rows stochastic, columns not
    assert not LinearOperator.markov(Q).dunford_schwartz


# ---------------------------------------------------------------------------
# cocycles


def _two_point_swap_cocycle():
    space = SampleSpace.finite(2)
    base = Transformation.permutation(space, [1, 0])
    A0 = np.array([[0.0, 0.5], [0.25, 0.0]])
    A1 = np.array([[0.5, 0.0], [0.0, -0.5]])
    return Cocycle(base, np.stack([A0, A1])), A0, A1


def test_cocycle_rejects_expanding_fiber():
    space = SampleSpace.finite(2)
    base = Transformation.permutation(space, [1, 0])
    bad = np.stack([np.eye(2), np.eye(2) * 1.01])
    with pytest.raises(ValueError):
        Cocycle(base, bad)


def test_cocycle_names_the_first_bad_fiber():
    m = 6
    base = Transformation.permutation(SampleSpace.finite(m), np.roll(np.arange(m), -1))
    fibers = np.stack([0.5 * np.eye(2)] * m)
    fibers[2, 0, 0] = fibers[4, 1, 1] = 1.01
    with pytest.raises(ValueError, match="fiber 2 is not a contraction"):
        Cocycle(base, fibers)
    # a non-finite fiber is named before any norm is taken
    for bad in (np.nan, np.inf):
        fibers[2, 0, 0] = fibers[4, 1, 1] = bad
        with pytest.raises(ValueError, match="fiber 2"):
            Cocycle(base, fibers)


def test_cocycle_refuses_a_doubling_base():
    base = Transformation.doubling(SampleSpace.circle(8))
    with pytest.raises(ValueError, match="invertible"):
        Cocycle.constant(base, 0.5 * np.eye(2))


def test_skew_operator_contraction_audit():
    C, _, _ = _two_point_swap_cocycle()
    op = skew_operator(C)
    f = random_field(C.space, 2, seed=1)
    assert op.act(op.power(1), f).norm(2) <= f.norm(2) * (1 + 1e-12)


def _orthogonal_cycle_cocycle(m=3, d=3, seed=4):
    # norm-1 fibers that do not commute, over an m-cycle: powers stay O(1)
    rng = np.random.Generator(np.random.Philox(key=seed))
    fibers = [np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(m)]
    base = Transformation.permutation(SampleSpace.finite(m), np.roll(np.arange(m), -1))
    return Cocycle(base, np.stack(fibers))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 33])
def test_skew_power_matches_repeated_apply(n):
    op = skew_operator(_orthogonal_cycle_cocycle())
    f = random_field(op.cocycle.space, 3, seed=2)
    stepped = f
    for _ in range(n):
        stepped = op.act(op.power(1), stepped)
    got = op.act(op.power(n), f)
    assert np.abs(got.values - stepped.values).max() <= 1e-12 * np.abs(stepped.values).max()


def test_skew_power_of_huge_n_has_closed_form():
    # constant permutation-matrix fiber R of order 3 over a 5-cycle: T^n has
    # fiber product R^n = R^(n mod 3) and base map alpha^(n mod 5), exactly
    m, n = 5, 10**18 + 7
    R = np.roll(np.eye(3), 1, axis=0)
    base = Transformation.permutation(SampleSpace.finite(m), np.roll(np.arange(m), -1))
    op = skew_operator(Cocycle.constant(base, R))
    A, idx = op.power(n)
    assert np.array_equal(A, np.broadcast_to(np.linalg.matrix_power(R, n % 3), (m, 3, 3)))
    assert idx.tolist() == [(w + n) % m for w in range(m)]


def _operators_of_every_kind():
    rng = np.random.Generator(np.random.Philox(key=8))
    A0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    P = sum(np.eye(5)[rng.permutation(5)] for _ in range(5)) / 5
    # fibers with entries 0 and +-1 that do not commute: products are exact
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    flip = np.diag([1.0, -1.0])
    base = Transformation.permutation(SampleSpace.finite(3), [2, 0, 1])
    return {
        "koopman": LinearOperator.koopman(
            Transformation.permutation(SampleSpace.finite(7), [3, 6, 0, 5, 1, 2, 4])),
        "matrix": LinearOperator.from_matrix(A0 / operator_norm(A0)),
        "markov": LinearOperator.markov(P),
        "skew": skew_operator(Cocycle(base, np.stack([rot, swap, flip]))),
    }


@pytest.mark.parametrize("kind", ["koopman", "matrix", "markov", "skew"])
def test_stepped_powers_match_direct_powers(kind):
    op = _operators_of_every_kind()[kind]
    L, _ = op._residues()
    assert L > 1
    # repeats (gap 0), unit gaps, the residue table's edges L-1, L, L+1, 2L
    # and quotient gaps of many bits, in blocks of 1, 4 and 64 rows
    big = L * (2**21 + 2**9 + 7) + 5
    n_ints = sorted([0, 0, 1, 5, 5, 6, 40, 41, 300, 2000, 2000, 10**4 + 3,
                     L - 1, L, L + 1, 2 * L, big, big + L * (2**33 + 2**14 + 1) + L - 1])
    stepped = [P for rows in (1, 4, 64)
               for stack in op.powers(np.asarray(n_ints, dtype=np.int64), rows)
               for P in (zip(*stack) if kind == "skew" else stack)]
    assert len(stepped) == 3 * len(n_ints)
    for n, P in zip(n_ints * 3, stepped):
        Q = op.power(n)
        if kind == "koopman":
            assert np.array_equal(P, Q)
        elif kind == "skew":
            assert np.array_equal(P[1], Q[1])
            assert np.abs(P[0] - Q[0]).max() <= 1e-12
        else:
            assert np.abs(P - Q).max() <= 1e-12


@pytest.mark.parametrize("kind", ["koopman", "matrix", "markov", "skew"])
def test_residue_table_rows_are_the_direct_powers(kind):
    op = _operators_of_every_kind()[kind]
    L, R = op._residues()
    rows = list(zip(*R)) if kind == "skew" else list(R)
    assert len(rows) == L
    for r, P in enumerate(rows):
        Q = op.power(r)
        for got, want in (zip(P, Q) if kind == "skew" else [(P, Q)]):
            assert np.array_equal(got, want)


def _large_skew():
    # one power holds 2^12 (2 * 2 + 1) entries, more than the residue table's 2^13
    rng = np.random.Generator(np.random.Philox(key=5))
    m = 1 << 12
    F = rng.standard_normal((m, 2, 2)) + 1j * rng.standard_normal((m, 2, 2))
    base = Transformation.permutation(SampleSpace.finite(m), rng.permutation(m))
    return skew_operator(Cocycle(base, F / operator_norm(F)[:, None, None]))


def test_large_operator_powers_are_the_stepped_powers():
    op = _large_skew()
    assert op._residues()[0] == 1
    n_ints = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 1000, 10**6 + 7]
    stacks = list(op.blocks(np.asarray(n_ints, dtype=np.int64)))
    assert len(stacks) == len(n_ints)
    P, prev = None, 0   # each power the previous one composed with the gap's power
    for n, (A, idx) in zip(n_ints, stacks):
        B, j = op.power(n - prev)
        P = (B, j) if P is None else (np.einsum("wij,wjk->wik", P[0], B.take(P[1], axis=0)),
                                      j[P[1]])
        prev = n
        assert A.shape[0] == 1 and np.array_equal(A[0], P[0])
        assert np.array_equal(idx[0], P[1])


def test_large_operator_series_peak_memory_is_bounded():
    # one-term stepping peaks at 1.17 MiB here; a residue table of 128 such
    # powers peaks at 73 MiB
    op = _large_skew()
    f = random_field(op.cocycle.space, 2, seed=3)
    W = WeightSeq.from_text("n", n0=1)
    tracemalloc.start()
    try:
        hilbert_partial(ModulationSeq.constant(1.0), op, Schedule.identity(), W, f, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


# ---------------------------------------------------------------------------
# JSON loading


def test_operator_from_json_matrix_and_markov():
    op = operator_from_json({"kind": "matrix",
                             "matrix": [[[0.5, 0.1], [0.0, 0.0]],
                                        [[0.0, 0.0], [0.5, -0.1]]]})
    assert op.matrix[0, 0] == 0.5 + 0.1j
    mk = operator_from_json({"kind": "markov",
                             "matrix": [[0.5, 0.5], [0.5, 0.5]]})
    assert mk.dunford_schwartz


def test_operator_from_json_skew_fibers_real_and_complex():
    # a stack of real 2 x 2 fibers has a last axis of length 2 too; only one
    # more axis of length 2 holds [re, im] pairs
    space = {"kind": "finite", "m": 2}
    real = operator_from_json({"kind": "skew", "space": space, "pi": [1, 0],
                               "fibers": [[[0.5, 0.1], [0.0, 0.5]], [[0.5, 0.0], [0.2, 0.5]]]})
    assert real.cocycle.fibers[0].tolist() == [[0.5, 0.1], [0.0, 0.5]]
    pairs = operator_from_json({"kind": "skew", "space": space, "pi": [1, 0],
                                "fibers": [[[[0.5, 0.1], [0.0, 0.0]],
                                            [[0.0, 0.0], [0.5, 0.0]]]] * 2})
    assert pairs.cocycle.fibers[1].tolist() == [[0.5 + 0.1j, 0.0], [0.0, 0.5]]


def test_operator_from_json_koopman_rotation():
    op = operator_from_json({"kind": "koopman", "theta": 0.25,
                             "space": {"kind": "circle", "M": 8}})
    assert op.transformation.shift == 2
    with pytest.raises(ValueError):
        operator_from_json({"kind": "koopman", "theta": 0.3,
                            "space": {"kind": "circle", "M": 8}})


def test_operator_from_json_skew_over_a_rotation_base():
    desc = {"kind": "skew", "space": {"kind": "circle", "M": 8}, "shift": 3,
            "fibers": [[[0.5]]] * 8}
    op = operator_from_json(desc)
    assert (op.cocycle.base.kind, op.cocycle.base.shift) == ("rotation", 3)
    assert op.cocycle.fibers.shape == (8, 1, 1)
    with pytest.raises(ValueError, match="integer shift"):
        operator_from_json({**desc, "shift": 1.5})
