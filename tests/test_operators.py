"""Sample spaces, transformations, operators, cocycles."""

import numpy as np
import pytest

from ergolab.operators import (Cocycle, LinearOperator, SampleSpace,
                               Transformation, VectorField, character_field,
                               operator_from_json, operator_norm, random_field,
                               skew_operator)


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


def test_field_arithmetic():
    space = SampleSpace.finite(3)
    f = VectorField(space, np.array([[1.0], [2.0], [3.0]]))
    g = VectorField(space, np.array([[1.0], [1.0], [1.0]]))
    assert (f + g).pointwise_norms().tolist() == [2.0, 3.0, 4.0]
    assert (f - g).pointwise_norms().tolist() == [0.0, 1.0, 2.0]
    assert (f * 2.0).norm(np.inf) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        f + VectorField(SampleSpace.finite(4), np.ones((4, 1)))


def test_random_field_seed_determinism():
    space = SampleSpace.circle(32)
    a = random_field(space, 2, seed=5)
    b = random_field(space, 2, seed=5)
    c = random_field(space, 2, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


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
    assert T.index_map(n).tolist() == expected


def test_doubling_isometry_on_bandlimited_fields():
    space = SampleSpace.circle(256)
    T = LinearOperator.koopman(Transformation.doubling(space))
    rng = np.random.Generator(np.random.Philox(key=3))
    coef = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    f = VectorField.zero(space, 1)
    for mode in range(128):
        f = f + character_field(space, mode) * coef[mode]
    # modes sit in [0, M/2), so one application keeps them alias-free
    assert T.apply(f).norm(2) == pytest.approx(f.norm(2), rel=1e-10)


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
    # a non-finite fiber has no norm to pass the check with
    for bad in (np.nan, np.inf):
        fibers[2, 0, 0] = fibers[4, 1, 1] = bad
        with pytest.raises(ValueError):
            Cocycle(base, fibers)


def test_skew_operator_contraction_audit():
    C, _, _ = _two_point_swap_cocycle()
    op = skew_operator(C)
    f = random_field(C.space, 2, seed=1)
    assert op.apply(f).norm(2) <= f.norm(2) * (1 + 1e-12)


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
        stepped = op.apply(stepped)
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
    # repeats (gap 0), unit gaps and gaps of many bits
    n_ints = [0, 0, 1, 5, 5, 6, 40, 41, 300, 2000, 2000, 10**4 + 3]
    stepped = list(op.powers(np.asarray(n_ints, dtype=np.int64)))
    assert len(stepped) == len(n_ints)
    for n, P in zip(n_ints, stepped):
        Q = op.power(n)
        if kind == "koopman":
            assert np.array_equal(P, Q)
        elif kind == "skew":
            assert np.array_equal(P[1], Q[1])
            assert np.abs(P[0] - Q[0]).max() <= 1e-12
        else:
            assert np.abs(P - Q).max() <= 1e-12


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
