"""Weighted series, modulated polynomials, circle suprema, bound checks,
and the sigma/rearrangement machinery."""

import csv
import math

import numpy as np
import pytest

from ergolab.operators import (LinearOperator, SampleSpace, Transformation,
                               VectorField, random_field)
from ergolab.registry import example_instance
from ergolab.transforms import (I_majorant, ModulationSeq, PartialSumStream,
                                TransformTrace, circle_column_sups, gamma_tail,
                                hilbert_partial, interpolation_bound, measure_K,
                                modulated_poly, opnorm_series, phi_series,
                                rearrangement_and_I, sigma_grid, sigma_of_t,
                                sup_circle, twisted_bound_check,
                                weighted_average, weighted_series)
from ergolab.weights import Schedule, WeightSeq


# ---------------------------------------------------------------------------
# modulations


def test_modulation_values():
    ks = np.arange(1, 6)
    assert np.allclose(ModulationSeq.constant(2.0).values(ks), 2.0)
    lam = np.exp(2j * np.pi * 0.25)
    rot = ModulationSeq.rotation(lam)
    assert np.allclose(rot.values(ks, ks.astype(float)), lam ** ks)
    tw = ModulationSeq.power_twist(1.0)
    assert np.allclose(tw.values(ks), np.exp(1j * np.log(ks)))
    prod = rot.compose(ModulationSeq.constant(3.0))
    assert prod.sup_bound == 3.0
    assert np.allclose(prod.values(ks, ks.astype(float)), 3.0 * lam**ks)


def test_modulation_fn_bound_enforced():
    m = ModulationSeq.from_fn(lambda ks: ks.astype(complex), bound=3.0)
    with pytest.raises(ArithmeticError):
        m.values(np.arange(1, 10))


def test_modulation_rejects_non_unimodular_rotation():
    with pytest.raises(ValueError):
        ModulationSeq.rotation(2.0)


# ---------------------------------------------------------------------------
# traces


def test_trace_csv_roundtrip(tmp_path):
    tr = TransformTrace(p=2.0)
    tr.record(1, norm_Sn_over_Wn=0.5, pointwise=np.array([1.0, 3.0]))
    tr.record(4, norm_Sn_over_Wn=0.25, pointwise=np.array([2.0, 1.0]))
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "norm_Sn_over_Wn", "running_max_Lp"]
    assert rows[1][0] == "1"
    # running max after second record is [2, 3]
    assert float(rows[2][2]) == pytest.approx(math.sqrt((4.0 + 9.0) / 2.0))
    with pytest.raises(ValueError):
        tr.record(3)


# ---------------------------------------------------------------------------
# averages and series


def _random_fields(space, count, seed):
    return [random_field(space, 1, seed=seed * 1000 + k) for k in range(count)]


def test_weighted_average_oracle():
    space = SampleSpace.finite(3)
    fs = _random_fields(space, 4, seed=1)
    W = WeightSeq.from_text("n^2", n0=1)
    avg = weighted_average(lambda k: fs[k - 1], W, 4)
    manual = (fs[0].values + fs[1].values + fs[2].values + fs[3].values) / 16.0
    assert np.allclose(avg.values, manual, atol=1e-14)


def test_abel_identity_small():
    space = SampleSpace.finite(2)
    fs = _random_fields(space, 50, seed=2)
    W = WeightSeq.from_text("n^0.5", n0=1)
    direct, abel = weighted_series(lambda k: fs[k - 1], W, 50)
    assert np.allclose(direct.values, abel.values, rtol=1e-12, atol=1e-14)


def test_partial_sum_stream_reuses_prefix():
    space = SampleSpace.finite(2)
    fs = _random_fields(space, 8, seed=3)
    calls = []

    def fseq(k):
        calls.append(k)
        return fs[k - 1]

    stream = PartialSumStream(fseq)
    stream.advance(4)
    stream.advance(8)
    assert calls == list(range(1, 9))


# ---------------------------------------------------------------------------
# modulated polynomials and circle suprema


def test_modulated_poly_oracles():
    ident = Schedule.identity()
    ones = ModulationSeq.constant(1.0)
    assert modulated_poly(ones, ident, 17, 1.0 + 0j) == pytest.approx(17.0)
    w = np.exp(2j * np.pi / 3.0)
    assert abs(modulated_poly(ones, ident, 3, w)) == pytest.approx(0.0, abs=1e-14)
    alt = ModulationSeq.explicit([(-1.0) ** k for k in range(1, 6)])
    assert modulated_poly(alt, ident, 5, -1.0 + 0j) == pytest.approx(5.0)


def _dense_column_mags(a, sched, M, cols, k_start=1):
    """|psi_m(omega^j)| for each m in cols and every j, one fsum per point."""
    return np.asarray([
        [abs(modulated_poly(a, sched, m, np.exp(2j * np.pi * j / M), k_start))
         for j in range(M)]
        for m in cols])


def _random_coefs(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("sched, n, M, k_start", [
    (Schedule.identity(), 40, 256, 1),
    (Schedule.identity(), 40, 256, 5),
    (Schedule.power(2.0), 12, 600, 1),
    (Schedule.geometric(1.5), 14, 1024, 2),
    (Schedule.explicit([2, 3, 5, 11, 12, 40, 41, 90]), 8, 384, 1),
    (Schedule.identity(), 200, 16, 1),          # coarse grid: n_k > M
    (Schedule.power(2.0), 20, 24, 1),           # coarse, residues collide
])
def test_circle_column_sups_match_dense_fsum(sched, n, M, k_start):
    a = ModulationSeq.explicit(_random_coefs(n, seed=n + M))
    cols = sorted({k_start, (k_start + n) // 2, n - 1, n})
    sups, argj = circle_column_sups(a, sched, n, M, cols, k_start)
    mags = _dense_column_mags(a, sched, M, cols, k_start)
    ref = mags.max(axis=1)
    assert np.allclose(sups, ref, rtol=1e-12, atol=0.0)
    # the reported index attains the max (near-ties sit within rounding)
    attained = mags[np.arange(len(cols)), argj]
    assert np.allclose(attained, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("sched", [
    Schedule.power(3.0),
    # residues alternate 1, 2, so later blocks add onto carried entries
    Schedule.explicit([1 + (k // 2) * (1 << 16) + k % 2 for k in range(11)]),
])
def test_circle_column_sups_many_blocks_carry_prefix(sched):
    # M = 2^16 gives blocks of 4 columns; every prefix must carry across
    coefs = _random_coefs(11, seed=7)
    M = 1 << 16
    sups, _ = circle_column_sups(ModulationSeq.explicit(coefs), sched, 11, M,
                                 range(1, 12))
    for m in (1, 4, 5, 9, 11):
        # exact residues keep this dense reference exact in the phase
        phases = np.exp(2j * np.pi * np.outer(np.arange(M), sched.values(m) % M) / M)
        assert sups[m - 1] == pytest.approx(np.abs(phases @ coefs[:m]).max(), rel=1e-12)


def test_circle_column_sups_ties_take_lowest_index():
    # psi(lam) = lam - lam^3 on the 4th roots of unity is 0, 2, 0, 2
    a = ModulationSeq.explicit([1.0, -1.0])
    sups, argj = circle_column_sups(a, Schedule.explicit([1, 3]), 2, 4, [1, 2])
    assert sups.tolist() == [1.0, 2.0]
    assert argj.tolist() == [0, 1]


def test_measure_K_tie_prefers_lowest_grid_index_then_n():
    # |psi_2| and |psi_3| both peak at exactly 5: at j = 2 and at j = 1
    a = ModulationSeq.explicit([2 - 2j, -1 + 2j, 1 + 1j])
    sched = Schedule.explicit([3, 6, 7])
    sups, argj = circle_column_sups(a, sched, 3, 4, [1, 2, 3])
    assert sups[1] == sups[2] == 5.0
    assert argj.tolist() == [0, 2, 1]
    G = WeightSeq.from_callable(lambda n: np.ones_like(np.asarray(n, float)),
                                n0=1, label="1")
    m = measure_K(a, sched, G, 3, M_grid=4, allow_coarse=True)
    assert m.n_at_max == 3
    assert m.K >= 5.0


def test_circle_column_sups_rejects_bad_input():
    a = ModulationSeq.constant(1.0)
    with pytest.raises(ValueError):
        circle_column_sups(a, Schedule.explicit([1, 2, 3]), 16, 64, [8, 16])
    with pytest.raises(ValueError):
        circle_column_sups(a, Schedule.superexp(), 40, 64, [40])
    with pytest.raises(ValueError):
        circle_column_sups(a, Schedule.identity(), 16, 64, [16, 8])
    with pytest.raises(ValueError):
        circle_column_sups(a, Schedule.identity(), 16, 0, [16])
    sups, argj = circle_column_sups(a, Schedule.identity(), 16, 64, [])
    assert sups.size == 0 and argj.size == 0


def test_measure_K_streams_in_small_memory():
    import tracemalloc
    G = WeightSeq.from_text("n", n0=1)
    a = ModulationSeq.explicit(np.exp(2j * np.pi * 0.3 * np.arange(1, 1025) ** 2))
    tracemalloc.start()
    try:
        measure_K(a, Schedule.identity(), G, 1024, M_grid=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense magnitude matrix plus its ratio matrix took 2 M n 8 B = 64 MB
    assert peak < 8 * 2**20


def test_sup_circle_against_dense_scan():
    rng_phase = np.exp(2j * np.pi * 0.3 * np.arange(1, 65) ** 2)
    a = ModulationSeq.explicit(rng_phase)
    sched = Schedule.identity()
    res = sup_circle(a, sched, 64, M_grid=1 << 14)
    dense = 0.0
    angles = 2.0 * np.pi * np.arange(10**6) / 10**6
    coefs = rng_phase
    n_vals = np.arange(1, 65, dtype=float)
    for lo in range(0, 10**6, 4096):
        chunk = angles[lo:lo + 4096]
        dense = max(dense, float(np.abs(
            np.exp(1j * np.outer(chunk, n_vals)) @ coefs).max()))
    assert res.value >= dense - 1e-9
    assert res.value <= dense * (1.0 + 1e-6)


def test_sup_circle_coarse_grid_guard():
    a = ModulationSeq.constant(1.0)
    with pytest.raises(ValueError):
        sup_circle(a, Schedule.identity(), 64, M_grid=16)
    res = sup_circle(a, Schedule.identity(), 64, M_grid=16, allow_coarse=True)
    assert res.grid_size == 16


def test_measure_K_constant_modulation():
    G = WeightSeq.from_text("n", n0=1)
    m = measure_K(ModulationSeq.constant(1.0), Schedule.identity(), G, 64)
    # sup_lam |sum_{k<=n} lam^k| / n = 1, attained at lam = 1
    assert m.K == pytest.approx(1.0, rel=1e-12)


def test_measure_K_covers_all_prefixes():
    # the sup runs over every n <= n_max, not only the final n
    vals = [1.0, -1.0, -1.0, -1.0]
    a = ModulationSeq.explicit(vals)
    G = WeightSeq.from_callable(lambda n: np.ones_like(np.asarray(n, float)),
                                n0=1, label="1")
    m = measure_K(a, Schedule.identity(), G, 4, M_grid=4096)
    # |psi_2| can reach 2 at lam = -1 even though |psi_4| <= 2 as well;
    # check K >= max_n max_lam |psi_n|
    for n in range(1, 5):
        angles = 2.0 * np.pi * np.arange(512) / 512
        mags = np.abs(np.exp(1j * np.outer(angles, np.arange(1, n + 1))) @
                      np.asarray(vals[:n]))
        assert m.K >= mags.max() - 1e-9


# ---------------------------------------------------------------------------
# hilbert transforms


def test_phi_series_t0_equals_hilbert_partial():
    space = SampleSpace.circle(64)
    T = LinearOperator.koopman(Transformation.rotation(space, 3))
    f = random_field(space, 1, seed=4)
    W = WeightSeq.from_text("n", n0=1)
    a = ModulationSeq.constant(1.0)
    h = hilbert_partial(a, T, Schedule.identity(), W, f, 20)
    p = phi_series(a, T, Schedule.identity(), W, beta=0.5, t=0.0, f=f, n=20)
    assert np.array_equal(h.values, p.values)


def test_phi_series_requires_bounded_operator():
    space = SampleSpace.finite(2)
    T = LinearOperator.from_matrix(np.eye(2) * 3.0)
    f = random_field(space, 2, seed=5)
    with pytest.raises(ValueError):
        hilbert_partial(ModulationSeq.constant(1.0), T, Schedule.identity(),
                        WeightSeq.from_text("n", n0=1), f, 5)


def test_hilbert_partial_koopman_oracle():
    # rotation koopman on characters: sum_k lam^{n_k} e_m(x + n_k j / M) / W_k
    space = SampleSpace.circle(32)
    T = LinearOperator.koopman(Transformation.rotation(space, 1))
    from ergolab.operators import character_field
    f = character_field(space, 1)
    W = WeightSeq.from_text("n", n0=1)
    out = hilbert_partial(ModulationSeq.constant(1.0), T,
                          Schedule.identity(), W, f, 8)
    phases = sum(np.exp(2j * np.pi * k / 32) / k for k in range(1, 9))
    assert np.allclose(out.values, f.values * phases, atol=1e-13)


@pytest.mark.parametrize("r, n", [(6.5, 160), (7.75, 77)])
def test_hilbert_partial_fractional_schedule_direct_sum(r, n):
    # sum_k f(x + n_k/64)/k with the n_k of Schedule.values; a kernel that
    # mixed two formulas for n_k was off here by 6.3e-3 and 1.6e-2 of max|sum|
    M = 64
    space = SampleSpace.circle(M)
    T = LinearOperator.koopman(Transformation.rotation(space, 1))
    f = random_field(space, 1, seed=11)
    sched = Schedule.power(r)
    out = hilbert_partial(ModulationSeq.constant(1.0), T, sched,
                          WeightSeq.from_text("n", n0=1), f, n)
    x = np.arange(M)
    direct = sum(f.values[(x + nk) % M] / k
                 for k, nk in enumerate(sched.values(n).tolist(), start=1))
    assert np.abs(out.values - direct).max() <= 1e-12 * np.abs(direct).max()


# ---------------------------------------------------------------------------
# bound checks


def test_twisted_bound_holds_and_reports_per_r():
    a = ModulationSeq.constant(1.0)
    G = WeightSeq.from_text("n", n0=1)
    rep = twisted_bound_check(a, Schedule.identity(), G, K=1.0,
                              rs=(0.5, 1.0, 2.0), n_ladder=(32, 64),
                              n_lambda=128)
    assert rep.max_ratio <= 1.0 + 1e-9
    assert rep.worst["ratio"] == rep.max_ratio
    per_r = {e["r"]: e["max_ratio"] for e in rep.entries if "max_ratio" in e}
    assert set(per_r) == {0.5, 1.0, 2.0}
    assert all(0.0 < v <= rep.max_ratio for v in per_r.values())


def test_twisted_bound_lhs_oracle():
    # at r = 1, n = 8 the left side at lam = 1 is |sum k^i|; the grid must
    # reach at least that value
    a = ModulationSeq.constant(1.0)
    G = WeightSeq.from_text("n", n0=1)
    rep = twisted_bound_check(a, Schedule.identity(), G, K=1.0, rs=(1.0,),
                              n_ladder=(8,), n_lambda=64)
    lhs = [e["lhs"] for e in rep.entries if e.get("n") == 8][0]
    at_one = abs(sum(k ** 1j for k in range(1, 9)))
    assert lhs >= at_one - 1e-12


def test_interpolation_bound_endpoints_exact():
    assert interpolation_bound(100, 0.7, 2.0, 5.0, 2.0) == 10.0
    assert interpolation_bound(100, 0.7, 2.0, 5.0, 1.0) == 70.0
    mid = interpolation_bound(100, 1.0, 2.0, 5.0, 1.5)
    assert mid == pytest.approx(100 ** (1.0 / 3.0) * 10.0 ** (2.0 / 3.0))
    with pytest.raises(ValueError):
        interpolation_bound(10, 1.0, 1.0, 1.0, 2.5)


def test_opnorm_series_contraction():
    rng = np.random.Generator(np.random.Philox(key=21))
    A0 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    from ergolab.operators import operator_norm
    A = LinearOperator.from_matrix(A0 / operator_norm(A0))
    inst = example_instance("E5")
    a = ModulationSeq.constant(1.0)
    K = measure_K(a, Schedule.identity(), inst.G, 256).K
    rep, = opnorm_series(a, [A], Schedule.identity(), inst.W,
                         (32, 64, 128, 256), K=K, G=inst.G, tail_N=10**5)
    assert rep.all_pairs_ok
    assert len(rep.gaps) == 3


# ---------------------------------------------------------------------------
# sigma machinery


def test_sigma_single_term():
    G = WeightSeq.from_text("n", n0=1)
    sched = Schedule.identity()
    lo, hi = sigma_of_t(G, sched, 1.3, N=1, alpha=0.5, tail=0.0)
    assert lo == pytest.approx(2.0 * abs(math.sin(0.65)))
    assert hi == lo


def test_sigma_zero_at_origin():
    G = WeightSeq.from_text("n", n0=1)
    lo, hi = sigma_of_t(G, Schedule.identity(), 0.0, N=100, alpha=0.5)
    assert lo == 0.0
    assert hi == 0.0


def test_sigma_upper_dominates_lower():
    G = WeightSeq.from_text("n", n0=1)
    ts = np.linspace(0.0, 2.0 * np.pi, 257)
    lo, hi = sigma_grid(G, Schedule.identity(), ts, N=50, alpha=0.5)
    assert np.all(hi >= lo)


def test_gamma_tail_brackets_remainder():
    G = WeightSeq.from_text("n", n0=1)
    tail = gamma_tail(G, Schedule.identity(), alpha=0.5, N=1000)
    exact_rest = math.fsum(k**0.5 / k**2 for k in range(1001, 10**6))
    assert exact_rest <= tail
    assert tail < 10.0 * exact_rest


def test_rearrangement_equimeasurable():
    rng = np.random.Generator(np.random.Philox(key=31))
    samples = rng.random(1 << 14) * 3.0
    res = rearrangement_and_I(samples)
    assert np.all(np.diff(res.sigma_bar) >= 0.0)
    for u in (0.5, 1.5, 2.9):
        frac = np.mean(samples < u)
        assert res.distribution(u) == pytest.approx(2.0 * np.pi * frac,
                                                    abs=1e-3)


def test_rearrangement_constant_sigma():
    c = 0.75
    res = rearrangement_and_I(np.full(1 << 14, c))
    assert res.I == pytest.approx(2.0 * c * (res.u_max - res.u_min), rel=1e-12)
    assert res.diverged             # constant sigma never decays at s -> 0


def test_rearrangement_vanishing_sigma_converges():
    # sigma with a genuine zero: sampled |sin| over a grid reaching 2 pi
    t = (np.arange(1, (1 << 14) + 1)) / (1 << 14) * 2.0 * np.pi
    res = rearrangement_and_I(np.abs(np.sin(t / 2.0)))
    assert res.sigma_bar[0] == pytest.approx(0.0, abs=1e-12)
    assert not res.diverged
    assert res.I > 0.0


def test_I_majorant_closed_form_vs_quadrature():
    from scipy.integrate import quad
    alpha, gamma = 0.5, 2.0
    val, _ = quad(lambda s: s ** (alpha / 2.0 - 1.0)
                  / math.sqrt(math.log(8.0 * math.pi / s)), 0.0, 2.0 * np.pi)
    expected = 2.0 ** (1.0 - alpha / 2.0) * math.sqrt(gamma) * val
    assert I_majorant(alpha, gamma) == pytest.approx(expected, rel=1e-8)
