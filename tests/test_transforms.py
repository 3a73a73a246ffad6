"""Weighted series, modulated polynomials, circle suprema, bound checks,
and the sigma/rearrangement machinery."""

import csv
import math

import numpy as np
import pytest

from ergolab import operators, transforms
from ergolab.operators import (LinearOperator, SampleSpace, Transformation,
                               VectorField, lp_norms, random_field)
from ergolab.registry import example_instance
from ergolab.transforms import (I_majorant, ModulationSeq, TransformTrace,
                                circle_column_sups, circle_prefix_rows,
                                gamma_tail, hilbert_partial,
                                interpolation_bound, interpolation_bound_check,
                                ladder_rows, measure_K,
                                modulated_poly, opnorm_series,
                                rearrangement_and_I, series_rows, sigma_grid,
                                twisted_bound_check, weighted_series)
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
    rows = np.arange(30.0).reshape(3, 10) + 1j
    picked = np.array([3, 5, 4, 9])
    assert np.array_equal(ModulationSeq.explicit(rows).values(picked), rows[:, picked - 1])


def test_modulation_rejects_non_unimodular_rotation():
    with pytest.raises(ValueError):
        ModulationSeq.rotation(2.0)


# ---------------------------------------------------------------------------
# traces


def test_trace_csv_roundtrip(tmp_path):
    tr = TransformTrace(p=2.0)
    tr.record_block([1], np.array([[1.0, 3.0]]), [0.5], [None])
    tr.record_block([4], np.array([[2.0, 1.0]]), [0.25], [None])
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


@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_trace_block_is_row_by_row(p):
    rng = np.random.Generator(np.random.Philox(key=9))
    pts = np.abs(rng.standard_normal((12, 2049))) * 10.0 ** rng.uniform(-5, 5, (12, 2049))
    w = rng.random(2049)
    one, block = TransformTrace(w, p), TransformTrace(w, p)
    for n, row in enumerate(pts, start=1):
        one.record_block([n], row[None].copy(), [n / 7], [n / 3])
    block.record_block([1, 2, 3], pts[:3].copy(), [1 / 7, 2 / 7, 3 / 7], [1 / 3, 2 / 3, 1.0])
    block.record_block(range(4, 13), pts[3:].copy(), [n / 7 for n in range(4, 13)],
                       [n / 3 for n in range(4, 13)])
    assert block.rows == one.rows
    # the running maximum's norm, one row at a time as a 1-D reduction
    expect = [float(m.max(initial=0.0)) if math.isinf(p) else float(np.sum(w * m**p) ** (1 / p))
              for m in np.maximum.accumulate(pts)]
    assert [row["running_max_Lp"] for row in one.rows] == expect


# ---------------------------------------------------------------------------
# series of terms


def test_series_rows_is_one_running_sum_across_blocks():
    rng = np.random.Generator(np.random.Philox(key=12))
    V = rng.standard_normal((23, 4, 2)) + 1j * rng.standard_normal((23, 4, 2))
    c = rng.standard_normal(23) + 1j * rng.standard_normal(23)
    whole = np.cumsum(V * c[:, None, None], axis=0)
    cuts = [0, 1, 8, 9, 23]
    got = list(series_rows((V[a:b] for a, b in zip(cuts, cuts[1:])), c))
    assert [i0 for i0, _ in got] == cuts[:-1]
    assert np.array_equal(np.concatenate([S for _, S in got]), whole)


def test_ladder_rows_are_distinct_sorted_and_reached():
    assert ladder_rows((64, 16, 16, 32), 16) == [16, 32, 64]
    with pytest.raises(ValueError, match="ladder entry 8 lies below the start index 16"):
        ladder_rows((32, 8), 16)


# ---------------------------------------------------------------------------
# weighted series


def _random_fields(space, count, seed):
    return [random_field(space, 1, seed=seed * 1000 + k) for k in range(count)]


def test_abel_identity_small():
    space = SampleSpace.finite(2)
    fs = _random_fields(space, 50, seed=2)
    W = WeightSeq.from_text("n^0.5", n0=1)
    direct, abel = weighted_series(lambda k: fs[k - 1], W, 50)
    assert np.allclose(direct.values, abel.values, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# modulated polynomials and circle suprema


def _psi(a, sched, n, lam, k_start=1):
    """psi_n(lam) of the modulation's series, from the arrays of ``_terms``."""
    return modulated_poly(*transforms._terms(a, sched, n, k_start), lam)


def test_modulated_poly_oracles():
    ident = Schedule.identity()
    ones = ModulationSeq.constant(1.0)
    assert _psi(ones, ident, 17, 1.0 + 0j) == pytest.approx(17.0)
    w = np.exp(2j * np.pi / 3.0)
    assert abs(_psi(ones, ident, 3, w)) == pytest.approx(0.0, abs=1e-14)
    alt = ModulationSeq.explicit([(-1.0) ** k for k in range(1, 6)])
    assert _psi(alt, ident, 5, -1.0 + 0j) == pytest.approx(5.0)
    # lam - lam^3 at lam = i
    assert modulated_poly(np.array([1.0, -1.0]), np.array([1, 3]), 1j) == pytest.approx(2j)


def _dense_column_mags(a, sched, M, cols, k_start=1):
    """|psi_m(omega^j)| for each m in cols and every j, one fsum per point."""
    return np.asarray([
        [abs(_psi(a, sched, m, np.exp(2j * np.pi * j / M), k_start))
         for j in range(M)]
        for m in cols])


def _sups(a, sched, n, M, cols, k_start=1):
    """circle_column_sups of the modulation's series, fed as its callers feed
    it: the arrays of ``_terms``."""
    return circle_column_sups(*transforms._terms(a, sched, n, k_start), M, cols, k_start)


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
    sups, argj, _ = _sups(a, sched, n, M, cols, k_start)
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
    sups = _sups(ModulationSeq.explicit(coefs), sched, 11, M, range(1, 12))[0]
    for m in (1, 4, 5, 9, 11):
        # exact residues keep this dense reference exact in the phase
        phases = np.exp(2j * np.pi * np.outer(np.arange(M), sched.values(m) % M) / M)
        assert sups[m - 1] == pytest.approx(np.abs(phases @ coefs[:m]).max(), rel=1e-12)


def test_circle_column_sups_ties_take_lowest_index():
    # psi(lam) = lam - lam^3 on the 4th roots of unity is 0, 2, 0, 2
    a = ModulationSeq.explicit([1.0, -1.0])
    sups, argj, _ = _sups(a, Schedule.explicit([1, 3]), 2, 4, [1, 2])
    assert sups.tolist() == [1.0, 2.0]
    assert argj.tolist() == [0, 1]


def test_measure_K_tie_prefers_lowest_grid_index_then_n():
    # |psi_2| and |psi_3| both peak at exactly 5: at j = 2 and at j = 1
    a = ModulationSeq.explicit([2 - 2j, -1 + 2j, 1 + 1j])
    sched = Schedule.explicit([3, 6, 7])
    sups, argj, _ = _sups(a, sched, 3, 4, [1, 2, 3])
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
        _sups(a, Schedule.explicit([1, 2, 3]), 16, 64, [8, 16])
    with pytest.raises(ValueError):
        _sups(a, Schedule.superexp(), 40, 64, [40])
    with pytest.raises(ValueError):
        _sups(a, Schedule.identity(), 16, 64, [16, 8])
    with pytest.raises(ValueError):
        _sups(a, Schedule.identity(), 16, 0, [16])
    with pytest.raises(ValueError, match="15 coefficients for 16 indices n_k"):
        circle_column_sups(np.ones(15), np.arange(1, 17), 64, [16])
    sups, argj, _ = _sups(a, Schedule.identity(), 16, 64, [])
    assert sups.size == 0 and argj.size == 0


@pytest.mark.parametrize("closed_row", [False, True])
def test_circle_column_sups_leave_the_stored_rows_unchanged(closed_row):
    # the kernel reads the rows as given (a view of k = 5..80 here), as one
    # stack or, with a closed-form row among them, through a copy of the grid
    # rows; it writes into none
    rng = np.random.Generator(np.random.Philox(key=29))
    rows = rng.standard_normal((4, 80)) + 1j * rng.standard_normal((4, 80))
    if closed_row:
        rows[1] = np.abs(rows[1])
    kept = rows.copy()
    circle_column_sups(rows[:, 4:], Schedule.power(2.0).values(80)[4:], 64,
                       [5, 40, 80], 5)
    assert rows.tobytes() == kept.tobytes()


@pytest.mark.parametrize("lead", [(), (4,)])
def test_empty_columns_keep_the_sample_axis(lead):
    sups, argj, closed = circle_column_sups(np.ones(lead + (16,), dtype=complex),
                                            np.arange(1, 17), 8, [], 1)
    assert sups.shape == argj.shape == lead + (0,) and closed.shape == lead
    assert argj.dtype == np.int64 and closed.dtype == bool


def test_circle_column_sups_find_the_schedule_reach_once(monkeypatch):
    # the reach bisection calls Schedule.value; the identity's values() does not
    value = Schedule.value
    calls = []
    monkeypatch.setattr(Schedule, "value",
                        lambda self, k: calls.append(k) or value(self, k))
    sched = Schedule.identity()
    a = ModulationSeq.explicit(np.exp(2j * np.pi * 0.3 * np.arange(1, 65) ** 2))
    first = _sups(a, sched, 64, 16, [32, 64])
    searched = len(calls)
    for _ in range(3):
        again = _sups(a, sched, 64, 16, [32, 64])
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert searched > 0 and len(calls) == searched


def test_measure_K_evaluates_the_series_once(monkeypatch):
    # the grid sups and every golden-section step of the refinement read one
    # evaluation of the schedule and the modulation
    values = Schedule.values
    calls = []
    monkeypatch.setattr(Schedule, "values",
                        lambda self, *args: calls.append(args) or values(self, *args))
    a = ModulationSeq.rotation(np.exp(2j * np.pi * 0.3))
    sched, G = Schedule.identity(), WeightSeq.from_text("n^0.5", n0=1)
    m = measure_K(a, sched, G, 512)
    assert calls == [(512,)]
    # the refinement won, and its value is psi_n at the reported lam
    psi = abs(_psi(a, sched, m.n_at_max, m.lam))
    assert m.K == psi / G.prefix(m.n_at_max)[-1]


def test_real_coefficients_take_the_half_rows(monkeypatch):
    # a real series reaches the kernel's half rows; the sups are the full
    # rows' and the lowest maximizing j lies in the half row
    sched, n, M, k_start = Schedule.power(2.0), 60, 50, 3
    rng = np.random.Generator(np.random.Philox(key=31))
    coefs = rng.standard_normal((3, n - k_start + 1))
    n_ints = sched.values(n)[k_start - 1:]
    cols = [k_start, 10, 33, n]
    sups, argj, closed = circle_column_sups(coefs, n_ints, M, cols, k_start)
    full, full_j, _ = circle_column_sups(coefs.astype(complex), n_ints, M, cols, k_start)
    assert not closed.any()
    assert np.allclose(sups, full, rtol=1e-13, atol=0.0)
    assert np.all(argj <= M // 2)
    assert np.all(np.minimum(full_j, M - full_j) == argj)


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
    G = WeightSeq.from_callable(lambda n: np.ones_like(np.asarray(n, float)),
                                n0=1, label="1")
    res = measure_K(a, Schedule.identity(), G, 64, M_grid=1 << 14)
    # G = 1, so K is the sup of |psi_n| over the circle and every n <= 64
    dense = 0.0
    angles = 2.0 * np.pi * np.arange(10**6) / 10**6
    n_vals = np.arange(1, 65, dtype=float)
    for lo in range(0, 10**6, 4096):
        chunk = angles[lo:lo + 4096]
        prefixes = np.cumsum(np.exp(1j * np.outer(chunk, n_vals)) * rng_phase, axis=1)
        dense = max(dense, float(np.abs(prefixes).max()))
    assert res.K >= dense - 1e-9
    assert res.K <= dense * (1.0 + 1e-6)


def test_sup_circle_coarse_grid_guard():
    a = ModulationSeq.constant(1.0)
    G = WeightSeq.from_text("n", n0=1)
    with pytest.raises(ValueError):
        measure_K(a, Schedule.identity(), G, 64, M_grid=16)
    res = measure_K(a, Schedule.identity(), G, 64, M_grid=16, allow_coarse=True)
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


def _must_not_run(*args, **kwargs):
    raise AssertionError("the closed form must not reach this call")


@pytest.mark.parametrize("sched, n, M, k_start", [
    (Schedule.identity(), 40, 256, 1),
    (Schedule.identity(), 40, 256, 5),
    (Schedule.power(2.0), 12, 600, 3),
    (Schedule.geometric(1.5), 14, 1024, 2),
    (Schedule.explicit([2, 3, 5, 11, 12, 40, 41, 90]), 8, 384, 2),
    (Schedule.identity(), 200, 16, 7),          # coarse grid: n_k > M
    (Schedule.power(2.0), 20, 24, 1),           # coarse, residues collide
])
def test_nonnegative_sups_are_the_closed_form(monkeypatch, sched, n, M, k_start):
    coefs = np.abs(_random_coefs(n, seed=n + M))
    coefs[n // 3] = 0.0
    a = ModulationSeq.explicit(coefs)
    cols = sorted({k_start, k_start + 1, (k_start + n) // 2, n - 1, n})
    monkeypatch.setattr("ergolab.transforms.circle_prefix_rows", _must_not_run)
    sups, argj, _ = _sups(a, sched, n, M, cols, k_start)
    mags = _dense_column_mags(a, sched, M, cols, k_start)
    assert np.allclose(sups, mags.max(axis=1), rtol=1e-13, atol=0.0)
    assert argj.tolist() == [0] * len(cols)
    assert np.allclose(mags[:, 0], sups, rtol=1e-13, atol=0.0)
    # the sup is the exactly rounded running sum of the coefficients
    assert sups.tolist() == [math.fsum(coefs[k_start - 1:m]) for m in cols]


@pytest.mark.parametrize("k_start", [1, 3])
def test_nonnegative_sups_span_many_blocks(monkeypatch, k_start):
    # M = 2^16 puts the FFT path's rows in blocks of 4 columns
    sched = Schedule.power(3.0)
    coefs = np.abs(_random_coefs(11, seed=11))
    M = 1 << 16
    monkeypatch.setattr("ergolab.transforms.circle_prefix_rows", _must_not_run)
    sups, argj, _ = _sups(ModulationSeq.explicit(coefs), sched, 11, M,
                          range(k_start, 12), k_start)
    assert not argj.any()
    for m in range(k_start, 12):
        phases = np.exp(2j * np.pi * np.outer(np.arange(M),
                                              sched.values(m)[k_start - 1:] % M) / M)
        dense = np.abs(phases @ coefs[k_start - 1:m]).max()
        assert sups[m - k_start] == pytest.approx(dense, rel=1e-13)


def test_nonnegative_exact_ties_take_index_zero():
    # every n_k is a multiple of M, so psi_m(omega^j) = psi_m(1) for every j
    coefs = [0.5, 2.0, 0.0, 1.25]
    a = ModulationSeq.explicit(coefs)
    sched = Schedule.explicit([8, 16, 40, 64])
    sups, argj, _ = _sups(a, sched, 4, 8, [1, 2, 3, 4])
    mags = _dense_column_mags(a, sched, 8, [1, 2, 3, 4])
    assert np.allclose(mags, mags[:, :1], rtol=1e-13, atol=0.0)
    assert sups.tolist() == [0.5, 2.5, 2.5, 3.75]
    assert argj.tolist() == [0, 0, 0, 0]


def _fft_path_sups(coefs, sched, n, M, cols, k_start=1):
    """Max and lowest argmax of |row| over the rows of circle_prefix_rows."""
    residues = sched.values(n)[k_start - 1:] % M
    sups, argj = [], []
    for _, X in circle_prefix_rows(np.asarray(coefs, dtype=complex), residues,
                                   M, cols, k_start):
        mags = np.abs(X)
        sups.extend(mags.max(axis=1))
        argj.extend(mags.argmax(axis=1))
    return np.asarray(sups), np.asarray(argj)


@pytest.mark.parametrize("bad", [-0.25, 0.25j, math.nan, math.inf])
def test_one_bad_coefficient_keeps_the_fft_path(bad):
    coefs = np.abs(_random_coefs(24, seed=3)).astype(complex)
    coefs[9] = bad
    sched = Schedule.power(2.0)
    cols = [1, 5, 10, 17, 24]
    with np.errstate(invalid="ignore"):
        sups, argj, _ = _sups(ModulationSeq.explicit(coefs), sched, 24, 64, cols)
        ref_sups, ref_argj = _fft_path_sups(coefs, sched, 24, 64, cols)
    assert np.array_equal(sups, ref_sups, equal_nan=True)
    assert argj.tolist() == ref_argj.tolist()


def test_measure_K_nonnegative_is_exact_without_refinement(monkeypatch):
    monkeypatch.setattr("ergolab.transforms._refine", _must_not_run)
    G = WeightSeq.from_text("n", n0=1)
    m = measure_K(ModulationSeq.constant(1.0), Schedule.identity(), G, 64)
    assert m.K == 1.0
    assert m.lam == 1
    assert m.n_at_max == 1
    m = measure_K(ModulationSeq.constant(1.0), Schedule.identity(),
                  WeightSeq.from_text("n", n0=5), 64)
    # sum_{5<=k<=n} 1 / n peaks at n = 64
    assert (m.K, m.n_at_max, m.lam) == (60 / 64, 64, 1)


def test_zero_modulation_has_K_zero_and_psi_zero():
    zero, ident = ModulationSeq.constant(0), Schedule.identity()
    m = measure_K(zero, ident, WeightSeq.from_text("n", n0=1), 64)
    assert m.K == 0.0
    assert _psi(zero, ident, 64, np.exp(0.3j)) == 0j


def _kernel_rows(coefs, residues, M, cols, k_start=1):
    """Every row of circle_prefix_rows, stacked: full rows for complex
    coefficients, half rows for real ones."""
    return np.concatenate([X.copy() for _, X in circle_prefix_rows(
        coefs, np.asarray(residues, dtype=np.int64), M, cols, k_start)])


@pytest.mark.parametrize("sched, n, M, k_start", [
    (Schedule.identity(), 40, 256, 1),
    (Schedule.identity(), 40, 257, 5),           # odd M: no Nyquist point
    (Schedule.geometric(1.5), 14, 1023, 2),
    (Schedule.power(2.0), 20, 24, 1),            # coarse, residues collide
    (Schedule.power(2.0), 30, 25, 3),            # odd and coarse
    (Schedule.power(3.0), 11, 1 << 16, 1),       # blocks of 4 columns
    (Schedule.power(3.0), 11, 1 << 16, 3),
])
def test_real_coefficients_give_the_half_rows(sched, n, M, k_start):
    rng = np.random.Generator(np.random.Philox(key=n + M))
    coefs = rng.standard_normal(n - k_start + 1)
    residues = sched.values(n)[k_start - 1:] % M
    cols = list(range(k_start, n + 1))
    full = _kernel_rows(coefs.astype(complex), residues, M, cols, k_start)
    half = _kernel_rows(coefs, residues, M, cols, k_start)
    h = M // 2 + 1
    assert full.shape == (len(cols), M) and half.shape == (len(cols), h)
    scale = np.abs(full).max(axis=1, keepdims=True)
    assert np.all(np.abs(half - full[:, :h]) <= 1e-13 * scale)
    # the value at j > M//2 is the conjugate of the value at M - j
    j = np.arange(h, M)
    assert np.all(np.abs(full[:, j] - half[:, M - j].conj()) <= 1e-13 * scale)


@pytest.mark.parametrize("coefs, residues, M", [
    ([1.0, -1.0], [1, 3], 4),                     # 0, 2, 0, 2
    ([1.0, -3.0], [4, 0], 8),                     # 2, 4, 2, 4, ...
    ([1.0, -3.0], [3, 0], 6),
    ([0.5, -2.0, 0.0, 1.25], [0, 0, 0, 0], 8),    # constant modulus
    ([0.5, -2.0, 0.0, 1.25], [0, 0, 0, 0], 7),
])
def test_half_row_max_ties_the_full_row_max(coefs, residues, M):
    cols = list(range(1, len(coefs) + 1))
    full = np.abs(_kernel_rows(np.asarray(coefs, dtype=complex), residues, M, cols))
    half = np.abs(_kernel_rows(np.asarray(coefs), residues, M, cols))
    # every column ties exactly at more than one j
    assert all(np.sum(row == row.max()) > 1 for row in full)
    assert half.max(axis=1).tolist() == full.max(axis=1).tolist()
    # the lowest maximizing j lies in the half row
    assert half.argmax(axis=1).tolist() == full.argmax(axis=1).tolist()


def _stacked_rows(coefs, residues, M, cols, k_start=1):
    """Every (S, B, M) block of a stacked circle_prefix_rows call, joined
    along the row axis."""
    return np.concatenate([X.copy() for _, X in circle_prefix_rows(
        coefs, residues, M, cols, k_start)], axis=1)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("sched, n, M, k_start, S", [
    (Schedule.identity(), 300, 64, 1, 5),
    (Schedule.identity(), 300, 65, 7, 3),        # odd M: no Nyquist point
    (Schedule.power(2.0), 40, 24, 3, 4),         # coarse, residues collide
    (Schedule.power(3.0), 11, 1 << 16, 1, 2),    # 1-D blocks of 4 rows, stacked of 2
    (Schedule.geometric(1.5), 14, 1023, 2, 1),
])
def test_stacked_prefix_rows_are_the_1d_rows(monkeypatch, real, sched, n, M,
                                             k_start, S):
    # blocks of 7 rows one sample at a time and of 7 // S rows stacked: each
    # sample's bins, carried prefixes and FFT rows match bit for bit
    monkeypatch.setattr(transforms, "_BLOCK_ENTRIES",
                        7 * M if M < 1 << 16 else transforms._BLOCK_ENTRIES)
    rng = np.random.Generator(np.random.Philox(key=n + M + S))
    coefs = rng.standard_normal((S, n - k_start + 1))
    if not real:
        coefs = coefs + 1j * rng.standard_normal(coefs.shape)
    coefs[0, ::5] = 0.0
    residues = sched.values(n)[k_start - 1:] % M
    # a repeated last column leaves the last stacked block without terms
    cols = [k_start, k_start + 1, *range(k_start + 2, n, 3), n, n]
    stacked = _stacked_rows(coefs, residues, M, cols, k_start)
    assert stacked.shape == (S, len(cols), M // 2 + 1 if real else M)
    for row, c in zip(stacked, coefs):
        assert row.tobytes() == _kernel_rows(c, residues, M, cols, k_start).tobytes()


def test_stacked_sups_mix_closed_form_and_grid_rows(monkeypatch):
    # a nonnegative row takes the closed form; the signed, complex and nan
    # rows share one stacked kernel call; every row is its 1-D call's
    sched, n, M, k_start = Schedule.power(2.0), 60, 48, 3
    rng = np.random.Generator(np.random.Philox(key=17))
    rows = rng.standard_normal((6, n)).astype(complex)
    rows[1] = np.abs(rows[1])
    rows[3] += 1j * rng.standard_normal(n)
    rows[4] = 0.0
    rows[5, 9] = math.nan
    cols = [k_start, 10, 33, 33, n]
    with np.errstate(invalid="ignore"):
        alone = [_sups(ModulationSeq.explicit(r), sched, n, M, cols, k_start)
                 for r in rows]
    calls = []
    kernel = transforms.circle_prefix_rows

    def counted(coefs, *args):
        calls.append(np.shape(coefs))
        return kernel(coefs, *args)

    monkeypatch.setattr(transforms, "circle_prefix_rows", counted)
    with np.errstate(invalid="ignore"):
        sups, argj, closed = _sups(ModulationSeq.explicit(rows), sched, n, M,
                                   cols, k_start)
    assert calls == [(4, n - k_start + 1)]
    assert closed.tolist() == [False, True, False, False, True, False]
    for i, (s1, a1, c1) in enumerate(alone):
        assert sups[i].tobytes() == s1.tobytes()
        assert argj[i].tolist() == a1.tolist() and closed[i] == c1


def test_stacked_sups_feed_the_kernel_at_most_2_18_over_m_rows(monkeypatch):
    # with 3 M entries per block, the 7 grid rows go to the kernel as stacks
    # of 3, 3 and 1 rows (closed-form rows between them take no stack), so a
    # block never holds more than max(2^18, M) entries at the real constant;
    # every row is its 1-D call's
    sched, n, M, k_start = Schedule.identity(), 90, 40, 2
    monkeypatch.setattr(transforms, "_BLOCK_ENTRIES", 3 * M)
    rng = np.random.Generator(np.random.Philox(key=23))
    rows = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
    rows[[2, 6]] = np.abs(rows[[2, 6]].real)
    cols = [k_start, 5, 17, 17, 60, n]
    alone = [_sups(ModulationSeq.explicit(r), sched, n, M, cols, k_start)
             for r in rows]
    calls = []
    kernel = transforms.circle_prefix_rows

    def counted(coefs, *args):
        calls.append(np.shape(coefs))
        return kernel(coefs, *args)

    monkeypatch.setattr(transforms, "circle_prefix_rows", counted)
    sups, argj, closed = _sups(ModulationSeq.explicit(rows), sched, n, M,
                               cols, k_start)
    assert calls == [(3, n - k_start + 1)] * 2 + [(1, n - k_start + 1)]
    assert np.flatnonzero(closed).tolist() == [2, 6]
    for i, (s1, a1, c1) in enumerate(alone):
        assert sups[i].tobytes() == s1.tobytes()
        assert argj[i].tolist() == a1.tolist() and closed[i] == c1


# ---------------------------------------------------------------------------
# hilbert transforms


def test_hilbert_partial_requires_bounded_operator():
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


def test_interpolation_check_entries_are_the_per_field_series(monkeypatch):
    # each block of powers is drawn once for all fields; every lhs is
    # bit-equal to the field's own series over T.blocks(n_ints, f)
    monkeypatch.setattr(operators, "_BLOCK_ENTRIES", 36 * 7)
    rng = np.random.Generator(np.random.Philox(key=12))
    T = LinearOperator.markov(sum(np.eye(6)[rng.permutation(6)] for _ in range(6)) / 6)
    fields = [random_field(SampleSpace.finite(6), 1, seed=s) for s in range(4)]
    a = ModulationSeq.rotation(np.exp(0.7j))
    sched, G, ladder = Schedule.power(2.0), WeightSeq.from_text("n", n0=1), (3, 40, 100)
    rep = interpolation_bound_check(a, T, sched, G, 1.0, 1.5, fields, ladder)
    n_ints = sched.values(100)
    coefs = a.values(np.arange(1, 101), n_ints.astype(float))
    want = []
    for f in fields:
        for i0, S in series_rows(T.blocks(n_ints, f), coefs):
            hit = [n - 1 - i0 for n in ladder if 0 <= n - 1 - i0 < len(S)]
            want += lp_norms(np.linalg.norm(S[hit], axis=2), f.space.weights, 1.5)
    assert [e["lhs"] for e in rep.entries] == want


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


def test_opnorm_tail_is_the_fsum_of_the_terms_from_j(monkeypatch):
    # the t8 setting: E5 weights, the (T21) terms summed to 10^6 plus the
    # class remainder past it
    from ergolab import transforms
    from ergolab.admissibility import _t21_class, _tail_estimate
    tails = []
    monkeypatch.setattr(transforms, "_opnorm_report",
                        lambda *args: tails.append(args[-1]))
    inst = example_instance("E5")
    G, W = inst.G, inst.W
    ladder = tuple(2**j for j in range(5, 13))
    K = 1.75
    opnorm_series(ModulationSeq.constant(1.0), [LinearOperator.from_matrix(np.eye(2))],
                  Schedule.identity(), W, ladder, K=K, G=G)
    tail, = tails
    k_start = max(W.n0, G.n0)
    g = G.prefix(10**6 + 1)[k_start - G.n0:]
    w = W.prefix(10**6 + 1)[k_start - W.n0:]
    terms = (g[:-1] / w[:-1]) * (1.0 - w[:-1] / w[1:])
    remainder = _tail_estimate(_t21_class(G, W), 10**6)
    assert remainder > 0.0
    for j in ladder:
        exact = K * (math.fsum(terms[j - k_start:]) + remainder)
        assert tail(j) == pytest.approx(exact, rel=1e-15)


def test_opnorm_snapshots_match_direct_matrix_powers(monkeypatch):
    # the drift bound for stepped powers A^{n_k} = A^{n_{k-1}} A^{n_k - n_{k-1}}:
    # the snapshots S_n = sum a_k A^{n_k} and S_n/W differences whose norms the
    # report takes match sums of np.linalg.matrix_power within 1e-12
    from ergolab import transforms
    from ergolab.operators import operator_norm
    seen = []

    def recording_norm(M):
        seen.append(np.array(M))
        return operator_norm(M)

    monkeypatch.setattr(transforms, "operator_norm", recording_norm)
    rng = np.random.Generator(np.random.Philox(key=31))
    # a unitary A: its powers do not decay, so the drift is not hidden
    A0 = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    inst = example_instance("E5")
    ladder = (32, 64, 128, 256)
    sched = Schedule.power(1.5)           # gaps of one and of several bits
    a = ModulationSeq.constant(1.0).compose(ModulationSeq.rotation(np.exp(0.7j)))
    opnorm_series(a, [LinearOperator.from_matrix(A0)], sched, inst.W, ladder,
                  K=1.0, G=inst.G, tail_N=10**4)
    k_start = max(inst.W.n0, inst.G.n0)
    n_ints = sched.values(ladder[-1])
    ks = np.arange(1, ladder[-1] + 1)
    coefs = a.values(ks, n_ints.astype(float))
    w = inst.W.prefix(ladder[-1])
    S, Sw, direct, direct_w = 0, 0, [], {}
    for k in range(k_start, ladder[-1] + 1):
        P = np.linalg.matrix_power(A0, int(n_ints[k - 1]))
        S = S + coefs[k - 1] * P
        Sw = Sw + coefs[k - 1] / w[k - inst.W.n0] * P
        if k in ladder:
            direct.append(S)
            direct_w[k] = Sw
    direct += [direct_w[n] - direct_w[j] for i, j in enumerate(ladder)
               for n in ladder[i + 1:]]
    assert len(seen) == len(direct)
    for got, want in zip(seen, direct):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# sigma machinery


def test_sigma_single_term():
    G = WeightSeq.from_text("n", n0=1)
    sched = Schedule.identity()
    t = 2.0 * np.pi * 3 / 8
    lo, hi = sigma_grid(G, sched, [t], N=1, alpha=0.5, tail=0.0)
    assert lo[0] == pytest.approx(2.0 * abs(math.sin(t / 2.0)))
    assert hi[0] == lo[0]


def _sigma_sum_reference(G, sched, M, N):
    """sum_k sin^2(pi q_jk/M)/G_k^2 at every j < M, from the exact integer
    phases q_jk = j (n_k mod M) mod M."""
    c = 1.0 / G.prefix(N) ** 2
    r = (sched.values(N)[G.n0 - 1:] % M).astype(np.int32)    # j r < M^2 = 2^28
    s2 = np.sin(np.pi * np.arange(M) / M) ** 2
    out = np.empty(M)
    for lo in range(0, M, 64):
        q = np.multiply.outer(np.arange(lo, lo + 64, dtype=np.int32), r) % M
        out[lo:lo + 64] = (s2[q] * c).sum(axis=1)
    return out


@pytest.mark.parametrize("sched", [Schedule.identity(), Schedule.power(2)],
                         ids=["identity", "power:2"])
def test_sigma_matches_the_exact_residue_reference_within_its_bound(sched):
    # under power:2, n_N = 10^8 + 1 lies far past M
    G = WeightSeq.from_text("n", n0=1)
    M, N = 1 << 14, 10**4
    lo, hi = sigma_grid(G, sched, 2.0 * np.pi * np.arange(M) / M, N, alpha=0.5,
                        tail=0.0)
    m = int(np.bincount(sched.values(N) % M).max())
    bound = 2.0**-53 * (6 * math.log2(M) + m) * math.fsum(1.0 / G.prefix(N) ** 2)
    assert np.abs((lo / 2.0) ** 2 - _sigma_sum_reference(G, sched, M, N)).max() <= bound
    assert lo[0] == 0.0 and np.array_equal(hi, lo)


def test_sigma_reads_grid_angles_in_any_rounding_order_and_refuses_others():
    G = WeightSeq.from_text("n", n0=1)
    sched = Schedule.identity()
    M = 1 << 10
    j = np.arange(-M, 2 * M + 1)
    lo, hi = sigma_grid(G, sched, 2.0 * np.pi * j / M, 100, alpha=0.5)
    for ts in (j / M * 2.0 * np.pi, j * (2.0 * np.pi / M)):
        lo2, hi2 = sigma_grid(G, sched, ts, 100, alpha=0.5)
        assert np.array_equal(lo2, lo) and np.array_equal(hi2, hi)
    lo2, hi2 = sigma_grid(G, sched, np.linspace(0.0, 2.0 * np.pi, M + 1), 100,
                          alpha=0.5)
    assert np.array_equal(lo2, lo[M:2 * M + 1]) and np.array_equal(hi2, hi[M:2 * M + 1])
    assert np.array_equal(lo[:M], lo[M:2 * M]) and lo[M] == 0.0
    for t in (1.3, 2.0 * np.pi / 3.0, 2.0 * np.pi / 2**23, math.nan, math.inf):
        with pytest.raises(ValueError, match="power of two"):
            sigma_grid(G, sched, [0.0, t], 100, alpha=0.5)


def test_sigma_zero_at_origin():
    G = WeightSeq.from_text("n", n0=1)
    lo, hi = sigma_grid(G, Schedule.identity(), [0.0], N=100, alpha=0.5)
    assert lo[0] == 0.0
    assert hi[0] == 0.0


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


def test_rearrangement_refuses_fewer_than_2_14_samples():
    with pytest.raises(ValueError, match="at least 16384"):
        rearrangement_and_I(np.ones((1 << 14) - 1))


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
