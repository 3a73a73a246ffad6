"""Random modulation streams, Monte Carlo estimates, convergence diagnostics."""

import numpy as np
import pytest

from ergolab import stochastics
from ergolab.admissibility import series_report
from ergolab.operators import Cocycle, SampleSpace, Transformation, VectorField
from ergolab.stochastics import (MCEstimate, RandomModulation,
                                 ae_convergence_diag, canonical_hash,
                                 random_hilbert, random_sup_stat)
from ergolab.transforms import ModulationSeq
from ergolab.weights import Schedule, WeightSeq

LADDER = (10**2, 10**3, 10**4)


def _report(verdict_terms):
    return series_report("pre", {}, verdict_terms, 1, 10**4, None, LADDER)


def _converging():
    return _report(lambda ks: 1.0 / ks.astype(float) ** 2)


def _diverging():
    return _report(lambda ks: np.ones(len(ks)))


# ---------------------------------------------------------------------------
# hashing


def test_canonical_hash_ignores_key_order():
    a = {"x": 1, "y": [1, 2], "z": {"p": 3, "q": 4}}
    b = {"z": {"q": 4, "p": 3}, "y": [1, 2], "x": 1}
    assert canonical_hash(a) == canonical_hash(b)
    assert canonical_hash(a) != canonical_hash({"x": 2, "y": [1, 2]})


# ---------------------------------------------------------------------------
# random modulation streams


def test_draw_prefix_stability():
    mod = RandomModulation("gaussian", seed=7)
    long = mod.draws(3, 100)
    short = mod.draws(3, 50)
    assert np.array_equal(long[:50], short)


def test_draws_independent_of_other_samples():
    mod = RandomModulation("gaussian", seed=7)
    a = mod.draws(0, 64)
    b = mod.draws(1, 64)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, mod.draws(0, 64))


def test_rademacher_values():
    mod = RandomModulation("rademacher", seed=1)
    d = mod.draws(0, 500)
    assert set(d.real.tolist()) == {-1.0, 1.0}
    assert np.all(d.imag == 0.0)
    flipped = mod.draws(0, 500, sign=-1)
    assert np.array_equal(flipped, -d)


def test_zero_law_and_bad_law():
    assert np.all(RandomModulation("zero", seed=0).draws(5, 10) == 0.0)
    with pytest.raises(ValueError):
        RandomModulation("uniform", seed=0)
    with pytest.raises(ValueError):
        RandomModulation("zero", seed=0).draws(0, 0)


def test_modulation_wrapper_matches_draws():
    mod = RandomModulation("complex-gaussian", seed=3)
    seq = mod.modulation(2, 20)
    ks = np.arange(1, 21)
    assert np.array_equal(seq.values(ks), mod.draws(2, 20))


# ---------------------------------------------------------------------------
# estimates and the regime gate


def test_mc_estimate_summaries():
    est = MCEstimate("s", [1.0, 2.0, 3.0, 4.0], 0, {"a": 1}, "unchecked")
    assert est.samples == 4
    assert est.mean == pytest.approx(2.5)
    assert est.max == 4.0
    assert est.moment(2.0) == pytest.approx(np.sqrt(30.0 / 4.0))
    assert est.quantile(0.5) == pytest.approx(2.5)
    assert est.to_json()["config_hash"] == canonical_hash({"a": 1})


def test_regime_gate_raises_on_divergent_precondition():
    mod = RandomModulation("rademacher", seed=0)
    G = WeightSeq.from_text("n", n0=1)
    with pytest.raises(ValueError):
        random_sup_stat(mod, G, Schedule.identity(), (32, 64), 32, 2,
                        regime_reports=[_diverging()])
    est = random_sup_stat(mod, G, Schedule.identity(), (32, 64), 32, 2,
                          regime_reports=[_diverging()], no_regime_check=True)
    assert est.regime == "unchecked"
    good = random_sup_stat(mod, G, Schedule.identity(), (32, 64), 32, 2,
                           regime_reports=[_converging()])
    assert good.regime == "theorem"
    assert len(good.admissibility_hashes) == 1


def test_sup_stat_zero_law_is_zero():
    est = random_sup_stat(RandomModulation("zero", seed=0),
                          WeightSeq.from_text("n", n0=1), Schedule.identity(),
                          (16, 32), 16, 3)
    assert est.per_sample == [0.0, 0.0, 0.0]
    assert est.regime == "unchecked"


def test_sup_stat_thread_invariance():
    mod = RandomModulation("complex-gaussian", seed=11)
    G = WeightSeq.from_text("n^0.5", n0=1)
    kwargs = dict(n_lambda=64, samples=6, no_regime_check=True)
    base = random_sup_stat(mod, G, Schedule.identity(), (64, 128), **kwargs)
    for threads in (4, 8):
        again = random_sup_stat(mod, G, Schedule.identity(), (64, 128),
                                threads=threads, **kwargs)
        assert again.digest() == base.digest()


# ---------------------------------------------------------------------------
# random hilbert transforms over a cocycle


def _constant_setup():
    space = SampleSpace.finite(3)
    base = Transformation.permutation(space, np.roll(np.arange(3), -1))
    T = np.array([[0.3, 0.4], [0.1, 0.2]])
    return Cocycle.constant(base, T), T


def test_deterministic_hilbert_matches_matrix_sum():
    C, T = _constant_setup()
    W = WeightSeq.from_text("n", n0=1)
    est = random_hilbert(ModulationSeq.constant(1.0), C, None, [1.0, 0.0],
                         Schedule.identity(), W, (2, 4), samples=5,
                         no_regime_check=True)
    assert est.samples == 1       # deterministic modulation collapses sampling
    g = np.array([1.0, 0.0], dtype=complex)
    manual = sum(np.linalg.matrix_power(T, k) @ g / k for k in range(1, 5))
    final = est.final_fields[0]
    assert final.shape == (3, 2)
    assert np.allclose(final, manual[None, :], atol=1e-14)
    # running max over prefixes, identical at every base point
    prefixes = [sum(np.linalg.matrix_power(T, j) @ g / j
                    for j in range(1, k + 1)) for k in range(1, 5)]
    expected = max(np.linalg.norm(p) for p in prefixes)
    assert est.per_sample[0] == pytest.approx(expected, rel=1e-13)
    assert len(est.extra["cauchy_gaps"][0]) == 1


def test_hilbert_repeated_ladder_entry_is_matched_once():
    C, _ = _constant_setup()
    mod = RandomModulation("gaussian", seed=3)
    W = WeightSeq.from_text("n", n0=1)
    runs = [random_hilbert(mod, C, None, [1.0, 0.0], Schedule.identity(), W,
                           ladder, samples=3, no_regime_check=True)
            for ladder in ((16, 32, 32), (16, 32))]
    assert runs[0].per_sample == runs[1].per_sample
    assert runs[0].extra["cauchy_gaps"] == runs[1].extra["cauchy_gaps"]
    for a, b in zip(runs[0].final_fields, runs[1].final_fields):
        assert np.array_equal(a, b)


def test_hilbert_block_size_does_not_change_results(monkeypatch):
    # the running sums are taken in blocks of rows with the last row carried;
    # one row per block is the plain sequential sum
    C, _ = _constant_setup()
    mod = RandomModulation("complex-gaussian", seed=9)
    args = (mod, C, None, [1.0, 0.0], Schedule.identity(),
            WeightSeq.from_text("n", n0=1), (5, 9, 30))
    base = random_hilbert(*args, samples=3, no_regime_check=True)
    for entries in (6, 42):       # M d = 6: blocks of 1 and of 7 rows
        monkeypatch.setattr(stochastics, "_BLOCK_ENTRIES", entries)
        again = random_hilbert(*args, samples=3, no_regime_check=True)
        assert again.digest() == base.digest()
        for a, b in zip(again.final_fields, base.final_fields):
            assert np.array_equal(a, b)


def test_hilbert_rejects_vector_h():
    C, _ = _constant_setup()
    h = VectorField(C.space, np.ones((3, 2)))
    with pytest.raises(ValueError):
        random_hilbert(ModulationSeq.constant(1.0), C, h, [1.0, 0.0],
                       Schedule.identity(), WeightSeq.from_text("n", n0=1),
                       (2, 4), samples=1, no_regime_check=True)


def test_hilbert_scalar_h_weights_orbit():
    # h != 1 must change the output through the orbit values
    C, T = _constant_setup()
    vals = np.array([[1.0], [2.0], [3.0]], dtype=complex)
    h = VectorField(C.space, vals)
    W = WeightSeq.from_text("n", n0=1)
    est = random_hilbert(ModulationSeq.constant(1.0), C, h, [1.0, 0.0],
                         Schedule.identity(), W, (3,), samples=1,
                         no_regime_check=True)
    g = np.array([1.0, 0.0], dtype=complex)
    # base point 0 visits 1, 2, 0 at times 1, 2, 3
    manual = sum(vals[(0 + k) % 3, 0] * (np.linalg.matrix_power(T, k) @ g) / k
                 for k in range(1, 4))
    assert np.allclose(est.final_fields[0][0], manual, atol=1e-14)


def test_hilbert_thread_invariance():
    C, _ = _constant_setup()
    mod = RandomModulation("rademacher", seed=5)
    W = WeightSeq.from_text("n", n0=1)
    base = random_hilbert(mod, C, None, [1.0, 0.0], Schedule.identity(), W,
                          (4, 8, 16), samples=6, no_regime_check=True)
    again = random_hilbert(mod, C, None, [1.0, 0.0], Schedule.identity(), W,
                           (4, 8, 16), samples=6, no_regime_check=True,
                           threads=4)
    assert again.digest() == base.digest()


def test_hilbert_ladder_below_start_rejected():
    C, _ = _constant_setup()
    with pytest.raises(ValueError):
        random_hilbert(ModulationSeq.constant(1.0), C, None, [1.0, 0.0],
                       Schedule.identity(), WeightSeq.from_text("n", n0=2),
                       (1, 4), samples=1, no_regime_check=True)


# ---------------------------------------------------------------------------
# a.e. convergence diagnostics


def test_ae_diag_oracles():
    ladder = [2**j for j in range(3, 9)]
    # partial sums of sum 1/k^2: Cauchy gaps decay like 1/n
    conv = np.array([[sum(1.0 / k**2 for k in range(1, n + 1))
                      for n in ladder]])
    assert ae_convergence_diag(conv, ladder).verdict == \
        "consistent-with-convergence"
    # partial sums of sum 1: gaps grow linearly
    div = np.array([[float(n) for n in ladder]])
    assert ae_convergence_diag(div, ladder).verdict == "inconsistent"
    zero = np.zeros((4, len(ladder)))
    assert ae_convergence_diag(zero, ladder).verdict == \
        "consistent-with-convergence"


def test_ae_diag_vector_partials_and_shape_check():
    ladder = [8, 16, 32, 64]
    arr = np.zeros((5, 4, 3))
    d = ae_convergence_diag(arr, ladder)
    assert d.verdict == "consistent-with-convergence"
    with pytest.raises(ValueError):
        ae_convergence_diag(np.zeros((2, 3)), ladder)


def test_ae_diag_exponent_fit():
    ladder = [2**j for j in range(3, 9)]
    partials = np.array([[2.0 - 1.0 / n for n in ladder]])
    d = ae_convergence_diag(partials, ladder)
    # gaps 1/n_j - 1/n_{j+1} ~ 1/n: slope near -1 on the dyadic ladder
    assert d.exponent == pytest.approx(-1.0, abs=0.1)
    assert d.verdict == "consistent-with-convergence"
