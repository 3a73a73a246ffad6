"""Random modulation streams, Monte Carlo estimates, convergence diagnostics."""

import tracemalloc

import numpy as np
import pytest

from ergolab import operators, registry, stochastics
from ergolab.admissibility import check_1RT1, series_report
from ergolab.operators import Cocycle, SampleSpace, Transformation, VectorField
from ergolab.registry import check_t8, check_t44, example_instance
from ergolab.stochastics import (MCEstimate, RandomModulation,
                                 ae_convergence_diag, canonical_hash,
                                 random_hilbert, random_sup_1rt1, random_sup_stat,
                                 slln_chain)
from ergolab.transforms import ModulationSeq, hilbert_trace, weighted_series
from ergolab.weights import Schedule, WeightSeq

LADDER = (10**2, 10**3, 10**4)


def _report(verdict_terms):
    return series_report("pre", {}, verdict_terms(np.arange(1, 10**4 + 1)), 1, 10**4,
                         None, LADDER)


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


def test_zero_law_and_bad_law():
    assert np.all(RandomModulation("zero", seed=0).draws(5, 10) == 0.0)
    with pytest.raises(ValueError):
        RandomModulation("uniform", seed=0)
    with pytest.raises(ValueError):
        RandomModulation("zero", seed=0).draws(0, 0)


# ---------------------------------------------------------------------------
# estimates and the regime gate


def test_mc_estimate_summaries():
    est = MCEstimate("s", [1.0, 2.0, 3.0, 4.0], 0, "unchecked")
    assert est.samples == 4
    assert est.mean == pytest.approx(2.5)
    assert est.max == 4.0
    assert est.moment(2.0) == pytest.approx(np.sqrt(30.0 / 4.0))


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


def test_sup_1rt1_refuses_a_symbolic_divergent_class_with_the_reports_message(monkeypatch):
    mod, ident = RandomModulation("rademacher", seed=0), Schedule.identity()
    G = WeightSeq.from_text("n^0.1", search_from=1)
    with pytest.raises(ValueError) as summed:
        stochastics._gate_regime([check_1RT1(G, ident, 0.5)], False)

    def never(*args, **kwargs):
        raise AssertionError("the (1RT1) series ran")

    monkeypatch.setattr(stochastics, "check_1RT1", never)
    with pytest.raises(ValueError) as symbolic:
        random_sup_1rt1(mod, G, ident, (32, 64), 32, 2)
    assert str(symbolic.value) == str(summed.value)
    # a converging class, a geometric schedule (no symbolic class), a G with
    # a negative exponent or an unchecked run reaches the pass
    for text, sched, unchecked in (("n", ident, False),
                                   ("n^0.1", Schedule.geometric(2.0), False),
                                   ("n^-1*ln(n)^5", ident, False),
                                   ("n^0.1", ident, True)):
        with pytest.raises(AssertionError, match="series ran"):
            random_sup_1rt1(mod, WeightSeq.from_text(text, search_from=1), sched,
                            (8, 16), 32, 2, no_regime_check=unchecked)


def test_sup_stat_zero_law_is_zero():
    est = random_sup_stat(RandomModulation("zero", seed=0),
                          WeightSeq.from_text("n", n0=1), Schedule.identity(),
                          (16, 32), 16, 3)
    assert est.per_sample == [0.0, 0.0, 0.0]
    assert est.regime == "unchecked"


@pytest.mark.parametrize("law", ["rademacher", "gaussian", "complex-gaussian", "zero"])
def test_sup_sample_groups_do_not_change_results(monkeypatch, law):
    # the samples run in ordered groups, each group one kernel call over its
    # stacked draws and normalized series; no group size may move a bit
    mod = RandomModulation(law, seed=5)
    G = WeightSeq.from_text("ln(n)", search_from=1)          # n0 = 3
    ladder = (64, 256, 1000)
    n_terms = ladder[-1] - G.n0 + 1

    def run():
        return canonical_hash(random_sup_stat(mod, G, Schedule.power(2.0), ladder,
                                              48, 7).to_json())

    base = run()
    for size in (1, 2, 3, 64):
        monkeypatch.setattr(stochastics, "_GROUP_TERMS", size * n_terms)
        assert run() == base, f"results moved at groups of {size}"


def test_sup_stat_reads_the_schedule_once(monkeypatch):
    # 64 default samples run in 16 groups of 4; the n_k are read once per run
    values = Schedule.values
    calls = []
    monkeypatch.setattr(Schedule, "values",
                        lambda self, *args: calls.append(args) or values(self, *args))
    random_sup_stat(RandomModulation("rademacher", seed=0),
                    WeightSeq.from_text("n", search_from=1), Schedule.identity(),
                    tuple(2**j for j in range(8, 13)), 64, 64)
    assert calls == [(4096,)]


def test_sup_sample_groups_bound_peak_memory():
    # 1.25 MiB at the default groups of 4 samples, 0.55 MiB one sample at a
    # time and 25.8 MiB with all 64 samples in one stack
    mod = RandomModulation("gaussian", seed=1)
    G = WeightSeq.from_text("n", search_from=1)

    def run(samples):
        return random_sup_stat(mod, G, Schedule.identity(),
                               tuple(2**j for j in range(8, 13)), 64, samples)

    run(1)                    # first calls of numpy kernels allocate once
    tracemalloc.start()
    try:
        run(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_sup_sample_groups_bound_peak_memory_on_a_fine_grid():
    # 64 terms make groups of 256 samples, so 8 samples are one group of 16
    # stacked rows; at M = 2^16 the kernel takes them 4 rows at a time, and
    # the peak is 10.1 MiB (56.1 MiB with all 16 rows in one kernel call,
    # 6.5 MiB one sample at a time through the 1-D kernel)
    mod = RandomModulation("gaussian", seed=1)
    G = WeightSeq.from_text("n", search_from=1)

    def run(samples):
        return random_sup_stat(mod, G, Schedule.identity(), (16, 32, 64),
                               1 << 16, samples)

    run(1)
    tracemalloc.start()
    try:
        run(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


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


def test_hilbert_past_the_schedule_reach_is_refused():
    # superexp has 15 terms below 2^62; n_16 = 16^16 does not fit int64
    C, _ = _constant_setup()
    W = WeightSeq.from_text("n", n0=1)
    with pytest.raises(ValueError, match="has only 15 terms .*n=20 is out of reach"):
        random_hilbert(RandomModulation("gaussian", seed=3), C, None, [1.0, 0.0],
                       Schedule.superexp(), W, (20,), samples=2, no_regime_check=True)


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
    # every operator series is series_rows over blocks of at most
    # operators._BLOCK_ENTRIES entries with the last row carried; one row per
    # block is the plain sequential sum, so no block size may move a bit
    C, _ = _constant_setup()
    mod = RandomModulation("complex-gaussian", seed=9)
    W = WeightSeq.from_text("n", n0=1)
    space = SampleSpace.finite(3)
    vals = np.random.Generator(np.random.Philox(key=4)).standard_normal((41, 3))
    perms = np.random.Generator(np.random.Philox(key=6)).permuted(
        np.tile(np.arange(16), (16, 1)), axis=1)
    markov16 = {"kind": "markov", "matrix": (sum(np.eye(16)[p] for p in perms) / 16).tolist()}

    def random_run():
        est = random_hilbert(mod, C, None, [1.0, 0.0], Schedule.identity(), W,
                             (5, 9, 30), samples=3, no_regime_check=True)
        return canonical_hash(est.to_json()), [f.tolist() for f in est.final_fields]

    def abel_run():
        pair = weighted_series(lambda k: VectorField(space, vals[k]), W, 40)
        return [f.values.tolist() for f in pair]

    runs = {   # entries of one term, the run
        "random_hilbert": (3 * 2, random_run),
        "trace rows": (1024, lambda: hilbert_trace(W, Schedule.identity(), 40,
                                                   seed=2, lam=0.3).rows),
        "t44 entries": (8, lambda: check_t44(1.5, 3, ladder=(5, 16, 23))[0]),
        "t8 gaps": (6 * 6, lambda: check_t8(1, ladder=(5, 9, 30))[0]),
        "weighted_series": (3, abel_run),
        # L = 32 for a 16 x 16 matrix; the gaps of k^2 span several quotients
        "power:2 trace rows": (16 * 16, lambda: hilbert_trace(
            W, Schedule.power(2.0), 200, seed=2, lam=0.3, operator=markov16).rows),
    }
    default = operators._BLOCK_ENTRIES
    for name, (entries, run) in runs.items():
        monkeypatch.setattr(operators, "_BLOCK_ENTRIES", default)
        base = run()
        for rows in (1, 7):
            monkeypatch.setattr(operators, "_BLOCK_ENTRIES", rows * entries)
            assert run() == base, f"{name} moved at {rows}-row blocks"


_E5_LADDER = tuple(2**j for j in range(8, 13))   # random's default ladder


def _e5_hilbert():
    """random_hilbert at the shape of ``random --stat hilbert``: E5's weight
    over one 2 x 2 contraction on the 16-cycle, without the E5 gate; called
    as run(mod, samples)."""
    space = SampleSpace.finite(16)
    base = Transformation.permutation(space, np.roll(np.arange(16), -1))
    C = Cocycle.constant(base, registry._random_contraction(2, 999))
    W = example_instance("E5").W
    return lambda mod, samples: random_hilbert(mod, C, None, [1.0, 0.0],
                                               Schedule.identity(), W,
                                               _E5_LADDER, samples)


@pytest.mark.parametrize("law", ["gaussian", "complex-gaussian"])
def test_hilbert_sample_groups_do_not_change_results(monkeypatch, law):
    # the samples run in ordered groups, each group one series over its
    # stacked coefficient columns; no group size may move a bit
    mod = RandomModulation(law, seed=5)
    n_terms = _E5_LADDER[-1] - example_instance("E5").W.n0 + 1
    hilbert = _e5_hilbert()

    def run():
        est = hilbert(mod, 7)
        return canonical_hash(est.to_json()), [f.tobytes() for f in est.final_fields]

    base = run()
    for size in (1, 2, 3):
        monkeypatch.setattr(stochastics, "_GROUP_TERMS", size * n_terms)
        assert run() == base, f"results moved at groups of {size}"


def _partly_repeating_hilbert(mod, samples):
    """random_hilbert over a 6-atom cocycle whose atoms 0..3 cycle under one
    fiber, so their term rows are equal, and whose atoms 4 and 5 swap under
    two other fibers, so each stays alone."""
    space = SampleSpace.finite(6)
    base = Transformation.permutation(space, np.array([1, 2, 3, 0, 5, 4]))
    A, B, D = (registry._random_contraction(2, seed) for seed in (1, 2, 3))
    C = Cocycle(base, [A] * 4 + [B, D])
    return random_hilbert(mod, C, None, [1.0, 0.0], Schedule.identity(),
                          WeightSeq.from_text("n", n0=1), (5, 9, 30), samples,
                          no_regime_check=True)


def _distinct_hilbert(mod, samples):
    """random_hilbert whose scalar h differs at each atom, so no two atoms'
    term rows are equal."""
    C, _ = _constant_setup()
    h = VectorField(C.space, np.array([[1.0], [2.0], [-0.5]]))
    return random_hilbert(mod, C, h, [1.0, 0.0], Schedule.identity(),
                          WeightSeq.from_text("n", n0=1), (5, 9, 30), samples,
                          no_regime_check=True)


@pytest.mark.parametrize("hilbert, classes", [
    (_e5_hilbert(), 1), (_distinct_hilbert, 3), (_partly_repeating_hilbert, 3),
], ids=["all-equal", "all-distinct", "partly-equal"])
def test_hilbert_atom_classes_do_not_change_results(monkeypatch, hilbert, classes):
    # the series runs over one atom per class of bytewise equal term rows;
    # every atom alone in its class may not move a bit
    mod = RandomModulation("complex-gaussian", seed=5)
    atom_classes, found = stochastics._atom_classes, []

    def recording(blocks, size):
        keep, atom_class = atom_classes(blocks, size)
        found.append(len(keep))
        return keep, atom_class

    def run():
        est = hilbert(mod, 7)
        return canonical_hash(est.to_json()), [f.tobytes() for f in est.final_fields]

    monkeypatch.setattr(stochastics, "_atom_classes", recording)
    base = run()
    assert found == [classes]
    monkeypatch.setattr(stochastics, "_atom_classes",
                        lambda blocks, size: (np.arange(size), np.arange(size)))
    assert run() == base


def test_atom_classes_compare_bytes_block_by_block():
    # atom 3 differs from atom 0 only in the sign of a zero, atom 2 only in
    # the second block; once every atom is alone no block is read
    first, second = np.zeros((2, 4, 2), dtype=complex), np.zeros((2, 4, 2), dtype=complex)
    first[1, 3, 0] = complex(-0.0, 0.0)
    second[:, 2] = 1.0
    keep, atom_class = stochastics._atom_classes([first, second], 4)
    assert keep.tolist() == [0, 2, 3] and atom_class.tolist() == [0, 0, 1, 2]
    keep, atom_class = stochastics._atom_classes([first[:, 2:], None], 2)
    assert keep.tolist() == [0, 1] and atom_class.tolist() == [0, 1]


def test_e5_hilbert_sums_one_atom(monkeypatch):
    # E5 puts one contraction on every atom of its 16-cycle, so the term rows
    # of all 16 atoms are equal and the series runs over one of them
    shapes, series_rows = [], stochastics.series_rows
    monkeypatch.setattr(stochastics, "series_rows", lambda blocks, coefs: series_rows(
        (shapes.append(V.shape) or V for V in blocks), coefs))
    est = _e5_hilbert()(RandomModulation("gaussian", seed=1), 8)
    assert shapes and {shape[2] for shape in shapes} == {1}
    assert [f.shape for f in est.final_fields] == [(16, 2)] * 8


def test_hilbert_samples_are_a_prefix_of_more_samples():
    mod = RandomModulation("rademacher", seed=3)
    hilbert = _e5_hilbert()
    few, many = hilbert(mod, 2), hilbert(mod, 5)
    assert few.per_sample == many.per_sample[:2]
    assert few.extra["cauchy_gaps"] == many.extra["cauchy_gaps"][:2]
    for a, b in zip(few.final_fields, many.final_fields):
        assert np.array_equal(a, b)


def test_hilbert_sample_groups_bound_peak_memory():
    # 2.9 MiB at the default groups of 4 samples, as one sample at a time,
    # since the series runs over E5's one distinct atom and building the
    # blocks sets the peak (3.3 MiB over all 16 atoms); 8.2 MiB with all 64
    # samples in one stack
    mod = RandomModulation("gaussian", seed=1)
    hilbert = _e5_hilbert()
    hilbert(mod, 1)           # first calls of numpy kernels allocate once
    tracemalloc.start()
    try:
        hilbert(mod, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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


# ---------------------------------------------------------------------------
# weighted strong law on the circle


def _slln_recurrence(G, W, amplitude, n_max, M, seed, ladder, sample_points):
    """The chain as a per-step phase recurrence on the grid: the independent
    oracle for the blocked inverse FFTs and the Parseval norms."""
    k_start = max(G.n0, W.n0)
    base = np.exp(2j * np.pi * np.arange(M) / M)
    rng = np.random.Generator(np.random.Philox(key=seed))
    sample_idx = np.sort(rng.choice(np.arange(1, M), size=sample_points,
                                    replace=False))
    w_vals = W.prefix(n_max)
    phase = np.ones(M, dtype=complex)
    S = np.zeros(M, dtype=complex)
    series = np.zeros(M, dtype=complex)
    running = np.zeros(M)
    rows, snapshots = [], []
    for n in range(1, n_max + 1):
        phase = phase * base
        f = phase * amplitude(n)
        S += f
        if n >= k_start:
            series += f / w_vals[n - W.n0]
            np.maximum(running, np.abs(series), out=running)
            rows.append({"n": n,
                         "norm_Sn_over_Wn": np.sqrt(np.mean(np.abs(S)**2))
                         / w_vals[n - W.n0],
                         "series_partial_norm": np.sqrt(np.mean(np.abs(series)**2)),
                         "running_max_Lp": np.sqrt(np.mean(running**2))})
        if n in ladder:
            snapshots.append(series[sample_idx].copy())
    return rows, snapshots


@pytest.mark.parametrize("case", ["EwA", "G/W"])
def test_slln_chain_matches_phase_recurrence(case):
    if case == "EwA":
        inst = example_instance("EwA", eps=0.5)
        G, W, amp, ladder = inst.G, inst.W, np.sqrt, (64, 128, 256)
    else:
        # G = n^0.5/ln(n) starts at 7, below which the ladder's 4 is zero
        G = WeightSeq.from_text("n^0.5*ln(n)^-1")
        W = WeightSeq.from_text("n")
        amp, ladder = (lambda k: 1.0), (4, 32, 128, 300)
        assert max(G.n0, W.n0) == 7
    n_max = 300
    # half rows with a Nyquist point (M even) and without one (M odd)
    for M in (2048, 1025):
        trace, snaps = slln_chain(G, W, amp, n_max, M, 3, ladder, 16)
        rows, ref_snaps = _slln_recurrence(G, W, amp, n_max, M, 3, ladder, 16)
        assert [r["n"] for r in trace.rows] == [r["n"] for r in rows]
        for col in ("norm_Sn_over_Wn", "series_partial_norm", "running_max_Lp"):
            np.testing.assert_allclose([r[col] for r in trace.rows],
                                       [r[col] for r in rows], rtol=1e-12, atol=0)
        assert len(snaps) == len(ladder)
        for got, want in zip(snaps, ref_snaps):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if case == "G/W":
            assert not np.any(snaps[0])


def test_slln_chain_needs_grid_above_n_max():
    G = W = WeightSeq.from_text("n")
    for M in (300, 299):
        with pytest.raises(ValueError, match="must exceed n_max=300"):
            slln_chain(G, W, lambda k: 1.0, 300, M, 0, (64, 128), 8)
