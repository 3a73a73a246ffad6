"""Series convergence engine and the admissibility condition checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.admissibility import (LADDER, _accumulate, _heuristic_claim,
                                   _schedule_start,
                                   bertrand_converges, check_1RT1,
                                   check_admissible, check_rrr, check_T21,
                                   check_weak_admissible, series_report)
from ergolab.registry import EXAMPLE_IDS, example_instance
from ergolab.weights import GapSeq, Schedule, WeightExpr, WeightSeq

SHORT_LADDER = (10**2, 10**3, 10**4)


# ---------------------------------------------------------------------------
# exact convergence region


@pytest.mark.parametrize("a,b,c,conv", [
    (-1.5, 0.0, 0.0, True),
    (-1.0, 0.0, 0.0, False),       # harmonic
    (-0.5, -5.0, -5.0, False),
    (-1.0, -1.5, 0.0, True),
    (-1.0, -1.0, 0.0, False),
    (-1.0, -1.0, -1.5, True),
    (-1.0, -1.0, -1.0, False),     # triple boundary
    (-1.0, -1.0, -0.5, False),
    (0.0, -10.0, 0.0, False),
    (-2.0, 10.0, 10.0, True),
])
def test_bertrand_region(a, b, c, conv):
    assert bertrand_converges(WeightExpr(1.0, a, b, c)) is conv


def test_bertrand_superexp_dominates():
    assert bertrand_converges(WeightExpr(1.0, 50.0, 0.0, 0.0, -0.1))
    assert not bertrand_converges(WeightExpr(1.0, -50.0, 0.0, 0.0, 0.1))


def test_boundary_exponent_is_exact():
    # delta at the admissibility boundary makes the class exponent exactly -1
    p, beta = 2.0, 0.5
    delta = (p - 1.0) * beta / p
    inst = example_instance("E1", p=p, beta=beta, delta=delta)
    r3, r4 = check_admissible(inst.W, inst.G, inst.sched, p, SHORT_LADDER)
    assert r4.verdict == "diverges"
    assert r4.verdict_source == "symbolic"
    assert r4.comparison_class[0] == -1.0


# ---------------------------------------------------------------------------
# numeric engine


def test_series_report_partial_sums_match_fsum():
    rep = series_report("test", {}, lambda ks: 1.0 / ks.astype(float) ** 2,
                        1, 10**4, None, SHORT_LADDER)
    brute = math.fsum(1.0 / k**2 for k in range(1, 101))
    assert rep.partial_sums[0] == (100, pytest.approx(brute, rel=1e-15))


def test_accumulate_partial_sums_are_fsums_of_every_term():
    # 10^6 positive terms over about seven decades: every rung's partial sum
    # is the exactly rounded sum of all terms up to it, to 1e-14
    def term(ks):
        k = ks.astype(float)
        return 1.0 / k**1.1 + 1e-9 * np.sin(k) ** 2

    k_start, kmax = 7, 10**6 + 6
    terms = term(np.arange(k_start, kmax + 1))
    partials, _blocks = _accumulate(term, k_start, kmax, LADDER)
    assert [K for K, _ in partials] == list(LADDER) + [kmax]
    for K, s in partials:
        assert s == pytest.approx(math.fsum(terms[:K - k_start + 1]), rel=1e-14)


def test_heuristic_three_values():
    conv = series_report("c", {}, lambda ks: 0.5 ** ks.astype(float),
                         1, 10**4, None, SHORT_LADDER)
    assert conv.verdict == "converges"
    div = series_report("d", {}, lambda ks: np.ones(len(ks)),
                        1, 10**4, None, SHORT_LADDER)
    assert div.verdict == "diverges"
    slow = series_report("s", {}, lambda ks: 1.0 / ks.astype(float) ** 1.1,
                         1, 10**4, None, SHORT_LADDER)
    assert slow.verdict == "unknown"


def test_negative_terms_rejected():
    with pytest.raises(ArithmeticError):
        series_report("bad", {}, lambda ks: -np.ones(len(ks)),
                      1, 10**3, None, SHORT_LADDER)


def test_symbolic_verdict_comes_with_tail_bound():
    rep = series_report("t", {}, lambda ks: 1.0 / ks.astype(float) ** 2,
                        1, 10**4, WeightExpr(n_exp=-2.0), SHORT_LADDER)
    assert rep.verdict == "converges"
    total = math.pi**2 / 6.0
    partial = rep.partial_sums[-1][1]
    assert total <= partial + rep.tail_estimate
    assert rep.tail_estimate < 1e-3


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=-3.0, max_value=-0.2, allow_nan=False),
    b=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_symbolic_and_numeric_never_contradict(a, b):
    # keep a margin from the convergence boundary so the heuristic has a chance
    if abs(a + 1.0) < 0.15:
        a = -1.0 + math.copysign(0.15, a + 1.0)
    cls = WeightExpr(1.0, a, b, 0.0)

    def term(ks):
        k = ks.astype(float)
        return k**a * np.log(k) ** b

    rep = series_report("fuzz", {}, term, 3, 10**5, cls, (10**3, 10**4, 10**5))
    claim = _heuristic_claim(rep.partial_sums, rep.block_sums)
    if claim != "indeterminate":
        assert claim == rep.verdict


# ---------------------------------------------------------------------------
# condition checks


def test_check_T21_symbolic_class():
    G = WeightSeq.from_text("n^0.5", n0=1)
    W = WeightSeq.from_text("n^0.8", n0=1)
    rep = check_T21(G, W, 10**4, SHORT_LADDER)
    assert rep.verdict == "converges"
    # class (G/W) * (0.8/n) = 0.8 n^{-1.3}
    assert rep.comparison_class == (-1.3, 0.0, 0.0)
    assert rep.class_scale == pytest.approx(0.8)
    # direct terms are below the class-derived envelope asymptotically
    n = np.arange(10, 1000, dtype=float)
    g, w, w1 = G.values(n), W.values(n), W.values(n + 1.0)
    terms = (g / w) * (1.0 - w / w1)
    env = 0.8 * n ** (-1.3)
    assert np.all(terms <= env * 1.01)


def test_check_rrr_meaningful_flag():
    G = WeightSeq.from_text("n^0.5", n0=1)
    div = check_rrr(G, WeightSeq.from_text("n^0.8", n0=1), 10**4, SHORT_LADDER)
    assert div.meaningful is True
    conv = check_rrr(G, WeightSeq.from_text("n^3", n0=1), 10**4, SHORT_LADDER)
    assert conv.meaningful is False


def test_check_1RT1_gamma_value():
    G = WeightSeq.from_text("n", n0=1)
    rep = check_1RT1(G, Schedule.identity(), alpha=0.5, ladder=SHORT_LADDER)
    assert rep.verdict == "converges"
    brute = math.fsum(k**0.5 / k**2 for k in range(1, 10**4 + 1))
    assert rep.value == pytest.approx(brute, rel=1e-13)


def test_truncated_top_block_does_not_fake_decay():
    # a divergent series cut mid-block must not read as decaying
    G = WeightSeq.from_callable(
        lambda n: np.asarray(n, dtype=float) ** 0.375 * 2.0, n0=1, label="g")
    W = WeightSeq.from_text("n^0.75", n0=1)
    rep = check_rrr(W, G, 10**5, (10**4, 10**5))
    assert rep.verdict == "diverges"


# ---------------------------------------------------------------------------
# registry expectations


@pytest.mark.parametrize("ex_id", EXAMPLE_IDS)
def test_registry_default_instances(ex_id):
    inst = example_instance(ex_id)
    reports = inst.run_checks(SHORT_LADDER)
    assert inst.verdicts_ok(reports), {
        k: r.verdict for k, r in reports.items()}


def test_registry_rejects_bad_params():
    with pytest.raises(ValueError):
        example_instance("E1", beta=0.3)     # 1/beta not whole
    with pytest.raises(ValueError):
        example_instance("E0", gamma=0.5)
    with pytest.raises(ValueError):
        example_instance("E4", eps=0.05)     # 3 p eps <= 1
    with pytest.raises(KeyError):
        example_instance("E9")


def test_e1_weak_equals_full_for_identityish():
    # W3/W4 are W1/W2 with derived gaps; spot-check the wiring
    inst = example_instance("E1")
    r1, r2 = check_weak_admissible(inst.W, inst.G, inst.sched,
                                   GapSeq.derived(inst.sched), inst.p,
                                   SHORT_LADDER)
    r3, r4 = check_admissible(inst.W, inst.G, inst.sched, inst.p, SHORT_LADDER)
    assert r1.partial_sums == r3.partial_sums
    assert r2.partial_sums == r4.partial_sums
    assert (r3.kind, r4.kind) == ("W3", "W4")


def test_e4_schedule_recursion():
    inst = example_instance("E4")
    vals = inst.sched._explicit
    for a, b in zip(vals, vals[1:]):
        assert b == a**3 + a + 1      # floor(G_{n_k}) + n_k + 1 with G = n^3


def _linear_schedule_start(sched, n_min):
    """The first k with n_k >= n_min by stepping k = 1, 2, ...; None when the
    schedule ends first."""
    reach = sched.max_k()
    k = 1
    while k <= reach and sched.value(k) < n_min:
        k += 1
    return k if k <= reach else None


@pytest.mark.parametrize("sched", [
    Schedule.identity(), Schedule.monomial(3), Schedule.power(2.0),
    Schedule.power(2.5), Schedule.superexp(), Schedule.geometric(1.5),
    Schedule.explicit([1, 4, 9, 16, 100]),
], ids=lambda s: s.kind + str(s.param or ""))
def test_schedule_start_matches_linear_search(sched):
    for n_min in (1, 2, 3, 4, 5, 9, 10, 16, 17, 27, 28, 99, 100, 101, 5504, 10**5):
        seqs = (WeightSeq.from_text("n", n0=n_min), WeightSeq.from_text("n", n0=1))
        ref = _linear_schedule_start(sched, n_min)
        if ref is None:
            with pytest.raises(ValueError, match="ends before n_k reaches"):
                _schedule_start(sched, *seqs)
        else:
            assert _schedule_start(sched, *seqs) == ref
