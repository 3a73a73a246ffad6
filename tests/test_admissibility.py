"""Series convergence engine and the admissibility condition checks."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.admissibility import (LADDER, _class_integral,
                                   _heuristic_claim, _schedule_start,
                                   _tail_estimate,
                                   bertrand_converges, check_1RT1,
                                   check_admissible, class_1RT1, check_index_series, check_rrr,
                                   check_T21, check_weak_admissible, series_report)
from ergolab import admissibility
from ergolab.registry import EXAMPLE_IDS, check_t8, example_instance
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
    ks = np.arange(1, 10**4 + 1)
    rep = series_report("test", {}, 1.0 / ks.astype(float) ** 2,
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
    partials = series_report("t", {}, terms, k_start, kmax, None, LADDER).partial_sums
    assert [K for K, _ in partials] == list(LADDER) + [kmax]
    for K, s in partials:
        assert s == pytest.approx(math.fsum(terms[:K - k_start + 1]), rel=1e-14)


def test_heuristic_three_values():
    ks = np.arange(1, 10**4 + 1)
    conv = series_report("c", {}, 0.5 ** ks.astype(float),
                         1, 10**4, None, SHORT_LADDER)
    assert conv.verdict == "converges"
    div = series_report("d", {}, np.ones(len(ks)),
                        1, 10**4, None, SHORT_LADDER)
    assert div.verdict == "diverges"
    slow = series_report("s", {}, 1.0 / ks.astype(float) ** 1.1,
                         1, 10**4, None, SHORT_LADDER)
    assert slow.verdict == "unknown"


def test_negative_terms_rejected():
    with pytest.raises(ArithmeticError):
        series_report("bad", {}, -np.ones(10**3),
                      1, 10**3, None, SHORT_LADDER)


@pytest.mark.parametrize("size", [10**3 - 1, 10**3 + 1])
def test_series_report_refuses_misaligned_terms(size):
    with pytest.raises(ValueError, match="terms given for the summation range"):
        series_report("short", {}, np.ones(size), 1, 10**3, None, SHORT_LADDER)


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-300])
def test_series_report_refuses_a_bad_term_anywhere(bad, where):
    terms = np.ones(10**6)
    terms[where] = bad
    with pytest.raises(ArithmeticError, match="finite and nonnegative"):
        series_report("bad", {}, terms, 1, 10**6, None, LADDER)


def test_symbolic_verdict_comes_with_tail_bound():
    ks = np.arange(1, 10**4 + 1)
    rep = series_report("t", {}, 1.0 / ks.astype(float) ** 2,
                        1, 10**4, WeightExpr(n_exp=-2.0), SHORT_LADDER)
    assert rep.verdict == "converges"
    total = math.pi**2 / 6.0
    partial = rep.partial_sums[-1][1]
    assert total <= partial + rep.tail_estimate
    assert rep.tail_estimate < 1e-3


@pytest.mark.parametrize("N", [3, 15, 10**3, 10**6])
def test_tail_closed_forms_are_exact(N):
    # each integral is its antiderivative at N; a = -1 maps onto the class
    # (b, c, 0) at ln N, and a = b = -1 onto the pure power c at lnln N
    x = float(N)
    cases = [
        (WeightExpr(2.5, -3.0), 2.5 * x ** -2.0 / 2.0),
        (WeightExpr(1.5, -1.0, -2.5), 1.5 * math.log(x) ** -1.5 / 1.5),
        (WeightExpr(0.5, -1.0, -1.0, -3.0), 0.5 * math.log(math.log(x)) ** -2.0 / 2.0),
    ]
    for cls, integral in cases:
        assert _class_integral(cls, x) == integral
        assert _tail_estimate(cls, N) == integral + cls(x + 1.0)


def test_tail_numeric_rule_matches_quad():
    # the log-modified classes with a < -1, against scipy's adaptive rule on
    # the same integral in t = ln(x/N): int_0^inf x cls(x) dt
    from scipy.integrate import quad
    for a, b, c, N in itertools.product(
            (-6.0, -3.0, -2.0, -1.5, -1.1, -1.01, -1.001),
            (-6.0, -2.0, -0.5, 0.5, 1.5, 3.0), (0.0, 1.0, -1.0, -2.5),
            (3, 15, 10**3, 46340, 10**6)):
        ln_N = math.log(N)

        def x_cls(t):
            L = ln_N + t
            return math.exp((a + 1.0) * L) * L**b * math.log(L) ** c

        expected, _ = quad(x_cls, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)
        got = _class_integral(WeightExpr(1.0, a, b, c), float(N))
        assert got == pytest.approx(expected, rel=1e-9, abs=0.0), (a, b, c, N)


def test_w4_tail_bounds_the_class_remainder():
    # W4 terms are exactly n^-1 (ln n)^-4, whose remainder past 10^6 is at
    # least int_{10^6+1}^inf = (ln(10^6+1))^-3/3
    W, G = WeightSeq.from_text("n^0.5*ln(n)^2"), WeightSeq.from_text("n^0.25")
    _, w4 = check_admissible(W, G, Schedule.identity(), 2.0)
    assert w4.verdict == "converges" and w4.partial_sums[-1][0] == 10**6
    assert w4.tail_estimate >= math.log(10**6 + 1) ** -3 / 3.0


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

    rep = series_report("fuzz", {}, term(np.arange(3, 10**5 + 1)), 3, 10**5, cls,
                        (10**3, 10**4, 10**5))
    claim = _heuristic_claim(rep.partial_sums, rep.block_sums)
    if claim != "indeterminate":
        assert claim == rep.verdict


# ---------------------------------------------------------------------------
# condition checks


def test_check_T21_symbolic_class():
    G = WeightSeq.from_text("n^0.5", n0=1)
    W = WeightSeq.from_text("n^0.8", n0=1)
    rep = check_T21(G, W, SHORT_LADDER)
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


@pytest.mark.parametrize("G, W, shift, cls", [
    ("ln(n)^0.5", "ln(n)^2", (-1.0, -1.0, 0.0), (-1.0, -2.5, 0.0)),
    ("lnln(n)^0.5", "lnln(n)^2", (-1.0, -1.0, -1.0), (-1.0, -1.0, -2.5)),
])
def test_check_T21_symbolic_class_of_log_weights(G, W, shift, cls):
    # 1 - W_n/W_{n+1} ~ 2 / (n ln n) for ln(n)^2, 2 / (n ln n lnln n) for lnln(n)^2
    G, W = WeightSeq.from_text(G), WeightSeq.from_text(W)
    d = admissibility.log_derivative_shift(W.expr)
    assert (d.exponents, d.scale) == (shift, 2.0)
    rep = check_T21(G, W, SHORT_LADDER)
    assert rep.verdict_source == "symbolic" and rep.verdict == "converges"
    assert rep.comparison_class == cls
    assert rep.class_scale == pytest.approx(2.0)

def test_check_rrr_meaningful_flag():
    G = WeightSeq.from_text("n^0.5", n0=1)
    div = check_rrr(G, WeightSeq.from_text("n^0.8", n0=1), SHORT_LADDER)
    assert div.meaningful is True
    conv = check_rrr(G, WeightSeq.from_text("n^3", n0=1), SHORT_LADDER)
    assert conv.meaningful is False


def test_check_1RT1_gamma_value():
    G = WeightSeq.from_text("n", n0=1)
    rep = check_1RT1(G, Schedule.identity(), alpha=0.5, ladder=SHORT_LADDER)
    assert rep.verdict == "converges"
    brute = math.fsum(k**0.5 / k**2 for k in range(1, 10**4 + 1))
    assert rep.value == pytest.approx(brute, rel=1e-13)


@pytest.mark.parametrize("sched", [
    Schedule.identity(), Schedule.power(2.0), Schedule.monomial(3),
    Schedule.superexp(), Schedule.geometric(2.0),
    Schedule.explicit([k * k for k in range(1, 200)]),
], ids=["identity", "power:2", "monomial:3", "superexp", "geometric:2", "explicit"])
@pytest.mark.parametrize("text", ["n^0.1", "n", "n^0.5*ln(n)^2"])
def test_class_1RT1_is_the_report_class(sched, text):
    # the class the Monte Carlo gate decides from, before any pass, is the
    # report's, and so is its verdict; geometric and explicit have none
    G = WeightSeq.from_text(text, search_from=1)
    cls = class_1RT1(G, sched, 0.5, SHORT_LADDER)
    rep = check_1RT1(G, sched, 0.5, SHORT_LADDER)
    symbolic = sched.describe()["kind"] not in ("geometric", "explicit")
    assert (cls is not None) == symbolic == (rep.verdict_source == "symbolic")
    if symbolic:
        assert (cls.exponents, cls.superexp_coeff) == \
            (rep.comparison_class, rep.superexp_coeff)
        assert bertrand_converges(cls) == (rep.verdict == "converges")


def test_class_1RT1_validates_as_check_1RT1():
    G = WeightSeq.from_text("lnln(n)")
    for args, message in (((Schedule.identity(), 1.5), "alpha must lie in"),
                          ((Schedule.superexp(), 0.5), "empty summation range")):
        for check in (class_1RT1, check_1RT1):
            with pytest.raises(ValueError, match=message):
                check(G, *args)


def test_truncated_top_block_does_not_fake_decay():
    # a divergent series cut mid-block must not read as decaying
    G = WeightSeq.from_callable(
        lambda n: np.asarray(n, dtype=float) ** 0.375 * 2.0, n0=1, label="g")
    W = WeightSeq.from_text("n^0.75", n0=1)
    rep = check_rrr(W, G, (10**4, 10**5))
    assert rep.verdict == "diverges"


# rungs inside chunks of every size below, and off the dyadic points
INSIDE_LADDER = (150, 1_500, 40_001, 70_001, 200_003)


def test_pass_chunk_size_does_not_change_results(monkeypatch):
    # every check, and the (T21) tail of t8, is one pass of
    # admissibility._CHUNK indices, cut at the multiples of the chunk size,
    # and each piece sum is exact, so no chunk size may move a bit
    pair = ("n^0.5*ln(n)^2", "n^0.9*lnln(n)")       # G.n0 = 3, W.n0 = 16
    scheds = [Schedule.identity(), Schedule.power(2.0), Schedule.monomial(3),
              Schedule.superexp(), Schedule.geometric(2.0),
              Schedule.explicit([3 * k * k + 17 for k in range(1, 400)])]

    def reports():
        G, W = (WeightSeq.from_text(t) for t in pair)
        out = []
        for sched in scheds:
            out += check_admissible(W, G, sched, 2.0, INSIDE_LADDER)
        out += check_index_series(G, W, ("T21", "rrr", "full-W1"), 1.5).values()
        out.append(check_1RT1(G, Schedule.power(2.0), 0.5, INSIDE_LADDER))
        inst = example_instance("EwA")                  # callable weights
        out += inst.run_checks(INSIDE_LADDER, full_sequence=True).values()
        return [(rep.kind, json.dumps(rep.to_json()), [s.hex() for s in rep.block_sums])
                for rep in out] + [("t8", repr(check_t8(1, ladder=(5, 9, 30))[0]))]

    assert WeightSeq.from_text(pair[0]).n0 != WeightSeq.from_text(pair[1]).n0
    base = reports()
    for chunk in (1000, 1024, 2**15 + 1):
        monkeypatch.setattr(admissibility, "_CHUNK", chunk)
        moved = [a[0] for a, b in zip(base, reports()) if a != b]
        assert moved == [], f"chunks of {chunk} moved {moved}"


def test_pass_audits_name_the_first_fault_as_prefix_does():
    # G drops at 2^15, the first index of a chunk, which only the carry
    # across chunks sees; W is not finite at a lower index, but G is audited
    # first, as G.prefix was filled before W.prefix
    def g(n):
        n = np.asarray(n, dtype=float)
        return np.where(n == 2**15, 1.0, n)

    def w(n):
        n = np.asarray(n, dtype=float)
        return np.where(n == 100, np.inf, 2.0 * n)

    G = WeightSeq.from_callable(g, n0=1, label="g")
    W = WeightSeq.from_callable(w, n0=3, label="w")
    for check in (lambda: check_T21(G, W), lambda: check_rrr(G, W),
                  lambda: check_1RT1(G, Schedule.identity(), 0.5)):
        with pytest.raises(ArithmeticError, match="'g' decreases near index 32768:"):
            check()
    with pytest.raises(ArithmeticError, match="'g' decreases near index 32768:"):
        G.prefix(10**5)
    with pytest.raises(ArithmeticError, match="'w' is not finite at index 100:"):
        check_rrr(WeightSeq.from_text("n", n0=1), W)


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
    Schedule.power(2.5), Schedule.power(6.5), Schedule.superexp(),
    Schedule.geometric(1.5), Schedule.geometric(2), Schedule.explicit([1, 4, 9, 16, 100]),
    pytest.param(Schedule.explicit([3, 27, 2**62, 2**62 + 1]), id="explicit-past-cap"),
], ids=lambda s: s.kind + str(s.param or ""))
def test_schedule_start_matches_linear_search(sched):
    n_mins = (1, 2, 3, 4, 5, 9, 10, 16, 17, 27, 28, 99, 100, 101, 5504, 10**5)
    if sched.max_k() < 10**6:       # a short reach: step to its end, too
        n_mins += (2**53, 2**62, 2**62 + 1)
    for n_min in n_mins:
        seqs = (WeightSeq.from_text("n", n0=n_min), WeightSeq.from_text("n", n0=1))
        ref = _linear_schedule_start(sched, n_min)
        if ref is None:
            with pytest.raises(ValueError, match="ends before n_k reaches"):
                _schedule_start(sched, *seqs)
        else:
            assert _schedule_start(sched, *seqs) == ref


def test_checks_peak_memory_is_bounded():
    # E7's four checks sum 10^6 terms each in chunked passes that hold no
    # whole-range array, so the peak is the passes' chunk buffers and the
    # schedule values of one chunk (3.1 MiB; 30.5 MiB with whole-range term
    # arrays and two 10^6 prefix memos, 38.2 MiB when each piece was
    # evaluated separately)
    inst = example_instance("E7")
    tracemalloc.start()
    try:
        inst.run_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 34 * 2**20
