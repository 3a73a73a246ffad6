"""Weight algebra: parser, schedules, derived weights, asymptotic classes."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab.weights import (FLOAT_EXACT_CAP, INDEX_CAP, GapSeq, Schedule,
                             WeightExpr, WeightSeq, WeightSyntaxError,
                             asymptotic_class, parse_weight, twisted_weight)


# ---------------------------------------------------------------------------
# parser


def test_parse_basic_product():
    e = parse_weight("2*n^0.5*ln(n)^2")
    assert e.scale == 2.0
    assert e.n_exp == 0.5
    assert e.log_exp == 2.0
    assert e.loglog_exp == 0.0


def test_parse_merges_duplicate_bases():
    e = parse_weight("n*n^2*ln(n)*ln(n)^-3")
    assert e.n_exp == 3.0
    assert e.log_exp == -2.0


def test_parse_signed_exponent_and_scale_power():
    e = parse_weight("4^0.5 * lnln(n)^-1.5")
    assert e.scale == 2.0
    assert e.loglog_exp == -1.5


def test_parse_whitespace_tolerant():
    assert parse_weight("  n ^ 2  *  3 ") == parse_weight("3*n^2")
    assert parse_weight(" \t n ^ -2 ") == WeightExpr(n_exp=-2.0)


@pytest.mark.parametrize("text,offset", [
    ("", 0),
    ("n^", 2),
    ("n n", 2),
    ("*n", 0),
    ("n*", 2),
    ("0*n", 0),           # zero scale is not a weight factor
    ("-2", 0),            # unsigned position
    ("n^2*^3", 4),
    ("log(n)", 0),
    ("n^1.2.3", 5),
    ("1e*n", 1),          # an exponent needs digits, so the literal is "1"
    ("n^- 2", 2),         # no space after the sign
    ("2..5*n", 2),
    ("nn", 1),
    ("n^ 1 e5", 5),
    ("n^\u00b2", 2),      # only ASCII digits
    (".", 0),
    ("\xa0n^x", 4),       # offsets count UTF-8 bytes
    ("n^2 \u2003 n", 8),
    ("10^400", 0),        # numbers and numeric factors outside the float range
    ("1e400", 0),
    ("2^-2000", 0),
    ("n^1e400", 2),
])
def test_parse_errors_are_positioned(text, offset):
    with pytest.raises(WeightSyntaxError) as exc:
        parse_weight(text)
    assert exc.value.offset == offset
    assert f"byte {offset}" in str(exc.value)


def test_roundtrip_canonical_exact():
    e = parse_weight("3.7*n^-1.25*ln(n)^0.125*lnln(n)^-2")
    assert parse_weight(e.canonical()) == e


@settings(max_examples=200, deadline=None)
@given(
    scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    a=st.floats(min_value=-8, max_value=8, allow_nan=False),
    b=st.floats(min_value=-8, max_value=8, allow_nan=False),
    c=st.floats(min_value=-8, max_value=8, allow_nan=False),
)
def test_roundtrip_fuzzed(scale, a, b, c):
    e = WeightExpr(scale, a, b, c)
    assert parse_weight(e.canonical()) == e


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=30))
@example("10^400")
def test_parser_never_crashes(text):
    try:
        parse_weight(text)
    except WeightSyntaxError as exc:
        assert 0 <= exc.offset <= len(text.encode())


# ---------------------------------------------------------------------------
# expressions


def test_expr_algebra_matches_pointwise():
    e1 = parse_weight("2*n^1.5*ln(n)")
    e2 = parse_weight("n^0.5*ln(n)^3")
    n = 97.0
    assert (e1 * e2)(n) == pytest.approx(e1(n) * e2(n), rel=1e-14)
    assert (e1 / e2)(n) == pytest.approx(e1(n) / e2(n), rel=1e-14)
    assert (e1 ** 2.0)(n) == pytest.approx(e1(n) ** 2, rel=1e-14)


def test_expr_log_value_agrees_with_direct():
    e = parse_weight("5*n^2*ln(n)^-1*lnln(n)^0.5")
    for n in (10.0, 1e3, 1e8):
        assert e.log_value(n) == pytest.approx(math.log(e(n)), rel=1e-12)


def test_expr_log_value_safe_for_huge_index():
    e = WeightExpr(n_exp=3.0)
    # 1e200^3 overflows a float; the log form must not
    assert e.log_value(1e200) == pytest.approx(3.0 * math.log(1e200))


# ---------------------------------------------------------------------------
# schedules


def test_power_schedule_values():
    s = Schedule.power(2.0)
    assert [s.value(k) for k in (1, 2, 3)] == [2, 5, 10]
    assert list(s.values(3)) == [2, 5, 10]


def test_monomial_and_identity():
    assert [Schedule.identity().value(k) for k in (1, 5)] == [1, 5]
    assert Schedule.monomial(2).value(100) == 10000


def test_superexp_values_and_gap_fallback():
    s = Schedule.superexp()
    assert s.value(3) == 27
    assert s.max_k() == 15         # 15^15 <= 2^62 < 16^16
    gaps = s.gap_values(15)        # needs n_16 = 16^16 > int64 max
    assert gaps[0] == 4 - 1
    assert np.all(gaps > 0)
    assert gaps[-1] == pytest.approx(float(16**16 - 15**15), rel=1e-12)


def test_geometric_schedule_increasing():
    s = Schedule.geometric(1.5)
    v = s.values(30)
    assert np.all(np.diff(v) > 0)
    assert s.value(4) == math.ceil(1.5**4)


@pytest.mark.parametrize("q, reach", [(1.5, 105), (2.0, 62), (3.0, 39), (1.45, 115)])
def test_geometric_values_are_exact_ceilings(q, reach):
    # math.ceil(1.5**k) was off at k = 90, 91, 92 and 94..105, where the float
    # power rounds past the integer above q^k; the reach stays where it was
    s = Schedule.geometric(q)
    assert s.max_k() == reach
    exact = [math.ceil(Fraction(q) ** k) for k in range(1, reach + 1)]
    assert [s.value(k) for k in range(1, reach + 1)] == exact
    assert s.values(reach).tolist() == exact


@pytest.mark.parametrize("q, k, repeated", [(1.1, 2, 2), (1.3, 2, 2),
                                             (math.sqrt(2), 3, 3)])
def test_geometric_schedule_refuses_repeated_ceilings(q, k, repeated):
    # the float sqrt(2) squares to 2.0000000000000004, so only n_3 repeats
    with pytest.raises(ValueError, match=rf"repeats n_{k} = {repeated}: .* q\^3 > 3"):
        Schedule.geometric(q)
    s = Schedule.geometric(1.4423)
    assert np.all(np.diff(s.values(s.max_k())) > 0)


@pytest.mark.parametrize("sched", [Schedule.monomial(3), Schedule.superexp(),
                                   Schedule.power(6.5)],
                         ids=["monomial3", "superexp", "power6.5"])
def test_values_refuse_past_reach(sched):
    K = sched.max_k()
    assert len(sched.values(K)) == K
    with pytest.raises(ValueError, match=f"has only {K} terms .*n={K + 1} is out of reach"):
        sched.values(K + 1)


def test_explicit_schedule_bounds():
    s = Schedule.explicit([1, 3, 31])
    assert s.value(3) == 31
    with pytest.raises(IndexError):
        s.value(4)
    with pytest.raises(IndexError):
        s.values(4)
    with pytest.raises(ValueError):
        Schedule.explicit([3, 3])


def test_fractional_power_overflow_guard():
    s = Schedule.power(1.5)
    big = int(FLOAT_EXACT_CAP ** (1 / 1.5)) * 4
    with pytest.raises(OverflowError):
        s.value(big)
    assert s.max_k() is not None
    assert s.value(s.max_k()) <= FLOAT_EXACT_CAP


@pytest.mark.parametrize("s", [
    *(Schedule.power(r) for r in (2.5, 3.5, 6.5, 7.75)), Schedule.identity(),
    Schedule.power(2), Schedule.monomial(3), Schedule.superexp(),
    *(Schedule.geometric(q) for q in (1.45, 1.5, 2, 3)), Schedule.explicit([2, 3, 5, 8, 13]),
], ids=["2.5", "3.5", "6.5", "7.75", "identity", "power2", "monomial3", "superexp",
        "geometric1.45", "geometric1.5", "geometric2", "geometric3", "explicit"])
def test_fractional_power_value_matches_values(s):
    # one n_k rule for every kind: the scalar and the array path agree up to
    # the reach.  For a fractional power both floor the same power (the first
    # disagreements used to be k = 102571, 8483, 160 and 77 for r = 2.5..7.75)
    K = min(s.max_k(), 150_000)
    vals = s.values(K)
    assert [s.value(k) for k in range(1, K + 1)] == vals.tolist()


def _linear_max_k(sched, cap):
    """The last k with n_k <= cap by stepping k = 1, 2, ...; an n_k that
    cannot be evaluated ends the schedule."""
    k = 0
    while True:
        try:
            if sched.value(k + 1) > cap:
                return k
        except (IndexError, OverflowError):
            return k
        k += 1


@pytest.mark.parametrize("sched, cap", [
    (Schedule.superexp(), INDEX_CAP), (Schedule.geometric(1.5), INDEX_CAP),
    (Schedule.geometric(2), INDEX_CAP), (Schedule.power(6.5), FLOAT_EXACT_CAP),
    (Schedule.power(7.75), FLOAT_EXACT_CAP), (Schedule.explicit([1, 4, 9, 16, 100]), INDEX_CAP),
    (Schedule.explicit([2, 3, 2**62, 2**62 + 1]), INDEX_CAP),
    (Schedule.explicit([2**62 + 1]), INDEX_CAP),
], ids=["superexp", "geometric1.5", "geometric2", "power6.5", "power7.75", "explicit",
        "explicit-past-cap", "explicit-all-past-cap"])
def test_max_k_matches_linear_search(sched, cap):
    assert sched.cap == cap
    assert sched.max_k() == _linear_max_k(sched, cap)


@pytest.mark.parametrize("sched, last_gap", [
    (Schedule.power(3.5), 36177), (Schedule.power(6.5), 283),
    (Schedule.geometric(2), 62), (Schedule.superexp(), 15),
    (Schedule.explicit([1, 4, 9]), 2), (Schedule.identity(), INDEX_CAP),
    (Schedule.explicit([1, 2**62 + 1, 2**62 + 2]), 1),
], ids=["power3.5", "power6.5", "geometric2", "superexp", "explicit", "identity",
        "explicit-past-cap"])
def test_derived_gaps_reach_the_last_exact_n_k(sched, last_gap):
    xi = GapSeq.derived(sched)
    assert xi.max_k() == last_gap
    if last_gap < 10**6:
        assert np.all(xi.values(last_gap) > 0)


def test_gapseq_max_k_of_explicit_and_expr_modes():
    assert GapSeq.explicit([1.0, 2.5, 4.0]).max_k() == 3
    sched = Schedule.power(6.5)
    assert GapSeq.of_schedule_expr(WeightExpr(n_exp=0.5), sched).max_k() == sched.max_k()


def test_max_k_identity_unbounded_to_cap():
    assert Schedule.identity().max_k() == INDEX_CAP


def test_gapseq_modes():
    sched = Schedule.power(2.0)
    assert list(GapSeq.derived(sched).values(3)) == [3.0, 5.0, 7.0]
    assert list(GapSeq.explicit([1.0, 2.5]).values(2)) == [1.0, 2.5]
    g = GapSeq.of_schedule_expr(WeightExpr(n_exp=0.5), sched)
    assert g.values(2)[1] == pytest.approx(math.sqrt(5.0))
    with pytest.raises(ValueError):
        GapSeq.explicit([1.0, 0.0])


# ---------------------------------------------------------------------------
# weight sequences


def test_weightseq_default_start_skips_log_singularity():
    W = WeightSeq.from_text("ln(n)")
    assert W.n0 == 3                    # ln(2) < 1
    assert W.prefix(3)[-1] == pytest.approx(math.log(3.0))


def test_weightseq_rejects_decreasing():
    W = WeightSeq.from_callable(lambda n: 10.0 - np.asarray(n, dtype=float),
                                n0=1, label="decreasing")
    with pytest.raises(ArithmeticError):
        W.prefix(20)


def test_weightseq_prefix_does_not_depend_on_earlier_calls():
    W = WeightSeq.from_text("n^0.5", n0=1)
    a = W.prefix(100).copy()
    W.prefix(1000)
    assert np.array_equal(W.prefix(100), a)


@pytest.mark.parametrize("first,index", [(None, 52), (40, 52), (51, 52)])
def test_weightseq_decrease_names_its_index(first, index):
    # values rise to n = 51 and drop at n = 52; every fill, the first one
    # included, names the index of the drop
    W = WeightSeq.from_callable(lambda n: 100.0 - np.abs(np.asarray(n) - 50.5),
                                n0=1, label="peak")
    if first is not None:
        W.prefix(first)
    with pytest.raises(ArithmeticError, match=f"decreases near index {index}:"):
        W.prefix(100)


def _unchunked(seq, n):
    """WeightSeq.values as one whole-array expression, factor by factor."""
    n = np.asarray(n, dtype=float)
    if seq.expr is None:
        return np.atleast_1d(np.asarray(seq.fn(n), dtype=float))
    e = seq.expr
    v = np.full(n.shape, float(e.scale))
    if e.n_exp:
        v = v * n**e.n_exp
    if e.log_exp:
        v = v * np.log(n) ** e.log_exp
    if e.loglog_exp:
        v = v * np.log(np.log(n)) ** e.loglog_exp
    if e.superexp_coeff:
        v = v * n ** (e.superexp_coeff * n)
    return np.atleast_1d(v)


def _evaluated_weights():
    from ergolab.registry import example_instance
    superexp = asymptotic_class(parse_weight("n^0.5*ln(n)"), Schedule.superexp())
    assert superexp.superexp_coeff == 0.5
    return [WeightSeq.from_text(t) for t in (
        "n^0.5", "3*n^0.5", "ln(n)^2", "lnln(n)^1.5",
        "2*n^0.75*ln(n)^-1*lnln(n)^2")] + [
        WeightSeq(expr=superexp), example_instance("EwA").G]


@pytest.mark.parametrize("size", [1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7])
def test_values_in_chunks_are_bit_equal_to_one_pass(size):
    ns = np.arange(16, 16 + size, dtype=float)
    with np.errstate(over="ignore"):            # the superexp class overflows
        for seq in _evaluated_weights():
            assert seq.values(ns).tobytes() == _unchunked(seq, ns).tobytes(), seq


def test_values_keep_the_input_shape():
    ns = np.arange(16, 16 + 3 * (2**15 + 1), dtype=float).reshape(3, -1)
    with np.errstate(over="ignore"):
        for seq in _evaluated_weights():
            v = seq.values(ns)
            assert v.shape == ns.shape
            assert v.tobytes() == _unchunked(seq, ns).tobytes(), seq
            assert seq.values(np.float64(17.0)).shape == (1,)
            if seq.expr is not None:
                one = seq.expr(np.float64(17.0))
                assert type(one) is float
                assert one == _unchunked(seq, 17.0)[0]


# ---------------------------------------------------------------------------
# default start-index search


def _reference_n0(seq):
    """The per-n search the block scan replaced: one 65-point window per n.
    Returns None where it finds no start index below the limit."""
    n = 3
    while n < seq._N0_SEARCH_LIMIT:
        probe = seq.values(np.arange(n, n + seq.LOOKAHEAD + 1, dtype=float))
        if probe[0] >= 1.0 and np.all(np.diff(probe) >= 0.0) and np.all(np.isfinite(probe)):
            return n
        n += 1
    return None


@pytest.mark.parametrize("text, n0", [
    ("n", 1), ("n^0.1", 1), ("ln(n)", 3), ("lnln(n)", 16), ("n^2", 1),
    ("1.e5*n", 1), (".5*n", 2), ("5.*n", 1), ("n^+.5", 1)])
def test_n0_search_can_start_below_3(text, n0):
    G = WeightSeq.from_text(text, search_from=1)
    assert G.n0 == n0
    assert WeightSeq.from_text(text).n0 == max(n0, 3)


@pytest.fixture
def checked_n0(monkeypatch):
    """Below a limit of 2^12, every default start-index search runs both the
    block scan and the reference loop and must agree.  Yields the list of
    start indices checked (None for a rejection)."""
    monkeypatch.setattr(WeightSeq, "_N0_SEARCH_LIMIT", 1 << 12)
    scan = WeightSeq._default_n0
    checked = []

    def both(self):
        ref = _reference_n0(self)
        try:
            n0 = scan(self)
        except ValueError:
            n0 = None
        assert n0 == ref, f"{self.label}: block scan {n0}, per-n loop {ref}"
        checked.append(n0)
        if n0 is None:
            raise ValueError(f"no valid start index found for weight {self.label!r}")
        return n0

    monkeypatch.setattr(WeightSeq, "_default_n0", both)
    return checked


def _build(**kw):
    try:
        WeightSeq(**kw)
    except ValueError:
        pass


def test_n0_scan_matches_reference_on_registry(checked_n0):
    from ergolab.registry import EXAMPLE_IDS, example_instance
    for ex, p, beta, g in itertools.product(EXAMPLE_IDS, (1.5, 2.0, 3.0),
                                            (1.0, 0.5, 1 / 3, 0.25), (1.0, 2.0)):
        try:
            inst = example_instance(ex, p=p, beta=beta, gamma=g, alpha=g)
        except ValueError:   # beta = 1 turns E3/E6 into non-weights
            continue
        for seq in (inst.G, inst.W):   # weights built with an explicit n0
            _build(expr=seq.expr, fn=seq.fn)
    assert None in checked_n0 and len(set(checked_n0)) > 3


def test_n0_scan_matches_reference_on_texts(checked_n0):
    # the --G/--W texts of the benchmark's ad-hoc checks and rejections, and
    # a weight that increases early and decreases later
    texts = ["n^0.5", "n^0.8", "n", "n^0.25*ln(n)", "n^0.75", "n^1.5*ln(n)",
             "n^0.75*ln(n)", "n^1.25", "n^0.25", "n^0.5*ln(n)^2", "ln(n)^-1",
             "n^1.5", "n^2", "n^0.1", "0.5", "n^-0.1*ln(n)^3",
             "ln(n)", "lnln(n)", "n^0.5*lnln(n)^-2", "n^0.01*ln(n)^-1"]
    for text in texts:
        _build(expr=parse_weight(text))
    assert len(checked_n0) == len(texts) and None in checked_n0


def test_n0_scan_matches_reference_on_fuzz_corpus(checked_n0):
    # the criterion-10 round-trip corpus
    rng = np.random.Generator(np.random.Philox(key=100))
    for _ in range(200):
        _build(expr=WeightExpr(
            scale=float(10.0 ** rng.uniform(-2.0, 2.0)),
            n_exp=float(np.round(rng.uniform(-3.0, 3.0), 3)),
            log_exp=float(np.round(rng.uniform(-3.0, 3.0), 3)),
            loglog_exp=float(np.round(rng.uniform(-3.0, 3.0), 3))))
    accepted = [n0 for n0 in checked_n0 if n0 is not None]
    assert len(checked_n0) == 200 and 50 < len(accepted) < 150


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_n0_scan_matches_reference_on_callables(checked_n0):
    _build(fn=lambda n: np.where(n < 40.0, np.nan, n))
    _build(fn=lambda n: np.where(n < 700.0, np.inf, n))
    _build(fn=lambda n: np.sqrt(n * (n + 1.0) / 2.0))
    _build(fn=lambda n: 2.0 - np.sin(n / 5.0))   # never monotone for 65 steps
    assert checked_n0 == [40, 700, 3, None]


def test_n0_rejection_evaluates_few_blocks(monkeypatch):
    calls = []
    values = WeightSeq.values

    def counted(self, n):
        calls.append(np.size(n))
        return values(self, n)

    monkeypatch.setattr(WeightSeq, "values", counted)
    with pytest.raises(ValueError, match="no valid start index"):
        WeightSeq.from_text("ln(n)^-1")
    assert len(calls) <= 40
    assert sum(calls) >= WeightSeq._N0_SEARCH_LIMIT - 3


@pytest.mark.parametrize("text, scale", [
    ("1", 1.0), ("2.5", 2.5), ("3*n^0", 3.0), ("n^0*ln(n)^0*lnln(n)^0", 1.0),
    ("0.5", 0.5), ("0.999", 0.999)])
@pytest.mark.parametrize("search_from", [1, 3, 40])
def test_constant_weight_takes_the_scans_n0_unscanned(monkeypatch, text, scale,
                                                      search_from):
    # a constant is its scale at every n: the scan starts it at search_from
    # when the scale is >= 1 and refuses it otherwise, so nothing is evaluated
    def scanned(fill):
        try:
            return WeightSeq(fn=lambda n: np.full(n.shape, fill),
                             search_from=search_from).n0
        except ValueError as e:
            return str(e)

    want = scanned(scale)

    def never(self, n, out=None):
        raise AssertionError("a constant weight was evaluated")

    monkeypatch.setattr(WeightSeq, "values", never)
    try:
        got = WeightSeq.from_text(text, search_from=search_from).n0
    except ValueError as e:
        got = str(e).replace(repr(parse_weight(text).canonical()), "'callable'")
    assert got == want
    assert (got == search_from) == (scale >= 1.0)


@pytest.mark.parametrize("blocks", [1, 3])
@pytest.mark.parametrize("past", [0, 1])
@pytest.mark.parametrize("below", ["decreasing", "nan"])
def test_n0_scan_block_edges(blocks, past, below):
    # candidates 3..258 form the first block, 259..770 the second, ...
    edge = 3 + WeightSeq._N0_BLOCK_MIN * (2**blocks - 1)
    start = float(edge + past)
    head = (lambda n: 4096.0 - n) if below == "decreasing" else (lambda n: np.nan * n)
    W = WeightSeq.from_callable(lambda n: np.where(n < start, head(n), n), n0=None)
    assert W.n0 == edge + past


def test_ewa_weights_closed_form():
    # G_n = sqrt(n(n+1)/2), W_n = n^{(1+eps)/4} sqrt(n(n+1)) at eps = 0.5
    from ergolab.registry import example_instance
    inst = example_instance("EwA", eps=0.5)
    assert inst.G.prefix(2)[-1] == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert inst.W.prefix(2)[-1] == pytest.approx(2**0.375 * math.sqrt(6.0), rel=1e-15)


def test_ewa_t21_bound_is_sharp():
    # the (T21) term approaches (5+eps)/(4 sqrt 2) n^{-(5+eps)/4}, so a
    # looser constant in t21_term_bound_ewa fails this guard
    from ergolab.registry import example_instance, t21_term_bound_ewa, t21_terms
    n = np.array([10**4])
    for eps in (0.25, 0.5, 0.75):
        inst = example_instance("EwA", eps=eps)
        ratio = t21_terms(inst.G, inst.W, n) / t21_term_bound_ewa(eps, n)
        assert ratio[0] >= 0.9998


def test_twisted_weight_hand_oracle():
    G = WeightSeq.from_text("n", n0=1)
    # G_{3,1} = G_3/1 + G_1/1 + G_2/2 = 3 + 1 + 1
    assert twisted_weight(G, 1.0, 3) == pytest.approx(5.0, rel=1e-15)
    assert twisted_weight(G, 2.0, 3) == pytest.approx(3.5, rel=1e-15)
    assert twisted_weight(G, -1.0, 3) == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(ValueError):
        twisted_weight(G, 0.0, 3)


def test_twisted_weight_at_start_index_is_the_head_alone():
    # n = n0: the sum over k = n0..n-1 is empty
    G = WeightSeq.from_text("ln(n)")
    assert G.n0 == 3
    assert twisted_weight(G, 2.0, 3) == math.log(3.0) / 2.0
    with pytest.raises(IndexError):
        twisted_weight(G, 1.0, 2)


def test_twisted_weight_matches_fsum():
    G = WeightSeq.from_text("n^0.5*ln(n)")
    n = 5000
    ks = range(G.n0, n)
    exact = G.value(n) / 3.0 + math.fsum(G.value(k) / k for k in ks)
    assert twisted_weight(G, -3.0, n) == pytest.approx(exact, rel=1e-15)


# ---------------------------------------------------------------------------
# asymptotic classes


@pytest.mark.parametrize("text,kind,param", [
    ("n^0.5*ln(n)^2", "power", 2.0),
    ("n^1.5", "monomial", 3),
    ("2*n^-1*ln(n)^-2", "power", 4.0),
])
def test_asymptotic_class_ratio_audit(text, kind, param):
    expr = parse_weight(text)
    sched = Schedule.power(param) if kind == "power" else Schedule.monomial(param)
    cls = asymptotic_class(expr, sched)
    for k in (100, 1000, 10000):
        actual = expr(float(sched.value(k)))
        assert abs(cls(float(k)) / actual - 1.0) < 0.10


def test_asymptotic_class_lnln_correction_is_bounded():
    # lnln(n_k) = ln(r ln k) differs from lnln(k) by an additive ln r only;
    # the class drops it, so the log-space error must stay bounded in k
    expr = parse_weight("ln(n)^2*lnln(n)")
    sched = Schedule.power(4.0)
    cls = asymptotic_class(expr, sched)
    errs = [abs(cls.log_value(float(k)) - math.log(expr(float(sched.value(k)))))
            for k in (100, 1000, 10000, 100000)]
    assert max(errs) < 1.5
    assert errs[-1] <= errs[0]


def test_asymptotic_class_superexp():
    cls = asymptotic_class(parse_weight("ln(n)^2*lnln(n)"), Schedule.superexp())
    assert cls.superexp_coeff == 0.0
    assert cls.n_exp == 2.0
    assert cls.log_exp == 3.0
    # log-space audit against the true composition ln(k^k) = k ln k
    for k in (50, 200):
        n_k = float(k) ** k if k <= 140 else None
        lhs = cls.log_value(float(k))
        rhs = 2.0 * math.log(k * math.log(k)) + math.log(math.log(k * math.log(k)))
        assert abs(lhs - rhs) < 0.35


def test_asymptotic_class_superexp_marks_power():
    cls = asymptotic_class(parse_weight("n^0.5"), Schedule.superexp())
    assert cls.superexp_coeff == 0.5
    assert cls.log_value(20.0) == pytest.approx(0.5 * 20.0 * math.log(20.0))


def test_asymptotic_class_explicit_is_none():
    assert asymptotic_class(parse_weight("n"), Schedule.explicit([1, 2])) is None
