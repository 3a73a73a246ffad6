"""The one summation rule: ``fsum`` is ``math.fsum`` bit for bit, and
running sums are the fsum of every prefix."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import accum
from ergolab.accum import fsum, running_sums


def _prefix_fsums(xs):
    return [math.fsum(xs[:i + 1]) for i in range(len(xs))]


def _bits(xs):
    return [float(x).hex() for x in xs]


def _spread(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


def _outcome(f, xs):
    """The sum's bits, or the type of the error it raised."""
    try:
        return f(xs).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


CORPUS = [
    [],
    [-0.0],
    [1.0, 1e100, 1.0, -1e100],                       # cancellation
    [0.1] * 10 + [-0.3] * 5,                         # mixed signs
    list(np.random.Generator(np.random.Philox(key=1)).standard_normal(300)),
    list(_spread(400, seed=2)),                      # many exponents
    [5e-324, -5e-324, 1e-310, 0.0, -0.0, 2.2e-308, -1e-320],   # subnormals
    [1e308, -1e308, 1.7e308, 1e292],
    [2.0**-1074] * 3 + [1.0, 2.0**-53, 2.0**-53],   # half-even ties
]


NON_FINITE = [
    [1.0, math.inf, 2.0],
    [3.0, -math.inf, 1e308, 1e300],
    [math.nan, 1.0],
    [1.0, math.inf, math.nan, 4.0],
    [1e308, math.inf, 1e308],                        # the finite run resets
]

RAISING = [
    ([1.0, math.inf, -math.inf], ValueError),
    ([1e308, 1e308], OverflowError),
    ([1e308, 1e308, -1e308], OverflowError),         # a prefix overflows
    ([math.inf, 1e308, 1e308], OverflowError),
    ([-1.7e308, -1.7e308, math.nan], OverflowError),
    ([math.inf, -math.inf], ValueError),
]


@pytest.mark.parametrize("xs", CORPUS + NON_FINITE)
def test_fsum_is_math_fsum(xs):
    assert fsum(xs).hex() == math.fsum(xs).hex()
    assert fsum(np.array(xs, dtype=float)).hex() == math.fsum(xs).hex()


def test_fsum_of_long_arrays_views_and_lists():
    xs = _spread(10**5, seed=4)
    assert fsum(xs).hex() == math.fsum(xs).hex()
    z = xs * np.exp(1j * np.arange(xs.size))        # .real/.imag are strided
    assert not z.real.flags.c_contiguous
    assert fsum(z.real).hex() == math.fsum(z.real).hex()
    assert fsum(z.imag).hex() == math.fsum(z.imag).hex()
    assert fsum(xs[::-3]).hex() == math.fsum(xs[::-3]).hex()
    ys = xs[:1000].tolist()
    assert fsum(ys).hex() == math.fsum(ys).hex()


# 1,023 and 1,024 straddle the shortest extracted buffer, 2^15 +- 1 one chunk
TILED = [64, 1023, 1024, 2**15 - 1, 2**15 + 1, 10**5]


@pytest.mark.parametrize("size", TILED)
@pytest.mark.parametrize("xs", [xs for xs in CORPUS if xs])
def test_fsum_of_tiled_corpus_is_math_fsum(xs, size):
    tiled = np.resize(np.array(xs, dtype=float), size)
    assert _outcome(fsum, tiled) == _outcome(math.fsum, tiled.tolist())


def _ties(n):
    """1 + 2^-53 lies halfway between two floats, and a far smaller term in
    a later chunk, or none, decides the rounding."""
    cases = []
    for head in (1.0, 1.0 + 2.0**-52):
        for breaker in (0.0, 2.0**-200, -2.0**-200, 2.0**-1000):
            xs = np.zeros(n)
            xs[0], xs[n // 2], xs[-1] = head, 2.0**-53, breaker
            cases.append(xs)
    return cases


def _subnormals(n):
    rng = np.random.Generator(np.random.Philox(key=5))
    tiny = rng.integers(-2**40, 2**40, n) * 2.0**-1074
    return [tiny, np.abs(tiny), tiny + np.where(np.arange(n) % 7, 0.0, 2.0**-1000)]


def _modulated(n):
    """Signed real and imaginary terms of sum_k k^-0.6 e^{i t n_k} with
    n_k = k^2, as ``transforms.modulated_poly`` sums them."""
    k = np.arange(1, n + 1, dtype=float)
    terms = k**-0.6 * np.exp(1j * 2.399963229728653 * k * k)
    return [terms.real, terms.imag]


def _below_minus_one(sizes):
    """Terms just above -1, whose extracted parts fill every bit down to
    ulp(sigma) / 2, in chunks longer than half of 2^k."""
    rng = np.random.Generator(np.random.Philox(key=6))
    return [-1.0 + rng.random(n) * 2.0**-20 for n in sizes]


@pytest.mark.parametrize("xs", _ties(10**5) + _subnormals(10**5) + _modulated(10**5)
                         + _below_minus_one([1100, 2000, 3000, 10**5]))
def test_fsum_of_long_ties_subnormals_and_signed_terms(xs):
    assert fsum(xs).hex() == math.fsum(xs.tolist()).hex()


def test_fsum_extracts_smooth_series_and_falls_back_otherwise():
    smooth = np.arange(1, 10**6 + 1, dtype=float) ** -1.3
    parts = accum._extracted_parts(smooth)
    assert parts is not None and len(parts) >= smooth.size // accum._CHUNK
    assert math.fsum(parts).hex() == math.fsum(memoryview(smooth)).hex()
    assert fsum(smooth).hex() == math.fsum(memoryview(smooth)).hex()
    assert accum._extracted_parts(smooth[:accum._MIN_TERMS]) is not None
    assert accum._extracted_parts(smooth[:accum._MIN_TERMS - 1]) is None
    for bad in (math.inf, -math.inf, math.nan):
        xs = smooth[:4096].copy()
        xs[1234] = bad
        assert accum._extracted_parts(xs) is None
    narrow = np.ldexp(1.0, np.resize(np.arange(-30, 30), 4096))
    assert accum._extracted_parts(narrow) is not None
    wide = np.ldexp(1.0, np.resize(np.arange(-300, 300), 4096))      # 600 binades
    assert accum._extracted_parts(wide) is None
    assert fsum(wide).hex() == math.fsum(wide.tolist()).hex()


def _buffer(n, seed, lo, width, fill, share, specials):
    """n terms of random sign and mantissa over the binades [lo, lo + width],
    a ``share`` of them then set to ``fill`` and a few to ``specials``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = np.ldexp(rng.uniform(-1.0, 1.0, n),
                  rng.integers(lo, min(lo + width, 1024), n, endpoint=True))
    xs[rng.random(n) < share] = fill
    xs[rng.integers(0, n, len(specials))] = specials
    return xs


_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | \
    st.builds(math.ldexp, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              st.integers(-1074, 1024))


@settings(max_examples=200, deadline=None, database=None)
@given(xs=st.builds(_buffer, st.integers(64, 5000), st.integers(0, 2**32 - 1),
                    st.integers(-1074, 1023), st.integers(0, 60) | st.integers(0, 2100), _FLOATS,
                    st.sampled_from([0.0, 0.5, 0.99, 1.0]), st.lists(_FLOATS, max_size=3)))
def test_fsum_is_math_fsum_on_any_buffer(xs):
    assert _outcome(fsum, xs) == _outcome(math.fsum, xs.tolist())


def test_fsum_raises_when_a_long_prefix_overflows_and_cancels():
    """Every chunk's sigma is in range and the total is finite, but a
    prefix overflows, so math.fsum raises."""
    v = math.ldexp(0.999, 1007)
    xs = np.full(5 * 2**15, v)
    xs[-2**14:] = -v
    with pytest.raises(OverflowError):
        math.fsum(xs.tolist())
    with pytest.raises(OverflowError):
        fsum(xs)


@pytest.mark.parametrize("xs, error", RAISING)
def test_fsum_raises_as_math_fsum(xs, error):
    with pytest.raises(error):
        math.fsum(xs)
    with pytest.raises(error):
        fsum(xs)


@pytest.mark.parametrize("xs", CORPUS)
def test_running_sums_are_fsums_of_every_prefix(xs):
    assert _bits(running_sums(xs)) == _bits(_prefix_fsums(xs))


def test_running_sums_accept_arrays():
    xs = np.abs(_spread(4096, seed=3))
    out = running_sums(xs)
    assert len(out) == xs.size
    assert _bits(out) == _bits(_prefix_fsums(xs.tolist()))


@pytest.mark.parametrize("xs", NON_FINITE)
def test_running_sums_non_finite_terms(xs):
    out, ref = running_sums(xs), _prefix_fsums(xs)
    assert [math.isnan(x) for x in out] == [math.isnan(x) for x in ref]
    assert [x for x in out if not math.isnan(x)] == [x for x in ref if not math.isnan(x)]


@pytest.mark.parametrize("xs, error", RAISING)
def test_running_sums_raise_as_fsum(xs, error):
    with pytest.raises(error):
        _prefix_fsums(xs)
    with pytest.raises(error):
        running_sums(xs)


def _fed(xs, cuts, splits):
    """PieceSums of xs at ``cuts``, fed in chunks that end at ``splits``."""
    pieces = accum.PieceSums(cuts)
    ends = sorted({cuts[0], cuts[-1]} | {s for s in splits if cuts[0] < s < cuts[-1]})
    for lo, hi in zip(ends, ends[1:]):
        chunk = xs[lo:hi].copy()
        pieces.add(lo, chunk)
        chunk[...] = np.nan               # a fed buffer may be reused
    return pieces.sums()


def _random_cuts(n, rng, count):
    return sorted({0, n} | set(rng.integers(0, n, count).tolist()))


@pytest.mark.parametrize("xs", _ties(10**5) + _subnormals(10**5) + _modulated(10**5)
                         + _below_minus_one([1100, 2000, 3000, 10**5]))
def test_piece_sums_fed_in_chunks_are_fsums_of_each_piece(xs):
    rng = np.random.Generator(np.random.Philox(key=xs.size + int(xs[0] * 2**20) % 97))
    for _ in range(3):
        cuts = _random_cuts(xs.size, rng, 8)
        splits = _random_cuts(xs.size, rng, int(rng.integers(1, 40)))
        want = [math.fsum(xs[lo:hi].tolist()) for lo, hi in zip(cuts, cuts[1:])]
        assert _bits(_fed(xs, cuts, splits)) == _bits(want)


def test_piece_sums_keep_short_pieces_zeros_and_overflow():
    xs = np.abs(_spread(5 * 2**15, seed=7)) * 1e-300
    xs[40_000:42_000] = -0.0                   # a piece of 2,000 signed zeros
    xs[42_000:42_500] = 0.0                    # and one of mixed zeros
    xs[42_500:43_000] = -0.0
    cuts = [0, 33_000, 33_700, 40_000, 42_000, 43_000, xs.size]
    # 33_000..33_700, under 1,024 terms, straddles the split at 33_300; the
    # zero pieces straddle 41_000 and 42_600
    splits = [2**15, 33_300, 41_000, 42_600, 3 * 2**15]
    want = [math.fsum(xs[lo:hi].tolist()) for lo, hi in zip(cuts, cuts[1:])]
    assert _bits(_fed(xs, cuts, splits)) == _bits(want)
    assert _bits(accum.block_sums(xs, cuts)) == _bits(want)

    big = np.concatenate((np.ones(2**16), np.full(2**16, 2.0**1008)))   # total 2^1024
    with pytest.raises(OverflowError):
        math.fsum(big.tolist())
    for splits in ([], [2**15, 2**16 + 5, 3 * 2**15]):
        with pytest.raises(OverflowError):
            _fed(big, [0, big.size], splits)


def _bounded(xs, bounds=None):
    """fsum of xs through the bounded path, with xs's own bounds by default."""
    bounds = (xs.min(), xs.max()) if bounds is None else bounds
    parts = accum._extracted_parts(xs, bounds=bounds)
    return math.fsum(memoryview(xs) if parts is None else parts)


def _smooth_chunks():
    """n^-1.3 and (T21) terms (G_n/W_n)(1 - W_n/W_{n+1}) with G = n^0.5 ln(n)^2
    and W = n^0.9 lnln(n), in chunks of 2^15 and in odd lengths."""
    n = np.arange(16, 16 + 3 * 2**15 + 1, dtype=float)
    g, w = n**0.5 * np.log(n)**2, n**0.9 * np.log(np.log(n))
    t21 = g[:-1] / w[:-1] * (1.0 - w[:-1] / w[1:])
    power = n[:-1] ** -1.3
    return [xs[lo:hi] for xs in (power, t21)
            for lo, hi in ((0, 2**15), (2**15, 2**16), (0, 3 * 2**15), (5, 1029), (7, 40_000))]


def _positive_ties():
    """Positive terms whose total lies at, just above or just below the
    midpoint between two floats: 2^17 terms of 2^-70 after the head add up
    to exactly 2^-53."""
    cases = []
    for head in (1.0, 1.0 + 2.0**-52):
        for nudge in (0.0, 2.0**-200, -2.0**-71):
            xs = np.full(2**17 + 1, 2.0**-70)
            xs[0], xs[1] = head, 2.0**-70 + nudge
            cases.append(xs)
        xs = np.full(2**17, 2.0**-1000)
        xs[0], xs[2**16] = head, 2.0**-53                  # 1,000 binades apart
        cases.append(xs)
    return cases


@pytest.mark.parametrize("xs", _smooth_chunks() + _positive_ties())
def test_bounded_extraction_is_math_fsum(xs):
    want = math.fsum(xs.tolist()).hex()
    assert _bounded(xs).hex() == want
    assert _bounded(xs, (xs.min() / 3.0, xs.max() * 5.0)).hex() == want    # looser
    assert fsum(xs).hex() == want


@pytest.mark.parametrize("width", [0, 5, 20, 21, 25, 29, 40, 60])
def test_bounded_parts_are_exact(width):
    """Each part is exact: the parts and the negated terms sum to exactly 0.
    Random mantissas over ``width`` binades leave remainders that need every
    bit down to 2^s, so a plain sum taken too early rounds."""
    rng = np.random.Generator(np.random.Philox(key=width))
    for n in (1024, 2**15, 2**15 + 999, 3 * 2**15):
        xs = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-width, 1, n, endpoint=True))
        parts = accum._extracted_parts(xs, bounds=(xs.min(), xs.max()))
        assert math.fsum([*parts, *(-xs).tolist()]) == 0.0
        assert math.fsum(parts).hex() == math.fsum(xs.tolist()).hex()


def test_bounded_smooth_chunk_is_one_sigma_pass_and_one_plain_sum():
    xs = np.arange(2**15, 2**16, dtype=float) ** -1.3
    parts = accum._extracted_parts(xs, bounds=(xs.min(), xs.max()))
    assert len(parts) == 2
    assert math.fsum(parts).hex() == math.fsum(xs.tolist()).hex()


@pytest.mark.parametrize("xs", _smooth_chunks()[:5] + _positive_ties()[:4])
def test_piece_sums_with_chunk_bounds_on_cut_segments(xs):
    """Each chunk's bounds hold for every segment cut from it at a piece
    bound, so they are looser than the segment's own."""
    rng = np.random.Generator(np.random.Philox(key=xs.size))
    cuts = _random_cuts(xs.size, rng, 6)
    ends = _random_cuts(xs.size, rng, 5)
    pieces = accum.PieceSums(cuts)
    for lo, hi in zip(ends, ends[1:]):
        pieces.add(lo, xs[lo:hi], (xs[lo:hi].min(), xs[lo:hi].max()))
    want = [math.fsum(xs[lo:hi].tolist()) for lo, hi in zip(cuts, cuts[1:])]
    assert _bits(pieces.sums()) == _bits(want)


def _general_minimum(n):
    """Buffers whose least term is zero, subnormal or negative."""
    smooth = np.arange(1, n + 1, dtype=float) ** -1.3
    zero, subnormal, negative = smooth.copy(), smooth.copy(), smooth.copy()
    zero[n // 3] = 0.0
    subnormal[n // 3] = 2.0**-1070
    negative[n // 3] = -0.25
    return [zero, subnormal, negative, _modulated(n)[0]]


@pytest.mark.parametrize("xs", _general_minimum(3 * 2**15 + 7))
def test_zero_subnormal_or_negative_minimum_takes_the_general_loop(xs):
    bounded = accum._extracted_parts(xs, bounds=(xs.min(), xs.max()))
    assert bounded == accum._extracted_parts(xs)
    assert _bounded(xs).hex() == math.fsum(xs.tolist()).hex()


def test_bounded_spread_past_eight_passes_goes_to_math_fsum():
    wide = np.ldexp(1.0, np.resize(np.arange(-300, 300), 4096))      # 600 binades
    assert accum._extracted_parts(wide, bounds=(wide.min(), wide.max())) is None
    assert _bounded(wide).hex() == math.fsum(wide.tolist()).hex()
    pieces = accum.PieceSums([0, 1500, wide.size])
    pieces.add(0, wide, (wide.min(), wide.max()))
    assert _bits(pieces.sums()) == _bits([math.fsum(wide[:1500].tolist()),
                                          math.fsum(wide[1500:].tolist())])


def test_bounded_overflow_bound_is_taken_on_the_piece_count():
    """1,024 terms of 2^1007 extract alone, but 2^17 of them reach 2^1024:
    the piece's count refuses every segment, and sums() raises."""
    xs = np.full(2**17, 2.0**1007)
    bounds = (2.0**1007, 2.0**1007)
    assert accum._extracted_parts(xs[:1024], bounds=bounds) is not None
    assert accum._extracted_parts(xs[:1024], xs.size, bounds=bounds) is None
    pieces = accum.PieceSums([0, xs.size])
    for lo in range(0, xs.size, 1024):
        pieces.add(lo, xs[lo:lo + 1024], bounds)
    with pytest.raises(OverflowError):
        math.fsum(xs.tolist())
    with pytest.raises(OverflowError):
        pieces.sums()
