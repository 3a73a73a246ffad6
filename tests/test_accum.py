"""The one summation rule: ``fsum`` is ``math.fsum`` bit for bit, and
running sums are the fsum of every prefix."""

import math

import numpy as np
import pytest

from ergolab.accum import fsum, running_sums


def _prefix_fsums(xs):
    return [math.fsum(xs[:i + 1]) for i in range(len(xs))]


def _bits(xs):
    return [float(x).hex() for x in xs]


def _spread(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


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
