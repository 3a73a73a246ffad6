"""The one summation rule: running sums are the fsum of every prefix."""

import math

import numpy as np
import pytest

from ergolab.accum import running_sums


def _prefix_fsums(xs):
    return [math.fsum(xs[:i + 1]) for i in range(len(xs))]


def _bits(xs):
    return [float(x).hex() for x in xs]


def _spread(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)


@pytest.mark.parametrize("xs", [
    [],
    [-0.0],
    [1.0, 1e100, 1.0, -1e100],                       # cancellation
    [0.1] * 10 + [-0.3] * 5,                         # mixed signs
    list(np.random.Generator(np.random.Philox(key=1)).standard_normal(300)),
    list(_spread(400, seed=2)),                      # many exponents
    [5e-324, -5e-324, 1e-310, 0.0, -0.0, 2.2e-308, -1e-320],   # subnormals
    [1e308, -1e308, 1.7e308, 1e292],
    [2.0**-1074] * 3 + [1.0, 2.0**-53, 2.0**-53],   # half-even ties
])
def test_running_sums_are_fsums_of_every_prefix(xs):
    assert _bits(running_sums(xs)) == _bits(_prefix_fsums(xs))


def test_running_sums_accept_arrays():
    xs = np.abs(_spread(4096, seed=3))
    out = running_sums(xs)
    assert len(out) == xs.size
    assert _bits(out) == _bits(_prefix_fsums(xs.tolist()))


@pytest.mark.parametrize("xs", [
    [1.0, math.inf, 2.0],
    [3.0, -math.inf, 1e308, 1e300],
    [math.nan, 1.0],
    [1.0, math.inf, math.nan, 4.0],
    [1e308, math.inf, 1e308],                        # the finite run resets
])
def test_running_sums_non_finite_terms(xs):
    out, ref = running_sums(xs), _prefix_fsums(xs)
    assert [math.isnan(x) for x in out] == [math.isnan(x) for x in ref]
    assert [x for x in out if not math.isnan(x)] == [x for x in ref if not math.isnan(x)]


@pytest.mark.parametrize("xs, error", [
    ([1.0, math.inf, -math.inf], ValueError),
    ([1e308, 1e308], OverflowError),
    ([1e308, 1e308, -1e308], OverflowError),         # a prefix overflows
    ([math.inf, 1e308, 1e308], OverflowError),
    ([-1.7e308, -1.7e308, math.nan], OverflowError),
])
def test_running_sums_raise_as_fsum(xs, error):
    with pytest.raises(error):
        _prefix_fsums(xs)
    with pytest.raises(error):
        running_sums(xs)
