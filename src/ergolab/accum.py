"""The package's one summation rule.

Every exact sum in this package is ``fsum``, a ``math.fsum`` (Shewchuk's
exact summation): the float nearest the exact sum of its inputs, whatever
their count or order, so every sum is bit-reproducible across runs and
thread counts.  ``fsum`` hands ``math.fsum`` a memoryview of a contiguous
float64 buffer, which it reads as plain floats; iterating an ndarray would
box every element as a ``numpy.float64``, which on a smooth series takes
longer than the summation itself.  ``math.fsum`` is called nowhere else in the package.

A long series is cut into blocks, each block is fsum'd, and a partial or
tail sum is the fsum of its block sums; for nonnegative terms that lies
within 2^-52 relative of the exact value (one rounding in the blocks, one
in the total).

``running_sums`` gives every prefix sum of a sequence under the same rule
in linear time: out[i] is ``math.fsum(xs[:i + 1])`` bit for bit, including
its non-finite results and its ``OverflowError``/``ValueError``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["block_sums", "fsum", "running_sums"]


def fsum(xs) -> float:
    """math.fsum(xs) bit for bit, its nan/inf results and its
    OverflowError/ValueError included, read from a float64 buffer."""
    return math.fsum(memoryview(np.ascontiguousarray(xs, dtype=float).ravel()))


def block_sums(xs, cuts) -> list:
    """fsum of xs[cuts[i]:cuts[i+1]] for each pair of consecutive cut points."""
    xs = np.asarray(xs, dtype=float)
    return [fsum(xs[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def running_sums(xs) -> list:
    """[math.fsum(xs[:i + 1]) for each i], bit for bit, in linear time.

    Like fsum, a non-finite term makes every later prefix the float sum of
    the non-finite terms so far (nan, or an infinity; +inf with -inf raises
    ValueError), and a run of finite terms between them whose sum leaves the
    float range raises OverflowError.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(xs)).tolist()
    out = _exact_prefixes(xs[:bad[0] if bad else xs.size])
    special = inf_sum = 0.0
    for i, hi in zip(bad, bad[1:] + [xs.size]):
        x = float(xs[i])
        special += x
        if math.isinf(x):
            inf_sum += x
        if math.isnan(inf_sum):
            raise ValueError("-inf + inf in fsum")
        _exact_prefixes(xs[i + 1:hi])    # overflow still raises, as in fsum
        out.extend([special] * (hi - i))
    return out


def _exact_prefixes(xs) -> list:
    """Correctly rounded prefix sums of finite floats: each term is the
    integer m 2^53 times 2^(e - 53) from frexp, all scaled to the lowest
    power of two, accumulated exactly as ints and rounded once, by a
    correctly rounded int/int division (int -> float when that power is
    >= 1)."""
    if xs.size == 0:
        return []
    m, e = np.frexp(xs)
    mant = (m * 2.0**53).astype(np.int64).tolist()
    e = e - 53
    base = int(e.min())
    sums = itertools.accumulate(k << s for k, s in zip(mant, (e - base).tolist()))
    if base >= 0:
        return [float(s << base) for s in sums]
    scale = 1 << -base
    return [s / scale for s in sums]
