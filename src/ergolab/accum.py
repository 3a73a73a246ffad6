"""The package's one summation rule.

Every series sum in this package is a ``math.fsum`` (Shewchuk's exact
summation): the float nearest the exact sum of its inputs, whatever their
count or order, so every sum is bit-reproducible across runs and thread
counts.  A long series is cut into blocks, each block is fsum'd, and a
partial or tail sum is the fsum of its block sums; for nonnegative terms
that lies within 2^-52 relative of the exact value (one rounding in the
blocks, one in the total).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["block_sums"]


def block_sums(xs, cuts) -> list:
    """fsum of xs[cuts[i]:cuts[i+1]] for each pair of consecutive cut points."""
    xs = np.asarray(xs, dtype=float)
    return [math.fsum(xs[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
