"""Compensated summation helpers.

Long partial sums (up to 1e7 terms) must not drop small tail terms, so all
series accumulation in this package goes through Kahan-compensated adds.
Order of accumulation is fixed (ascending index), which makes every sum
bit-reproducible across runs and thread counts.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KahanSum", "kahan_cumsum"]


class KahanSum:
    """Running compensated sum of scalars."""

    __slots__ = ("s", "c")

    def __init__(self, value: float = 0.0):
        self.s = float(value)
        self.c = 0.0

    def add(self, x: float) -> None:
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t

    @property
    def value(self) -> float:
        return self.s


def kahan_cumsum(xs) -> np.ndarray:
    """Compensated running sums of ``xs``; out[i] = sum(xs[:i+1])."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    s = 0.0
    c = 0.0
    # plain-float loop; ~3x faster than indexing into the ndarray
    for i, x in enumerate(xs.tolist()):
        y = x - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out
