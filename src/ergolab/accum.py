"""The package's one summation rule.

Every exact sum in this package is ``fsum``: the float nearest the exact sum
of its inputs (``math.fsum``, Shewchuk's exact summation, bit for bit),
whatever their count or order, so every sum is bit-reproducible across runs
and thread counts.  ``math.fsum`` is called nowhere else in the package.

``fsum`` reads its terms as a contiguous float64 buffer.  A buffer of at
least 1,024 finite terms is summed by error-free extraction (Rump, Ogita and
Oishi, "Accurate floating-point summation part I: faithful rounding", SIAM
J. Sci. Comput. 31(1), 2008, the ExtractVector step), 2^15 terms at a time
so that its two work arrays stay in cache.  For a chunk r of m terms, let
2^e > max|r|, 2^k > m + 2 and sigma = 2^(e+k).  Then q = (sigma + r) - sigma
and r - q are exact, every q is a multiple of ulp(sigma)/2 and their total
stays below sigma in magnitude, so ``q.sum()`` is exact in any order; the
pass repeats on r - q until r is all zero.  The pass sums are thus exact,
and ``math.fsum`` of them is the correctly rounded total.  The first pass
reads the buffer itself, with no copy.

A caller that knows bounds least <= r <= most of its terms (the checks'
term audit has them) takes the bounded path when least is a positive normal
float and most is finite.  Then e comes from most with no abs/max sweep,
and every term, so every q and every remainder, is a multiple of 2^s with
s = exponent(least) - 53.  After a pass |r - q| <= ulp(sigma)/2, so e + k - 52
bounds the next pass without a sweep; once e + k - s <= 53, every partial
sum of the remainder is a multiple of 2^s below 2^(e+k) in magnitude, hence
a float, so the plain ``r.sum()`` is exact in any order and is the chunk's
last part, with no sigma step and no zero test.  A smooth chunk (terms over
at most about 20 binades) is thus one sigma pass and one plain sum.  Should
the bound not yet allow the plain sum, the pass measures max|r| as above.
Buffers with a zero, negative, subnormal or non-finite term take the
measured loop throughout.  ``math.fsum`` takes a memoryview of the whole
buffer instead (iterating an ndarray would box every element as a
``numpy.float64``) when the buffer has

- fewer than 1,024 terms (below about that many a pass of a few numpy
  calls costs more than Shewchuk's partials on the whole buffer);
- a nan or an infinity (fsum's nan/inf results and its ValueError are the
  contract);
- n terms of magnitude up to 2^e with 2^e times 2^bit_length(n + 2) past
  2^1023, where a prefix sum could overflow (fsum's OverflowError is the
  contract), or an ulp(sigma) below the normal range;
- a chunk that needs more than 8 passes (a full chunk's pass clears
  52 - 16 binades, so terms spread over more than about 235 binades,
  where Shewchuk's partials are cheaper);
- no nonzero term, so that a sum of signed zeros keeps fsum's sign rule.

A long series is cut into pieces, each piece is fsum'd, and a partial or
tail sum is the fsum of its piece sums; for nonnegative terms that lies
within 2^-52 relative of the exact value (one rounding in the pieces, one
in the total).  ``PieceSums`` sums the pieces of a series that arrives in
chunks, so that no caller holds the whole series: a chunk is cut at the
piece bounds, and each segment goes through the same extraction, with the
overflow bound taken on its piece's whole count and the chunk's bounds,
which hold for every segment cut from it.  A segment that would go
to ``math.fsum`` whole is kept as its terms instead, and a piece sum is
``math.fsum`` of its parts and kept terms in feeding order.  Each part is
exact, so that is the piece's correctly rounded sum, bit-equal to ``fsum``
of the piece in one buffer.  Its nan/inf results and errors are fsum's as
well, because the terms that cause them are kept in order; the one
exception is a run of signed terms whose prefix sum leaves the float range
and comes back inside an extracted segment, which no nonnegative series
has.  ``block_sums`` is the one-chunk call.

``running_sums`` gives every prefix sum of a sequence under the same rule
in linear time: out[i] is ``math.fsum(xs[:i + 1])`` bit for bit, including
its non-finite results and its ``OverflowError``/``ValueError``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys

import numpy as np

__all__ = ["PieceSums", "block_sums", "fsum", "running_sums"]


_MIN_TERMS = 1024         # shorter buffers go to math.fsum
_CHUNK = 2**15            # terms extracted at a time
_MAX_PASSES = 8           # extraction passes per chunk before falling back


def fsum(xs) -> float:
    """math.fsum(xs) bit for bit, its nan/inf results and its
    OverflowError/ValueError included, read from a float64 buffer."""
    buf = np.ascontiguousarray(xs, dtype=float).ravel()
    parts = _extracted_parts(buf)
    return math.fsum(memoryview(buf) if parts is None else parts)


def _extracted_parts(buf, count: int | None = None, work=None,
                     bounds=None) -> list | None:
    """Pass sums of ``buf`` by error-free extraction, whose exact total is
    the exact sum of ``buf``; None when ``buf`` must go to math.fsum whole.
    ``count`` (``buf.size`` by default) is the number of terms of the sum
    that ``buf`` belongs to, on which the overflow bound is taken; ``work``
    is a pair of scratch arrays of at least min(buf.size, _CHUNK) floats;
    ``bounds`` is an optional pair (least, most) with least <= every term
    <= most, which takes the bounded path when least is a positive normal
    float and most is finite."""
    n = buf.size
    if n < _MIN_TERMS:
        return None
    n_bits = ((n if count is None else count) + 2).bit_length()
    s = None          # with bounds: every term is a multiple of 2^s
    if bounds is not None:
        least, most = float(bounds[0]), float(bounds[1])
        if least >= sys.float_info.min and most < math.inf:
            s, e_most = math.frexp(least)[1] - 53, math.frexp(most)[1]
    r, q = work or (np.empty(min(n, _CHUNK)), np.empty(min(n, _CHUNK)))
    parts = []
    for lo in range(0, n, _CHUNK):
        rc = buf[lo:lo + _CHUNK]
        qc = q[:rc.size]
        k = (rc.size + 2).bit_length()
        e = None if s is None else e_most       # 2^e > max|rc|
        for passes in itertools.count():
            if s is not None and e + k - s <= 53:
                parts.append(float(rc.sum()))   # every partial sum is exact
                break
            if passes or s is None:
                top = float(np.abs(rc, out=qc).max())
                if top == 0.0:
                    break
                if not math.isfinite(top) or passes == _MAX_PASSES:
                    return None
                e = math.frexp(top)[1]
            if e + n_bits > 1023 or e + k - 52 < -1022:
                return None
            sigma = math.ldexp(1.0, e + k)
            np.add(rc, sigma, out=qc)
            qc -= sigma
            parts.append(float(qc.sum()))
            rc = np.subtract(rc, qc, out=r[:rc.size])
            e += k - 52                         # |rc| <= ulp(sigma) / 2
    return parts or None          # no nonzero term


class PieceSums:
    """fsum of each piece xs[cuts[i]:cuts[i+1]] of a series fed in chunks.

    ``add(lo, chunk, bounds)`` takes the terms xs[lo:lo + len(chunk)],
    with an optional pair (least, most) that bounds them; the chunks must
    come in order and cover the cut range once.  ``sums()`` then gives
    every piece sum, bit-equal to ``fsum`` of the piece (and raising as it
    does).  A chunk's buffer may be reused once ``add`` returns."""

    def __init__(self, cuts):
        self._cuts = [int(c) for c in cuts]
        self._parts = [[] for _ in self._cuts[1:]]      # per piece, in feeding order
        self._work = None       # the extraction's scratch, kept across chunks

    def add(self, lo: int, chunk, bounds=None) -> None:
        chunk = np.ascontiguousarray(chunk, dtype=float).ravel()
        hi = lo + chunk.size
        cuts = self._cuts
        for i in range(max(bisect.bisect_right(cuts, lo) - 1, 0), len(cuts) - 1):
            if cuts[i] >= hi:
                break
            a, b = max(cuts[i], lo), min(cuts[i + 1], hi)
            if a < b:
                seg = chunk[a - lo:b - lo]
                if self._work is None and seg.size >= _MIN_TERMS:
                    self._work = np.empty(_CHUNK), np.empty(_CHUNK)
                parts = _extracted_parts(seg, cuts[i + 1] - cuts[i], self._work, bounds)
                self._parts[i].append(memoryview(seg.copy()) if parts is None else parts)

    def sums(self) -> list:
        return [math.fsum(itertools.chain.from_iterable(parts)) for parts in self._parts]


def block_sums(xs, cuts) -> list:
    """fsum of xs[cuts[i]:cuts[i+1]] for each pair of consecutive cut points:
    the one-chunk case of ``PieceSums``, bounded by the slice's min/max."""
    pieces = PieceSums(cuts)
    xs = np.asarray(xs, dtype=float)[cuts[0]:cuts[-1]]
    pieces.add(cuts[0], xs, (xs.min(), xs.max()) if xs.size else None)
    return pieces.sums()


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
