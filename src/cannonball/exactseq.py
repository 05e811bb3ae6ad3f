"""Exact integer core for square pyramidal numbers and their nearest squares.

Everything in this module is decided by integer comparisons: no floating
point result ever determines a classification.  The near-half prefilter of
near_half_count compares the exact integer |d - f| with a threshold rounded
up.  The only float estimates are distance_bins' branch-free distance,
within 6.01u of it absolutely (u = 2^-53), which sets its edge tolerance;
the double-word distance _signed_delta, within 16u^2 of the distance
relatively, from which _frac_words splits the exact 96-bit
fractional-part words of a sub-block and leaves to frac_mantissa the
indices within 2^-7 of a limb boundary, the band that bound gives; and the
starting root estimate of the vector (f, d) kernel, block_fd, within 3.5u
of the root relatively.  block_fd sums P_n from per-sub-block offset
columns, (i+1) lo^2 + lo i(i+1) + i(i+1)(2i+1)/6 past P(lo-1), in wrapping
uint64 and in float64, and proves every result by one unsigned integer
check, 0 <= d <= 2f; only the indices it rejects take a +-1 step on f and
the check again.

Conventions used throughout:

  p = pyramidal(n)            the n-th square pyramidal number
  f = isqrt(p)                so f^2 <= p < (f+1)^2
  d = p - f^2                 offset above the lower square
  a = min(d, 2f+1-d)          distance to the nearest square
  {sqrt(p)} < 1/2 exactly when d <= f, i.e. 4p < (2f+1)^2.  Equality never
  happens: 4p is even while (2f+1)^2 is odd.

_nearest(f, d) is the one statement of that rule: it gives the nearest
square's root y, a and the side, for one index or a whole sub-block, and
every path that writes a term reads it.  The few paths that keep their own
form say why where they do.
"""

from __future__ import annotations

import math
import operator
import os
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from multiprocessing import get_context
from typing import Iterator

import numpy as np

DEFAULT_BITS = 96
FD_CAP = 10**10      # last index the vector (f, d) kernel accepts; see block_fd
SUB_BLOCK = 1 << 12  # indices per kernel call, which bounds its transient arrays
CHUNK = 1 << 16      # default indices per span (--chunk): one pool task, one terms span
# largest histogram bin count, which sizes the histogram's one bin array; it
# also caps the sandwich's L/2, as input validation far below distance_bins' L < 2^53
MAX_BINS = 1 << 20
POOL_WINDOW = 4      # outstanding tasks per pool process in ordered_map


class Side(Enum):
    """Which side of 1/2 the fractional part of sqrt(P_n) falls on.

    Perfect squares ({sqrt(P_n)} = 0, n in {1, 24}) are BELOW_HALF by
    convention.
    """

    BELOW_HALF = "below"
    ABOVE_HALF = "above"


@dataclass(frozen=True)
class Term:
    """One fully resolved element of the nearest-square distance sequence."""

    n: int
    p: int       # n-th square pyramidal number
    f: int       # floor(sqrt(p))
    y: int       # root of the square closest to p (f or f+1)
    a: int       # |p - y^2|
    side: Side


@dataclass(frozen=True)
class FixedFrac:
    """Fractional part of sqrt(P_n) as a guaranteed-error fixed-point value.

    value = mantissa / 2**bits, with |value - {sqrt(P_n)}| <= err_ulps / 2**bits.
    The constructor used by frac_sqrt always yields err_ulps = 1 (floor
    rounding of the true fractional part).
    """

    mantissa: int
    bits: int
    err_ulps: int = 1

    def __post_init__(self):
        if not 0 <= self.mantissa < (1 << self.bits):
            raise ValueError("mantissa out of range for declared bits")

    def __float__(self) -> float:
        return self.mantissa / (1 << self.bits)

    @property
    def value(self) -> float:
        return float(self)

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.bits)


@dataclass(frozen=True)
class RangeSpec:
    """An inclusive index range [lo, hi] with a work-splitting granularity."""

    lo: int
    hi: int
    chunk: int = CHUNK

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError(f"invalid range [{self.lo}, {self.hi}]")
        if self.chunk < 1:
            raise ValueError("chunk must be positive")

    def chunks(self) -> Iterator[tuple[int, int]]:
        """Disjoint (lo, hi) sub-ranges of at most `chunk` indices, in order."""
        lo = self.lo
        while lo <= self.hi:
            hi = min(lo + self.chunk - 1, self.hi)
            yield lo, hi
            lo = hi + 1


def pyramidal(n: int) -> int:
    """n-th square pyramidal number n(n+1)(2n+1)/6, exactly."""
    if n < 0:
        raise ValueError("pyramidal index must be nonnegative")
    # among n, n+1, 2n+1 there is always a factor 2 and a factor 3
    return n * (n + 1) * (2 * n + 1) // 6


def isqrt(n: int) -> int:
    """Floor integer square root, exact for any size of input."""
    if n < 0:
        raise ValueError("isqrt of negative number")
    return math.isqrt(n)


def _nearest(f, d):
    """(y, a, above) for p = f^2 + d with f = isqrt(p): the root y of the
    square nearest p, a = |p - y^2|, and whether {sqrt(p)} > 1/2.

    above is d > f, that is 4p > (2f+1)^2 (see Conventions), so y = f +
    above, and a is d below the half and (f+1)^2 - p = 2f + 1 - d above
    it.  Ties cannot occur: p - f^2 = (f+1)^2 - p needs 2p = f^2 + (f+1)^2,
    whose right side is odd.  There is no branch, so the same code serves
    Python ints, int64 kernel sub-blocks and object sub-blocks past FD_CAP.
    """
    above = d > f
    return f + above, d + above * (2 * f + 1 - 2 * d), above


_SIDES = (Side.BELOW_HALF, Side.ABOVE_HALF)  # indexed by _nearest's `above`


def nearest_square_root(p: int) -> int:
    """The y minimizing |p - y^2| (_nearest)."""
    if p < 0:
        raise ValueError("no nearest square below zero")
    f = math.isqrt(p)
    return _nearest(f, p - f * f)[0]


def term(n: int) -> Term:
    """Fully resolved sequence element for index n >= 1."""
    if n < 1:
        raise ValueError("term index must be >= 1")
    p = pyramidal(n)
    f = math.isqrt(p)
    y, a, above = _nearest(f, p - f * f)
    return Term(n, p, f, y, a, _SIDES[above])


def _block_terms(s: int, f: np.ndarray, d: np.ndarray) -> Iterator[Term]:
    """The Terms of one (f, d) sub-block, f[i] and d[i] belonging to index s + i.

    _nearest resolves the whole sub-block at once, and p = f^2 + d is
    formed in Python ints, since it passes 2^63 inside the kernel's range.
    """
    fs, ds = f.tolist(), d.tolist()
    y, a, above = _nearest(f, d)
    return map(Term, range(s, s + len(fs)), [x * x + e for x, e in zip(fs, ds)], fs,
               y.tolist(), a.tolist(), map(_SIDES.__getitem__, above.tolist()))


def stream_terms(spec: RangeSpec) -> Iterator[Term]:
    """Yield Term for every n in [lo, hi] in order.

    (f, d) come from the block_fd kernel's sub-blocks, each resolved whole
    by _block_terms, in one serial pass whatever spec.chunk is.  Work
    spread over spans and workers belongs on spans or scan, which cut and
    merge the spans once for every command.
    """
    for block in fd_blocks(spec.lo, spec.hi):
        yield from _block_terms(*block)


def terms_block(lo: int, hi: int) -> list[Term]:
    """stream_terms over [lo, hi] as a list: a library entry point no command calls."""
    return list(stream_terms(RangeSpec(lo, hi)))


def scan_fd(lo: int, hi: int) -> tuple[list[int], list[int]]:
    """(f, d) for n in [lo, hi] by one big-int isqrt each: block_fd's reference and fallback."""
    p = pyramidal(lo - 1)
    fs, ds = [], []
    for n in range(lo, hi + 1):
        p += n * n
        f = math.isqrt(p)
        fs.append(f)
        ds.append(p - f * f)
    return fs, ds


# the columns i + 1, i(i+1) and i(i+1)(2i+1)/6 of block_fd's offset polynomial,
# i < SUB_BLOCK, as uint64 and as (exact) float64
_I = np.arange(SUB_BLOCK, dtype=np.uint64)
_OFFSETS = (_I + 1, _I * (_I + 1), _I * (_I + 1) * (2 * _I + 1) // 6)
_OFFSETS_F = tuple(col.astype(np.float64) for col in _OFFSETS)


def block_fd(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact f = isqrt(P_n) and d = P_n - f^2 for every n in [lo, hi].

    Up to FD_CAP a vector kernel gives int64 arrays, one sub-block of at
    most SUB_BLOCK indices at a time (longer ranges are cut into such
    sub-blocks and joined, as object arrays if any part is).  With n = lo + i,

        P(lo + i) = P(lo - 1) + (i+1) lo^2 + lo i(i+1) + i(i+1)(2i+1)/6,

    and _OFFSETS holds the three columns in i.  P_n mod 2^64 is that sum in
    wrapping uint64, f starts from a float64 sqrt of the same sum, and
    d = P_n - f^2 mod 2^64 is checked once, as uint64: d <= 2f.  A negative
    residue reads as about 2^64, so the one comparison is 0 <= d <= 2f.
    The indices it rejects, and only those, take one +-1 step on f (down
    where the residue is negative, up where it exceeds 2f) and the same
    check again.

    The float root: the columns are exact doubles (below 2^35), and so is
    lo.  The sum is evaluated as ((i+1) lo + i(i+1)) lo + i(i+1)(2i+1)/6 +
    fl(P(lo-1)), nonnegative terms only, and each term of P passes through
    at most five roundings (the lo^2 term: two products, three sums), so
    with u = 2^-53 the sum is within 5u P of P; the sqrt halves that and
    rounds once, so the estimate is within 3.5u sqrt(P) of sqrt(P).  At
    n = FD_CAP that is below 0.225 (sqrt(P) < 5.78e14), so the start f' is
    f-1, f or f+1; the bound reaches 1 only near n = 2.7e10.
    The residue: if |f' - sqrt(P)| <= 2 then R = P - f'^2 has |R| <=
    4 sqrt(P) + 4 < 2^53, so d = R mod 2^64 is R itself when R >= 0 and
    above 2^63 > 2f' when R < 0 (where its int64 reading is R, whose sign
    the step takes).  So d <= 2f' holds exactly when 0 <= R <= 2f', that is
    f'^2 <= P < (f'+1)^2, and then d = R: acceptance proves every element.
    A wrong reading needs f' off by 2^63 / (2 sqrt(P) + 1) > 7000, far
    outside the 0.225 bound.

    Blocks past FD_CAP, or failing the check after the step, come from
    scan_fd as object arrays of exact Python ints, so callers see the same
    values on either path.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    if hi - lo >= SUB_BLOCK:
        parts = [(f, d) for _, f, d in fd_blocks(lo, hi)]
        return tuple(map(np.concatenate, zip(*parts)))
    if hi <= FD_CAP:
        m = hi - lo + 1
        (a, b, c), (af, bf, cf) = _OFFSETS, _OFFSETS_F
        p0 = pyramidal(lo - 1)
        p = a[:m] * lo
        p += b[:m]
        p *= lo
        p += c[:m]
        p += p0 % (1 << 64)
        t = af[:m] * float(lo)
        t += bf[:m]
        t *= float(lo)
        t += cf[:m]
        t += float(p0)
        f = np.sqrt(t).astype(np.int64)
        fu = f.view(np.uint64)  # shares memory with f
        d = p - fu * fu
        bad = d > fu + fu  # isqrt's acceptance 0 <= d <= 2f, not _nearest's side
        if np.count_nonzero(bad):
            i = np.flatnonzero(bad)
            f[i] += np.sign(d[i].view(np.int64))
            fi = fu[i]
            di = p[i] - fi * fi
            d[i] = di
            bad = di > fi + fi
        if not np.count_nonzero(bad):
            return f, d.view(np.int64)
    fs, ds = scan_fd(lo, hi)
    return np.array(fs, dtype=object), np.array(ds, dtype=object)


def fd_blocks(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(s, f, d) per sub-block of at most SUB_BLOCK indices covering [lo, hi]; f[i] is index s+i."""
    for s in range(lo, hi + 1, SUB_BLOCK):
        yield (s, *block_fd(s, min(s + SUB_BLOCK - 1, hi)))


def ordered_map(fn, items, workers: int = 1) -> Iterator:
    """fn(item) for each item, in item order; a pool of up to `workers` processes runs them.

    items may be a generator: it is read lazily, so memory does not grow
    with the item count.  The pool is capped at the item count (of the
    first `workers` items peeked) and the CPU count; capped at one process
    (one item, or one CPU) it runs in-process and starts no pool.  At most
    POOL_WINDOW tasks per process are outstanding, so a slow consumer holds
    back the items drawn instead of letting finished results pile up.
    Results do not depend on the pool's size.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    items = iter(items)
    head = list(islice(items, workers))
    processes = min(len(head), os.cpu_count() or 1)
    if processes > 1:
        with get_context().Pool(processes) as pool:
            pending = deque()
            for item in chain(head, items):
                pending.append(pool.apply_async(fn, (item,)))
                if len(pending) == POOL_WINDOW * processes:
                    yield pending.popleft().get()
            while pending:
                yield pending.popleft().get()
    else:
        yield from map(fn, chain(head, items))


def spans(fn, hi: int, workers: int = 1, chunk: int = CHUNK, start_n: int = 1) -> Iterator:
    """((first, last), part) for each span of [start_n, hi], in index order.

    fn(s, f, d) reduces one fd_blocks sub-block, f[i] and d[i] belonging to
    index s + i, to a tuple of partials, and returns fresh objects: they
    are folded into the part of their span in place (operator.iadd), so
    ints add, numpy arrays add into the first one and lists extend it.
    A component is never a tuple, since tuple + tuple concatenates where
    addition is meant.  fn is pickled into the pool, so it is a
    module-level function or a functools.partial of one.

    [start_n, hi] is cut lazily into spans of at most `chunk` indices, so
    no list of spans is built, and ordered_map folds each span in a pool
    of up to `workers` processes; each part comes back with the span it
    folded (_fold_span), so the spans are cut once.  This is the one span
    walk: scan folds its parts into a total, and the terms command writes
    its parts, each a list of text, as they arrive.  The range is checked
    here, before the first span is folded.
    """
    return ordered_map(partial(_fold_span, fn), RangeSpec(start_n, hi, chunk).chunks(), workers)


def scan(fn, hi: int, workers: int = 1, chunk: int = CHUNK, start_n: int = 1,
         init=None, progress=None):
    """Fold fn over the indices [start_n, hi] and return the total.

    fn is as in spans, whose span parts are merged into the running total
    by + in index order, starting from `init` (None: from the first span),
    so `init` and the totals passed to progress(last_n, total) after each
    merge are never mutated afterwards; a caller that needs the total at
    several indices scans up to each in turn and resumes from it
    (moments.power_sums_at).  Every scan command, terms included, walks
    these same spans.  Exact components make the total independent of
    workers and chunk.  When start_n > hi nothing is left to scan, and the
    result is `init`.
    """
    if start_n > hi:
        return init
    total = init
    for (_, last), part in spans(fn, hi, workers, chunk, start_n):
        total = part if total is None else tuple(t + p for t, p in zip(total, part))
        if progress is not None:
            progress(last, total)
    return total


def _fold_span(fn, span: tuple[int, int]) -> tuple:
    """(span, total): fn folded over the sub-blocks of one (lo, hi) span, with
    the span it folded; the total is this call's own."""
    blocks = fd_blocks(*span)
    total = fn(*next(blocks))
    for block in blocks:
        total = tuple(map(operator.iadd, total, fn(*block)))
    return span, total


def check_bits(bits: int) -> None:
    """The one fixed-point precision range, [32, 96], of every reader of fractional parts."""
    if not 32 <= bits <= DEFAULT_BITS:
        raise ValueError(f"bits must be in [32, {DEFAULT_BITS}], got {bits}")


def frac_sqrt(n: int, bits: int = DEFAULT_BITS) -> FixedFrac:
    """{sqrt(P_n)} in fixed point: mantissa = floor(2**bits * {sqrt(P_n)}).

    The mantissa is the floor of the true fractional part scaled by
    2**bits (frac_mantissa), so the error is strictly below one ulp.
    bits lies in [32, 96] (check_bits).
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    check_bits(bits)
    p = pyramidal(n)
    f = math.isqrt(p)
    return FixedFrac(frac_mantissa(f, p - f * f, bits), bits, 1)


def frac_mantissa(f: int, d: int, bits: int) -> int:
    """floor(2**bits * {sqrt(p)}) for p = f^2 + d with f = isqrt(p), exactly.

    isqrt(p << 2*bits) is floor(2**bits * sqrt(p)); subtracting the integer
    part 2**bits * f leaves the floor of the scaled fractional part.
    """
    return math.isqrt((f * f + d) << (2 * bits)) - (f << bits)


def _limbs(words: list[int]) -> np.ndarray:
    """(len(words), 3) int64 array of the 32-bit limbs of 96-bit words, least significant first."""
    buf = b"".join([w.to_bytes(12, "little") for w in words])
    return np.frombuffer(buf, "<u4").reshape(-1, 3).astype(np.int64)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    """Veltkamp's split of a into two halves of at most 26 significant bits each."""
    g = 134217729.0 * a  # 2^27 + 1
    hi = g - (g - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker; no fma needed)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


_WORD_F = 1 << 50       # f below this keeps f, d, y and a exact doubles; see _signed_delta
_WORD_BAND = 2.0 ** -7  # leftover fractions _frac_words leaves to frac_mantissa


def _signed_delta(f: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a / (y + sqrt(p)) for p = f^2 + d as a double word (hi, lo), within 16u^2 of it relatively.

    f and d are int64 with 0 <= d <= 2f and 1 <= f < 2^50, so f, d, the
    nearest root y and a = p - y^2 (negative above the half) are exact
    doubles; the value is {sqrt(p)} below the half and {sqrt(p)} - 1 above
    it, so |value| = delta = |sqrt(p) - y| (distance_bins).  A double word is
    an unevaluated sum hi + lo with |lo| <= ulp(hi) / 2.  With u = 2^-53 and
    s = sqrt(p), every step is exact (Knuth's two_sum, and Dekker's two_prod
    with Veltkamp's split, Numer. Math. 18, 1971, each returning the one
    exact error term whatever the order of its operands) or rounds once, by
    a factor 1 + t with |t| <= u:

    * p = ph + pl exactly: f^2 by two_prod, plus d, whose sum with the
      low part (integers below 2^52) is exact, then two_sum;
    * s0 = fl(sqrt(ph)) is within 1.5u s, and one Newton step
      s0 + r / (2 s0) on r = p - s0^2 would leave (s0 - s)^2 / (2 s0) <=
      1.13u^2 s.  With s0^2 = qh + ql by two_prod, ph - qh is exact
      (Sterbenz), pl - ql rounds by at most u * 2u p and the sum by
      u * 3u p, so r is within 5u^2 p; dividing by 2 s0 adds 1.5u^2 s: the
      corrected root is within (1.13 + 2.5 + 1.5)u^2 s = 5.13u^2 s of s;
    * D = y + s: two_sum(y, s0) is exact, its low part (at most uD) takes
      the correction in one rounding, u(uD + 1.5us), and two_sum
      renormalizes: with s < D, D' = Dh + Dl is within 7.7u^2 D of D;
    * a / D' by one corrected division: q1 = fl(a / Dh); with
      q1 Dh = m1 + m2 by two_prod, a - m1 is exact (Sterbenz); the
      remainder a - q1 D' (at most 2u|a|) is formed with three roundings,
      u^2|a| + u^2|a| + 2u^2|a|, and q2 = fl(remainder / Dh) adds 2u^2|a| / D'
      for dividing by Dh instead of D' and 2u^2|a| / D' for its rounding:
      q1 + q2 is within 8u^2 |a| / D' of a / D', and two_sum renormalizes
      it exactly.

    With the 7.7u^2 of D', hi + lo is within 15.7u^2 delta of the value,
    below 16u^2 delta with the second-order terms dropped above.
    """
    above = d > f  # the signed a = p - y^2, not _nearest's |a|: the proof divides it by y + s
    ff = f.astype(np.float64)
    y = ff + above
    a = (d - above * (2 * f + 1)).astype(np.float64)
    sq, sql = _two_prod(ff, ff)
    ph, pl = _two_sum(sq, sql + d)
    s0 = np.sqrt(ph)
    qh, ql = _two_prod(s0, s0)
    th, tl = _two_sum(y, s0)
    dh, dl = _two_sum(th, tl + ((ph - qh) + (pl - ql)) / (2.0 * s0))
    q1 = a / dh
    m1, m2 = _two_prod(q1, dh)
    return _two_sum(q1, (((a - m1) - m2) - q1 * dl) / dh)


def _frac_words(f: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, int]:
    """The words W = floor(2^96 {sqrt(p)}) of p = f^2 + d as (n, 3) int64 limbs; the fallback count.

    For a kernel (f, d) sub-block, X = 2^96 (hi + lo) from _signed_delta
    is within 16u^2 2^96 delta < 2^-7 (delta < 1/2) of 2^96 v, v being
    {sqrt(p)} below the half and {sqrt(p)} - 1 above it, so
    W = floor(2^96 v) mod 2^96.  X splits exactly into limbs: three times,
    (hi, lo) is scaled by 2^32 (exact), k = rint(hi) is the limb, hi - k is
    kept (exact: Sterbenz, or hi itself when |hi| < 1/2) and two_sum
    renormalizes, so X = k2 2^64 + k1 2^32 + k0 + rho exactly, with
    |rho| <= 1/2 + 2^-22 and rho's sign that of the last hi.  When
    |rho| > 2^-7 no integer lies between X and 2^96 v, so floor(2^96 v) =
    k2 2^64 + k1 2^32 + k0 - [rho < 0], reduced mod 2^96 by one int64 carry
    chain; 2^96 v is irrational unless d = 0, so above the half this is
    2^96 - 1 - floor(2^96 delta), the limb complement.

    The fallback is frac_mantissa: for |hi| <= _WORD_BAND = 2^-7 (hi is
    rho within u|rho|, and 15.7u^2 2^95 is 0.98 * 2^-7), the indices whose
    leftover fraction lies near a limb boundary, about 2^-6 of them, and
    d = 0 (rho = 0); and, whole, object blocks past FD_CAP and any block
    with f >= 2^50.
    """
    n = len(f)
    if f.dtype == object or (n and f.max() >= _WORD_F):
        return _limbs([frac_mantissa(a, b, 96) for a, b in zip(f.tolist(), d.tolist())]), n
    hi, lo = _signed_delta(f, d)
    k = []  # k2, k1, k0
    for _ in range(3):
        hi, lo = hi * 2.0 ** 32, lo * 2.0 ** 32
        r = np.rint(hi)
        k.append(r.astype(np.int64))
        hi, lo = _two_sum(hi - r, lo)
    words = np.empty((n, 3), np.int64)
    carry = -(hi < 0).astype(np.int64)  # floor(rho)
    for j, limb in enumerate(reversed(k)):
        c = limb + carry
        words[:, j] = c & 0xFFFFFFFF
        carry = c >> 32
    idx = np.flatnonzero(np.abs(hi) <= _WORD_BAND)
    if len(idx):
        words[idx] = _limbs([frac_mantissa(a, b, 96) for a, b in zip(f[idx].tolist(),
                                                                    d[idx].tolist())])
    return words, len(idx)


def _exact_bin(f: int, d: int, L: int) -> int:
    """floor(L * delta) + 1 by one big-int isqrt: the exact fallback of distance_bins.

    r = isqrt(L^2 p) = floor(L sqrt(p)); below the half delta = sqrt(p) - f,
    above it delta = f + 1 - sqrt(p), and L * delta is never an integer
    unless p is a square, where r = Lf and the bin is 1.
    """
    r = math.isqrt(L * L * (f * f + d))
    # bin arithmetic on r, not _nearest: each side measures delta from its own root
    return r - L * f + 1 if d <= f else L * (f + 1) - r


def distance_bins(f: np.ndarray, d: np.ndarray, L: int) -> np.ndarray:
    """Bin j = floor(L * delta) + 1 of delta = |sqrt(p) - y| for each p = f^2 + d.

    Bin j holds (j-1)/L < delta <= j/L, with the zero distances of perfect
    squares in bin 1.  The estimate has no branch: theta = {sqrt(p)} =
    d / (f + sqrt(f^2 + d)) in float64, and delta = min(theta, 1 - theta).
    With u = 2^-53, every step rounds once, by a factor 1 + e with |e| <= u:

    * f and d become float64 once each; that is exact below 2^53, so in
      every kernel block (f < 2^50 below FD_CAP), and one rounding on larger
      int64 and on the Python ints of object blocks past FD_CAP;
    * fl(f)^2 + fl(d) adds two roundings to a sum of nonnegative terms, so
      it lies within [(1-u)^4, (1+u)^4] of p;
    * sqrt halves that and rounds once: sqrt(p) [(1-u)^3, (1+u)^3];
    * fl(f) + that, a sum of nonnegative terms and one rounding:
      (f + sqrt(p)) [(1-u)^4, (1+u)^4];
    * fl(d) / that, one rounding: theta' is within 6.01u theta < 6.01u of
      theta.

    Where theta' >= 1/2, 1 - theta' is exact (Sterbenz), and where
    theta' < 1/2 the min takes theta', so the computed delta' is
    min(theta', 1 - theta') exactly; a min moves by no more than its
    arguments, so |delta' - delta| < 6.01u.  t = fl(L * delta') adds u L / 2
    (delta' <= 1/2), so |t - L delta| < 6.6u * L < tol = 2^-50 * L
    (L < 2^53).  Where t lies more than tol from every integer, no integer
    lies between t and L delta, and floor(t) is exact; t - rint(t) is
    itself exact for t < 2^52, and every larger t is an integer.  L * delta
    is irrational for non-square p, so only the indices within tol of an
    edge, and the squares (t = 0), take the exact _exact_bin.  Returns
    int64 bins.
    """
    ff, dd = f.astype(np.float64), d.astype(np.float64)
    theta = dd / (ff + np.sqrt(ff * ff + dd))
    t = L * np.minimum(theta, 1 - theta)
    j = np.floor(t).astype(np.int64) + 1
    for i in np.flatnonzero(np.abs(t - np.rint(t)) <= L * 2.0 ** -50).tolist():
        j[i] = _exact_bin(int(f[i]), int(d[i]), L)
    return j


def in_exceptional(n: int) -> bool:
    """Whether the nearest-square root differs from the nearest integer to sqrt(P_n).

    Both memberships are decided by exact integer comparisons:
      nearest square is f^2    <=>  2p <= f^2 + (f+1)^2
      nearest integer is f     <=>  4p < (2f+1)^2
    For integer p both reduce to p <= f^2 + f, so the scan is expected to
    come back empty; the operation still evaluates the two sides
    independently so the definition is checked, not assumed.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    p = pyramidal(n)
    f = math.isqrt(p)
    # both definitions written out, not _nearest: the scan cross-checks them
    root_is_lower = 2 * p <= f * f + (f + 1) * (f + 1)
    int_is_lower = 4 * p < (2 * f + 1) ** 2
    return root_is_lower != int_is_lower


def exceptional_indices(x: int, *, workers: int = 1, chunk: int = CHUNK) -> list[int]:
    """All n <= x with in_exceptional(n), by exhaustive exact scan.

    With p = f^2 + d its two memberships read 2d <= 2f + 1 and 4d < 4f + 1;
    both are evaluated, as vector compares on each (f, d) sub-block.
    """
    if x < 1:
        raise ValueError("scan bound must be >= 1")
    return scan(_exceptional_part, x, workers, chunk)[0]


def _exceptional_part(s: int, f: np.ndarray, d: np.ndarray) -> tuple[list[int]]:
    # both definitions written out, not _nearest: the scan cross-checks them
    root_is_lower = 2 * d <= 2 * f + 1
    int_is_lower = 4 * d < 4 * f + 1
    return ((np.flatnonzero(root_is_lower != int_is_lower) + s).tolist(),)


def half_window_check(n: int) -> bool:
    """True iff {sqrt(P_n)} lies within 1/sqrt(P_n) of 1/2, decided exactly.

    Any member of the exceptional set must satisfy this window (it is the
    union of the two one-sided membership windows); the check multiplies
    |{sqrt(p)} - 1/2| < 1/sqrt(p) through by 2*sqrt(p) and squares, so only
    integers are compared.
    """
    p = pyramidal(n)
    f = math.isqrt(p)
    g = 2 * p  # |g - (2f+1) sqrt(p)| < 2  <=>  the window condition
    h = 2 * f + 1
    if g >= 2 and (g - 2) ** 2 >= h * h * p:
        return False
    return h * h * p < (g + 2) ** 2


def near_half_count(x: int, bits: int = DEFAULT_BITS, *, workers: int = 1,
                    chunk: int = CHUNK) -> tuple[int, int]:
    """Count n <= x with |{sqrt(P_n)} - 1/2| <= x^(-3/4), in fixed point.

    Returns (count, borderline).  The window threshold is the exact integer
    T = floor(2**bits * x^(-3/4)) obtained from two nested integer square
    roots.  Margins within 2 ulps of T are reported as borderline instead
    of being silently classified.  Perfect squares (fractional part 0) are
    excluded by convention.  bits lies in [32, 96] (check_bits): the cost
    grows about as bits^1.8, through 2^(4 bits) and the mantissas.

    A prefilter in integers skips the indices whose margin provably clears
    the window.  A mantissa margin within T + 2 means a true margin
    |theta - 1/2| below c - 2^-bits, theta = {sqrt(p)} and
    c = (T + 4) / 2^bits.  With s = sqrt(p) = f + theta,

        d - f - 1/4 = s^2 - (f + 1/2)^2 = (theta - 1/2)(s + f + 1/2),

    and s + f + 1/2 < 2f + 3/2, so such an index has |d - f| <
    c(2f + 3/2) + 1/4, which is below 2cf + 1 when c < 1/2; when c >= 1/2
    every index has |d - f| <= f <= 2cf.  The prefilter keeps
    |d - f| <= fl(fl(f) c2) + 2 with c2 = fl(fl(2c) (1 + 2^-50)).  With
    u = 2^-53, fl(2c) (a correctly rounded quotient of integers) and the
    product each lose at most a factor 1 - u, so c2 >= 2c (1-u)^2 (1 + 8u).
    f becomes float64 exactly below 2^53 (every kernel block) and with one
    rounding past it (object blocks), and the product and the sum round
    once each, so the threshold is at least
    2cf (1-u)^5 (1 + 8u) + 2(1 - u) > 2cf + 1.  The left side is the exact
    integer |d - f|: numpy may round it to float64 to compare, and
    rounding is monotone, so no index below the threshold is lost; object
    blocks compare Python ints with floats exactly.  So the kept indices
    hold every index the window or the flag zone can hold, and for c >= 1/2
    (x <= 2) they are every index.  The prefilter runs as vector compares
    on each (f, d) sub-block; only the survivors take the exact fixed-point
    path, one frac_mantissa each.  A sub-block of N = min(x, 4096) indices
    keeps about 2 N x^(-3/4) of them, at most about 16, plus about 2/f per
    index from the slack (a handful in all, at the smallest n), and one
    frac_mantissa (about 2-3 us) costs far less than one _frac_words call
    (about 0.1-0.17 ms at any length).
    """
    if x < 1:
        raise ValueError("scan bound must be >= 1")
    check_bits(bits)
    # T = floor(2^bits / x^(3/4)) = floor((2^(4 bits) / x^3)^(1/4))
    t_int = math.isqrt(math.isqrt((1 << (4 * bits)) // (x * x * x)))
    return scan(partial(_near_half_part, bits, t_int), x, workers, chunk)


def _near_half_part(bits: int, t_int: int, s: int, f: np.ndarray,
                    d: np.ndarray) -> tuple[int, int]:
    half = 1 << (bits - 1)
    c2 = (t_int + 4) / half * (1 + 2.0 ** -50)  # 2c rounded up; see near_half_count
    count = borderline = 0
    # perfect squares (d = 0) are excluded from the window
    idx = np.flatnonzero((d != 0) & (np.abs(d - f) <= f * c2 + 2))
    for a, b in zip(f[idx].tolist(), d[idx].tolist()):
        w = frac_mantissa(a, b, bits)
        m = abs(w - half)
        if abs(m - t_int) <= 2:
            borderline += 1
        elif m < t_int:
            count += 1
    return count, borderline
