"""Exponential sums, discrepancy, and equidistribution diagnostics.

Every point set is exact fixed point: a point x is the 96-bit word
w = floor(2^96 x) held as three 32-bit limbs, and a point of precision
bits < 96 is the same word with its low 96 - bits bits cleared, since
floor(2^bits x) = w >> (96 - bits).  So the points {sqrt(P_n)} of every
precision are views of one table of 96-bit words, stored as uint32 limbs
(12 B per index), built from the (f, d) kernel by exactseq._frac_words and
grown as a prefix from n = 1, and each reader clears the low bits one
POINT_BLOCK at a time.  A window that starts past the table's end plus one
is built alone from the same words and not kept.  Phases for
e(m * sqrt(P_n)) come from those words: the integer m*f part of
m*sqrt(P_n) contributes nothing to e(.), so each phase is (m * w) mod 2^96
scaled back to [0, 1), reduced by one vectorized carry chain, which widens
the limbs to int64 as it multiplies, for every precision and every
harmonic up to MAX_HARMONIC, and the only inexactness left is the
documented fixed-point error plus one float rounding.

The star discrepancy is the exact sorted-points supremum for the given
point set; D(N) follows the unnormalized convention (anchored-interval
count minus N*alpha), with d_star = D(N)/N reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .exactseq import (CHUNK, DEFAULT_BITS, MAX_BINS, FixedFrac, _frac_words, _limbs,
                       check_bits, distance_bins, fd_blocks, scan)

_WIDTH = 96                 # points hold mantissa << (_WIDTH - bits)
_MASK32 = (1 << 32) - 1

POINT_BLOCK = 1 << 15   # points per block of the exponential-sum engine
ANCHOR = 64             # harmonics per run before a fresh direct evaluation
# Largest harmonic count (K, m_max) and |m| accepted.  K harmonics cost
# K * N point-harmonics: K = 2^20 at N = 1000 takes about 10 s on one core
# of a 2-vCPU Xeon VM, most of it per-harmonic overhead of the engine.
# The cap also keeps every m * limb of the phase carry chain below 2^52.
MAX_HARMONIC = 1 << 20
_EVAL_ERR = 21 * 2.0 ** -53  # error of one direct e(phase); see _harmonic_sums


class PrecisionError(ValueError):
    """Raised when the requested harmonic exceeds the fixed-point budget."""


@dataclass(frozen=True)
class ExpSum:
    m: int
    lo: int
    hi: int
    re: float
    im: float
    modulus_err: float            # absolute error bound on the modulus
    kn_bound: Optional[float] = None

    @property
    def modulus(self) -> float:
        return math.hypot(self.re, self.im)


@dataclass(frozen=True)
class DiscrepancyResult:
    N: int
    d_unnormalized: float         # D(N), anchored-interval convention
    d_star: float                 # D(N) / N
    K: Optional[int] = None
    et_bound: Optional[float] = None
    slack: Optional[float] = None # accumulated phase-error budget


@dataclass(frozen=True)
class DerivBounds:
    n: float
    h1: float                     # h'(n) for h(x) = sqrt(P_x)
    h2: float                     # h''(n); positive and decreasing for n >= 1


@dataclass(frozen=True)
class HistogramResult:
    x: int
    bins: int
    counts: tuple
    flagged: int                  # exact boundary hits, kept in the lower bin


@dataclass(frozen=True)
class PhasePoints:
    """A point set in [0,1) known to `bits` bits: point i is floor(2^bits x_i) / 2^bits.

    words is (N, 3) uint32 limbs, least significant first, of 96-bit words
    whose top `bits` bits are floor(2^bits x_i), 12 B per point: a view of
    the one 96-bit table for the kernel's points, a fresh array for points
    coerced from floats or FixedFrac values.  The bits below may be set,
    and every reader clears them one POINT_BLOCK at a time (block), so no
    precision copies the table.
    """

    words: np.ndarray
    bits: int

    def __len__(self) -> int:
        return len(self.words)

    def block(self, b: int) -> np.ndarray:
        """The exact limbs, mantissa << (96 - bits), of points b to b + POINT_BLOCK - 1."""
        return _exact(self.words[b:b + POINT_BLOCK], self.bits)

    @property
    def limbs(self) -> np.ndarray:
        """The exact limbs of every point as int64, a copy computed on each access."""
        return _exact(self.words, self.bits).astype(np.int64)

    @property
    def values(self) -> np.ndarray:
        """The points as correctly rounded float64, computed on each access
        one POINT_BLOCK at a time so the carry chain's temporaries stay small."""
        out = np.empty(len(self))
        for b in range(0, len(out), POINT_BLOCK):
            out[b:b + POINT_BLOCK] = _limb_phases(self.block(b), 1)
        return out


def _exact(words: np.ndarray, bits: int) -> np.ndarray:
    """words with the low 96 - bits bits cleared: the words themselves at 96 bits."""
    if bits == _WIDTH:
        return words
    return words & _limbs([(1 << _WIDTH) - (1 << (_WIDTH - bits))], np.uint32)


# floor(2^96 {sqrt(P_n)}) for n = 1, 2, ...: one table, grown on demand, for every precision.
_table = np.empty((0, 3), np.uint32)


def _limb_phases(limbs: np.ndarray, m: int) -> np.ndarray:
    """(m * w) mod 2^96 / 2^96 for each 96-bit word w in limbs, correctly rounded.

    The carry chain c0 = m*l0, c1 = m*l1 + (c0 >> 32), c2 = m*l2 + (c1 >> 32)
    is exact in int64 for |m| <= MAX_HARMONIC, and since >> is a floor
    division the low 32 bits of c0, c1, c2 are the limbs of the reduced
    product for m < 0 too.  The limbs may be uint32 or int64: each m*l_j
    is formed in int64, since m * a uint32 array would stay uint32 and wrap.
    hi48 * 2^-48 and lo48 * 2^-96 are exact doubles, so their one addition
    rounds the exact value once.
    """
    c0 = np.multiply(limbs[:, 0], m, dtype=np.int64)
    c1 = np.multiply(limbs[:, 1], m, dtype=np.int64) + (c0 >> 32)
    c2 = np.multiply(limbs[:, 2], m, dtype=np.int64) + (c1 >> 32)
    hi48 = ((c2 & _MASK32) << 16) | ((c1 & _MASK32) >> 16)
    lo48 = ((c1 & 0xFFFF) << 32) | (c0 & _MASK32)
    return hi48 * 2.0 ** -48 + lo48 * 2.0 ** -96


def _float_limbs(x: np.ndarray) -> np.ndarray:
    """uint32 limbs of floor(2^96 x) for floats x in [0, 1).

    Each step scales by 2^32, takes the floor as the next limb and keeps
    the remainder; scaling by a power of two and subtracting the floor of a
    float are exact, so the words are exact for x >= 2^-44 (whose last bit
    weighs at least 2^-96) and smaller x are truncated below 2^-96.
    """
    if not np.all((x >= 0.0) & (x < 1.0)):
        raise ValueError("points must lie in [0, 1)")
    limbs = np.empty((len(x), 3), np.uint32)
    for j in (2, 1, 0):
        x = x * 2.0 ** 32
        limbs[:, j] = np.floor(x)
        x = x - limbs[:, j]
    return limbs


def _fill_words(limbs: np.ndarray, lo: int) -> np.ndarray:
    """limbs, each row i set to the limbs of floor(2^96 {sqrt(P_(lo + i))}),
    cast to the dtype of limbs (uint32 for the table and its windows)."""
    for s, fs, ds in fd_blocks(lo, lo + len(limbs) - 1):
        limbs[s - lo:s - lo + len(fs)] = _frac_words(fs, ds)[0]
    return limbs


def _ensure_table(n: int) -> np.ndarray:
    global _table
    built = len(_table)
    if built < n:
        limbs = np.empty((n, 3), np.uint32)
        limbs[:built] = _table
        _fill_words(limbs[built:], built + 1)
        _table = limbs
    return _table


def sqrt_frac_points(n: int, bits: int = DEFAULT_BITS, lo: int = 1) -> PhasePoints:
    """{sqrt(P_i)} for lo <= i <= n to `bits` bits.

    A window that starts inside the one 96-bit table, or right after its
    end, is a view of that table, grown to n.  A window that starts further
    on is built alone, from the same kernel words, and not kept: the table
    is a prefix memo, and indices before lo are never asked for.
    """
    check_bits(bits)
    if lo < 1 or n < lo:
        raise ValueError("need 1 <= lo <= n")
    if lo > len(_table) + 1:
        return PhasePoints(_fill_words(np.empty((n - lo + 1, 3), np.uint32), lo), bits)
    return PhasePoints(_ensure_table(n)[lo - 1:n], bits)


def as_phase_points(points, bits: int = DEFAULT_BITS) -> PhasePoints:
    """Coerce a PhasePoints set, raw floats or FixedFrac values into a PhasePoints set
    at min(own precision, bits).

    A PhasePoints set comes back as a view of its words (block() clears the
    low bits), FixedFrac points keep their own precision up to `bits`, and
    floats become exact 96-bit words (see _float_limbs) read at `bits`; a
    float outside [0, 1), NaN included, raises ValueError.
    """
    check_bits(bits)
    if isinstance(points, PhasePoints):
        return PhasePoints(points.words, min(points.bits, bits))
    seq = list(points)
    if seq and isinstance(seq[0], FixedFrac):
        b = seq[0].bits
        if any(ff.bits != b for ff in seq):
            raise ValueError("mixed fixed-point precisions in one point set")
        check_bits(b)
        return PhasePoints(_limbs([ff.mantissa << (_WIDTH - b) for ff in seq], np.uint32),
                           min(b, bits))
    return PhasePoints(_float_limbs(np.asarray(seq, np.float64)), bits)


def _check_harmonic(name: str, m: int, bits: Optional[int] = None) -> None:
    """|m| within the harmonic cap and, when bits is given, within the
    fixed-point budget |m| 2^-bits < 1e-12.  name labels |m| in the cap
    message ("|m|" for a signed harmonic) and, bars stripped, m itself in
    the precision message."""
    if abs(m) > MAX_HARMONIC:
        raise ValueError(f"{name}={abs(m)} exceeds the harmonic cap {MAX_HARMONIC}")
    if bits is not None and abs(m) * 2.0 ** -bits >= 1e-12:
        needed = math.ceil(math.log2(abs(m) * 1e12))
        raise PrecisionError(
            f"{name.strip('|')}={m} needs at least {needed} fixed-point bits (have {bits})")


def check_truncation(K: int, bits: int) -> None:
    """erdos_turan's checks of the truncation K against points of `bits`
    bits, cheap enough to run before any point is built."""
    check_bits(bits)
    if K < 1:
        raise ValueError("truncation K must be >= 1")
    _check_harmonic("K", K, bits)


def _rotations(limbs: np.ndarray, m: int) -> np.ndarray:
    """e(m * x_n) for every point, evaluated directly from the reduced phase."""
    t = (2.0 * np.pi) * _limb_phases(limbs, m)
    z = np.empty(len(t), np.complex128)
    np.cos(t, out=z.real)
    np.sin(t, out=z.imag)
    return z


def _harmonic_sums(pts: PhasePoints, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """S_m = sum_n e(m * x_n) for m = first, ..., first + count - 1, with a
    bound on each error.

    The points are walked in blocks of POINT_BLOCK, so no temporary is
    larger than a block.  Inside a block the harmonics are walked in runs
    of ANCHOR consecutive values a, a+1, ..., a+R-1 (the last run may be
    shorter), a = first + j for j = 0, ANCHOR, 2*ANCHOR, ....  The anchor
    rotation e(a*x) is evaluated directly from the reduced phase; each later
    one is the previous times e(x), one complex multiply per point, and each
    harmonic costs one pairwise z.sum().  Block sums are accumulated in
    point order, so results do not depend on anything but the input.

    Returns (sums, bounds) with |computed S_m - S_m| <= bounds[m - first],
    where S_m is the exact sum over the true points (the reals whose
    fixed-point truncations are the limbs), and the bound also covers the
    rounding of abs() of the computed sum.  With u = 2^-53 and
    delta = 2^-bits, the truncation of each point:

    * direct evaluation: the phase rounded to float (u) and the angle
      2*pi*phase (2u for np.pi and the product) move e() by 2*pi*3u, and
      cos and sin are within one ulp each, sqrt(2)u; in all
      e_1 = (6*pi + sqrt(2))u < 21u, plus 2*pi*|m|*delta of truncation;
    * recurrence: the step w = e(x) carries eps_w = e_1 + 2*pi*delta, and a
      complex multiply errs by at most sqrt(5)u relative (Brent, Percival
      and Zimmermann, Math. Comp. 2007; 2u if each part is formed with a
      fused multiply-add, Jeannerod et al., Math. Comp. 2017).  So
      at distance r from the anchor a, E_r <= rho*E_(r-1) + c with
      rho = (1 + eps_w)(1 + sqrt(5)u) and c = eps_w(1 + sqrt(5)u) + sqrt(5)u,
      hence E_r <= rho^r (E_0 + r*c) with E_0 = e_1 + 2*pi*|a|*delta: to
      first order (r + 1)e_1 + r*sqrt(5)u + 2*pi*(|a| + r)delta per term;
    * summation (Higham, Accuracy and Stability, sec. 4.2): a term passes
      through at most h additions, whose errors add up to at most
      gamma_h * sum|z_n| <= gamma_h * N(1 + E_r), gamma_h = hu/(1 - hu).
      numpy's pairwise z.sum() adds within leaves of at most 128 terms and
      joins the leaves in a tree of height ceil(log2(POINT_BLOCK/128)); the
      block sums are then added one after another, and abs() costs one
      ulp, 2u: h = 127 + ceil(log2(POINT_BLOCK/128)) + blocks + 2.
    """
    n = len(pts)
    totals = np.zeros(count, np.complex128)
    runs = range(0, count, ANCHOR)
    recur = count > 1
    for b in range(0, n, POINT_BLOCK):
        blk = pts.block(b)
        step = _rotations(blk, 1) if recur else None
        for j in runs:
            # e(1 * x) is step itself, the same floats evaluated the same way
            z = step.copy() if recur and first + j == 1 else _rotations(blk, first + j)
            totals[j] += z.sum()
            for k in range(j + 1, min(j + ANCHOR, count)):
                z *= step
                totals[k] += z.sum()

    u = 2.0 ** -53
    s5u = math.sqrt(5.0) * u
    delta = 2.0 ** -pts.bits
    eps_w = _EVAL_ERR + 2 * math.pi * delta
    rho = (1 + eps_w) * (1 + s5u)
    c = eps_w * (1 + s5u) + s5u
    tree = math.ceil(math.log2(max(POINT_BLOCK / 128, 1)))
    h = 127 + tree + -(-n // POINT_BLOCK) + 2
    gamma = h * u / (1 - h * u)
    r = np.arange(count)
    k = r % ANCHOR  # distance from the run's anchor first + r - k
    e0 = _EVAL_ERR + 2 * math.pi * np.abs(first + r - k) * delta
    per_term = rho ** k * (e0 + k * c)
    return totals, n * per_term + gamma * n * (1 + per_term)


def exp_sum(lo: int, hi: int, m: int, bits: int = DEFAULT_BITS,
            attach_bound: bool = False) -> ExpSum:
    """S = sum over lo <= n <= hi of e(m * sqrt(P_n)).

    The integer part of m*sqrt(P_n) never matters, so phases stay small and
    cancellation-free.  modulus_err is the engine's bound on the error of
    the modulus (see _harmonic_sums).
    """
    if m == 0:
        raise ValueError("harmonic m must be nonzero")
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    _check_harmonic("|m|", m, bits)
    (s,), (err,) = _harmonic_sums(sqrt_frac_points(hi, bits, lo=lo), m, 1)
    s = complex(s)
    bound = kn_bound(lo, hi, abs(m)) if (attach_bound and lo < hi) else None
    return ExpSum(m, lo, hi, s.real, s.imag, float(err), bound)


def deriv_bounds(n: float) -> DerivBounds:
    """First and second derivatives of h(x) = sqrt(P_x) at x = n."""
    if n < 1:
        raise ValueError("derivatives evaluated for n >= 1 only")
    prod = n * (n + 1) * (2 * n + 1)
    num = 6.0 * n * n + 6.0 * n + 1.0
    s6 = math.sqrt(6.0)
    sp = math.sqrt(prod)
    h1 = num / (2.0 * s6 * sp)
    h2 = (12.0 * n + 6.0) / (2.0 * s6 * sp) - num * num / (4.0 * s6 * prod * sp)
    return DerivBounds(n, h1, h2)


def kn_bound(lo: int, hi: int, m: int) -> float:
    """Second-derivative bound for |sum e(m*sqrt(P_n))| over [lo, hi].

    Uses rho = m * h''(hi); h'' is positive and decreasing, so this is a
    valid curvature lower bound on the whole range.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not lo < hi:
        raise ValueError("need lo < hi")
    at_hi = deriv_bounds(hi)
    rho = m * at_hi.h2
    return (m * abs(at_hi.h1 - deriv_bounds(lo).h1) + 2.0) * (4.0 / math.sqrt(rho) + 3.0)


def star_discrepancy(points) -> DiscrepancyResult:
    """Exact star discrepancy of a finite point set in [0, 1).

    The sorted floats are the one full-length array: both maxima of the
    sorted-points formula are taken one POINT_BLOCK at a time.  A point
    just below 1 may round to 1.0, which the formula takes as it is.
    """
    u = as_phase_points(points).values
    u.sort()  # values is a fresh array
    n = len(u)
    if n < 1:
        raise ValueError("empty point set")
    d_star = 0.0
    for b in range(0, n, POINT_BLOCK):
        ub = u[b:b + POINT_BLOCK]
        i = np.arange(b + 1, b + len(ub) + 1, dtype=np.float64)
        d_star = max(d_star, (i / n - ub).max(), (ub - (i - 1) / n).max())
    d_star = float(d_star)
    return DiscrepancyResult(n, n * d_star, d_star)


def erdos_turan(points, K: int, bits: int = DEFAULT_BITS) -> DiscrepancyResult:
    """Exact D(N) next to its truncated exponential-sum upper bound.

    et_bound = N/(K+1) + 3 * sum_{m<=K} |S_m| / m.  The inequality
    D(N) <= et_bound + slack is asserted, where slack bounds the error of
    the computed et_bound: 3 * sum err_m / m over the engine's bounds on
    |S_m|, plus (K + 3)u * et_bound for the roundings of 3|S_m|/m and of
    the running sum of K + 1 terms.
    """
    pts = as_phase_points(points, bits)
    check_truncation(K, pts.bits)
    base = star_discrepancy(pts)
    n = base.N
    sums, errs = _harmonic_sums(pts, 1, K)
    total = n / (K + 1)
    slack = 0.0
    for m, s, err in zip(range(1, K + 1), sums.tolist(), errs.tolist()):
        total += 3.0 * abs(s) / m
        slack += 3.0 * err / m
    slack += (K + 3) * 2.0 ** -53 * total
    if base.d_unnormalized > total + slack:
        raise AssertionError("discrepancy exceeded its exponential-sum bound")
    return DiscrepancyResult(n, base.d_unnormalized, base.d_star, K, float(total), float(slack))


def weyl_profile(N: int, m_max: int, bits: int = DEFAULT_BITS) -> list[tuple[int, float]]:
    """|S_m(N)| / N for each harmonic m in [1, m_max], under the same
    fixed-point budget m_max 2^-bits < 1e-12 as exp_sum and erdos_turan."""
    if N < 1 or m_max < 1:
        raise ValueError("need N >= 1 and m_max >= 1")
    check_bits(bits)
    _check_harmonic("m_max", m_max, bits)
    sums, _ = _harmonic_sums(sqrt_frac_points(N, bits), 1, m_max)
    return [(m, abs(s) / N) for m, s in zip(range(1, m_max + 1), sums.tolist())]


def half_distance_histogram(x: int, bins: int, *, workers: int = 1,
                            chunk: int = CHUNK) -> HistogramResult:
    """Histogram of |sqrt(P_n) - y_n| over [0, 1/2] in equal-width bins.

    Bins are left-open right-closed; membership comes from
    exactseq.distance_bins with L = 2*bins, whose certified bound and exact
    isqrt fallback never round a value across an edge.  Exact boundary hits
    (only the zero distances of the perfect squares, since the distance is
    irrational otherwise) are flagged and kept in bin 1.
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if not 2 <= bins <= MAX_BINS:
        raise ValueError(f"bins must be in [2, {MAX_BINS}], got {bins}")
    hits, flagged = scan(partial(_histogram_part, bins), x, workers, chunk)
    return HistogramResult(x, bins, tuple(hits.dense()[1:].tolist()), flagged)


class _BinHits:
    """Histogram counts as a scan component whose cost follows the indices, not the bins.

    A sub-block's part holds its bins j.  The first += within a span makes
    one dense array of `size` counts and every += adds a part's bins into
    it with np.add.at, so a sub-block costs its length whatever the bin
    count; + merges two spans' dense arrays into a new one.
    """

    def __init__(self, size: int, j: Optional[np.ndarray] = None,
                 counts: Optional[np.ndarray] = None):
        self.size, self.j, self.counts = size, j, counts

    def dense(self) -> np.ndarray:
        if self.counts is None:
            self.counts = np.zeros(self.size, np.int64)
            np.add.at(self.counts, self.j, 1)
        return self.counts

    def __iadd__(self, part: _BinHits) -> _BinHits:
        np.add.at(self.dense(), part.j, 1)
        return self

    def __add__(self, other: _BinHits) -> _BinHits:
        return _BinHits(self.size, counts=self.dense() + other.dense())


def _histogram_part(bins: int, s: int, f: np.ndarray, d: np.ndarray) -> tuple[_BinHits, int]:
    return _BinHits(bins + 1, distance_bins(f, d, 2 * bins)), int(np.count_nonzero(d == 0))


def doubled_distance_points(x: int, bits: int = DEFAULT_BITS) -> PhasePoints:
    """The doubled distances 2|sqrt(P_n) - y_n| for n <= x as exact points of min(bits, 95) bits.

    Used to control histogram deviations through the discrepancy of the
    doubled distances.  With W = floor(2^96 v) the table word of
    v = {sqrt(P_n)}, floor(2^95 * 2v) = W below the half (top limb below
    2^31), and floor(2^95 (2 - 2v)) = 2^96 - 1 - W, the limb complement,
    above it, since 2^96 v is irrational unless d = 0, where W = 0.  That
    95-bit value shifted left by one bit across the limbs is a word whose
    top b = min(bits, 95) bits are floor(2^b * 2|sqrt(P_n) - y_n|): no
    float operation enters.  The words are uint32 like the table's, so the
    shift drops the bit each limb carries out.
    """
    w = sqrt_frac_points(x, bits).words
    w = np.where(w[:, 2:] < 1 << 31, w, _MASK32 - w)
    words = w << 1
    words[:, 1:] |= w[:, :-1] >> 31
    return PhasePoints(words, min(bits, _WIDTH - 1))
