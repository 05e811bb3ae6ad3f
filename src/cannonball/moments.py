"""Exact moments of the nearest-square distance sequence and their asymptotics.

M_k(x) = sum of a_n^k over n <= x is accumulated as a Python integer, so
every reported moment is exact.  Within a kernel (f, d) sub-block the sums
at k <= 3 are exact int64 column sums of fixed-width limb products
(_limb_power_sum), and at k >= 4 the sum is taken modulo 2^64 and modulo
enough 31-bit primes in uint64 and rebuilt exactly by the Chinese remainder
theorem (_residue_power_sums); on object blocks past FD_CAP they are
Python-int powers.  Main terms are evaluated with mpmath at WORK_PREC bits;
residuals are exact-minus-main at that precision.

The sandwich bounds bracket M_k(x) rigorously: a_n = delta_n (sqrt(P_n) + y_n),
delta_n lies in the distance bin j_n and the weight sqrt(P_n) + y_n between
fixed-point values, so both bounds are exact integer sums over n divided by
one integer, and `lower <= exact <= upper` is an integer-arithmetic fact,
not an approximation.  No per-bin sums are kept: weighting the per-bin sums
of t_n^k by j^k gives the same integer as summing (j_n t_n)^k per index,
which at k = 1, 2 is again an int64 limb sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, repeat

import mpmath as mp
import numpy as np

from .exactseq import CHUNK, MAX_BINS, _frac_words, _mantissas, check_bits, distance_bins, scan

K_MAX = 12          # accumulator cap; configurable but bounded on purpose
WORK_PREC = 256     # binary precision for main terms and residuals
SANDWICH_BITS = 64  # fixed-point precision of the directed weight sums


@dataclass(frozen=True)
class MomentSummary:
    x: int
    k: int
    exact: int            # M_k(x), exact
    main: mp.mpf          # x^((3/2)k+1) / (3^(k/2) ((3/2)k+1) (k+1))
    residual: mp.mpf      # exact - main
    normalized: mp.mpf    # residual / x^((3/2)k + 11/12)


@dataclass(frozen=True)
class AverageSummary:
    x: int
    exact: Fraction       # M_1(x) / x as an exact rational
    value: mp.mpf
    main: mp.mpf          # x^(3/2) / (5 sqrt(3))


@dataclass(frozen=True)
class SandwichResult:
    x: int
    k: int
    L: int
    lower: Fraction
    upper: Fraction
    exact: int

    @property
    def rel_width(self) -> float:
        if self.upper == 0:
            return 0.0
        return float((self.upper - self.lower) / self.upper)


@dataclass(frozen=True)
class FitReport:
    xs: tuple
    values: tuple         # |M_k(x) - main| as floats
    slope: float
    intercept: float


def _limb_power_sum(cols, w: int, k: int) -> int:
    """Exact sum of v^k, k in {1, 2, 3}, for v = sum_i cols[i] 2^(w i) given as int64 limb columns.

    v^k is the sum of the products of k limbs.  Each distinct product, a
    multiset of limb indices, is summed once as an int64 column, and only
    then weighted in Python ints by its multiplicity (the multinomial
    coefficient) and by 2^(w * its index sum).  Callers bound every
    column sum below 2^63.
    """
    total = 0
    for combo in combinations_with_replacement(range(len(cols)), k):
        prod = cols[combo[0]]
        for i in combo[1:]:
            prod = prod * cols[i]
        times = math.factorial(k) // math.prod(math.factorial(combo.count(i)) for i in set(combo))
        total += times * int(prod.sum()) << (w * sum(combo))
    return total


def _power_sums_part(ks, s: int, f: np.ndarray, d: np.ndarray) -> tuple[int, ...]:
    """Exact sums of a^k for each k in ks over one (f, d) sub-block.

    On the kernel path a <= f < 2^50 below FD_CAP and a sub-block holds at
    most 2^12 terms, so every int64 column sum is exact:

    * k = 1: a.sum() < 2^50 2^12 = 2^62;
    * k = 2: two 25-bit limbs, each product of two below 2^50, so each of
      the 3 distinct column sums stays below 2^62;
    * k = 3: three 17-bit limbs (a < 2^51), each product of three below
      2^51, so each of the 10 distinct column sums stays below 2^63;
    * k >= 4: residue sums joined by the CRT (_residue_power_sums).

    Past the cap a holds Python ints, and every power at k >= 2 is a
    Python-int power.
    """
    a = np.where(d <= f, d, 2 * f + 1 - d)
    if a.dtype == object:
        values = a.tolist() if max(ks) > 1 else None
        return tuple(int(a.sum()) if k == 1 else sum(map(pow, values, repeat(k))) for k in ks)
    high = [k for k in ks if k >= 4]
    by_residues = dict(zip(high, _residue_power_sums(high, a))) if high else {}
    sums = []
    for k in ks:
        if k == 1:
            sums.append(int(a.sum()))
        elif k <= 3:
            w = 25 if k == 2 else 17
            sums.append(_limb_power_sum([a >> (w * i) & ((1 << w) - 1) for i in range(k)], w, k))
        else:
            sums.append(by_residues[k])
    return tuple(sums)


# The 18 largest primes below 2^31.  With 2^64 they are pairwise coprime
# moduli whose product exceeds 2^621, more than any sum _residue_power_sums
# rebuilds (see there).
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
           2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
           2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179)


def _crt(t: int) -> tuple[int, tuple[int, ...]]:
    """M = 2^64 p_1 ... p_t and the CRT coefficients of its moduli m_i (2^64,
    then p_1..p_t): c_i = (M/m_i) ((M/m_i)^-1 mod m_i), so c_i = 1 mod m_i and
    c_i = 0 mod every other modulus."""
    moduli = (1 << 64, *_PRIMES[:t])
    m = math.prod(moduli)
    return m, tuple(m // q * pow(m // q, -1, q) for q in moduli)


# built at import: about 0.6 ms on one core of a 2-vCPU Xeon VM
_CRT = tuple(_crt(t) for t in range(len(_PRIMES) + 1))


def _pow_mod(r: np.ndarray, k: int, p) -> np.ndarray:
    """r^k by squaring on uint64 r: mod p for p < 2^31 and r < p, where each
    product of two residues is below 2^62, or mod 2^64 (p None), where
    numpy's unsigned products wrap."""
    out, sq = None, r
    while True:
        if k & 1:
            out = sq if out is None else _mul_mod(out, sq, p)
        k >>= 1
        if not k:
            return out
        sq = _mul_mod(sq, sq, p)


def _mul_mod(x: np.ndarray, y: np.ndarray, p) -> np.ndarray:
    z = x * y
    if p is not None:
        z -= z // p * p  # a scalar // takes numpy's fast path, unlike %
    return z


def _residue_power_sums(ks, a: np.ndarray) -> list[int]:
    """Exact S = sum of a^k for each k in ks over an int64 kernel block, from residues.

    With n = len(a) <= 2^12 and top = max(a), 0 <= S <= B = n top^k.  S is
    taken modulo 2^64 and modulo the fewest t of _PRIMES that make M =
    2^64 p_1 ... p_t > B, all in uint64:

    * mod 2^64: numpy's uint64 products and sums wrap modulo 2^64, so the
      power by squaring and the sum of a.astype(uint64) give S mod 2^64;
    * mod p < 2^31: r = a mod p (a itself when top < p) lies below p, every
      product of two residues below 2^62 is exact and reduced at once, and
      a sum of at most 2^12 residues stays below 2^43.  Every k shares r.

    The moduli are pairwise coprime, so with _CRT's coefficients sum r_i c_i
    is S modulo each m_i, hence modulo M, and 0 <= S <= B < M makes S =
    sum r_i c_i mod M.  t = 18 always suffices: below FD_CAP a < 2^50 and
    k <= K_MAX = 12, so B < 2^12 (2^50)^12 = 2^612, while 2^64 times the 18
    primes, each above 2^31 - 2^10, exceeds 2^621.
    """
    u = a.astype(np.uint64)
    n, top = len(a), int(a.max(initial=0))
    ts = [next(t for t, (m, _) in enumerate(_CRT) if m > n * top ** k) for k in ks]
    residues = [[int(_pow_mod(u, k, None).sum(dtype=np.uint64))] for k in ks]
    for i, p in enumerate(_PRIMES[:max(ts)]):
        q = np.uint64(p)
        r = u if top < p else u - u // q * q
        for k, t, res in zip(ks, ts, residues):
            if i < t:
                res.append(int(_pow_mod(r, k, q).sum()))
    return [sum(map(operator.mul, res, _CRT[t][1])) % _CRT[t][0]
            for t, res in zip(ts, residues)]


def _check_k(k: int):
    if not 1 <= k <= K_MAX:
        raise ValueError(f"moment order k={k} outside supported range 1..{K_MAX}")


def power_sums_at(xs, ks, workers: int = 1, chunk: int = CHUNK,
                  start_n: int = 1, init=None, progress=None) -> dict[int, tuple[int, ...]]:
    """Exact partial sums of a_n^k for each k in ks, snapshot at every x in xs.

    One exactseq.scan up to each x in turn, each resuming from the sums at
    the previous one, so the outcome is identical for any worker count and
    chunk size.  `init` resumes from previously accumulated sums through
    start_n - 1 (checkpointing); a resume past a single snapshot point
    returns `init` as its value.  `progress(last_n, sums)` is invoked
    after each merged chunk.
    """
    xs = sorted(set(int(x) for x in xs))
    if not xs:
        raise ValueError("xs is empty: need at least one snapshot point")
    if xs[0] < 1:
        raise ValueError("snapshot points must be >= 1")
    ks = tuple(ks)
    if not ks:
        raise ValueError("ks is empty: need at least one moment order")
    for k in ks:
        _check_k(k)
    if xs[0] < min(start_n, xs[-1]):
        raise ValueError(f"snapshot points below the resume index {start_n}")
    fn, out = partial(_power_sums_part, ks), {}
    sums = tuple(init) if init is not None else (0,) * len(ks)
    for x in xs:
        out[x] = sums = scan(fn, x, workers, chunk, start_n, sums, progress)
        start_n = x + 1
    return out


def power_sums(x: int, ks, workers: int = 1, chunk: int = CHUNK) -> tuple[int, ...]:
    """Exact (sum a_n^k for k in ks) over n <= x."""
    return power_sums_at([x], ks, workers=workers, chunk=chunk)[x]


def main_term(x: int, k: int) -> mp.mpf:
    """Leading asymptotic term of M_k(x).

    At k=1 the coefficient equals 1/(5 sqrt(3)): sqrt(3) * (5/2) * 2 = 5 sqrt(3).
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    with mp.workprec(WORK_PREC):
        coeff = 1 / (mp.power(3, mp.mpf(k) / 2) * (mp.mpf(3 * k) / 2 + 1) * (k + 1))
        return coeff * mp.power(x, mp.mpf(3 * k + 2) / 2)


def summary_from_exact(x: int, k: int, exact: int) -> MomentSummary:
    """Attach main term and residual diagnostics to an exact moment value."""
    with mp.workprec(WORK_PREC):
        main = main_term(x, k)
        residual = mp.mpf(exact) - main
        normalized = residual / mp.power(x, mp.mpf(3 * k) / 2 + mp.mpf(11) / 12)
    return MomentSummary(x, k, exact, main, residual, normalized)


def moment(x: int, k: int, workers: int = 1, chunk: int = CHUNK) -> MomentSummary:
    """Exact M_k(x) with its main term and residual diagnostics."""
    if x < 1:
        raise ValueError("x must be >= 1")
    _check_k(k)
    exact = power_sums(x, (k,), workers=workers, chunk=chunk)[0]
    return summary_from_exact(x, k, exact)


def average(x: int, workers: int = 1, chunk: int = CHUNK) -> AverageSummary:
    """A(x) = M_1(x)/x as an exact rational, with its real value and main term."""
    if x < 1:
        raise ValueError("x must be >= 1")
    m1 = power_sums(x, (1,), workers=workers, chunk=chunk)[0]
    with mp.workprec(WORK_PREC):
        value = mp.mpf(m1) / x
        main = main_term(x, 1) / x
    return AverageSummary(x, Fraction(m1, x), value, main)


def sandwich(x: int, k: int, L: int, bits: int = SANDWICH_BITS, *, workers: int = 1,
             chunk: int = CHUNK) -> SandwichResult:
    """Rigorous binned bracketing of M_k(x) with L distance bins on [0, 1/2].

    Bin j_n holds (j_n-1)/L < delta_n = |sqrt(P_n) - y_n| <= j_n/L; membership
    comes from exactseq.distance_bins, exact by its certified bound and its
    isqrt fallback, never by rounding.  With a_n = delta_n (sqrt(P_n) + y_n)
    and t_n = floor(2^bits (sqrt(P_n) + y_n)), a_n^k lies between
    ((j_n - 1) t_n)^k / den and (j_n (t_n + 1))^k / den, den = L^k 2^(k bits).
    Both numerators are per-index integer sums (the same integers as
    weighting per-bin sums of t_n^k and (t_n + 1)^k by (j-1)^k and j^k), so
    the bounds are exact rationals bracketing the exact integer moment,
    which the same scan sums from the same (f, d) sub-blocks.  Zero-distance
    terms (perfect squares) contribute zero to the moment and are omitted
    from both bounds.  t_n = 2^bits (f_n + y_n) + (W_n >> (96 - bits)) from
    the 96-bit words W_n = floor(2^96 {sqrt(P_n)}) of exactseq._frac_words,
    so bits lies in [32, 96] (check_bits).
    """
    if x < 1:
        raise ValueError("x must be >= 1")
    _check_k(k)
    check_bits(bits)
    if L < 2 or L % 2 != 0:
        raise ValueError(f"bin count L={L} must be a positive even integer")
    if L // 2 > MAX_BINS:
        raise ValueError(f"bin count L={L} must be <= {2 * MAX_BINS}")
    lower_num, upper_num, exact = scan(partial(_sandwich_part, k, L, bits), x, workers, chunk)
    den = L ** k << (k * bits)
    result = SandwichResult(x, k, L, Fraction(lower_num, den), Fraction(upper_num, den), exact)
    if not (result.lower <= exact and exact <= result.upper):
        raise AssertionError(f"sandwich violated at x={x} k={k} L={L}")
    return result


def _sandwich_part(k: int, L: int, bits: int, s: int, fs: np.ndarray,
                   ds: np.ndarray) -> tuple[int, int, int]:
    """The sandwich's lower and upper numerators and M_k over one (f, d) sub-block.

    The numerators sum v^k for v = (j - 1) t and v' = j (t + 1).  On kernel
    blocks at k = 1, 2 they are int64 limb sums (_limb_power_sum), with
    these bounds:

    * t = 2^bits (f + y) + (W >> (96 - bits)) < 2^(51 + bits), since
      f + y <= 2f + 1 < 2^51 (f < 2^50 below FD_CAP);
    * j <= L/2 <= MAX_BINS = 2^20 (delta < 1/2), so v < 2^(71 + bits) and
      v' <= 2^(71 + bits) < 2^(24 n) for n = ceil((bits + 72) / 24), at
      most 7 limbs over bits in [32, 96];
    * t is read in n 24-bit limbs; j times a limb, plus j in limb 0 for
      v', is at most 2^20 2^24 = 2^44, so one carry pass (carries below
      2^21) normalizes v and v' into n 24-bit limbs with no carry left;
    * over at most 2^12 terms a k = 1 column sum stays below 2^36 and a
      k = 2 product column sum below 2^48 2^12 = 2^60.

    Object blocks past FD_CAP and k >= 3 take a per-index loop in Python ints.
    """
    # floor(2^bits (sqrt(p) + y)) = 2^bits (f + y) + floor(2^bits {sqrt(p)})
    fy = 2 * fs + (ds > fs)
    words = _frac_words(fs, ds)[0]
    bins = distance_bins(fs, ds, L)
    exact = _power_sums_part((k,), s, fs, ds)[0]
    if k <= 2 and fs.dtype != object:
        t = _weight_limbs(fy, words, bits)
        upper_j = np.where(ds != 0, bins, 0)  # perfect squares (d = 0) are omitted
        lower = _limb_power_sum(_carry([(bins - 1) * c for c in t]), _WEIGHT_LIMB, k)
        upper_cols = [upper_j * c for c in t]
        upper_cols[0] += upper_j
        return lower, _limb_power_sum(_carry(upper_cols), _WEIGHT_LIMB, k), exact
    lower = upper = 0
    for d, j, g, m in zip(ds.tolist(), bins.tolist(), fy.tolist(), _mantissas(words, bits)):
        if d:  # perfect squares (d = 0) are omitted
            t = (g << bits) + m
            lower += ((j - 1) * t) ** k
            upper += (j * (t + 1)) ** k
    return lower, upper, exact


_WEIGHT_LIMB = 24  # limb width of the sandwich's weights; see _sandwich_part


def _weight_limbs(g: np.ndarray, words: np.ndarray, bits: int) -> list[np.ndarray]:
    """The n = ceil((bits + 72) / 24) 24-bit limbs of t = 2^bits g + (W >> (96 - bits)).

    2^(96 - bits) t is 2^96 g + W with its low 96 - bits bits cleared, so
    limb i of t is bits [96 - bits + 24 i, + 24) of the 32-bit words
    (W's three, then g's two, g < 2^51); limbs past t's top are zero.
    """
    src = [c.astype(np.uint64) for c in (*words.T, g & 0xFFFFFFFF, g >> 32)]
    limbs = []
    for i in range(-(-(bits + 72) // _WEIGHT_LIMB)):
        q, r = divmod(96 - bits + _WEIGHT_LIMB * i, 32)
        limb = np.zeros(len(g), np.uint64)
        if q < len(src):
            limb |= src[q] >> np.uint64(r)
        if q + 1 < len(src):
            limb |= src[q + 1] << np.uint64(32 - r)
        limbs.append((limb & np.uint64((1 << _WEIGHT_LIMB) - 1)).astype(np.int64))
    return limbs


def _carry(cols: list[np.ndarray]) -> list[np.ndarray]:
    """cols renormalized into 24-bit limbs by one carry pass.

    The caller bounds the value below 2^(24 len(cols)), so no carry is left.
    """
    out, carry = [], 0
    for c in cols:
        c = c + carry
        out.append(c & ((1 << _WEIGHT_LIMB) - 1))
        carry = c >> _WEIGHT_LIMB
    return out


def fit_residual(xs, k: int, workers: int = 1, chunk: int = CHUNK) -> FitReport:
    """Least-squares slope of log|M_k(x) - main| against log x."""
    xs = [int(x) for x in xs]
    if len(xs) < 3 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("need at least 3 strictly increasing x values")
    _check_k(k)
    table = power_sums_at(xs, (k,), workers=workers, chunk=chunk)
    values = []
    with mp.workprec(WORK_PREC):
        for x in xs:
            values.append(abs(mp.mpf(table[x][0]) - main_term(x, k)))
    pairs = [(math.log(x), float(mp.log(v))) for x, v in zip(xs, values) if v != 0]
    if len(pairs) < 3:
        raise ValueError("fewer than 3 nonzero residuals; cannot fit a slope")
    slope, intercept = _least_squares(pairs)
    return FitReport(tuple(xs), tuple(float(v) for v in values), slope, intercept)


def _least_squares(pairs) -> tuple[float, float]:
    n = len(pairs)
    mx = sum(p[0] for p in pairs) / n
    my = sum(p[1] for p in pairs) / n
    sxx = sum((p[0] - mx) ** 2 for p in pairs)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pairs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x identical")
    slope = sxy / sxx
    return slope, my - slope * mx
