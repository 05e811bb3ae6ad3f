"""Exact moments of the nearest-square distance sequence and their asymptotics.

M_k(x) = sum of a_n^k over n <= x is accumulated as a Python integer, so
every reported moment is exact.  Within a kernel (f, d) sub-block every
exact power sum, of the moments and of the sandwich's numerators alike, is
taken modulo 2^64 and modulo enough of 63 primes below 2^31 in uint64 and
rebuilt by the Chinese remainder theorem (_residue_power_sums); on object
blocks past FD_CAP they are Python-int powers.  Main terms are evaluated
with mpmath at WORK_PREC bits; residuals are exact-minus-main at that
precision.

The sandwich bounds bracket M_k(x) rigorously: a_n = delta_n (sqrt(P_n) + y_n),
delta_n lies in the distance bin j_n and the weight sqrt(P_n) + y_n between
fixed-point values, so both bounds are exact integer sums over n divided by
one integer, and `lower <= exact <= upper` is an integer-arithmetic fact,
not an approximation.  No per-bin sums are kept: weighting the per-bin sums
of t_n^k by j^k gives the same integer as summing (j_n t_n)^k per index,
which is again a residue sum.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import repeat

import mpmath as mp
import numpy as np

from .exactseq import CHUNK, MAX_BINS, _frac_words, _nearest, check_bits, distance_bins, scan

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


def _power_sums_part(ks, s: int, f: np.ndarray, d: np.ndarray) -> tuple[int, ...]:
    """Exact sums of a^k for each k in ks over one (f, d) sub-block, a = min(d, 2f + 1 - d).

    On the kernel path a is one row of _residue_power_sums with top =
    max(a): below FD_CAP a <= f < 2^50 and a sub-block holds at most 2^12
    terms, so at k = 1 the sum is below 2^62 and needs no prime, and the
    bound 2^12 (2^50)^12 = 2^612 at k = K_MAX needs 18 primes at most.
    The residues mod p are a itself while top < p.  Past the cap a holds
    Python ints, and every power at k >= 2 is a Python-int power.
    """
    # a in place, not _nearest's a: a third of its time on the scan's hottest path
    a = f + f - d
    a += 1
    np.minimum(a, d, out=a)
    if a.dtype == object:
        values = a.tolist() if max(ks) > 1 else None
        return tuple(int(a.sum()) if k == 1 else sum(map(pow, values, repeat(k))) for k in ks)
    u, top = a.view(np.uint64)[None], int(a.max(initial=0))
    sums = _residue_power_sums(ks, lambda q: u if q is None or top < q else _mod(u.copy(), q), top)
    return tuple(row for row, in sums)


# The 63 largest primes below 2^31, all above 2^31 - 2^11.  With 2^64 they
# are pairwise coprime moduli whose product exceeds 2^2016, the largest
# bound _residue_power_sums meets (see _sandwich_part).
_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
           2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
           2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
           2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
           2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
           2147482937, 2147482921, 2147482877, 2147482873, 2147482867, 2147482859,
           2147482819, 2147482817, 2147482811, 2147482801, 2147482763, 2147482739,
           2147482697, 2147482693, 2147482681, 2147482663, 2147482661, 2147482621,
           2147482591, 2147482583, 2147482577, 2147482507, 2147482501, 2147482481,
           2147482417, 2147482409, 2147482367, 2147482361, 2147482349, 2147482343,
           2147482327, 2147482291, 2147482273)


@cache
def _crt(t: int) -> tuple[int, tuple[int, ...]]:
    """M = 2^64 p_1 ... p_t and the CRT coefficients of its moduli m_i (2^64,
    then p_1..p_t): c_i = (M/m_i) ((M/m_i)^-1 mod m_i), so c_i = 1 mod m_i and
    c_i = 0 mod every other modulus, for t <= len(_PRIMES).  Built on first
    use, not at import, and only for the counts t a power sum reads:
    _residue_power_sums finds t from a running product of the moduli."""
    moduli = (1 << 64, *_PRIMES[:t])
    m = math.prod(moduli)
    return m, tuple(m // q * pow(m // q, -1, q) for q in moduli)


def _mod(z: np.ndarray, q) -> np.ndarray:
    """z reduced mod q in place, for uint64 z and a uint64 scalar q; z itself for q None."""
    if q is not None:
        w = z // q  # a scalar // takes numpy's fast path, unlike %
        w *= q
        z -= w
    return z


def _pow_mod(r: np.ndarray, k: int, q) -> np.ndarray:
    """r^k by squaring on uint64 r: mod q for q < 2^31 and r < q, where each
    product of two residues is below 2^62, or mod 2^64 (q None), where
    numpy's unsigned products wrap."""
    out, sq = None, r
    while True:
        if k & 1:
            out = sq if out is None else _mod(out * sq, q)
        k >>= 1
        if not k:
            return out
        sq = _mod(sq * sq, q)


def _residue_power_sums(ks, residue, top: int) -> list[list[int]]:
    """Exact row sums S of v^k for each k in ks over a (rows, n) block of values v, from residues.

    residue(None) gives the values mod 2^64 and residue(q) their residues
    mod a prime q, each as a (rows, n) uint64 array with n < 2^33; every v
    lies in [0, top].  So 0 <= S <= B = n top^k, and S is taken modulo
    2^64 and modulo the fewest t of _PRIMES that make M = 2^64 p_1 ... p_t
    > B, all in uint64:

    * mod 2^64: numpy's uint64 products and sums wrap modulo 2^64, so the
      power by squaring and the row sums give S mod 2^64;
    * mod p < 2^31: every residue lies below p, every product of two
      residues is below 2^62, exact and reduced at once, and a row sum of n
      residues stays below 2^64.  Every k shares one residue(q).

    The moduli are pairwise coprime, so with _crt's coefficients sum r_i c_i
    is S modulo each m_i, hence modulo M, and 0 <= S <= B < M makes S =
    sum r_i c_i mod M.  With B < 2^64 (t = 0) S is its uint64 sum itself.
    All 63 primes cover B up to 2^2016; a larger B is a ValueError.
    """
    u = residue(None)
    ts = []
    for k in ks:
        t, m, bound = 0, 1 << 64, u.shape[1] * top ** k
        while m <= bound:
            if t == len(_PRIMES):
                raise ValueError(f"bound past 2^64 times all {len(_PRIMES)} primes")
            m *= _PRIMES[t]
            t += 1
        ts.append(t)
    sums = [[_pow_mod(u, k, None).sum(axis=1, dtype=np.uint64).tolist()] for k in ks]
    for i, p in enumerate(_PRIMES[:max(ts)]):
        q = np.uint64(p)
        r = residue(q)
        for k, t, res in zip(ks, ts, sums):
            if i < t:
                res.append(_pow_mod(r, k, q).sum(axis=1).tolist())
    out = []
    for t, res in zip(ts, sums):
        m, coeffs = _crt(t)
        out.append([sum(map(operator.mul, col, coeffs)) % m for col in zip(*res)] if t else res[0])
    return out


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

    The numerators sum v^k for v = (j - 1) t and v' = j' (t + 1), where j'
    = j, or 0 on the perfect squares (d = 0), which are omitted; their bin
    j = 1 already gives v = 0.  On kernel blocks v and v' are the two rows
    of _residue_power_sums:

    * t = 2^bits g + (W >> (96 - bits)) with g = f + y <= 2f + 1 < 2^51
      (y from _nearest, f < 2^50 below FD_CAP), so t < 2^(51 + bits) is
      read in ceil((bits + 51) / 31) 31-bit limbs l_i, bits [96 - bits +
      31 i, + 31) of 2^96 g + W, from its 32-bit words (W's three, then
      g's two);
    * t mod 2^64 is l_0 + 2^31 l_1 + 2^62 l_2 in wrapping uint64;
    * t mod p is sum l_i (2^(31 i) mod p), reduced once: p = 2^31 - e with
      e < 2^11 (see _PRIMES), so 2^31 mod p = e and 2^62 mod p = e^2 <
      2^22, and the at most five terms stay below 2^31 + 2^42 + 2^53 +
      2 * 2^62 < 2^64;
    * j <= L/2 <= MAX_BINS = 2^20 (delta < 1/2), so (j - 1) (t mod p) and
      j' (t mod p) + j' lie below 2^52 before their reduction;
    * v, v' <= top = max(j) ((2 max(f) + 2) << bits), since t + 1 <=
      2^bits (g + 1); at bits = 96 and k = K_MAX over 2^12 terms the bound
      n top^k reaches 2^12 (2^20 2^51 2^96)^12 = 2^2016, which all 63
      primes of _PRIMES cover.

    Object blocks past FD_CAP take a per-index loop of Python-int powers,
    the exact reference, with t = isqrt(p << 2 bits) + (y << bits), the
    same integer from one isqrt; only kernel blocks call _frac_words.
    """
    bins = distance_bins(fs, ds, L)
    j = np.stack([bins - 1, np.where(ds != 0, bins, 0)]).view(np.uint64)
    exact = _power_sums_part((k,), s, fs, ds)[0]
    ys = _nearest(fs, ds)[0]
    if fs.dtype == object:
        lower = upper = 0
        for f, d, y, jl, ju in zip(fs.tolist(), ds.tolist(), ys.tolist(), *j.tolist()):
            t = math.isqrt((f * f + d) << 2 * bits) + (y << bits)
            lower += pow(jl * t, k)
            upper += pow(ju * (t + 1), k)
        return lower, upper, exact
    # floor(2^bits (sqrt(p) + y)) = 2^bits (f + y) + floor(2^bits {sqrt(p)})
    g64 = (fs + ys).view(np.uint64)
    words = _frac_words(fs, ds)[0]
    src = [*words.view(np.uint64).T, g64 & 0xFFFFFFFF, g64 >> 32, np.zeros_like(g64)]
    limbs = []
    for i in range(-(-(bits + 51) // 31)):
        w, r = divmod(96 - bits + 31 * i, 32)
        limbs.append((src[w] >> r | src[w + 1] << (32 - r)) & 0x7FFFFFFF)

    def residue(q):
        if q is None:
            t = limbs[0] | limbs[1] << 31 | limbs[2] << 62
        else:
            t = limbs[0].copy()
            for i, c in enumerate(limbs[1:], 1):
                t += c * ((1 << 31 * i) % int(q))
            _mod(t, q)
        v = j * t
        v[1] += j[1]
        return _mod(v, q)

    top = int(bins.max(initial=0)) * ((2 * int(fs.max(initial=0)) + 2) << bits)
    (lower, upper), = _residue_power_sums((k,), residue, top)
    return lower, upper, exact


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
