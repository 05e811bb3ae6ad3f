import math
import os
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cannonball import exactseq as xs
from cannonball import moments as mo
from conftest import oracle_term

SRC = Path(__file__).resolve().parent.parent / "src"


def oracle_moment(x, k):
    return sum(oracle_term(n)[2] ** k for n in range(1, x + 1))


def per_bin_sandwich(x, k, L, bits=mo.SANDWICH_BITS, lo=1):
    """Sandwich bounds over n in [lo, x] from per-bin sums of oracle terms."""
    return per_bin_bounds((oracle_term(n) for n in range(lo, x + 1)), k, L, bits)


def per_bin_bounds(terms, k, L, bits):
    """Sandwich bounds of (p, y, a) terms from per-bin sums.

    Bins come from isqrt(L^2 p), weights from isqrt(p << 2 bits).
    """
    w_lo = defaultdict(int)
    w_hi = defaultdict(int)
    for p, y, a in terms:
        if a == 0:
            continue
        f = math.isqrt(p)
        r = math.isqrt(L * L * p)  # floor(L sqrt(p))
        j = r - L * f + 1 if y == f else L * (f + 1) - r
        t = math.isqrt(p << 2 * bits) + (y << bits)  # floor(2^bits (sqrt(p) + y))
        w_lo[j] += t ** k
        w_hi[j] += (t + 1) ** k
    den = L ** k << (k * bits)
    lower = sum((j - 1) ** k * w for j, w in w_lo.items())
    upper = sum(j ** k * w for j, w in w_hi.items())
    return Fraction(lower, den), Fraction(upper, den)


def part_bounds(k, L, bits, f, d):
    """The bounds _sandwich_part gives for one (f, d) sub-block."""
    lower, upper, _ = mo._sandwich_part(k, L, bits, 1, f, d)
    den = L ** k << (k * bits)
    return Fraction(lower, den), Fraction(upper, den)


def fd_terms(f, d):
    """(p, y, a) of each constructed (f, d) pair."""
    for f, d in zip(f.tolist(), d.tolist()):
        y = f if d <= f else f + 1
        yield f * f + d, y, abs(f * f + d - y * y)


def python_power_sums(ks, f, d):
    """Sums of a^k by Python-int powers, the reference of the residue sums."""
    a = [min(x, 2 * y + 1 - x) for y, x in zip(f.tolist(), d.tolist())]
    return tuple(sum(pow(v, k) for v in a) for k in ks)


def constructed_extremes(seed):
    """An int64 (f, d) block of SUB_BLOCK pairs at the kernel's edges, f in
    [2^31, 2^50) and d in {2f, f, f + 1, 0, f // 3} in turn."""
    f = np.random.default_rng(seed).integers(2**31, 2**50, xs.SUB_BLOCK)
    f[:8] = 2**50 - 1
    d = np.stack([2 * f, f, f + 1, f * 0, f // 3])[np.arange(len(f)) % 5, np.arange(len(f))]
    return f, d


@st.composite
def kernel_blocks(draw):
    """int64 (f, d) blocks with f < 2^50, so a = min(d, 2f + 1 - d) lies in [0, 2^50)."""
    pairs = []
    for f in draw(st.lists(st.one_of(st.sampled_from([1, 2**25, 2**50 - 1]),
                                     st.integers(1, 2**50 - 1)), min_size=1, max_size=64)):
        pairs.append((f, draw(st.one_of(st.sampled_from([0, f, f + 1, 2 * f]),
                                        st.integers(0, 2 * f)))))
    return np.array([f for f, _ in pairs], np.int64), np.array([d for _, d in pairs], np.int64)


class TestMoment:
    @pytest.mark.parametrize("x,k,expected", [(4, 1, 8), (4, 2, 30), (1, 1, 0), (1, 5, 0)])
    def test_known_values(self, x, k, expected):
        assert mo.moment(x, k).exact == expected

    def test_against_oracle(self):
        for x in (10, 100, 997):
            for k in (1, 2, 3, 4):
                assert mo.moment(x, k).exact == oracle_moment(x, k)

    def test_k_range_enforced(self):
        with pytest.raises(ValueError):
            mo.moment(10, 0)
        with pytest.raises(ValueError):
            mo.moment(10, 13)

    def test_parallel_merge_equals_serial(self):
        serial = mo.power_sums(25000, (1, 2, 3), workers=1, chunk=1 << 12)
        merged = mo.power_sums(25000, (1, 2, 3), workers=3, chunk=1 << 12)
        assert serial == merged

    def test_snapshots_consistent(self):
        grid = [100, 350, 1000]
        table = mo.power_sums_at(grid, (1, 2), chunk=128)
        for x in grid:
            assert table[x] == mo.power_sums(x, (1, 2))

    def test_empty_snapshot_points_rejected(self):
        with pytest.raises(ValueError, match="xs is empty"):
            mo.power_sums_at([], (1,))

    @pytest.mark.parametrize("call", [lambda: mo.power_sums_at([10], ()),
                                      lambda: mo.power_sums(10, [])])
    def test_empty_orders_rejected(self, call):
        with pytest.raises(ValueError, match="ks is empty"):
            call()

    def test_resume_midway_matches(self):
        full = mo.power_sums(5000, (1,))
        first = mo.power_sums(2500, (1,))
        resumed = mo.power_sums_at([5000], (1,), start_n=2501, init=first)
        assert resumed[5000] == full

    def test_normalized_residual_definition(self):
        s = mo.moment(1000, 2)
        with mp.workprec(mo.WORK_PREC):
            expected = (mp.mpf(s.exact) - s.main) / mp.power(1000, 3 + mp.mpf(11) / 12)
            assert abs(s.normalized - expected) < 1e-40


class TestLimbPowerSums:
    """The residue sums of _power_sums_part at every k against Python-int powers."""

    def test_worst_case_full_sub_block(self):
        # a = 2^50 - 1 on every index is the largest kernel-block bound,
        # 2^13 (2^50)^12 at k = 12, which needs 18 of the 64 primes
        f = np.full(xs.SUB_BLOCK, 2**50 - 1, np.int64)
        ks = tuple(range(1, mo.K_MAX + 1))
        assert mo._power_sums_part(ks, 1, f, f) == python_power_sums(ks, f, f)

    @settings(max_examples=200, deadline=None)
    @given(kernel_blocks())
    def test_random_kernel_blocks(self, block):
        f, d = block
        ks = tuple(range(2, mo.K_MAX + 1))
        assert mo._power_sums_part(ks, 1, f, d) == python_power_sums(ks, f, d)

    def test_mixed_orders_keep_their_order(self):
        f, d = xs.block_fd(3_000_000, 3_000_000 + xs.SUB_BLOCK - 1)
        ks = (3, 1, 7, 2, 12)
        assert mo._power_sums_part(ks, 3_000_000, f, d) == python_power_sums(ks, f, d)

    def test_object_blocks_past_fd_cap_match(self):
        f, d = xs.block_fd(xs.FD_CAP - 100, xs.FD_CAP + 100)
        assert f.dtype == object
        ks = (1, 2, 3, 4)
        want = python_power_sums(ks, f, d)
        assert mo._power_sums_part(ks, 1, f, d) == want
        assert mo._power_sums_part(ks, 1, f.astype(np.int64), d.astype(np.int64)) == want


def is_prime(n):
    """Trial division by every q in [2, isqrt(n)]."""
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


class TestResiduePowerSums:
    """The CRT residue sums of _power_sums_part at k >= 4 against Python-int powers."""

    HIGH = tuple(range(4, mo.K_MAX + 1))

    def test_block_of_zeros(self):
        f = np.full(xs.SUB_BLOCK, 12345, np.int64)
        d = np.zeros(xs.SUB_BLOCK, np.int64)
        assert mo._power_sums_part(self.HIGH, 1, f, d) == (0,) * len(self.HIGH)

    @pytest.mark.parametrize("n", [2_400_639, 3_810_778], ids=["a_passes_primes", "p_passes_2_64"])
    def test_kernel_sub_blocks_at_the_crossings(self, n):
        # max(a) passes the smallest prime near n = 2400639 (a mod p is taken
        # past it), and P_n passes 2^64 at n = 3810778
        s = n - xs.SUB_BLOCK // 2
        f, d = xs.block_fd(s, s + xs.SUB_BLOCK - 1)
        assert f.dtype == np.int64
        assert mo._power_sums_part(self.HIGH, s, f, d) == python_power_sums(self.HIGH, f, d)

    def test_moduli_are_the_64_largest_primes_below_2_31(self):
        primes = mo._PRIMES
        assert len(set(primes)) == len(primes) == 64
        assert all(is_prime(p) for p in primes)
        assert [n for n in range(primes[-1], 2**31) if is_prime(n)] == sorted(primes)
        # the sandwich's limb sum mod p assumes p > 2^31 - 2^11
        assert min(primes) > 2**31 - 2**11
        # they cover the worst case below FD_CAP, the sandwich's 2^13 v^12
        # with v < 2^20 2^51 2^96, and 63 of them would not
        m, coeffs = mo._crt(len(primes))
        assert m == (1 << 64) * math.prod(primes) > 2**2017 > mo._crt(len(primes) - 1)[0]
        for i, q in enumerate((1 << 64, *primes)):
            assert [c % q for c in coeffs] == [int(i == j) for j in range(len(coeffs))]

    def test_crt_tables_are_built_on_first_use(self):
        code = ("import cannonball.moments as mo; a = mo._crt.cache_info().currsize; "
                "mo.power_sums(100, (1, 12)); print(a, mo._crt.cache_info().currsize > 0)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.stdout.split() == ["0", "True"]

    def test_search_builds_only_the_tables_it_reads(self):
        # the sandwich at k = 12 reads two CRT tables, M_k's and the numerators'
        code = ("import cannonball.exactseq as xs, cannonball.moments as mo; s = 1500000; "
                "f, d = xs.block_fd(s, s + xs.SUB_BLOCK - 1); "
                "mo._sandwich_part(12, 2**21, 96, s, f, d); print(mo._crt.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert proc.stdout.split() == ["2"]

    def test_bound_past_the_last_prime_rejected(self):
        top = 1 << 2047
        assert 4 * top > mo._crt(len(mo._PRIMES))[0]
        with pytest.raises(ValueError, match="all 64 primes"):
            mo._residue_power_sums((1,), lambda q: np.zeros((1, 4), np.uint64), top)

    def test_no_python_pow_on_kernel_blocks(self, monkeypatch):
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        f, d = xs.block_fd(3_000_000, 3_000_000 + xs.SUB_BLOCK - 1)
        want = python_power_sums(self.HIGH, f, d)
        # the CRT coefficients are built on first use, by pow(x, -1, q) per modulus
        assert mo._power_sums_part(self.HIGH, 3_000_000, f, d) == want
        monkeypatch.setattr(mo, "pow", counting_pow, raising=False)
        assert mo._power_sums_part(self.HIGH, 3_000_000, f, d) == want
        assert calls == []
        # the patch does reach the module: object blocks still take Python powers
        mo._power_sums_part((4,), 1, f[:3].astype(object), d[:3].astype(object))
        assert len(calls) == 3


class TestAverage:
    def test_small_values(self):
        assert mo.average(4).exact == 2
        assert mo.average(1).exact == 0

    def test_x24_golden(self, a351830):
        m1 = sum(a351830[n] for n in range(1, 25))
        assert m1 == 410
        s = mo.average(24)
        assert s.exact == Fraction(410, 24) == Fraction(205, 12)
        # the n=24 term contributes nothing
        assert a351830[24] == 0

    def test_value_matches_fraction(self):
        s = mo.average(100)
        assert abs(float(s.value) - s.exact.numerator / s.exact.denominator) < 1e-12

    @pytest.mark.parametrize("x", [1, 2, 24, 999, 10**6 + 1])
    def test_main_is_x_to_three_halves_over_5_sqrt3(self, x):
        with mp.workprec(mo.WORK_PREC):
            want = mp.power(x, mp.mpf(3) / 2) / (5 * mp.sqrt(3))
        assert mp.nstr(mo.average(x).main, 30) == mp.nstr(want, 30)


class TestMainTerm:
    def test_k1_coefficient_is_one_over_5_sqrt3(self):
        with mp.workprec(mo.WORK_PREC):
            assert abs(mo.main_term(1, 1) - 1 / (5 * mp.sqrt(3))) < mp.mpf(2) ** -200

    def test_k2_coefficient(self):
        # 3^(2/2) * ((3/2)*2+1) * (2+1) = 3 * 4 * 3 = 36
        with mp.workprec(mo.WORK_PREC):
            assert abs(mo.main_term(1, 2) - mp.mpf(1) / 36) < mp.mpf(2) ** -200

    def test_x1_returns_coefficient(self):
        for k in (1, 2, 5):
            assert mo.main_term(1, k) == mo.main_term(1, k)  # well defined
            with mp.workprec(mo.WORK_PREC):
                assert mo.main_term(1, k) < 1

    def test_monotone_convergence_ratio(self):
        # M_1(x) / main approaches 1 across three decades
        ratios = []
        table = mo.power_sums_at([10**3, 10**4, 10**5], (1,), chunk=1 << 14)
        with mp.workprec(mo.WORK_PREC):
            for x in (10**3, 10**4, 10**5):
                ratios.append(abs(mp.mpf(table[x][0]) / mo.main_term(x, 1) - 1))
        assert ratios[-1] < ratios[0]


class TestSandwich:
    def test_tiny_case_brackets(self):
        r = mo.sandwich(4, 1, 2)
        assert r.lower <= 8 <= r.upper
        assert r.exact == 8

    def test_x1_degenerate(self):
        r = mo.sandwich(1, 3, 10)
        assert r.lower == 0 and r.upper == 0 and r.exact == 0

    def test_odd_L_rejected(self):
        with pytest.raises(ValueError):
            mo.sandwich(10, 1, 7)
        with pytest.raises(ValueError):
            mo.sandwich(10, 1, 0)

    @pytest.mark.parametrize("x", [100, 2000])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("L", [2, 10, 50])
    def test_brackets_exact_moment(self, x, k, L):
        r = mo.sandwich(x, k, L)
        assert r.lower <= r.exact <= r.upper

    def test_width_shrinks_on_doubling(self):
        widths = []
        for L in (2, 4, 8, 16, 32):
            r = mo.sandwich(2000, 1, L)
            widths.append(r.upper - r.lower)
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_golden_relative_widths_1e5(self):
        assert abs(mo.sandwich(10**5, 1, 10).rel_width - 0.33335164170450077) < 1e-12
        assert abs(mo.sandwich(10**5, 1, 100).rel_width - 0.039195276351484905) < 1e-12

    @pytest.mark.parametrize("x", [24, 3000, 3 * xs._WORD_SLICE + 5, 3 * xs.SUB_BLOCK + 5])
    @pytest.mark.parametrize("k, L", [(1, 2), (2, 10), (5, 1000)])
    def test_equals_per_bin_reference(self, x, k, L):
        r = mo.sandwich(x, k, L)
        assert (r.lower, r.upper) == per_bin_sandwich(x, k, L)
        assert r.exact == oracle_moment(x, k)

    @pytest.mark.parametrize("bits", [32, 48, 96])
    def test_other_weight_precisions_match_reference(self, bits):
        r = mo.sandwich(3000, 2, 10, bits)
        assert (r.lower, r.upper) == per_bin_sandwich(3000, 2, 10, bits)

    @pytest.mark.parametrize("bits", [31, 97])
    def test_weight_precision_outside_range_rejected(self, bits):
        with pytest.raises(ValueError, match="bits"):
            mo.sandwich(100, 1, 10, bits)

    def test_object_blocks_match_kernel_blocks(self):
        # past FD_CAP sub-blocks are object arrays of Python ints, whose weights
        # come from one isqrt each, the kernel's from the 96-bit words
        for bits in (32, 48, 64, 96):
            for k in (1, 2, 3, 12):
                for s, f, d in [(2000, *xs.block_fd(2000, 2300)),
                                (1, *constructed_extremes(k * 100 + bits))]:
                    fo, do = f.astype(object), d.astype(object)
                    for L in (2, 100, 2 * xs.MAX_BINS):
                        assert mo._sandwich_part(k, L, bits, s, fo, do) == mo._sandwich_part(
                            k, L, bits, s, f, d)

    def test_object_blocks_read_no_words(self, monkeypatch):
        calls = []
        words = mo._frac_words

        def counting_words(f, d):
            calls.append(len(f))
            return words(f, d)

        monkeypatch.setattr(mo, "_frac_words", counting_words)
        f, d = xs.block_fd(2000, 2300)
        mo._sandwich_part(3, 100, 64, 2000, f.astype(object), d.astype(object))
        assert calls == []
        # the patch does reach the module: kernel blocks read the words
        mo._sandwich_part(3, 100, 64, 2000, f, d)
        assert calls == [301]

    @pytest.mark.parametrize("bits", [32, 64, 96])
    @pytest.mark.parametrize("k", [1, 2, 3, 12])
    def test_limb_path_at_the_largest_bin(self, k, bits):
        # n = 1732704 is the first index in bin L/2 = MAX_BINS = 2^20 at L = 2^21
        L, lo = 2 * xs.MAX_BINS, 1732704 - 1000
        f, d = xs.block_fd(lo, lo + xs.SUB_BLOCK - 1)
        assert xs.distance_bins(f, d, L).max() == xs.MAX_BINS
        assert part_bounds(k, L, bits, f, d) == per_bin_sandwich(lo + len(f) - 1, k, L, bits, lo)

    @pytest.mark.parametrize("bits", [32, 64, 96])
    @pytest.mark.parametrize("k", [1, 2, 3, 12])
    def test_limb_path_constructed_extremes(self, k, bits):
        # d = 2f with f >= 2^31 puts {sqrt(p)} above 1 - 2^-32, so at 32 bits
        # t + 1 carries into f + y, up to t + 1 = 2^83 at f = 2^50 - 1; d = f
        # with f >= 2^19 puts delta within 2^-21 of 1/2, in bin L/2 = 2^20
        L = 2 * xs.MAX_BINS
        f, d = constructed_extremes(k * 100 + bits)
        assert xs.distance_bins(f, d, L).max() == xs.MAX_BINS
        if bits == 32:
            assert xs.frac_mantissa(2**50 - 1, 2**51 - 2, bits) == (1 << bits) - 1
        assert part_bounds(k, L, bits, f, d) == per_bin_bounds(fd_terms(f, d), k, L, bits)

    def test_no_python_pow_on_kernel_blocks(self, monkeypatch):
        calls = []

        def counting_pow(*args):
            calls.append(args)
            return pow(*args)

        f, d = xs.block_fd(2000, 2000 + xs.SUB_BLOCK - 1)
        want = mo._sandwich_part(3, 100, 64, 2000, f, d)  # builds the CRT coefficients
        monkeypatch.setattr(mo, "pow", counting_pow, raising=False)
        assert mo._sandwich_part(3, 100, 64, 2000, f, d) == want
        assert calls == []
        # object blocks take two Python powers per index, and M_k one more
        f, d = f[:3].astype(object), d[:3].astype(object)
        mo._sandwich_part(3, 100, 64, 2000, f, d)
        assert len(calls) == 9

    def test_memory_does_not_grow_with_L(self):
        tracemalloc.start()
        try:
            mo.sandwich(20000, 2, 2 * xs.MAX_BINS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_weight_normalization_limit(self):
        # (sqrt(P_n) + y_n)^k / ((2/sqrt(3))^k n^(3k/2)) -> 1
        for n in (10**3, 10**4, 10**5):
            t = xs.term(n)
            for k in (1, 2, 3):
                ratio = (math.sqrt(t.p) + t.y) ** k / ((2 / math.sqrt(3)) ** k * n ** (1.5 * k))
                assert abs(ratio - 1) <= 10 * k / n


class TestFitResidual:
    def test_slope_bound_small_grid(self):
        r = mo.fit_residual([10**3, 10**4, 10**5], 1, chunk=1 << 14)
        assert r.slope <= 2.5 + 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            mo.fit_residual([10, 100], 1)
        with pytest.raises(ValueError):
            mo.fit_residual([100, 100, 1000], 1)
        with pytest.raises(ValueError):
            mo.fit_residual([100, 1000, 10000], 0)

    def test_degenerate_identical_values(self):
        slope, intercept = mo._least_squares([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)])
        assert slope == 0.0
        assert intercept == 5.0
