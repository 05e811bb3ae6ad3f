import math

import mpmath as mp
import numpy as np
import pytest

from cannonball import exactseq as xs
from cannonball import moments as mo
from conftest import mp_frac_sqrt, newton_isqrt, oracle_term


class TestPyramidal:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (3, 14), (24, 4900)])
    def test_known_values(self, n, expected):
        assert xs.pyramidal(n) == expected

    def test_matches_direct_sum(self):
        total = 0
        for n in range(1, 500):
            total += n * n
            assert xs.pyramidal(n) == total

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            xs.pyramidal(-1)


class TestIsqrt:
    @pytest.mark.parametrize("n,expected", [(0, 0), (15, 3), (4900, 70)])
    def test_known_values(self, n, expected):
        assert xs.isqrt(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            xs.isqrt(-4)

    def test_postcondition_and_newton_oracle(self):
        cases = list(range(200)) + [10**12 + 7, 2**130 - 1, 3**97, 10**40]
        seed = 0x9E3779B97F4A7C15
        for i in range(200):
            seed = (seed * 6364136223846793005 + 1442695040888963407) % 2**192
            cases.append(seed)
        for n in cases:
            f = xs.isqrt(n)
            assert f * f <= n < (f + 1) * (f + 1)
            assert f == newton_isqrt(n)


class TestNearestSquareRoot:
    @pytest.mark.parametrize("p,expected", [(4900, 70), (14, 4), (2, 1), (0, 0)])
    def test_known_values(self, p, expected):
        assert xs.nearest_square_root(p) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            xs.nearest_square_root(-1)

    def test_minimal_over_scan(self):
        for p in range(0, 5000):
            y = xs.nearest_square_root(p)
            d = abs(p - y * y)
            assert all(abs(p - z * z) >= d for z in range(0, 80))


# int64 kernel sub-blocks: from n = 1, and for each of the sub-block and the
# _frac_words slice widths one across n = 3810778 (where P_n passes 2^64) and
# one ending at FD_CAP; kernel_block cuts a block at FD_CAP
KERNEL_STARTS = (1, *(s for w in (xs.SUB_BLOCK, xs._WORD_SLICE)
                      for s in (3_810_778 - w // 2, xs.FD_CAP - w + 1)))


def kernel_block(s):
    return xs.block_fd(s, min(s + xs.SUB_BLOCK - 1, xs.FD_CAP))


class TestNearest:
    """_nearest, the one rule from (f, d) to (y, a, side), against the brute-force argmin."""

    @staticmethod
    def assert_matches_oracle(s, f, d):
        y, a, above = xs._nearest(f, d)
        for i, (fi, yi, ai, bi) in enumerate(zip(f.tolist(), y.tolist(), a.tolist(),
                                                 above.tolist())):
            p, want_y, want_a = oracle_term(s + i)
            assert (fi, yi, ai, bi) == (math.isqrt(p), want_y, want_a, want_y > fi), s + i

    def test_python_ints_to_1e4(self):
        for n in range(1, 10**4 + 1):
            p, y, a = oracle_term(n)
            f = math.isqrt(p)
            got = xs._nearest(f, p - f * f)
            assert got == (y, a, y > f), n
            assert type(got[0]) is int and type(got[1]) is int

    @pytest.mark.parametrize("s", KERNEL_STARTS)
    def test_kernel_blocks(self, s):
        f, d = kernel_block(s)
        assert f.dtype == np.int64
        self.assert_matches_oracle(s, f, d)

    def test_object_block_past_fd_cap(self):
        s = xs.FD_CAP + 1
        f, d = xs.block_fd(s, s + xs.SUB_BLOCK - 1)
        assert f.dtype == object
        self.assert_matches_oracle(s, f, d)

    @pytest.mark.parametrize("s", KERNEL_STARTS)
    def test_power_sums_part_reads_the_same_a(self, s):
        """_power_sums_part keeps its own in-place a; its sums are those of _nearest's a."""
        f, d = kernel_block(s)
        a = xs._nearest(f, d)[1].tolist()
        assert mo._power_sums_part((1, 2, 3), s, f, d) == tuple(
            sum(v**k for v in a) for k in (1, 2, 3))


class TestTerm:
    def test_zero_locus_members(self):
        assert xs.term(1).a == 0
        assert xs.term(24).a == 0

    def test_example_n6(self):
        t = xs.term(6)
        assert (t.p, t.y, t.a) == (91, 10, 9)

    def test_invariants_against_oracle(self):
        for n in range(1, 10**4 + 1):
            t = xs.term(n)
            p, y, a = oracle_term(n)
            assert t.p == p and t.y == y and t.a == a
            assert t.f * t.f <= t.p < (t.f + 1) * (t.f + 1)
            assert t.y in (t.f, t.f + 1)
            assert t.a == min(t.p - t.f**2, (t.f + 1) ** 2 - t.p)
            assert t.a <= t.f + 1  # nearest-square distance is at most the gap midpoint
            assert 2 * t.p != t.f**2 + (t.f + 1) ** 2  # no ties, parity
            below = 4 * t.p < (2 * t.f + 1) ** 2
            assert (t.side is xs.Side.BELOW_HALF) == below

    def test_fixture_agreement(self, a351830):
        for n, a in a351830.items():
            assert xs.term(n).a == a

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            xs.term(0)

    def test_no_half_ties_to_1e6(self):
        # {sqrt(P_n)} = 1/2 would need even = odd
        p = 0
        for n in range(1, 10**6 + 1):
            p += n * n
            f = math.isqrt(p)
            assert 2 * p != f * f + (f + 1) * (f + 1)


class TestStreamTerms:
    def test_first_four(self):
        assert [t.a for t in xs.stream_terms(xs.RangeSpec(1, 4))] == [0, 1, 2, 5]

    def test_single_index(self):
        (t,) = list(xs.stream_terms(xs.RangeSpec(24, 24)))
        assert t.a == 0 and t.y == 70

    def test_chunked_equals_single_pass(self):
        merged = []
        for lo, hi in xs.RangeSpec(1, 1000, chunk=77).chunks():
            merged.extend(xs.terms_block(lo, hi))
        assert merged == list(xs.stream_terms(xs.RangeSpec(1, 1000)))

    def test_matches_term_pointwise(self):
        for t in xs.stream_terms(xs.RangeSpec(500, 600)):
            assert t == xs.term(t.n)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            xs.RangeSpec(5, 4)
        with pytest.raises(ValueError):
            xs.RangeSpec(0, 4)
        with pytest.raises(ValueError):
            xs.RangeSpec(1, 4, chunk=0)


class TestFracSqrt:
    def test_perfect_square_mantissa_zero(self):
        for bits in (32, 64, 96):
            assert xs.frac_sqrt(24, bits).mantissa == 0
            assert xs.frac_sqrt(1, bits).mantissa == 0

    def test_sqrt5_value(self):
        ff = xs.frac_sqrt(2, 64)
        with mp.workprec(200):
            target = mp.sqrt(5) - 2
            assert abs(mp.mpf(ff.mantissa) / 2**64 - target) < mp.mpf(2) ** -64

    def test_two_term_expansion_residual_scaling(self):
        # {sqrt(P_n)} tracks n^(3/2)/sqrt(3) + sqrt(3) n^(1/2)/4 mod 1 with a
        # residual near n^(-1/2)/(32 sqrt(3)): about 1.8e-4 at n=1e4, and
        # inside 1e-6 once n reaches 1e9
        for n, tol in ((10**4, 4e-4), (10**9, 1e-6)):
            ff = xs.frac_sqrt(n, 96)
            with mp.workprec(260):
                expansion = (mp.power(n, mp.mpf(3) / 2) / mp.sqrt(3)
                             + mp.sqrt(3) / 4 * mp.sqrt(n))
                frac = expansion - mp.floor(expansion)
                diff = abs(mp.mpf(ff.mantissa) / 2**96 - frac)
                assert diff < tol
                assert diff > mp.mpf(n) ** mp.mpf(-0.5) / 100  # genuinely O(n^-1/2)

    def test_error_bound_against_mp_oracle(self):
        with mp.workprec(200):
            for n in range(1, 10**4 + 1):
                ff = xs.frac_sqrt(n, 96)
                ref = mp_frac_sqrt(n, 160)
                assert abs(mp.mpf(ff.mantissa) / 2**96 - ref) < mp.mpf(2) ** -95

    def test_validation(self):
        with pytest.raises(ValueError):
            xs.frac_sqrt(0, 96)
        for bits in (16, 97, 10**9):
            with pytest.raises(ValueError, match=r"bits must be in \[32, 96\]"):
                xs.frac_sqrt(5, bits)


class TestExceptional:
    @pytest.mark.parametrize("n", [1, 6, 24])
    def test_known_non_members(self, n):
        assert xs.in_exceptional(n) is False

    def test_empty_to_1e4(self):
        assert xs.exceptional_indices(10**4) == []

    def test_window_check_wide_windows(self):
        # small indices have windows wide enough to contain {sqrt(P_n)}
        assert xs.half_window_check(2)
        assert xs.half_window_check(3)

    def test_window_check_far_from_half(self):
        # {sqrt(P_24)} = 0 sits nowhere near 1/2 and the window is tiny
        assert not xs.half_window_check(24)


class TestNearHalf:
    def test_golden_small(self):
        # frozen after validation against the mpmath window oracle below
        assert xs.near_half_count(24) == (7, 0)

    def test_golden_1e4(self):
        # roughly 2 x^(1/4) = 20 by equidistribution; exact scan says 44
        assert xs.near_half_count(10**4) == (44, 0)

    def test_against_mp_window_oracle(self):
        for x in (24, 100, 1000):
            with mp.workprec(200):
                t = mp.power(x, mp.mpf(-3) / 4)
                expected = 0
                for n in range(1, x + 1):
                    frac = mp_frac_sqrt(n, 200)
                    if frac == 0:
                        continue  # perfect squares excluded by convention
                    if abs(frac - mp.mpf(1) / 2) <= t:
                        expected += 1
            count, borderline = xs.near_half_count(x)
            assert borderline == 0
            assert count == expected

    def test_borderline_zero_at_default_bits(self):
        for x in (10, 10**3):
            assert xs.near_half_count(x)[1] == 0
