import math
import tracemalloc

import numpy as np
import pytest

from cannonball import equidist as eq
from cannonball import exactseq as xs
from conftest import brute_exp_sum, oracle_term


def brute_star_discrepancy(points):
    """Definitional sup over candidate alphas (closed anchored intervals)."""
    pts = sorted(points)
    n = len(pts)
    best = 0.0
    for alpha in set(pts) | {0.0, 1.0}:
        z = sum(1 for u in pts if u <= alpha)
        z_left = sum(1 for u in pts if u < alpha)
        best = max(best, abs(z - n * alpha), abs(z_left - n * alpha))
    return best / n


class TestExpSum:
    def test_perfect_square_is_unit(self):
        for m in (1, 5, -3):
            s = eq.exp_sum(24, 24, m)
            assert abs(s.re - 1) < 1e-12 and abs(s.im) < 1e-12

    def test_matches_scalar_reference(self):
        for m in (1, 2, 7, -4, 32766, -32766):
            s = eq.exp_sum(5, 300, m)
            ref = brute_exp_sum(5, 300, m)
            assert abs(complex(s.re, s.im) - ref) < 1e-9

    def test_large_m_slow_path(self):
        m = 10**6  # near MAX_HARMONIC: the limb carry chain at its widest
        s = eq.exp_sum(2, 120, m)
        ref = brute_exp_sum(2, 120, m)
        assert abs(complex(s.re, s.im) - ref) < 1e-9

    def test_narrow_precision_single_limb(self):
        for m in (3, -3):
            s = eq.exp_sum(2, 150, m, bits=48)
            ref = brute_exp_sum(2, 150, m, bits=48)
            assert abs(complex(s.re, s.im) - ref) < 1e-9

    def test_conjugate_symmetry(self):
        sp = eq.exp_sum(1, 2000, 3)
        sm = eq.exp_sum(1, 2000, -3)
        assert abs(sp.re - sm.re) < 1e-9
        assert abs(sp.im + sm.im) < 1e-9

    def test_trivial_bound(self):
        for n in (10, 1000):
            s = eq.exp_sum(1, n, 1)
            assert s.modulus <= n

    def test_weyl_decay(self):
        ratios = [eq.exp_sum(1, n, 1).modulus / n for n in (10**3, 10**4, 10**5)]
        assert ratios[2] < ratios[0]

    def test_window_past_the_table_is_built_alone(self, monkeypatch):
        """A sum far from n = 1 builds its own words, not the table's prefix up
        to it.  Past FD_CAP the kernel hands over object blocks, whose words
        are stored into the window's uint32 limbs like the kernel's own."""
        monkeypatch.setattr(eq, "_table", np.empty((0, 3), np.int64))
        for lo, hi in ((10**6, 10**6 + 10), (xs.FD_CAP - 3, xs.FD_CAP + 4)):
            pts = eq.sqrt_frac_points(hi, 96, lo=lo)
            want = xs._limbs([xs.frac_sqrt(n, 96).mantissa for n in range(lo, hi + 1)])
            assert np.array_equal(pts.limbs, want)
            tracemalloc.start()
            try:
                s = eq.exp_sum(lo, hi, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert abs(complex(s.re, s.im) - brute_exp_sum(lo, hi, 3)) <= s.modulus_err
            assert peak < 1 << 20
            assert len(eq._table) == 0

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            eq.exp_sum(1, 10, 0)

    def test_precision_inadequacy_names_bits(self):
        with pytest.raises(eq.PrecisionError, match="bits"):
            eq.exp_sum(1, 10, 5, bits=32)


class TestKnBound:
    def test_dominates_computed_sums(self):
        for n in (10**2, 10**3):
            for m in (1, 2, 3):
                assert eq.exp_sum(1, n, m).modulus <= eq.kn_bound(1, n, m)

    def test_two_term_range(self):
        assert eq.kn_bound(1, 2, 1) >= 2.0

    def test_growth_exponent(self):
        # h'' ~ n^(-1/2) makes the bound grow like N^(3/4)
        ns = [10**3, 10**4, 10**5, 10**6]
        logs = [(math.log(n), math.log(eq.kn_bound(1, n, 1))) for n in ns]
        mx = sum(p[0] for p in logs) / 4
        my = sum(p[1] for p in logs) / 4
        slope = sum((p[0] - mx) * (p[1] - my) for p in logs) / sum((p[0] - mx) ** 2 for p in logs)
        assert abs(slope - 0.75) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.kn_bound(5, 5, 1)
        with pytest.raises(ValueError):
            eq.kn_bound(1, 10, 0)


class TestDerivBounds:
    def test_finite_positive_at_one(self):
        d = eq.deriv_bounds(1)
        assert d.h1 > 0 and d.h2 > 0 and math.isfinite(d.h1) and math.isfinite(d.h2)

    def test_leading_order_h1(self):
        n = 10**6
        d = eq.deriv_bounds(n)
        assert abs(d.h1 / (math.sqrt(3) / 2 * math.sqrt(n)) - 1) < 0.01

    def test_h2_positive_decreasing(self):
        vals = [eq.deriv_bounds(n).h2 for n in (10, 10**2, 10**4, 10**6)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_h1_matches_finite_difference(self):
        def h(t):
            return math.sqrt(t * (t + 1) * (2 * t + 1) / 6)

        for n in (10.0, 1000.0, 100000.0):
            step = 1e-4 * n
            fd = (h(n + step) - h(n - step)) / (2 * step)
            assert abs(eq.deriv_bounds(n).h1 / fd - 1) < 1e-6


class TestStarDiscrepancy:
    def test_single_point_at_zero(self):
        r = eq.star_discrepancy([0.0])
        assert r.d_star == 1.0 and r.d_unnormalized == 1.0

    def test_centered_equispaced(self):
        n = 10
        pts = [(2 * i - 1) / (2 * n) for i in range(1, n + 1)]
        assert abs(eq.star_discrepancy(pts).d_star - 1 / (2 * n)) < 1e-15

    def test_matches_brute_force_sup(self):
        rng = np.random.default_rng(12345)
        for size in (1, 2, 17, 100, 500):
            pts = rng.random(size).tolist()
            fast = eq.star_discrepancy(pts).d_star
            assert abs(fast - brute_star_discrepancy(pts)) < 1e-12

    def test_sequence_discrepancy_decays(self):
        d3 = eq.star_discrepancy(eq.sqrt_frac_points(10**3)).d_star
        d4 = eq.star_discrepancy(eq.sqrt_frac_points(10**4)).d_star
        assert d4 < d3

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            eq.star_discrepancy([0.5, 1.0])
        with pytest.raises(ValueError):
            eq.star_discrepancy([-0.1])
        with pytest.raises(ValueError):
            eq.star_discrepancy([])

    def test_word_that_rounds_to_one_accepted(self):
        pts = eq.as_phase_points([xs.FixedFrac(2**96 - 1, 96), xs.FixedFrac(2**95, 96)])
        assert eq.star_discrepancy(pts).d_star == 0.5
        assert eq.erdos_turan(pts, 3).d_star == 0.5

    @pytest.mark.parametrize("bits", [96, 40])
    def test_blocks_match_the_whole_array_formula(self, bits):
        """The blockwise maxima give the bits of the formula on the whole sorted array."""
        pts = eq.sqrt_frac_points(2 * eq.POINT_BLOCK + 1234, bits)
        u = np.sort(pts.values)
        n = len(u)
        i = np.arange(1, n + 1, dtype=np.float64)
        want = float(max((i / n - u).max(), (u - (i - 1) / n).max()))
        r = eq.star_discrepancy(pts)
        assert (r.d_star, r.d_unnormalized) == (want, n * want)


class TestErdosTuran:
    def test_holds_on_sequence_points(self):
        r = eq.erdos_turan(eq.sqrt_frac_points(10**4), 10)
        assert r.d_unnormalized <= r.et_bound

    def test_single_point_coarse(self):
        r = eq.erdos_turan([0.3], 1)
        assert r.et_bound >= 0.5 + 3.0 - 1e-9
        assert r.d_unnormalized <= r.et_bound

    def test_bound_finite_over_K_grid(self):
        pts = eq.sqrt_frac_points(2000)
        bounds = {K: eq.erdos_turan(pts, K).et_bound for K in (1, 2, 5, 10, 20, 40)}
        assert all(math.isfinite(b) for b in bounds.values())
        best_K = min(bounds, key=bounds.get)
        assert bounds[best_K] <= bounds[1]

    def test_float_points_accepted(self):
        rng = np.random.default_rng(7)
        r = eq.erdos_turan(rng.random(200).tolist(), 5)
        assert r.d_unnormalized <= r.et_bound + r.slack

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.erdos_turan([0.5], 0)


class TestHistogram:
    def test_x1_single_count(self):
        h = eq.half_distance_histogram(1, 5)
        assert h.counts == (1, 0, 0, 0, 0)
        assert h.flagged == 1

    def test_x24_squares_in_bin1(self):
        h = eq.half_distance_histogram(24, 4)
        assert h.flagged == 2
        assert sum(h.counts) == 24

    def test_counts_match_exact_distances(self):
        # classify with exact integer comparisons, across the sub-block edges
        for x, bins in ((500, 8), (4095, 20), (4096, 7), (4097, 50)):
            h = eq.half_distance_histogram(x, bins)
            expected = [0] * bins
            for n in range(1, x + 1):
                t = xs.term(n)
                if t.a == 0:
                    expected[0] += 1
                    continue
                # smallest j with |sqrt(p) - y| <= j/(2 bins), via integer squares
                L = 2 * bins
                j = 1
                while True:
                    if t.side is xs.Side.BELOW_HALF:
                        inside = t.p * L * L <= (t.f * L + j) ** 2
                    else:
                        inside = (L * (t.f + 1) - j) ** 2 <= t.p * L * L
                    if inside:
                        break
                    j += 1
                expected[j - 1] += 1
            assert list(h.counts) == expected

    def test_deviation_bounded_by_doubled_discrepancy(self):
        x, bins = 10**4, 20
        h = eq.half_distance_histogram(x, bins)
        d2 = eq.star_discrepancy(eq.doubled_distance_points(x))
        max_dev = max(abs(c / x - 1 / bins) for c in h.counts)
        assert max_dev <= 2 * d2.d_star + h.flagged / x

    def test_sub_block_part_holds_its_bins_only(self):
        """At the largest bin count a sub-block's part is its bin indices, not
        a dense array of MAX_BINS + 1 counts (8 MB)."""
        f, d = xs.block_fd(1, xs.SUB_BLOCK)
        tracemalloc.start()
        try:
            eq._histogram_part(xs.MAX_BINS, 1, f, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_largest_bin_count_any_chunk_and_workers(self):
        x, bins = 3 * xs.SUB_BLOCK + 5, xs.MAX_BINS
        f, d = xs.block_fd(1, x)
        want = np.bincount(xs.distance_bins(f, d, 2 * bins), minlength=bins + 1)[1:].tolist()
        for chunk, workers in ((x, 1), (5000, 1), (xs.SUB_BLOCK, 2), (1000, 1)):
            h = eq.half_distance_histogram(x, bins, workers=workers, chunk=chunk)
            assert list(h.counts) == want and h.flagged == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.half_distance_histogram(0, 5)
        with pytest.raises(ValueError):
            eq.half_distance_histogram(10, 1)


class TestWeylProfile:
    def test_single_point_rows_are_one(self):
        for _, ratio in eq.weyl_profile(1, 4):
            assert abs(ratio - 1.0) < 1e-12

    def test_rows_shrink_with_n(self):
        small = dict(eq.weyl_profile(10**3, 5))
        large = dict(eq.weyl_profile(10**5, 5))
        for m in range(1, 6):
            assert large[m] < small[m]

    def test_validation(self):
        with pytest.raises(ValueError):
            eq.weyl_profile(0, 3)
        with pytest.raises(ValueError):
            eq.weyl_profile(10, 0)


class TestDoubledDistances:
    def test_values_match_exact_terms(self):
        pts = eq.doubled_distance_points(1000)
        for i, t in enumerate(xs.stream_terms(xs.RangeSpec(1, 1000))):
            d = abs(math.sqrt(t.p) - t.y)
            assert abs(pts.values[i] - 2 * d) < 1e-9

    def test_inside_unit_interval(self):
        pts = eq.doubled_distance_points(5000)
        assert pts.values.min() >= 0.0
        assert pts.values.max() < 1.0

    def test_narrow_precision_split(self):
        wide = eq.doubled_distance_points(300)
        narrow = eq.doubled_distance_points(300, bits=40)
        assert np.abs(wide.values - narrow.values).max() < 1e-9

    @pytest.mark.parametrize("bits", [96, 48, 32])
    def test_words_match_big_int_oracle(self, bits):
        """Point n is floor(2^b * 2 delta_n), b = min(bits, 95), limb for limb."""
        x, b = 20000, min(bits, 95)
        pts = eq.doubled_distance_points(x, bits)
        assert pts.bits == b
        want = []
        for n in range(1, x + 1):
            p, y, _ = oracle_term(n)
            r = math.isqrt(p << 2 * (b + 1))  # floor(2^(b+1) sqrt(p))
            # above the half 2^(b+1) sqrt(p) is irrational, so its ceiling is r + 1
            m = r - (y << b + 1) if y * y <= p else (y << b + 1) - r - 1
            want.append(m << (96 - b))
        assert np.array_equal(pts.limbs, xs._limbs(want))

    def test_low_bit_points_keep_their_precision_budget(self):
        with pytest.raises(eq.PrecisionError):
            eq.erdos_turan(eq.doubled_distance_points(1000, 32), 1)
