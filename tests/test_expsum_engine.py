"""Differential tests of the blocked exponential-sum engine.

equidist._harmonic_sums is compared, harmonic by harmonic, with the scalar
big-int oracle brute_exp_sum and with a direct evaluation of each harmonic
over the whole point set.  A comparison allows the engine's declared bound
plus the reference's own error bound (reference_error), so a harmonic that
leaves its bound fails.  Where the scalar oracle would be too slow to reach
a block edge, the point block is shrunk to a few points.
"""

import cmath
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cannonball import equidist as eq
from conftest import brute_exp_sum

U = 2.0 ** -53
# One direct e(phase) in either reference: phase to float, the angle
# 2*pi*phase and exp/cos/sin, each within the budget the engine states.
EVAL_ERR = 21 * U

harmonics = st.one_of(st.integers(-300, 300), st.integers(32700, 32800),
                      st.integers(-32800, -32700))
counts = st.sampled_from([1, 2, 63, 64, 65, 129])  # around the ANCHOR = 64 edges
blocks = st.integers(1, 16)


def reference_error(n, m, delta, depth):
    """Bound on |reference - exact sum|: each term's direct evaluation and
    point truncation delta, plus `depth` additions on every term."""
    per_term = EVAL_ERR + 2 * math.pi * abs(m) * delta
    gamma = depth * U / (1 - depth * U)
    return n * per_term + gamma * n * (1 + per_term)


def pairwise_depth(n):
    """numpy's pairwise sum: leaves of <= 128 terms under a binary tree."""
    return 127 + math.ceil(math.log2(max(n / 128, 1)))


def direct_sum(pts, m):
    return complex(np.exp(2j * np.pi * eq._limb_phases(pts.limbs, m)).sum())


def engine(pts, ms, block=None):
    """The engine over the harmonic range ms, optionally with a shrunk point block."""
    if block is None:
        return eq._harmonic_sums(pts, ms.start, len(ms))
    with mock.patch.object(eq, "POINT_BLOCK", block):
        return eq._harmonic_sums(pts, ms.start, len(ms))


def assert_within(got, bounds, refs, ref_errs):
    assert len(got) == len(bounds) == len(refs)
    for j, (g, b, r, e) in enumerate(zip(got.tolist(), bounds.tolist(), refs, ref_errs)):
        assert abs(g - r) <= b + e, (j, abs(g - r), b, e)


class TestAgainstScalarOracle:
    @given(lo=st.integers(1, 10**5), n=st.integers(1, 40), block=blocks,
           a=harmonics, count=counts, bits=st.sampled_from([96, 48]))
    def test_exact_points(self, lo, n, block, a, count, bits):
        hi = lo + n - 1
        ms = range(a, a + count)
        got, bounds = engine(eq.sqrt_frac_points(hi, bits, lo=lo), ms, block)
        refs = [brute_exp_sum(lo, hi, m, bits) for m in ms]
        errs = [reference_error(n, m, 2.0 ** -bits, n) for m in ms]
        assert_within(got, bounds, refs, errs)

    @given(values=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40),
           block=blocks, a=harmonics, count=counts)
    def test_float_points(self, values, block, a, count):
        ms = range(a, a + count)
        got, bounds = engine(eq.as_phase_points(values), ms, block)
        refs = []
        for m in ms:  # m*x mod 1 reduced exactly, then rounded once
            refs.append(sum(cmath.exp(2j * math.pi * float(Fraction(v) * m % 1))
                            for v in values))
        errs = [reference_error(len(values), m, 0.0, len(values)) for m in ms]
        assert_within(got, bounds, refs, errs)


class TestAgainstDirectEvaluation:
    @pytest.mark.parametrize("offset", [-1, 0, 1, eq.POINT_BLOCK + 1])
    def test_default_block_edges(self, offset):
        n = eq.POINT_BLOCK + offset
        pts = eq.sqrt_frac_points(n)
        ms = range(1, 2 * eq.ANCHOR + 2)
        got, bounds = engine(pts, ms)
        refs = [direct_sum(pts, m) for m in ms]
        errs = [reference_error(n, m, 2.0 ** -96, pairwise_depth(n)) for m in ms]
        assert_within(got, bounds, refs, errs)

    @given(n=st.integers(1, 1500), block=st.integers(1, 512), a=harmonics, count=counts)
    def test_random_blocks(self, n, block, a, count):
        pts = eq.sqrt_frac_points(n)
        ms = range(a, a + count)
        got, bounds = engine(pts, ms, block)
        refs = [direct_sum(pts, m) for m in ms]
        errs = [reference_error(n, m, 2.0 ** -96, pairwise_depth(n)) for m in ms]
        assert_within(got, bounds, refs, errs)


class TestCallers:
    def test_exp_sum_is_one_anchor(self):
        for m in (1, -7, 40000):
            s = eq.exp_sum(3, 5000, m)
            got, bounds = eq._harmonic_sums(eq.sqrt_frac_points(5000, lo=3), m, 1)
            assert (s.re, s.im, s.modulus_err) == (got[0].real, got[0].imag, bounds[0])

    def test_weyl_profile_reads_the_engine(self):
        got, _ = eq._harmonic_sums(eq.sqrt_frac_points(4000), 1, 8)
        assert eq.weyl_profile(4000, 8) == [(m, abs(s) / 4000)
                                            for m, s in enumerate(got.tolist(), 1)]

    def test_slack_negligible_at_benchmark_size(self):
        r = eq.erdos_turan(eq.sqrt_frac_points(5 * 10**5), 100)
        assert 0 < r.slack < 1e-6 * r.et_bound
        assert r.d_unnormalized <= r.et_bound + r.slack

    def test_exp_sum_attaches_the_kn_bound(self):
        s = eq.exp_sum(3, 5000, -7, attach_bound=True)
        assert s.kn_bound == eq.kn_bound(3, 5000, 7) == 9358.932728925223
        assert eq.exp_sum(5, 5, 3, attach_bound=True).kn_bound is None

    def test_harmonic_count_cap(self):
        with pytest.raises(ValueError, match="cap"):
            eq.erdos_turan([0.25, 0.5], eq.MAX_HARMONIC + 1)
        with pytest.raises(ValueError, match="cap"):
            eq.weyl_profile(10, eq.MAX_HARMONIC + 1)
        for m in (eq.MAX_HARMONIC + 1, -eq.MAX_HARMONIC - 1):
            with pytest.raises(ValueError, match="cap"):
                eq.exp_sum(1, 10, m)

    def test_exp_sum_at_the_cap(self):
        for m in (eq.MAX_HARMONIC, -eq.MAX_HARMONIC):
            s = eq.exp_sum(2, 60, m)
            err = s.modulus_err + reference_error(59, m, 2.0 ** -96, 59)
            assert abs(complex(s.re, s.im) - brute_exp_sum(2, 60, m)) <= err


@pytest.mark.parametrize("rows", [1, 2, 64])
def test_row_sums_equal_per_row_sums(rows):
    """Z.sum(axis=1) adds each row of a C-contiguous complex128 array the
    way z.sum() adds that row alone, bit for bit, at lengths around numpy's
    128-term pairwise leaves and POINT_BLOCK: summing several harmonics'
    rotations in one call would leave every sum and bound unchanged."""
    rng = np.random.default_rng(rows)
    for n in (1, 127, 128, 129, 257, eq.POINT_BLOCK, eq.POINT_BLOCK + 1):
        z = np.exp(2j * np.pi * rng.random((rows, n)))
        assert z.flags.c_contiguous and z.dtype == np.complex128
        each = np.array([z[r].sum() for r in range(rows)])
        assert z.sum(axis=1).tobytes() == each.tobytes(), n


def test_memory_bounded_by_block():
    """No temporary grows with N: peak allocation stays a few blocks."""
    block, n = 1024, 60000
    pts = eq.sqrt_frac_points(n)
    tracemalloc.start()
    try:
        engine(pts, range(1, 70), block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * block * 16 < n * 16  # complex128 is 16 bytes


def scalar_bounds(n, bits, first, count, block):
    """The engine's docstring bound, harmonic by harmonic in Python floats:
    at distance r from the anchor a, rho^r (E_0 + r c) per term plus the
    summation's gamma_h N (1 + per term)."""
    s5u = math.sqrt(5.0) * U
    delta = 2.0 ** -bits
    eps_w = eq._EVAL_ERR + 2 * math.pi * delta
    rho = (1 + eps_w) * (1 + s5u)
    c = eps_w * (1 + s5u) + s5u
    h = 127 + math.ceil(math.log2(max(block / 128, 1))) + -(-n // block) + 2
    gamma = h * U / (1 - h * U)
    out = []
    for i in range(count):
        r = i % eq.ANCHOR
        e0 = eq._EVAL_ERR + 2 * math.pi * abs(first + i - r) * delta
        per_term = rho ** r * (e0 + r * c)
        out.append(n * per_term + gamma * n * (1 + per_term))
    return out


@pytest.mark.parametrize("first, count", [(1, 1), (1, 63), (1, 64), (1, 65), (1, 129),
                                          (-7, 1), (-7, 129), (40000, 1), (40000, 65)])
@pytest.mark.parametrize("bits, block", [(96, None), (45, 16)])
def test_bounds_equal_scalar_evaluation(first, count, bits, block):
    """The array expression for the bounds gives the scalar bounds bit for bit."""
    pts = eq.sqrt_frac_points(300, bits)
    _, bounds = engine(pts, range(first, first + count), block)
    want = scalar_bounds(300, bits, first, count, block or eq.POINT_BLOCK)
    assert bounds.tobytes() == np.array(want).tobytes()
