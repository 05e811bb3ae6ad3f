"""The certified distance estimate and the reductions built on it.

distance_bins is checked against the exact isqrt(L^2 p) bin formula on
constructed (f, d) pairs, not only pyramidal ones: any 0 <= d <= 2f, in
int64 and in object arrays, for L from 2 to 2^20, and pairs built to land
just above or just below a bin edge s/L, where the float estimate cannot
decide and the exact fallback must run.  near_half_count is checked against
the exact fixed-point test run on every index without the prefilter.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cannonball import exactseq as xs
from conftest import newton_isqrt

INT64_F = st.one_of(st.integers(1, 1000), st.integers(1, 2**61))
OBJECT_F = st.integers(2**63, 2**200)
BIN_COUNTS = st.one_of(st.sampled_from([2, 3, 4, 1000, 2**20]), st.integers(2, 2**20))


def reference_bin(f, d, L):
    """floor(L |sqrt(p) - y|) + 1 from r = floor(L sqrt(p)), all in integers."""
    r = newton_isqrt(L * L * (f * f + d))
    return r - L * f + 1 if d <= f else L * (f + 1) - r


def pairs(fs):
    return st.lists(fs.flatmap(lambda f: st.tuples(st.just(f), st.integers(0, 2 * f))),
                    min_size=1, max_size=40)


def as_arrays(ps, dtype):
    return np.array([f for f, _ in ps], dtype), np.array([d for _, d in ps], dtype)


def edge_pairs(f, L, s):
    """(f, d) with sqrt(p) just below and just above the edge f + s/L."""
    c2, l2 = (L * f + s) ** 2, L * L
    out = []
    for p in (c2 // l2, c2 // l2 + 1):  # c/L is not an integer, so neither p is c^2/L^2
        g = newton_isqrt(p)
        out.append((g, p - g * g))
    return out


class CountingFallback:
    """Wraps exactseq._exact_bin and records the (f, d) pairs it decides."""

    def __init__(self):
        self.seen = []
        self.exact = xs._exact_bin

    def __call__(self, f, d, L):
        self.seen.append((f, d))
        return self.exact(f, d, L)


class TestDistanceBins:
    @given(ps=pairs(INT64_F), L=BIN_COUNTS)
    def test_int64_pairs_match_exact_formula(self, ps, L):
        f, d = as_arrays(ps, np.int64)
        got = xs.distance_bins(f, d, L)
        assert got.dtype == np.int64
        assert got.tolist() == [reference_bin(a, b, L) for a, b in ps]

    @given(ps=pairs(OBJECT_F), L=BIN_COUNTS)
    def test_object_pairs_match_exact_formula(self, ps, L):
        f, d = as_arrays(ps, object)
        assert xs.distance_bins(f, d, L).tolist() == [reference_bin(a, b, L) for a, b in ps]

    @given(f=st.one_of(st.integers(2**58, 2**61), OBJECT_F), L=BIN_COUNTS, data=st.data())
    def test_edges_take_the_fallback(self, f, L, data):
        # with f >= 2^58, L sqrt(p) lies within L/(2f) <= 2^-59 L of the edge,
        # so even with the estimate's 6.6u L error (u = 2^-53) the computed
        # value is inside the tolerance 2^-50 L: only the fallback can decide
        s = data.draw(st.integers(1, L - 1))
        ps = edge_pairs(f, L, s)
        counter = CountingFallback()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xs, "_exact_bin", counter)
            got = xs.distance_bins(*as_arrays(ps, object if f >= 2**61 else np.int64), L)
        assert got.tolist() == [reference_bin(a, b, L) for a, b in ps]
        assert counter.seen == ps
        below, above = got.tolist()
        if 2 * s < L:   # delta = sqrt(p) - f crosses s/L upwards
            assert (below, above) == (s, s + 1)
        elif 2 * s > L:  # delta = f + 1 - sqrt(p) crosses (L - s)/L downwards
            assert (below, above) == (L - s + 1, L - s)

    # int64 pairs where the float L delta, at L = 2^21, lies 2u L from an
    # integer on the wrong side of the edge, found among 3e5 near-edge
    # candidates with f near 2^61: a tolerance of u L would keep their
    # wrong float bin, 2^-50 L sends them to the fallback.  None of the
    # candidates lands farther than 2u L, so no pair here pins 2^-52 L.
    WRONG_SIDE = [(2522822159132528389, 4732555547980332494),
                  (1272283337959504776, 2436780480121762003),
                  (1193868511787658604, 2351484079312020282),
                  (1290635234450135656, 2533935836778947854)]

    def test_wrong_side_pairs_take_the_fallback(self):
        L = 2**21
        counter = CountingFallback()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xs, "_exact_bin", counter)
            got = xs.distance_bins(*as_arrays(self.WRONG_SIDE, np.int64), L)
        assert got.tolist() == [xs._exact_bin(f, d, L) for f, d in self.WRONG_SIDE]
        assert counter.seen == self.WRONG_SIDE

    def test_squares_take_the_fallback_into_bin_1(self):
        f = np.array([1, 5, 2**40, 2**61], np.int64)
        counter = CountingFallback()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(xs, "_exact_bin", counter)
            got = xs.distance_bins(f, np.zeros_like(f), 10)
        assert got.tolist() == [1, 1, 1, 1]
        assert len(counter.seen) == 4

    @pytest.mark.parametrize("L", [2, 4, 100, 997 * 2, 2**20])
    @pytest.mark.parametrize("lo, dtype", [(xs.FD_CAP - 300, np.int64), (10**12, object)])
    def test_kernel_and_object_blocks(self, lo, dtype, L):
        f, d = xs.block_fd(lo, lo + 300)
        assert f.dtype == dtype
        got = xs.distance_bins(f, d, L)
        assert got.tolist() == [reference_bin(a, b, L) for a, b in zip(f.tolist(), d.tolist())]


def reference_near_half(x, bits):
    """near_half_count by the exact fixed-point test on every index, no prefilter."""
    t_int = math.isqrt(math.isqrt((1 << (4 * bits)) // (x * x * x)))
    half = 1 << (bits - 1)
    count = borderline = 0
    for n in range(1, x + 1):
        p = xs.pyramidal(n)
        f = math.isqrt(p)
        if p == f * f:
            continue  # perfect squares are excluded
        m = abs(xs.frac_mantissa(f, p - f * f, bits) - half)
        if abs(m - t_int) <= 2:
            borderline += 1
        elif m < t_int:
            count += 1
    return count, borderline


@pytest.mark.parametrize("bits", [32, 48, 64, 65, 96])
def test_near_half_object_blocks_match_kernel_blocks(bits):
    # past FD_CAP sub-blocks are object arrays of Python ints
    x = 3000
    t_int = math.isqrt(math.isqrt((1 << (4 * bits)) // (x * x * x)))
    f, d = xs.block_fd(1, x)
    want = xs._near_half_part(bits, t_int, 1, f, d)
    assert want[0] > 0
    assert xs._near_half_part(bits, t_int, 1, f.astype(object), d.astype(object)) == want


@pytest.mark.parametrize("bits", [32, 48, 96])
@pytest.mark.parametrize("x", [1, 24, xs.SUB_BLOCK + 1, 47_109])
def test_near_half_count_matches_scalar_reference(x, bits):
    # at 32 bits and x = 47109 the mantissa margin of n = 24108 is T - 1,
    # inside the flag zone, so a prefilter margin that is too tight shows
    want = reference_near_half(x, bits)
    assert xs.near_half_count(x, bits) == want
    if (x, bits) == (47_109, 32):
        assert want[1] == 1
