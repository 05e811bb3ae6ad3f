"""The integer prefilter of near_half_count on constructed (f, d) pairs.

exactseq._near_half_part keeps only the indices with |d - f| <= f c2 + 2
and runs the exact fixed-point test on those.  Here it must return exactly
what that test gives when run on every pair: pairs built with {sqrt(p)}
just inside and just outside the margins T - 3 to T + 5 ulps either side
of 1/2 (the window edge T, the flag zone T +- 2 and the prefilter's margin
c = (T + 4) / 2^bits), for int64 f up to 2^50 and object f up to 2^200,
at 32, 48 and 96 bits, and every T within 4 of each pair's own mantissa
margin, so the pairs sit on those edges also where the d spacing is far
coarser than 2^-bits.  The thresholds include those of x = 1 and x = 2,
where c >= 1/2 and every index must survive.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cannonball import exactseq as xs

F = st.one_of(st.integers(1, 10**6), st.integers(2**50 - 2**20, 2**50 - 1),
              st.integers(2**63, 2**200))


def threshold(x, bits):
    """near_half_count's T = floor(2^bits x^(-3/4))."""
    return math.isqrt(math.isqrt((1 << (4 * bits)) // (x * x * x)))


def margin_pairs(f, bits, t_int):
    """(f, d) around the margins (t_int + k) / 2^bits, k in -3..5, either side of 1/2.

    Also d = 0, f, f + 1 and 2f: the square, both sides of the half and the top.
    """
    ds = {0, f, f + 1, 2 * f}
    for k in range(-3, 6):
        for mu in (Fraction(t_int + k, 1 << bits), -Fraction(t_int + k, 1 << bits)):
            edge = math.floor((f + Fraction(1, 2) + mu) ** 2) - f * f  # {sqrt(p)} = 1/2 + mu
            ds.update(range(edge - 1, edge + 3))
    return [(f, d) for d in sorted(ds) if 0 <= d <= 2 * f]


def as_arrays(pairs):
    """The pairs' f and d as int64 arrays, or as object arrays past int64 like past FD_CAP."""
    dtype = np.int64 if pairs[0][0] < 2**63 else object
    return np.array([f for f, _ in pairs], dtype), np.array([d for _, d in pairs], dtype)


def reference_part(bits, t_int, pairs):
    """(count, borderline) by the exact fixed-point test on every pair, no prefilter."""
    half = 1 << (bits - 1)
    count = borderline = 0
    for f, d in pairs:
        if d == 0:
            continue  # perfect squares are excluded
        m = abs(xs.frac_mantissa(f, d, bits) - half)
        if abs(m - t_int) <= 2:
            borderline += 1
        elif m < t_int:
            count += 1
    return count, borderline


@pytest.mark.parametrize("bits", [32, 48, 96])
@given(f=F, data=st.data())
def test_prefilter_loses_no_index_near_the_window(bits, f, data):
    t_int = data.draw(st.one_of(st.integers(1, 10**15).map(lambda x: threshold(x, bits)),
                                st.integers(0, 1 << (bits - 1))))
    pairs = margin_pairs(f, bits, t_int)
    half = 1 << (bits - 1)
    own = {abs(xs.frac_mantissa(a, b, bits) - half) for a, b in pairs if b}
    f_arr, d_arr = as_arrays(pairs)
    for t in sorted({t_int} | {m + k for m in own for k in range(-4, 5) if m + k >= 0}):
        assert xs._near_half_part(bits, t, 1, f_arr, d_arr) == reference_part(bits, t, pairs)


@pytest.mark.parametrize("bits", [32, 48, 96])
@pytest.mark.parametrize("x", [1, 2])
@pytest.mark.parametrize("f", [1, 7, 2**50 - 1, 2**200])
def test_every_index_survives_when_c_is_half_or_more(x, bits, f):
    # c = (T + 4) / 2^bits >= 1/2 for x <= 2, and every nonsquare index is in the window
    t_int = threshold(x, bits)
    assert (t_int + 4) * 2 >= 1 << bits
    pairs = [(f, d) for d in sorted({1, 2, f, f + 1, 2 * f - 1, 2 * f}) if 0 < d <= 2 * f]
    f_arr, d_arr = as_arrays(pairs)
    assert xs._near_half_part(bits, t_int, 1, f_arr, d_arr) == (len(pairs), 0)
