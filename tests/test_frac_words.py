"""The vector 96-bit fractional-part words, exactseq._frac_words.

Every word must equal frac_mantissa(f, d, 96) bit for bit: over pyramidal
blocks from n = 1 to just below FD_CAP, and over constructed (f, d) pairs,
among them pairs whose leftover fraction 2^96 {sqrt(p)} mod 1 lies at the
edge of the fallback band, the perfect squares (d = 0) and the pairs on
either side of the half (d = f, d = f + 1).  The double-word estimate is
checked against its docstring bound with exact rationals, and a counting
frac_mantissa shows that the fallback runs exactly as often as reported.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cannonball import exactseq as xs
from conftest import newton_isqrt

U2 = Fraction(1, 2**106)  # u^2, u = 2^-53


def reference(f, d):
    return xs._limbs([xs.frac_mantissa(a, b, 96) for a, b in zip(f.tolist(), d.tolist())])


def assert_words(f, d):
    words, fallback = xs._frac_words(f, d)
    assert words.dtype == np.int64 and words.shape == (len(f), 3)
    assert 0 <= fallback <= len(f)
    assert words.tobytes() == reference(f, d).tobytes()


KERNEL_F = st.one_of(st.sampled_from([1, 2, 3, 2**26, 2**49, 2**50 - 1]),
                     st.integers(1, 1000), st.integers(1, 2**50 - 1))


@st.composite
def fd_pairs(draw):
    f = draw(KERNEL_F)
    d = draw(st.one_of(st.sampled_from([0, 1, f, f + 1, 2 * f]), st.integers(0, 2 * f)))
    return f, d


def as_arrays(pairs):
    return (np.array([f for f, _ in pairs], np.int64), np.array([d for _, d in pairs], np.int64))


def leftover(f, d, extra=40):
    """2^96 {sqrt(p)} mod 1, truncated to `extra` bits, as an exact Fraction."""
    r = newton_isqrt((f * f + d) << (2 * (96 + extra)))
    return Fraction(r % (1 << extra), 1 << extra)


class TestPyramidalBlocks:
    def test_every_index_to_1e5(self):
        for _, f, d in xs.fd_blocks(1, 10**5):
            assert_words(f, d)

    @settings(max_examples=30)
    @given(base=st.sampled_from([10**9, 3 * 10**9, xs.FD_CAP - 10**6]),
           offset=st.integers(0, 10**6 - xs.SUB_BLOCK), length=st.integers(1, xs.SUB_BLOCK))
    def test_blocks_at_1e9_3e9_and_below_the_cap(self, base, offset, length):
        f, d = xs.block_fd(base + offset, base + offset + length - 1)
        assert f.dtype == np.int64
        assert_words(f, d)

    def test_last_block_below_the_cap(self):
        assert_words(*xs.block_fd(xs.FD_CAP - xs.SUB_BLOCK + 1, xs.FD_CAP))

    @pytest.mark.parametrize("n", [1, 24])
    def test_perfect_squares(self, n):
        f, d = xs.block_fd(n, n)
        assert int(d[0]) == 0
        words, fallback = xs._frac_words(f, d)
        assert words.tolist() == [[0, 0, 0]] and fallback == 1

    def test_object_blocks_past_the_cap_fall_back_whole(self):
        f, d = xs.block_fd(10**12, 10**12 + 99)
        assert f.dtype == object
        words, fallback = xs._frac_words(f, d)
        assert fallback == 100
        assert words.tobytes() == reference(f, d).tobytes()


class TestConstructedPairs:
    @given(pairs=st.lists(fd_pairs(), min_size=1, max_size=64))
    def test_match_frac_mantissa(self, pairs):
        assert_words(*as_arrays(pairs))

    @given(f=KERNEL_F)
    def test_either_side_of_the_half(self, f):
        assert_words(*as_arrays([(f, f), (f, f + 1), (f, 0), (f, 1), (f, 2 * f)]))

    def test_f_past_2_50_falls_back_whole(self):
        f = np.array([2**50, 2**52 + 3], np.int64)
        d = np.array([5, 2**52], np.int64)
        words, fallback = xs._frac_words(f, d)
        assert fallback == 2
        assert words.tobytes() == reference(f, d).tobytes()

    def test_band_edges(self):
        """Pairs whose exact leftover fraction lies within 2^-8 of the band
        edge 2^-7, from either side of an integer, take whichever path
        decides them and still match; both paths are taken."""
        rng = np.random.default_rng(7)
        band = Fraction(xs._WORD_BAND)
        edge = []
        for f in rng.integers(1, 2**50, 40000).tolist():
            d = int(rng.integers(0, 2 * f + 1))
            r = leftover(f, d)
            if abs(min(r, 1 - r) - band) <= band / 2:
                edge.append((f, d))
        assert len(edge) > 100
        f, d = as_arrays(edge)
        _, fallback = xs._frac_words(f, d)
        assert 0 < fallback < len(edge)
        assert_words(f, d)


@given(pairs=st.lists(fd_pairs(), min_size=1, max_size=32))
def test_double_word_estimate_within_its_bound(pairs):
    """|hi + lo - v| <= 16 u^2 |v| for v = a / (y + sqrt(p)), bracketed to 2^-240."""
    f, d = as_arrays(pairs)
    hi, lo = xs._signed_delta(f, d)
    for (fi, di), h, l in zip(pairs, hi.tolist(), lo.tolist()):
        est = Fraction(h) + Fraction(l)
        r = newton_isqrt((fi * fi + di) << 480)  # floor(2^240 sqrt(p))
        y = fi if di <= fi else fi + 1
        lo_v, hi_v = Fraction(r, 2**240) - y, Fraction(r + 1, 2**240) - y
        if di == 0:
            assert est == 0
            continue
        mag = min(abs(lo_v), abs(hi_v))
        assert max(abs(est - lo_v), abs(est - hi_v)) <= 16 * U2 * mag


def test_fallback_count_matches_frac_mantissa_calls(monkeypatch):
    calls = []
    mantissa = xs.frac_mantissa

    def counting(f, d, bits):
        calls.append(bits)
        return mantissa(f, d, bits)

    monkeypatch.setattr(xs, "frac_mantissa", counting)
    reported = n = 0
    for _, f, d in xs.fd_blocks(1, 10**5):
        reported += xs._frac_words(f, d)[1]
        n += len(f)
    assert reported > 0
    assert calls == [96] * reported
    # a leftover fraction spread evenly over [0, 1) falls in the band 2 * 2^-7 of the time
    assert reported < 2 * (2 * xs._WORD_BAND) * n
