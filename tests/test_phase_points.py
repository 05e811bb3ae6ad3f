"""The exact point representation: 96-bit words in three 32-bit limbs.

Every exact point is stored as mantissa << (96 - bits), and every phase
(m * mantissa) mod 2^bits comes from one int64 carry chain over its limbs.
These tests pin that representation: each phase and each point value must
be the correctly rounded float of the exact rational, bit for bit, at every
supported precision and harmonic; FixedFrac points must give the same
results as the table; and a cold table build stays within a per-index
memory budget.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cannonball import equidist as eq
from cannonball import exactseq as xs

BITS = [32, 40, 48, 64, 96]
EDGE_M = [s * m for m in (1, 2**15 - 1, 2**15, 2**20) for s in (1, -1)]
harmonics = st.one_of(st.sampled_from(EDGE_M),
                      st.integers(-eq.MAX_HARMONIC, eq.MAX_HARMONIC))


@st.composite
def mantissa_sets(draw):
    """(bits, mantissas); small mantissas put the point below 2^-10, where
    rounding only the top 64 bits plus a sticky bit is no longer correct."""
    bits = draw(st.sampled_from(BITS))
    mants = draw(st.lists(st.one_of(st.integers(0, 2**bits - 1),
                                    st.integers(0, 2**(bits - 10) - 1),
                                    st.integers(0, 2**(bits - 30) - 1)),
                          min_size=1, max_size=64))
    return bits, mants


def exact_phase(mant, m, bits):
    return float(Fraction((m * mant) % (1 << bits), 1 << bits))


@given(case=mantissa_sets(), m=harmonics)
def test_phase_reduction_is_bit_exact(case, m):
    bits, mants = case
    pts = eq.as_phase_points([xs.FixedFrac(v, bits) for v in mants])
    want_values = np.array([exact_phase(v, 1, bits) for v in mants])
    want = np.array([exact_phase(v, m, bits) for v in mants])
    assert pts.values.tobytes() == want_values.tobytes()
    assert eq._phase_fractions(pts, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", BITS)
def test_table_matches_frac_sqrt(bits):
    n = 5000
    mants = [xs.frac_sqrt(i, bits).mantissa for i in range(1, n + 1)]
    pts = eq.sqrt_frac_points(n, bits)
    for m in (1, -3, 2**15, -(2**20)):
        want = np.array([exact_phase(v, m, bits) for v in mants])
        assert eq._phase_fractions(pts, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", [48, 96])
def test_fixedfrac_points_match_the_table(bits):
    n = 3000
    ffs = [xs.frac_sqrt(i, bits) for i in range(1, n + 1)]
    assert eq.erdos_turan(ffs, 10) == eq.erdos_turan(eq.sqrt_frac_points(n, bits), 10)


def test_mixed_precisions_rejected():
    with pytest.raises(ValueError, match="mixed"):
        eq.erdos_turan([xs.frac_sqrt(5, 64), xs.frac_sqrt(6, 96)], 10)


@pytest.mark.parametrize("bits", [-1, 0, 31, 97])
def test_bits_outside_range_rejected(bits):
    with pytest.raises(ValueError, match="bits"):
        eq.sqrt_frac_points(10, bits)
    with pytest.raises(ValueError, match="bits"):
        eq.as_phase_points([0.5], bits)


def test_fixedfrac_bits_outside_range_rejected():
    with pytest.raises(ValueError, match="bits"):
        eq.as_phase_points([xs.FixedFrac(5, 8)])


def test_cold_build_memory(monkeypatch):
    """The table keeps 32 B per index (limbs and values); the build adds only
    per-sub-block transients."""
    monkeypatch.setattr(eq, "_tables", {})
    n = 60000
    tracemalloc.start()
    try:
        eq.sqrt_frac_points(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * n
