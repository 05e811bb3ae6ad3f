"""The exact point representation: 96-bit words in three 32-bit limbs.

Every exact point is stored as mantissa << (96 - bits), and every phase
(m * mantissa) mod 2^bits comes from one int64 carry chain over its limbs,
which the table stores as uint32.
These tests pin that representation: each phase and each point value must
be the correctly rounded float of the exact rational, bit for bit, at every
supported precision and harmonic; FixedFrac points must give the same
results as the table; uint32 limbs give the same phases as int64 ones;
and a cold table build stays within a per-index memory budget.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
    assert eq._limb_phases(pts.limbs, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", BITS)
def test_table_matches_frac_sqrt(bits):
    n = 5000
    mants = [xs.frac_sqrt(i, bits).mantissa for i in range(1, n + 1)]
    pts = eq.sqrt_frac_points(n, bits)
    for m in (1, -3, 2**15, -(2**20)):
        want = np.array([exact_phase(v, m, bits) for v in mants])
        assert eq._limb_phases(pts.limbs, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("bits", [48, 96])
def test_fixedfrac_points_match_the_table(bits):
    n = 3000
    ffs = [xs.frac_sqrt(i, bits) for i in range(1, n + 1)]
    assert eq.erdos_turan(ffs, 10) == eq.erdos_turan(eq.sqrt_frac_points(n, bits), 10)


def test_erdos_turan_reads_points_at_its_bits():
    """bits caps the precision of every input kind, so the 1e-12 budget follows it."""
    n = 1000
    with pytest.raises(eq.PrecisionError):
        eq.erdos_turan(eq.sqrt_frac_points(n, 32), 10)
    with pytest.raises(eq.PrecisionError):
        eq.erdos_turan(eq.sqrt_frac_points(n), 10, bits=32)
    with pytest.raises(eq.PrecisionError):
        eq.erdos_turan([xs.frac_sqrt(i, 96) for i in range(1, n + 1)], 10, bits=32)
    want = eq.erdos_turan(eq.sqrt_frac_points(n, 48), 10)
    assert eq.erdos_turan(eq.sqrt_frac_points(n), 10, bits=48) == want
    assert eq.erdos_turan([xs.frac_sqrt(i, 96) for i in range(1, n + 1)], 10, bits=48) == want
    # a coarser set keeps its own precision under a finer bits
    assert eq.erdos_turan(eq.sqrt_frac_points(n, 48), 10, bits=96) == want


@pytest.mark.parametrize("bits", [32, 48, 96])
def test_as_phase_points_takes_the_lower_precision(bits):
    pts = eq.sqrt_frac_points(100)
    view = eq.as_phase_points(pts, bits)
    assert view.bits == bits and view.words is pts.words
    assert view.limbs.tobytes() == eq.sqrt_frac_points(100, bits).limbs.tobytes()
    floats = eq.as_phase_points([0.1, 0.7], bits)
    assert floats.bits == bits
    full = eq.as_phase_points([0.1, 0.7])
    assert floats.limbs.tobytes() == eq.PhasePoints(full.words, bits).limbs.tobytes()


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
    """The table keeps 12 B per index (the uint32 limbs); the build adds only
    per-sub-block transients.  doubled_distance_points' words, read off the
    warm table, are uint32 too."""
    monkeypatch.setattr(eq, "_table", np.empty((0, 3), np.int64))
    n = 60000
    peaks = []
    for build in (eq.sqrt_frac_points, eq.doubled_distance_points):
        tracemalloc.start()
        try:
            build(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert eq._table.dtype == np.uint32
    assert eq._table.nbytes == 12 * n
    cold, warm = peaks
    assert cold < 32 * n
    assert warm < 48 * n


_COLD_BUILD = """
import sys, tracemalloc
import numpy as np
from cannonball import equidist as eq
tracemalloc.start()
pts = eq.sqrt_frac_points(int(sys.argv[1]), int(sys.argv[2]))
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(peak, np.shares_memory(pts.words, eq._table))
"""


def test_lower_precision_is_a_view():
    """A cold sqrt_frac_points(n, 48) allocates no more than the 96-bit call:
    every precision is a view of the table, and its readers clear the low
    bits one POINT_BLOCK at a time (a masked copy would add at least 12 B
    per index).

    Each build runs in a fresh interpreter.  In one process the second
    build's peak also carries numpy's shape-buffer refills, since the first
    build's arrays are still alive: tens to hundreds of bytes either way,
    depending on what ran before."""
    n = 60000
    env = dict(os.environ, PYTHONPATH=str(Path(eq.__file__).resolve().parent.parent))
    peaks = {}
    for bits in (96, 48):
        proc = subprocess.run([sys.executable, "-c", _COLD_BUILD, str(n), str(bits)], env=env,
                              capture_output=True, text=True, check=True)
        peak, shared = proc.stdout.split()
        assert shared == "True"
        peaks[bits] = int(peak)
    assert peaks[48] <= peaks[96]


@pytest.mark.parametrize("m", [1, -1, 3, -7, eq.MAX_HARMONIC, -eq.MAX_HARMONIC])
def test_uint32_limbs_widen_in_the_carry_chain(m):
    """m times a uint32 array stays uint32 and wraps (or raises for m < 0), so
    every product of the carry chain must be formed in int64: uint32 limbs
    give the int64 limbs' phases bit for bit, at both ends of the limb range."""
    edge = np.array([0, 1, 2**31 - 1, 2**31, 2**32 - 1], np.int64)
    rows = np.stack(np.meshgrid(edge, edge, edge), -1).reshape(-1, 3)
    rng = np.random.default_rng(29)
    limbs = np.concatenate([rows, rng.integers(0, 1 << 32, (1000, 3), np.int64)])
    want = eq._limb_phases(limbs, m)
    assert eq._limb_phases(limbs.astype(np.uint32), m).tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [(48, 96), (96, 48)])
def test_one_table_every_precision_bit_exact(monkeypatch, order):
    """Each precision is the 96-bit table with its low bits cleared, equal bit
    for bit to frac_sqrt whichever precision built the table first."""
    monkeypatch.setattr(eq, "_table", np.empty((0, 3), np.int64))
    n = 3000
    for bits in (*order, *BITS):
        want = eq._limbs([xs.frac_sqrt(i, bits).mantissa << (96 - bits)
                          for i in range(1, n + 1)])
        pts = eq.sqrt_frac_points(n, bits)
        assert pts.bits == bits
        assert pts.limbs.tobytes() == want.tobytes()


def test_second_precision_builds_no_index(monkeypatch):
    """The table's words come from the (f, d) kernel: count the indices it is asked for."""
    monkeypatch.setattr(eq, "_table", np.empty((0, 3), np.int64))
    built = []
    words = eq._frac_words

    def counting(f, d):
        built.append(len(f))
        return words(f, d)

    monkeypatch.setattr(eq, "_frac_words", counting)
    eq.sqrt_frac_points(2000, 48)
    assert sum(built) == 2000
    for bits in BITS:
        eq.sqrt_frac_points(2000, bits)
        eq.sqrt_frac_points(1500, bits, lo=700)
    assert sum(built) == 2000
    eq.sqrt_frac_points(2500, 40)
    assert sum(built) == 2500


unit_floats = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 2.0 ** -1000, allow_subnormal=True),
    st.integers(1, 2**20).map(lambda k: 1.0 - k * 2.0 ** -53),
    st.floats(2.0 ** -60, 2.0 ** -40))


@given(values=st.lists(unit_floats, min_size=1, max_size=32))
def test_float_points_are_floor_of_2_96_x(values):
    pts = eq.as_phase_points(values)
    assert pts.bits == 96
    want = eq._limbs([math.floor(Fraction(v) * 2**96) for v in values])
    assert pts.limbs.tobytes() == want.tobytes()


@given(values=st.lists(st.floats(2.0 ** -44, 1.0, exclude_max=True), min_size=1, max_size=32))
def test_float_points_keep_their_values(values):
    assert eq.as_phase_points(values).values.tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize("bad", [-0.0 - 2.0 ** -1074, -1.0, 1.0, 1.5, math.inf, -math.inf,
                                 math.nan])
def test_float_points_outside_unit_interval_rejected(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        eq.as_phase_points([0.25, bad])


def test_values_computed_per_block():
    """.values allocates its output plus one POINT_BLOCK of carry-chain
    temporaries; one call over all N points would need several N-long arrays."""
    n = 1 << 19
    rng = np.random.default_rng(3)
    pts = eq.PhasePoints(rng.integers(0, 1 << 32, (n, 3), np.int64), 96)
    tracemalloc.start()
    try:
        values = pts.values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.tobytes() == eq._limb_phases(pts.limbs, 1).tobytes()
    assert peak < 16 * n
