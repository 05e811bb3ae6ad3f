"""block_fd's offset tables over whole sub-blocks, its +-1 step, and its vector path.

P_n comes from per-sub-block offset columns whose largest terms, lo i(i+1)
near i = SUB_BLOCK, wrap mod 2^64; only full sub-blocks reach them.  The
+-1 step runs on the indices the check rejects, and a block that still
fails falls back to the scalar scan_fd, which is exact but about 100x
slower, so the tests here also pin that the fallback does not run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cannonball import exactseq as xs
from test_kernel import assert_exact, first_index_past_2_64, reference_fd


def _full_block_starts():
    # full sub-blocks, and the blocks at the _frac_words slice width across
    # n0 and up to FD_CAP, where the test cuts the sub-block at the cap
    n0 = first_index_past_2_64()
    return [1, 10**9, *(s for w in (xs.SUB_BLOCK, xs._WORD_SLICE)
                        for s in (n0 - w // 2, xs.FD_CAP - w + 1))]


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(1, xs.FD_CAP - xs.SUB_BLOCK + 1),
       length=st.sampled_from([xs.SUB_BLOCK, xs.SUB_BLOCK - 1]))
def test_full_sub_blocks_at_random_starts(lo, length):
    assert_exact(lo, lo + length - 1)


@pytest.mark.parametrize("lo", [1, 10**9])
def test_range_one_past_a_sub_block(lo):
    assert_exact(lo, lo + xs.SUB_BLOCK)


def test_range_of_several_sub_blocks_across_2_64():
    lo = first_index_past_2_64() - xs.SUB_BLOCK - 7
    assert_exact(lo, lo + 3 * xs.SUB_BLOCK + 4)


def test_range_of_several_sub_blocks_across_cap():
    lo, hi = xs.FD_CAP - xs.SUB_BLOCK - 10, xs.FD_CAP + 10
    f, d = xs.block_fd(lo, hi)
    assert f.dtype == object and d.dtype == object
    assert (f.tolist(), d.tolist()) == reference_fd(lo, hi)


@pytest.fixture
def fallbacks(monkeypatch):
    """The (lo, hi) of every scan_fd call block_fd makes."""
    calls = []
    scan_fd = xs.scan_fd

    def counting(lo, hi):
        calls.append((lo, hi))
        return scan_fd(lo, hi)

    monkeypatch.setattr(xs, "scan_fd", counting)
    return calls


@pytest.mark.parametrize("shift", [0.6, -0.6])
@pytest.mark.parametrize("lo", [1, 1000, 10**9])
def test_step_fixes_the_rejected_indices(monkeypatch, fallbacks, lo, shift):
    # a start shifted by 0.6 is one off on about 60% of the indices, and at
    # most one off on all of them: each rejected index needs the step
    true_sqrt = np.sqrt
    monkeypatch.setattr(np, "sqrt", lambda v: true_sqrt(v) + shift)
    assert_exact(lo, lo + xs.SUB_BLOCK - 1)
    assert fallbacks == []


@pytest.mark.parametrize("lo", _full_block_starts())
def test_full_sub_blocks_take_no_fallback(fallbacks, lo):
    assert_exact(lo, min(lo + xs.SUB_BLOCK - 1, xs.FD_CAP))
    assert fallbacks == []


def test_fallback_is_counted_past_cap(fallbacks):
    xs.block_fd(xs.FD_CAP - 5, xs.FD_CAP + 5)
    assert fallbacks == [(xs.FD_CAP - 5, xs.FD_CAP + 5)]
