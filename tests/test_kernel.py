"""The vector (f, d) kernel and the reductions built on it.

block_fd is checked against a from-scratch math.isqrt of the closed-form
P_n and against the brute-force oracle, at random indices up to the domain
cap and at the edges where the kernel's arithmetic changes: sub-block and
chunk boundaries, the P_n > 2^64 crossing, and the cap itself.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cannonball import equidist as eq
from cannonball import exactseq as xs
from cannonball import moments as mo
from conftest import oracle_term


def reference_fd(lo, hi):
    fs, ds = [], []
    for n in range(lo, hi + 1):
        p = n * (n + 1) * (2 * n + 1) // 6
        f = math.isqrt(p)
        fs.append(f)
        ds.append(p - f * f)
    return fs, ds


def assert_exact(lo, hi):
    f, d = xs.block_fd(lo, hi)
    assert f.dtype == np.int64 and d.dtype == np.int64
    assert (f.tolist(), d.tolist()) == reference_fd(lo, hi)


def first_index_past_2_64():
    n = round((3 * 2.0**64) ** (1 / 3))  # P_n ~ n^3 / 3
    while xs.pyramidal(n) >= 1 << 64:
        n -= 1
    while xs.pyramidal(n) < 1 << 64:
        n += 1
    return n


class TestBlockFd:
    @given(lo=st.integers(1, xs.FD_CAP - 63), length=st.integers(1, 64))
    def test_random_blocks_below_cap(self, lo, length):
        assert_exact(lo, lo + length - 1)

    @given(n=st.integers(1, xs.FD_CAP))
    def test_single_index_matches_oracle(self, n):
        f, d = xs.block_fd(n, n)
        f, d = int(f[0]), int(d[0])
        _, y, a = oracle_term(n)
        assert (f if d <= f else f + 1, min(d, 2 * f + 1 - d)) == (y, a)

    def test_first_block(self):
        assert_exact(1, xs.SUB_BLOCK)

    @pytest.mark.parametrize("edge", [xs.SUB_BLOCK, 3 * xs.SUB_BLOCK, 1 << 16, 7 << 16])
    def test_sub_block_and_chunk_edges(self, edge):
        lo, hi = edge - 40, edge + 40
        seen = []
        for s, f, d in xs.fd_blocks(lo, hi):
            assert len(f) <= xs.SUB_BLOCK
            seen.append((s, f.tolist(), d.tolist()))
        assert [s for s, _, _ in seen] == list(range(lo, hi + 1, xs.SUB_BLOCK))
        fs = [v for _, f, _ in seen for v in f]
        ds = [v for _, _, d in seen for v in d]
        assert (fs, ds) == reference_fd(lo, hi)
        assert_exact(edge - 1, edge + 1)

    def test_crossing_2_64(self):
        n0 = first_index_past_2_64()
        assert 3_700_000 < n0 < 3_900_000
        assert_exact(n0 - 300, n0 + 300)

    @pytest.mark.parametrize("lo", [10**9, 10**9 + 12345, xs.FD_CAP - xs.SUB_BLOCK + 1])
    def test_spot_blocks_up_to_cap(self, lo):
        assert_exact(lo, min(lo + 255, xs.FD_CAP))

    def test_past_cap_takes_scalar_path(self):
        lo = xs.FD_CAP - 5
        f, d = xs.block_fd(lo, lo + 10)
        assert f.dtype == object
        assert (f.tolist(), d.tolist()) == reference_fd(lo, lo + 10)

    def test_failed_check_takes_scalar_path(self, monkeypatch):
        true_sqrt = np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda v: true_sqrt(v) + 3.0)
        f, d = xs.block_fd(1000, 1100)
        assert f.dtype == object
        assert (f.tolist(), d.tolist()) == reference_fd(1000, 1100)

    def test_scan_fd_is_the_reference(self):
        assert xs.scan_fd(3_799_990, 3_800_010) == reference_fd(3_799_990, 3_800_010)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            xs.block_fd(0, 5)
        with pytest.raises(ValueError):
            xs.block_fd(10, 9)


class TestReductionsOnKernel:
    def test_power_sums_past_cap(self):
        lo, hi = 2 * 10**10, 2 * 10**10 + 100
        table = mo.power_sums_at([hi], (1, 2, 3), start_n=lo, init=[0, 0, 0])
        a = [oracle_term(n)[2] for n in range(lo, hi + 1)]
        assert table[hi] == tuple(sum(v ** k for v in a) for k in (1, 2, 3))

    def test_power_sums_across_2_64(self):
        n0 = first_index_past_2_64()
        lo, hi = n0 - 5000, n0 + 5000
        got = mo.power_sums_at([hi], (1, 2), start_n=lo, init=[0, 0], chunk=3000)[hi]
        f, d = reference_fd(lo, hi)
        a = [min(dd, 2 * ff + 1 - dd) for ff, dd in zip(f, d)]
        assert got == (sum(a), sum(v * v for v in a))

    @given(lo=st.integers(1, xs.FD_CAP - 999))
    def test_exceptional_window_is_empty(self, lo):
        f, d = xs.block_fd(lo, lo + 999)
        assert ((2 * d <= 2 * f + 1) == (4 * d < 4 * f + 1)).all()

    def test_exceptional_matches_definition(self):
        x = 3 * xs.SUB_BLOCK + 17
        assert xs.exceptional_indices(x) == [n for n in range(1, x + 1) if xs.in_exceptional(n)]


class TestPartitionInvariance:
    X = 9000
    KS = (1, 2, 3, 7)

    @pytest.fixture(scope="class")
    def reference(self):
        a = [oracle_term(n)[2] for n in range(1, self.X + 1)]
        return tuple(sum(v ** k for v in a) for k in self.KS)

    @settings(max_examples=12)
    @given(chunk=st.integers(1, 3 * xs.SUB_BLOCK), workers=st.sampled_from([1, 2]),
           resume=st.integers(1, X - 1))
    def test_any_chunk_workers_and_resume_point(self, reference, chunk, workers, resume):
        first = mo.power_sums_at([resume], self.KS, workers=workers, chunk=chunk)[resume]
        rest = mo.power_sums_at([self.X], self.KS, workers=workers, chunk=chunk,
                                start_n=resume + 1, init=first)
        assert rest[self.X] == reference

    REDUCTIONS = {
        "histogram": lambda x, **kw: eq.half_distance_histogram(x, 7, **kw).counts,
        "nearhalf": lambda x, **kw: xs.near_half_count(x, 32, **kw),
        "exceptional": lambda x, **kw: xs.exceptional_indices(x, **kw),
        "sandwich": lambda x, **kw: _bracket(mo.sandwich(x, 3, 10, **kw)),
    }

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_every_scan_reduction(self, name):
        reduce = self.REDUCTIONS[name]
        want = reduce(self.X)

        @settings(max_examples=8)
        @given(chunk=st.integers(1, 3 * xs.SUB_BLOCK), workers=st.sampled_from([1, 2]))
        def check(chunk, workers):
            assert reduce(self.X, workers=workers, chunk=chunk) == want

        check()


def _bracket(r):
    return r.lower, r.upper, r.exact


def _span_parts(s, f, d):
    """Sub-block function for the scan tests: an int, a list and an array component."""
    return len(f), [s], np.array([s, 1])


def _plain(total):
    return total[0], total[1], total[2].tolist()


class TestScan:
    def test_progress_at_each_span_end(self):
        seen = []
        total = xs.scan(_span_parts, 100, chunk=30,
                        progress=lambda last, total: seen.append((last, _plain(total))))
        assert _plain(total) == (100, [1, 31, 61, 91], [184, 4])
        assert seen == [(30, (30, [1], [1, 1])), (60, (60, [1, 31], [32, 2])),
                        (90, (90, [1, 31, 61], [93, 3])), (100, _plain(total))]

    def test_resume_from_init(self):
        init = (45, [1, 31], np.array([32, 2]))
        total = xs.scan(_span_parts, 100, chunk=30, start_n=46, init=init)
        assert _plain(total) == (100, [1, 31, 46, 76], [154, 4])
        assert _plain(init) == (45, [1, 31], [32, 2])

    def test_nothing_left_returns_init(self):
        calls = []
        assert xs.scan(_span_parts, 10, start_n=11, init=(7,),
                       progress=lambda *a: calls.append(a)) == (7,)
        assert calls == []

    def test_workers_do_not_change_totals(self):
        serial = xs.scan(_span_parts, 1000, chunk=37)
        pooled = xs.scan(_span_parts, 1000, workers=2, chunk=37)
        assert _plain(serial) == _plain(pooled)

    @pytest.mark.parametrize("hi, chunk, start_n", [(1000, 37, 46),
                                                    (2 * xs.SUB_BLOCK + 100, 5000, 3),
                                                    (10, 100, 10)])
    def test_spans_tile_the_range_and_fold_to_the_scan_total(self, hi, chunk, start_n):
        serial = list(xs.spans(_span_parts, hi, chunk=chunk, start_n=start_n))
        ranges = [r for r, _ in serial]
        assert ranges[0][0] == start_n and ranges[-1][1] == hi
        assert all(b[0] == a[1] + 1 for a, b in zip(ranges, ranges[1:]))
        assert all(0 <= last - first < chunk for first, last in ranges)
        for (first, last), part in serial:
            assert part[:2] == (last - first + 1, list(range(first, last + 1, xs.SUB_BLOCK)))
        pooled = list(xs.spans(_span_parts, hi, workers=2, chunk=chunk, start_n=start_n))
        assert [(r, _plain(p)) for r, p in pooled] == [(r, _plain(p)) for r, p in serial]
        total = serial[0][1]
        for _, part in serial[1:]:
            total = tuple(t + p for t, p in zip(total, part))
        assert _plain(total) == _plain(xs.scan(_span_parts, hi, chunk=chunk, start_n=start_n))

    def test_spans_check_the_range_before_any_span(self):
        with pytest.raises(ValueError, match="invalid range"):
            xs.spans(_span_parts, 4, start_n=5)

    def test_sandwich_is_one_kernel_pass(self, monkeypatch):
        fed = []
        block_fd = xs.block_fd

        def counting(lo, hi):
            fed.append(hi - lo + 1)
            return block_fd(lo, hi)

        monkeypatch.setattr(xs, "block_fd", counting)
        x = 3 * xs.SUB_BLOCK + 17
        mo.sandwich(x, 2, 100, chunk=5000)
        assert sum(fed) == x


class TestSnapshots:
    """power_sums_at scans up to each snapshot point in turn, resuming from the last."""

    def test_snapshot_cuts_spans_at_each_point(self):
        seen = []
        table = mo.power_sums_at([45, 100], (1, 2), chunk=30,
                                 progress=lambda last, sums: seen.append((last, sums)))
        assert table == {45: mo.power_sums(45, (1, 2)), 100: mo.power_sums(100, (1, 2))}
        assert seen == [(last, mo.power_sums(last, (1, 2))) for last in (30, 45, 75, 100)]

    def test_workers_do_not_change_snapshots(self):
        serial = mo.power_sums_at([500, 999], (1, 3), chunk=37)
        pooled = mo.power_sums_at([500, 999], (1, 3), workers=2, chunk=37)
        assert serial == pooled == {x: mo.power_sums(x, (1, 3)) for x in (500, 999)}

    @pytest.mark.parametrize("points, start_n", [((0, 50), 1), ((20, 50), 30), ((29, 50), 30)])
    def test_rejects_points_below_the_resume_index(self, points, start_n):
        with pytest.raises(ValueError, match="snapshot points"):
            mo.power_sums_at(points, (1,), start_n=start_n, init=(0,))


class TestOrderedMap:
    def test_results_in_item_order(self):
        items = list(range(30))
        for workers in (1, 2):
            assert list(xs.ordered_map(abs, [-i for i in items], workers)) == items

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            list(xs.ordered_map(abs, [1, 2], 0))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_items_read_lazily(self, workers):
        """The first result arrives long before a generator of items is
        exhausted, so no list of items is built (the pool reads a bounded
        distance ahead)."""
        drawn = []

        def items(n=10**6):
            for i in range(n):
                drawn.append(i)
                yield -i

        results = xs.ordered_map(abs, items(), workers)
        assert next(results) == 0
        assert len(drawn) < 10**5
        results.close()

    def test_slow_consumer_holds_back_the_items(self):
        """With a consumer slower than the pool, at most POOL_WINDOW tasks per
        process are outstanding: the items drawn stay within that window of
        the results consumed instead of running ahead of them."""
        drawn = []

        def items():
            for i in range(200):
                drawn.append(i)
                yield -i

        ahead = []
        for consumed, result in enumerate(xs.ordered_map(abs, items(), 2), 1):
            assert result == consumed - 1
            ahead.append(len(drawn) - consumed)
            time.sleep(0.002)
        assert max(ahead) < 2 * xs.POOL_WINDOW

    @pytest.mark.parametrize("cpus", [1, None])
    def test_one_cpu_runs_in_process(self, monkeypatch, cpus):
        class NoPool:
            def Pool(self, processes):
                raise AssertionError(f"a pool of {processes} was started")

        monkeypatch.setattr(xs, "get_context", NoPool)
        monkeypatch.setattr(xs.os, "cpu_count", lambda: cpus)
        assert list(xs.ordered_map(abs, [-i for i in range(10)], 4)) == list(range(10))

    def test_single_item_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(xs, "get_context", None)  # any pool would fail
        assert list(xs.ordered_map(abs, iter([-3]), 2)) == [3]
