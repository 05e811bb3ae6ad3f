"""Print the time per index of the (f, d) kernel and of each reduction on one full sub-block.

    PYTHONPATH=<tree>/src python3 tools/kernel_rate.py [--repeat R]

For each start n in 1, 6e6, 1e9 and FD_CAP - SUB_BLOCK + 1 (the last full
sub-block below the cap), (f, d) = exactseq.block_fd(n, n + SUB_BLOCK - 1)
is timed, and so is each reduction of that same (f, d) sub-block: the
power sums moments._power_sums_part at k = 1, 3 and 7, the distance bins
exactseq.distance_bins at L = 40, and the 96-bit fractional-part words
exactseq._frac_words.  Each layer is called CALLS times in a row (a tenth
of that for the reductions, which cost more per call), R times over; a
row gives, per layer, the median of the R per-call times in ns per index,
and the dtype the kernel returned (int64 on the vector path, object on the
scalar fallback).  It imports the cannonball found on PYTHONPATH, so the
same script measures any checkout of this repository, at its own
SUB_BLOCK.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from functools import partial

from cannonball import exactseq as xs
from cannonball import moments as mo

STARTS = (1, 6 * 10**6, 10**9, xs.FD_CAP - xs.SUB_BLOCK + 1)
CALLS = 1000  # kernel calls per timed run; the reductions make CALLS // 10
LAYERS = ("block_fd", "sums_k1", "sums_k3", "sums_k7", "bins_L40", "words")


def per_index(fn, calls: int, repeat: int) -> float:
    """Median over `repeat` timed runs of `calls` calls of fn, in ns per sub-block index."""
    fn()  # warms the call (and the CRT tables a power sum reads)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / calls / xs.SUB_BLOCK * 1e9


def rates(lo: int, repeat: int) -> tuple[list[float], str]:
    """(ns per index of each of LAYERS, the kernel's dtype) on the full sub-block at lo."""
    hi = lo + xs.SUB_BLOCK - 1
    f, d = xs.block_fd(lo, hi)
    reductions = [partial(mo._power_sums_part, (k,), lo, f, d) for k in (1, 3, 7)]
    reductions += [partial(xs.distance_bins, f, d, 40), partial(xs._frac_words, f, d)]
    ns = [per_index(partial(xs.block_fd, lo, hi), CALLS, repeat)]
    ns += [per_index(fn, CALLS // 10, repeat) for fn in reductions]
    return ns, str(f.dtype)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed runs per layer (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    print(f"ns per index, SUB_BLOCK = {xs.SUB_BLOCK}")
    print(f"{'start':>12}" + "".join(f" {name:>9}" for name in LAYERS) + "  dtype")
    for lo in STARTS:
        ns, dtype = rates(lo, args.repeat)
        print(f"{lo:12d}" + "".join(f" {v:9.2f}" for v in ns) + f"  {dtype}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
