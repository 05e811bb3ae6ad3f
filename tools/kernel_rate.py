"""Print the (f, d) kernel's time per index for one full sub-block at four starts.

    PYTHONPATH=<tree>/src python3 tools/kernel_rate.py [--repeat R]

For each start n in 1, 6e6, 1e9 and FD_CAP - SUB_BLOCK + 1 (the last full
sub-block below the cap), exactseq.block_fd(n, n + SUB_BLOCK - 1) is called
CALLS = 1000 times in a row, R times over; a row gives the median of the R
per-call times in ns per index, and the dtype the kernel returned (int64 on
the vector path, object on the scalar fallback).  It imports the cannonball
found on PYTHONPATH, so the same script measures any checkout of this
repository.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from cannonball import exactseq as xs

STARTS = (1, 6 * 10**6, 10**9, xs.FD_CAP - xs.SUB_BLOCK + 1)
CALLS = 1000  # kernel calls per timed run


def rate(lo: int, repeat: int) -> tuple[float, str]:
    """(median ns per index, returned dtype) of block_fd over one full sub-block at lo."""
    hi = lo + xs.SUB_BLOCK - 1
    dtype = str(xs.block_fd(lo, hi)[0].dtype)  # also warms the call
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(CALLS):
            xs.block_fd(lo, hi)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / CALLS / xs.SUB_BLOCK * 1e9, dtype


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="timed runs per start (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    print(f"{'start':>12} {'ns/index':>9}  dtype")
    for lo in STARTS:
        ns, dtype = rate(lo, args.repeat)
        print(f"{lo:12d} {ns:9.2f}  {dtype}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
