"""tools/kernel_rate.py: block_fd's and each reduction's ns per index at four sub-block starts."""

import os
import subprocess
import sys
from pathlib import Path

from cannonball import exactseq as xs

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "kernel_rate.py"


def test_four_int64_rows():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--repeat", "1"],
                          env=env, capture_output=True, text=True, check=True)
    title, header, *rows = proc.stdout.splitlines()
    assert title == f"ns per index, SUB_BLOCK = {xs.SUB_BLOCK}"
    assert header.split() == ["start", "block_fd", "sums_k1", "sums_k3", "sums_k7",
                              "bins_L40", "words", "dtype"]
    assert [int(row.split()[0]) for row in rows] == [1, 6 * 10**6, 10**9,
                                                     xs.FD_CAP - xs.SUB_BLOCK + 1]
    for row in rows:
        _, *ns, dtype = row.split()
        assert len(ns) == 6 and all(float(v) > 0 for v in ns) and dtype == "int64"


def test_rejects_zero_repeat():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--repeat", "0"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and "--repeat must be >= 1" in proc.stderr
