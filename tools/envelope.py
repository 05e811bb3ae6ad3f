"""Time the headline CLI runs of two source trees in fresh processes.

    python3 tools/envelope.py BASE_DIR

BASE_DIR is another checkout of this repository, for example a `git
archive` of the parent commit.  Each case in CASES runs as
`PYTHONPATH=<tree>/src python3 -m cannonball.cli ARGS --output FILE`, in
PAIRS BASE/HEAD pairs whose order alternates, BASE first in the first
pair; HEAD is the tree that holds this script.  One line per run
gives the wall time, the child's CPU time (user + system) and peak RSS,
both read from os.wait4 on that child alone, and the sha256 of the output
file.  A summary line per case and tree gives the medians and says whether
every hash of the case agrees.  The exit status is 1 if a run fails or the
hashes differ.  This is a measurement, not a gate.

The first line is the parallelism probe to read beside the `--workers 2`
rows: the wall time, interpreter start included, of a 5e6-step Python
loop run alone and of each of two such loops run at once.  Two at once
near the time alone means two usable cores; near twice it, about one.

On Linux a child's peak RSS starts from the RSS of the process that spawned
it, carried over across exec.  This launcher imports nothing but the
standard library (no numpy) and hashes each output in 1 MiB reads, so
what it carries over, about 10 MB, stays below every value it measures.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
CASES = (
    ("discrepancy", "--x", "10000000", "--K", "100"),
    ("discrepancy", "--x", "1000000", "--K", "100"),
    ("weyl", "--x", "1000000", "--m-max", "10"),
    ("knbound", "--x", "1000000", "--m-max", "5"),
    ("moments", "--x", "100000000", "--k", "1", "--workers", "2"),
    ("terms", "--range", "1:1000000", "--workers", "2"),
    # the serial scan rows of the headline table
    ("moments", "--x", "100000000", "--k", "1"),
    ("sandwich", "--x", "10000000", "--k", "2", "--L", "100"),
    ("nearhalf", "--x", "100000000"),
    ("histogram", "--x", "100000000", "--bins", "20"),
    ("histogram", "--x", "4000000", "--bins", "1048576", "--out", "json"),
)
PAIRS = 3
LOOP = "for _ in range(5000000): pass"


def parallelism_probe() -> str:
    """The probe line: LOOP's wall time alone, then of each of two run at once."""
    walls = []
    for width in (1, 2):
        t0 = time.perf_counter()
        pids = [os.posix_spawn(sys.executable, [sys.executable, "-c", LOOP], os.environ)
                for _ in range(width)]
        while pids:
            pids.remove(os.wait()[0])
            walls.append(time.perf_counter() - t0)
    return (f"parallelism probe: {walls[0]:.2f}s alone, "
            f"{walls[1]:.2f}s and {walls[2]:.2f}s two at once")


def sha256(path: Path) -> str:
    """The file's sha256, read 1 MiB at a time, so no output is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run(tree: Path, args: tuple, out: Path) -> tuple[int, float, float, float, str]:
    """(exit code, wall s, CPU s, peak RSS MB, output sha256) of one run in a fresh process."""
    argv = [sys.executable, "-m", "cannonball.cli", *args, "--output", str(out)]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    digest = sha256(out) if out.exists() else "-"
    return (os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, digest)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    trees = {"BASE": Path(argv[1]).resolve(), "HEAD": HEAD}
    runs = {}  # (case, tree name) -> list of run tuples
    failed = False
    print(parallelism_probe(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for pair in range(PAIRS):
            order = ("BASE", "HEAD") if pair % 2 == 0 else ("HEAD", "BASE")
            for case in CASES:
                for name in order:
                    out.unlink(missing_ok=True)
                    code, wall, cpu, rss, digest = run(trees[name], case, out)
                    runs.setdefault((case, name), []).append((wall, cpu, rss, digest))
                    failed |= code != 0
                    print(f"{pair} {name} exit={code} wall={wall:.2f}s cpu={cpu:.2f}s "
                          f"rss={rss:.1f}MB sha256={digest[:16]} {' '.join(case)}", flush=True)
    print("median wall / cpu / peak RSS per case and tree:")
    for case in CASES:
        digests = {r[3] for name in trees for r in runs[case, name]}
        failed |= len(digests) != 1
        for name in trees:
            wall, cpu, rss = (statistics.median(r[i] for r in runs[case, name]) for i in range(3))
            print(f"{name} {wall:.2f}s / {cpu:.2f}s / {rss:.1f}MB "
                  f"{'same' if len(digests) == 1 else 'DIFF'} {' '.join(case)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
