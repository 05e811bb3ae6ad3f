"""Compare the CLI output bytes of two source trees over a fixed matrix of commands.

    python3 tools/cli_bytes.py BASE_DIR

BASE_DIR is another checkout of this repository, for example a `git
worktree` or `git archive` of the parent commit.  Each case in CASES runs
as `PYTHONPATH=<tree>/src python3 -m cannonball.cli ARGS --output FILE`,
once in BASE_DIR and once in the tree that holds this script.  One line
per case reads `same` or `DIFF`, followed by the arguments; a case counts
as the same when both runs give the same exit status, write the same
bytes and print the same stderr, so the error cases gate their messages
too.  The exit status is 1 if any case is not the same.  Standard library
only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
XS = (1000, 150000, 500000)
MODES = ((), ("--workers", "2", "--chunk", "4096"), ("--workers", "2", "--chunk", "10007"))
COMMANDS = (
    ("sandwich", "--k", "1", "--L", "2"),
    ("sandwich", "--k", "2", "--L", "100"),
    ("sandwich", "--k", "5", "--L", "1000"),
    ("histogram", "--bins", "20"),
    ("histogram", "--bins", "997"),
    ("nearhalf", "--bits", "32"),
    ("nearhalf", "--bits", "48"),
    ("nearhalf", "--bits", "96"),
    ("exceptional",),
    ("moments", "--k", "1"),
    ("moments", "--k", "2"),
    ("moments", "--k", "3"),
    ("moments", "--k", "7"),
)
CASES = [(*command, "--x", str(x), *mode) for command in COMMANDS for x in XS for mode in MODES]
CASES += [("average", "--x", str(x)) for x in XS]
# fit scans up to each snapshot point in turn; the pooled cases' chunks straddle them
CASES += [
    ("fit", "--k", "2", "--xs", "1000,10000,100000,1000000"),
    ("fit", "--k", "2", "--xs", "1000,10000,100000,1000000", "--workers", "2", "--chunk", "4096"),
    ("fit", "--k", "3", "--xs", "1000,5000,70000,300000", "--workers", "2", "--chunk", "10007"),
    ("sandwich", "--x", "20000", "--k", "1", "--L", "2097152"),
    ("sandwich", "--x", "20000", "--k", "2", "--L", "2097152"),
    ("sandwich", "--x", "20000", "--k", "3", "--L", "2097152"),
    ("histogram", "--x", "100000", "--bins", "1048576"),
]
# the residue power sums across n = 3810778, where P_n passes 2^64: of the
# moments, and of the sandwich numerators
CASES += [("moments", "--x", "4000000", "--k", k) for k in ("2", "3", "4", "12")]
CASES += [("sandwich", "--x", "4000000", "--k", k, "--L", "100") for k in ("3", "12")]
# discrepancy, weyl and knbound: the fixed-point points at several precisions,
# with and without the Erdos-Turan bound, and anchors past |m| = 32767
CASES += [("discrepancy", "--x", str(x), *k, "--bits", bits)
          for x in (1000, 150000) for k in ((), ("--K", "100")) for bits in ("96", "48")]
CASES += [("discrepancy", "--x", "1000", "--K", "40000")]
# the word table at the headline size, built through the double-word kernel
CASES += [("discrepancy", "--x", "1000000", "--K", "100")]
# the lowest precisions that print at these harmonic counts (|m| 2^-bits < 1e-12),
# and a knbound whose second anchor run starts at m = 65
CASES += [("weyl", "--x", "150000", "--m-max", "20", "--bits", bits) for bits in ("96", "45")]
CASES += [("knbound", "--x", "150000", "--m-max", "5", "--bits", bits)
          for bits in ("96", "64", "43")]
CASES += [("knbound", "--x", "150000", "--m-max", "70")]
# the anchor-run edges: one full run of ANCHOR = 64, then a last run of one harmonic
CASES += [("weyl", "--x", "150000", "--m-max", m_max) for m_max in ("64", "65", "129")]
# terms: both formats, shifted starts, a pool whose spans cut sub-blocks, the
# index where P_n passes 2^64 (n = 3810778) and ranges straddling FD_CAP = 1e10
CASES += [
    ("terms", "--range", "1:150000"),
    ("terms", "--range", "1:150000", "--out", "json"),
    ("terms", "--range", "251:50250", "--out", "json"),
    ("terms", "--range", "751:150750"),
    ("terms", "--range", "751:150750", "--workers", "2", "--chunk", "4097"),
    ("terms", "--range", "3809000:3812000", "--out", "json"),
    ("terms", "--range", "9999999000:10000001000", "--workers", "2", "--chunk", "4097"),
    ("terms", "--range", "9999999990:10000000010", "--out", "json", "--chunk", "7"),
]
# terms across n = 310723, where P_n passes 10^16 (a pool span cuts it), and
# across n = 3024617, where P_n passes 2^63
CASES += [
    ("terms", "--range", "300000:320000"),
    ("terms", "--range", "300000:320000", "--out", "json"),
    ("terms", "--range", "300000:320000", "--workers", "2", "--chunk", "4097"),
    ("terms", "--range", "300000:320000", "--out", "json", "--workers", "2", "--chunk", "4097"),
    ("terms", "--range", "3020000:3030000"),
    ("terms", "--range", "3020000:3030000", "--out", "json"),
]
# terms' JSON framing: one row, a last span of one row, every span one row,
# exactly one sub-block, and object rows past FD_CAP first
CASES += [
    ("terms", "--range", "24:24"),
    ("terms", "--range", "24:24", "--out", "json"),
    ("terms", "--range", "1:4097", "--out", "json", "--workers", "2", "--chunk", "4096"),
    ("terms", "--range", "1:9", "--out", "json", "--workers", "2", "--chunk", "1"),
    ("terms", "--range", "1:1", "--out", "json"),
    ("terms", "--range", "1:4096", "--out", "json"),
    ("terms", "--range", "4096:4097", "--out", "json", "--chunk", "1"),
    ("terms", "--range", "10000000000:10000000001", "--out", "json"),
]
# terms where block_fd's +-1 step fires on most sub-blocks: near n = 1e9, and
# the last indices below FD_CAP = 1e10
CASES += [
    ("terms", "--range", "999990000:1000010000"),
    ("terms", "--range", "999990000:1000010000", "--workers", "2", "--chunk", "4097"),
    ("terms", "--range", "9999980000:10000000000", "--out", "json"),
]
# nearhalf where index 24108 lies in the flag zone (borderline 1), and at
# x = 1 and 2, where the prefilter's margin c is at least 1/2 and every index survives
CASES += [("nearhalf", "--x", "47109", "--bits", "32"), ("nearhalf", "--x", "1"),
          ("nearhalf", "--x", "2")]
# the benchmark's two pool shapes, at the default chunk
CASES += [("moments", "--x", "2000000", "--k", "1", "--workers", "2"),
          ("terms", "--range", "751:150750", "--workers", "2")]
# every dict-row command in JSON, and optimize, whose one JSON row holds nested objects
CASES += [(*command, "--x", "150000", "--out", "json") for command in (
    ("moments", "--k", "3"), ("average",), ("sandwich", "--k", "2", "--L", "100"),
    ("discrepancy",), ("discrepancy", "--K", "100"), ("weyl", "--m-max", "20"),
    ("knbound", "--m-max", "5"), ("exceptional",), ("nearhalf",), ("histogram", "--bins", "997"))]
CASES += [
    ("fit", "--k", "2", "--xs", "1000,10000,100000", "--out", "json"),
    ("optimize", "--preset", "moment-residual", "--k", "3"),
    ("optimize", "--expr", "F=x:5/2,K:-1/2;G=x:19/8,K:1/4", "--var", "K"),
]
# dict rows past 4096 rows, one rendered block while SUB_BLOCK was 4096, in both formats
CASES += [
    ("knbound", "--x", "20000", "--m-max", "4097", "--out", "json"),
    ("knbound", "--x", "20000", "--m-max", "4097"),
    ("weyl", "--x", "20000", "--m-max", "4097"),
    ("weyl", "--x", "20000", "--m-max", "4097", "--out", "json"),
    ("histogram", "--x", "100000", "--bins", "8193"),
    ("histogram", "--x", "100000", "--bins", "8193", "--out", "json"),
    ("histogram", "--x", "100000", "--bins", "1048576", "--out", "json"),
]
# the same edges at SUB_BLOCK = 8192: terms across one sub-block, and dict
# rows past one rendered block (weyl, knbound) and past two (histogram)
CASES += [
    ("terms", "--range", "8000:8400"),
    ("terms", "--range", "8000:8400", "--out", "json"),
    ("terms", "--range", "1:8193", "--out", "json", "--workers", "2", "--chunk", "8192"),
    ("terms", "--range", "8192:8193", "--out", "json", "--chunk", "1"),
    ("terms", "--range", "8192:8193"),
    ("weyl", "--x", "20000", "--m-max", "8193"),
    ("weyl", "--x", "20000", "--m-max", "8193", "--out", "json"),
    ("knbound", "--x", "20000", "--m-max", "8193"),
    ("knbound", "--x", "20000", "--m-max", "8193", "--out", "json"),
    ("histogram", "--x", "100000", "--bins", "16385"),
    ("histogram", "--x", "100000", "--bins", "16385", "--out", "json"),
]
# 2^20 dict rows drawn from a scan of 4e6 indices, in both formats
CASES += [("histogram", "--x", "4000000", "--bins", "1048576", *out)
          for out in ((), ("--out", "json"))]

# bad input: one case per form of error message, each exit 2 with no output
CASES += [
    ("moments", "--x", "0"),
    ("weyl", "--x", "10", "--m-max", "0"),
    ("knbound", "--x", "1"),
    ("discrepancy", "--x", "10", "--K", "0"),
    ("fit", "--xs", "1,,3"),
    ("terms", "--range", "5:4"),
]

# the parser's own refusals: a bad value per command, whose message opens with
# the command's usage line and so pins the order of its flags; an unknown
# flag per command; prefixes refused (optimize), accepted and ambiguous; and
# flags of another command
CASES += [(command, "--x", "ten") for command in (
    "moments", "average", "sandwich", "discrepancy", "weyl", "knbound", "exceptional",
    "nearhalf", "histogram")]
CASES += [("terms", "--range", "ten"), ("optimize", "--k", "ten"), ("fit", "--k", "ten")]
CASES += [(*args, "--bogus") for args in (
    ("terms", "--range", "1:2"), ("moments", "--x", "10"), ("average", "--x", "10"),
    ("sandwich", "--x", "10", "--L", "2"), ("discrepancy", "--x", "10"), ("weyl", "--x", "10"),
    ("knbound", "--x", "10"), ("exceptional", "--x", "10"), ("nearhalf", "--x", "10"),
    ("histogram", "--x", "10"), ("optimize",), ("fit", "--xs", "10"))]
CASES += [
    ("optimize", "--preset", "moment-residual", "--out", "json"),
    ("moments", "--x", "1000", "--k", "1", "--wo", "2", "--chu", "4096"),
    ("moments", "--x", "1000", "--chec", "c.json"),
    ("sandwich", "--x", "1000", "--k", "1", "--L", "4", "--checkpoint", "c.json"),
    ("terms", "--range", "1:2", "--x", "5"),
    ("discrepancy", "--x", "10", "--workers", "2"),
]


def run_case(tree: Path, args, out: Path) -> tuple[int, bytes, bytes]:
    """(exit status, bytes written, stderr) of one CLI run from tree's src/."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "cannonball.cli", *args, "--output", str(out)],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return proc.returncode, out.read_bytes() if out.exists() else b"", proc.stderr


def main(argv=None, cases=CASES) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/cli_bytes.py BASE_DIR", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, args in enumerate(cases):
            same = (run_case(base, args, Path(tmp, f"base{i}"))
                    == run_case(HEAD, args, Path(tmp, f"head{i}")))
            differ += not same
            print(f"{'same' if same else 'DIFF'}  {' '.join(args)}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
