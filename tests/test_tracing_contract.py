"""perfbench/tracing.py against the package it wraps.

The tracer looks up every name in TRACED by getattr and binds each call's
arguments by parameter name (x, lo, hi, xs, start_n, n, bits, points, K,
N, m_max, argv, destination), so a renamed or deleted function or
parameter breaks only traced benchmark runs.  Here a fresh interpreter
installs the tracer, runs one small CLI op per command in COMMANDS and
calls terms_block and exp_sum, which no command reaches.  Every op must
exit 0, every traced name must record a span, and layer_metrics must give
every per-layer metric of LAYER_UNITS; trace.overhead_s is the one key
that perfbench/run.py adds itself, from traced against untraced passes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

PASS = r"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from cannonball import cli, equidist, exactseq
out = sys.argv[2]
ops = [["discrepancy", "--x", "300", "--K", "5"], ["exceptional", "--x", "300"],
       ["fit", "--k", "2", "--xs", "100,300,1000"], ["histogram", "--x", "300", "--bins", "4"],
       ["knbound", "--x", "300", "--m-max", "3"], ["moments", "--x", "300", "--k", "2"],
       ["nearhalf", "--x", "300"], ["optimize", "--preset", "moment-residual", "--k", "1"],
       ["sandwich", "--x", "300", "--k", "1", "--L", "4"], ["terms", "--range", "1:300"],
       ["weyl", "--x", "300", "--m-max", "3"]]
rcs = [cli.main([*argv, "--output", f"{out}/{i}"]) for i, argv in enumerate(ops)]
exactseq.terms_block(1, 5)
equidist.exp_sum(1, 50, 1)
records = [{"workers": 1, "s": 0.1, "child_cpu_s": 0.0},
           {"workers": 2, "s": 0.1, "child_cpu_s": 0.1}]
print(json.dumps({"commands": [argv[0] for argv in ops], "rcs": rcs,
                  "names": sorted({s["name"] for s in tracer.spans}),
                  "traced": sorted(f"{m}.{n}" for m, names in tracing.TRACED.items()
                                   for n in names),
                  "metrics": tracing.layer_metrics(tracer.spans, records),
                  "units": sorted(tracing.LAYER_UNITS), "all_commands": list(tracing.COMMANDS)}))
"""


def test_tracer_wraps_every_traced_function(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", PASS, str(TRACING), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["commands"] == got["all_commands"]
    assert got["rcs"] == [0] * len(got["commands"])
    assert got["names"] == got["traced"]
    missing = set(got["units"]) - set(got["metrics"])
    assert missing == {"trace.overhead_s"}
    assert got["metrics"]["cli.emit.bytes"] > 0
    assert got["metrics"]["exactseq.terms_block.idx_per_s"] > 0
