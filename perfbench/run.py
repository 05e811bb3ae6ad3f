"""cannonball benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload scan_moments --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl

One client runs the workload's ops back to back through cannonball.cli.main,
each op writing to an --output file.  Every pass over the ops starts a fresh
interpreter (perfbench/child.py), because CLI users pay that cold start on
every invocation: the fractional-part table cache starts empty and peak RSS
starts from zero.  Ops inside one pass share the process, so later ops see
a warm table.  Passes repeat until --seconds is used up; every output is
checked against references pinned by perfbench/oracle.py.

--trace 0 reports the end-to-end metrics (medians over the passes):
  setup_s      fresh interpreter until `import cannonball` is done and the
               CLI parser is built (median over set-up probes and passes)
  wall_s       one pass over the workload's ops
  cpu_s        user+sys CPU of the pass process and its pool children
  peak_rss_mb  peak RSS of the pass process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (see tracing.py) plus trace.overhead_s, the
traced minus the untraced wall_s.

The last line of stdout is one JSON object with correct, attempted, failed
(ops that raised, exited non-zero or failed their check) and metrics.  Each
run is also appended, with its samples and provenance, to --record.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 8        # extra set-up-only interpreters per run
RUN_DEADLINE_S = 170    # a run never outlives this, whatever --seconds says


def median_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


class Runner:
    """Runs one workload for one seed and collects its samples."""

    def __init__(self, workload: str, seed: int, work_dir: str, deadline: float):
        self.workload = workload
        self.shift = wl.draw_shift(workload, seed)
        self.ops = wl.build_ops(workload, self.shift)
        refs = wl.load_references()
        if refs["band"] != wl.BAND or refs["step_div"] != wl.STEP_DIV:
            raise RuntimeError("references.json was pinned for another shift band")
        self.refs = refs["workloads"][workload][str(self.shift)]
        self.work_dir = work_dir
        self.deadline = deadline
        self.outputs = [os.path.join(work_dir, f"{op.label}.out") for op in self.ops]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
        for name in ("CANNONBALL_WORKERS", "CANNONBALL_CHECKPOINT_DIR"):
            self.env.pop(name, None)
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, spec: dict) -> tuple[dict | None, float]:
        """Run child.py on spec; returns (its record or None, monotonic spawn time)."""
        spec_path = os.path.join(self.work_dir, "spec.json")
        spec["record"] = os.path.join(self.work_dir, "record.json")
        if os.path.exists(spec["record"]):
            os.remove(spec["record"])
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], cwd=ROOT, env=self.env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("pass exceeded the run deadline; killed", file=sys.stderr)
            return None, t_spawn
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)   # the pass and any pool workers
                proc.wait()
        if proc.returncode != 0 or not os.path.exists(spec["record"]):
            print(f"pass process exited with status {proc.returncode}", file=sys.stderr)
            return None, t_spawn
        with open(spec["record"]) as fh:
            return json.load(fh), t_spawn

    def setup_probe(self) -> float | None:
        record, t_spawn = self.spawn({"setup_only": True})
        return None if record is None else record["ready"] - t_spawn

    def run_pass(self, traced: bool) -> tuple[dict | None, float]:
        argvs = [list(op.argv) + ["--output", out] for op, out in zip(self.ops, self.outputs)]
        for out in self.outputs:
            if os.path.exists(out):
                os.remove(out)
        record, t_spawn = self.spawn({"ops": argvs, "trace": traced})
        self.attempted += len(self.ops)
        if record is None:
            self.failures.append("pass did not complete; all its ops count as failed")
            self.failures.extend(["(not run)"] * (len(self.ops) - 1))
            return None, t_spawn
        for op, out, res in zip(self.ops, self.outputs, record["ops"]):
            res["workers"] = int(op.argv[op.argv.index("--workers") + 1]) if "--workers" in op.argv else 1
            problems = self.check(op, out) if res["rc"] == 0 and res["error"] is None else \
                [f"exit status {res['rc']}, {res['error']}"]
            if problems:
                self.failures.append(f"{op.label}: " + "; ".join(problems[:3]))
        return record, t_spawn

    def check(self, op: wl.Op, out: str) -> list[str]:
        """Problems with an op's output; identical bytes reuse the earlier verdict."""
        if not os.path.exists(out):
            return ["no output file"]
        digest = hashlib.sha256()
        with open(out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        key = (op.label, digest.hexdigest())
        if key not in self.verdicts:
            try:
                self.verdicts[key] = wl.check_output(ROOT, self.workload, op, out, self.refs)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[key] = [f"unreadable output: {exc!r}"]
        return self.verdicts[key]


def run(workload: str, seed: int, seconds: int, trace: bool, record_path: str) -> dict:
    started = time.monotonic()
    work_dir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        runner = Runner(workload, seed, work_dir, started + RUN_DEADLINE_S)
        setups = [s for s in (runner.setup_probe() for _ in range(SETUP_PROBES)) if s is not None]
        untraced, traced, pass_s = [], [], []
        kinds = itertools.cycle([False, True]) if trace else itertools.repeat(False)
        measure_start = time.monotonic()
        for is_traced in kinds:
            t0 = time.monotonic()
            record, t_spawn = runner.run_pass(is_traced)
            if record is None:
                break
            pass_s.append(time.monotonic() - t0)
            setups.append(record["ready"] - t_spawn)
            (traced if is_traced else untraced).append(record)
            if trace and not (traced and untraced):
                continue
            if time.monotonic() - measure_start + statistics.median(pass_s) > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    if not trace:
        units = E2E_UNITS
        samples = {"setup_s": setups,
                   "wall_s": [r["wall_s"] for r in untraced],
                   "cpu_s": [r["cpu_s"] for r in untraced],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
    elif traced and untraced:
        units = tracing.LAYER_UNITS
        per_pass = [tracing.layer_metrics(r["spans"], r["ops"]) for r in traced]
        samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
        samples["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in untraced)]
    metrics = {}
    if samples and all(samples.values()):
        metrics = {name: {"value": median_quartiles(samples[name])[0], "unit": units[name]}
                   for name in units}
    failed = len(runner.failures)
    result = {"correct": failed == 0 and bool(metrics), "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}

    for problem in dict.fromkeys(runner.failures):
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload}  seed {seed}  shift j={runner.shift}  trace {int(trace)}  "
          f"passes {len(untraced)} untraced, {len(traced)} traced")
    for name in units if metrics else ():
        med, q1, q3 = median_quartiles(samples[name])
        print(f"  {name:40s} {med:14.6g} {units[name]:8s} q1 {q1:.6g}  q3 {q3:.6g}  "
              f"n={len(samples[name])}")
    entry = {"workload": workload, "seed": seed, "shift": runner.shift, "trace": int(trace),
             "seconds": seconds, **result, "samples": samples,
             "op_s": [[op["s"] for op in r["ops"]] for r in untraced + traced],
             "failures": list(dict.fromkeys(runner.failures)), "provenance": provenance()}
    if trace and traced:
        entry["spans"] = traced[-1]["spans"]
    os.makedirs(os.path.dirname(record_path) or ".", exist_ok=True)
    with open(record_path, "a") as fh:
        fh.write(json.dumps(entry) + "\n")
    return result


def provenance() -> dict:
    """Machine, toolchain, commit and src/ line count behind a result."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "mpmath"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):   # never report an enclosing repository
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            **versions, "commit": commit, "src_lines": src_lines}


# ---------------------------------------------------------------------------
# compare mode


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    """better / worse / same / unresolved for result set b against base a.

    better: b wins at least 9 in 10 of the pairs (runs paired in order) and
    the medians differ by more than the distance between a's quartiles.
    With a bound: unresolved when a's quartile spread exceeds the bound
    (unless every run of b beats every run of a), worse when b's median is
    worse than a's by more than the bound, otherwise same.  Without a bound,
    worse mirrors the better rule and anything else is unresolved.
    """
    sign = 1.0 if better == "higher" else -1.0
    ma, q1, q3 = median_quartiles(a)
    mb = median_quartiles(b)[0]
    spread = q3 - q1
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (x - y) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (mb - ma) > spread:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and sign * (ma - mb) > spread:
            return "worse"
        return "unresolved"
    if ma == 0:
        return "same" if mb == 0 else "unresolved"
    if spread / abs(ma) > bound:
        beats_all = min(sign * v for v in b) > max(sign * v for v in a)
        return "better" if beats_all else "unresolved"
    return "worse" if sign * (ma - mb) / abs(ma) > bound else "same"


def compare(path_a: str, path_b: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    def load(path):
        sets: dict[tuple[str, str], list[float]] = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    sets.setdefault((rec["workload"], name), []).append(m["value"])
        return sets

    a, b = load(path_a), load(path_b)
    print(f"{'workload':16s} {'metric':38s} {'A median [q1, q3] n':>36s} "
          f"{'B median [q1, q3] n':>36s} {'B/A':>7s}  verdict")
    for key in sorted(set(a) & set(b)):
        spec = specs.get(key[1])
        if spec is None:
            continue
        cells = []
        for values in (a[key], b[key]):
            med, q1, q3 = median_quartiles(values)
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {len(values)}")
        ma, mb = median_quartiles(a[key])[0], median_quartiles(b[key])[0]
        ratio = f"{mb / ma:.3f}" if ma else "-"
        v = verdict(a[key], b[key], spec["better"], spec.get("bound"))
        print(f"{key[0]:16s} {key[1]:38s} {cells[0]:>36s} {cells[1]:>36s} {ratio:>7s}  {v}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cannonball CLI benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=os.path.join(ROOT, ".perfbench", "runs.jsonl"),
                        help="JSON-lines file each run is appended to (one result set)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --record files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "cannonball", "__init__.py")):
        print(f"error: no cannonball sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
