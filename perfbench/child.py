"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC names the ops (argv lists for cannonball.cli.main), whether to trace,
and the file to write the pass record to.  The record holds the monotonic
time at which `import cannonball` finished and the CLI parser was built,
each op's exit status, wall time and pool-children CPU, the pass's wall and
CPU time, its peak RSS and, when traced, the spans.  With "setup_only" the
pass stops once the parser is built.
"""

import json
import resource
import sys
import time


def cpu_times() -> tuple[float, float]:
    """(CPU of this process, CPU of its reaped children), user plus sys."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def run_op(cli, argv: list[str]) -> dict:
    own0, kids0 = cpu_times()
    t0 = time.monotonic()
    error = None
    try:
        rc = cli.main(argv)
    except SystemExit as exc:        # argparse rejects the argv
        rc, error = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:         # counted as a failed op; the pass goes on
        rc, error = None, repr(exc)
    seconds = time.monotonic() - t0
    own1, kids1 = cpu_times()
    return {"rc": rc, "error": error, "s": seconds,
            "cpu_s": own1 - own0 + kids1 - kids0, "child_cpu_s": kids1 - kids0}


def main() -> int:
    from cannonball import cli
    cli.build_parser()
    record = {"ready": time.monotonic()}
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    if not spec.get("setup_only"):
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        own0, kids0 = cpu_times()
        t0 = time.monotonic()
        ops = [run_op(cli, argv) for argv in spec["ops"]]
        record["wall_s"] = time.monotonic() - t0
        own1, kids1 = cpu_times()
        record["cpu_s"] = own1 - own0 + kids1 - kids0
        record["ops"] = ops
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            record["spans"] = tracer.spans
    with open(spec["record"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
