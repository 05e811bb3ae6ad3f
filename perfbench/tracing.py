"""Spans around calls into cannonball's public functions, and the layer metrics derived from them.

Only a traced pass installs the wrappers.  They replace the functions at
module-attribute level, so calls the package makes through a module
attribute or a module global (cli -> moments.power_sums_at, erdos_turan ->
star_discrepancy, weyl_profile -> sqrt_frac_points) are seen too.  Spans
(name, start, end, parent) stay in memory until the pass ends.  Calls made
inside forked pool workers are not seen; their time is accounted as child
CPU of the ops that ran a pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

TRACED = {
    "exactseq": ("near_half_count", "exceptional_indices", "terms_block"),
    "moments": ("power_sums_at", "sandwich", "summary_from_exact"),
    "equidist": ("sqrt_frac_points", "erdos_turan", "weyl_profile", "exp_sum",
                 "star_discrepancy", "half_distance_histogram"),
    "cli": ("main", "emit"),
    "minimax": ("balance_moment_residual",),
}

# every CLI command some workload runs; cli.main.<command>.s is reported for each
COMMANDS = ("discrepancy", "exceptional", "fit", "histogram", "knbound", "moments",
            "nearhalf", "optimize", "sandwich", "terms", "weyl")


def _metric_units() -> dict[str, str]:
    units = {
        "exactseq.near_half_count.s": "s",
        "exactseq.exceptional_indices.s": "s",
        "exactseq.terms_block.s": "s",
        "exactseq.terms_block.idx_per_s": "1/s",
        "exactseq.indices": "count",
        "moments.power_sums_at.s": "s",
        "moments.power_sums_at.idx_per_s": "1/s",
        "moments.power_sums_at.indices": "count",
        "moments.sandwich.s": "s",
        "moments.summary_from_exact.s": "s",
        "equidist.sqrt_frac_points.cold_s": "s",
        "equidist.sqrt_frac_points.warm_s": "s",
        "equidist.table_indices_built": "count",
        "equidist.erdos_turan.self_s": "s",
        "equidist.weyl_profile.self_s": "s",
        "equidist.exp_sum.s": "s",
        "equidist.point_harmonics": "count",
        "equidist.point_harmonics_per_s": "1/s",
        "equidist.star_discrepancy.s": "s",
        "equidist.half_distance_histogram.s": "s",
    }
    units.update({f"cli.main.{c}.s": "s" for c in COMMANDS})
    units.update({
        "cli.self_s": "s",
        "cli.emit.s": "s",
        "cli.emit.bytes": "bytes",
        "cli.emit.bytes_per_s": "bytes/s",
        "cli.pool.child_cpu_s": "s",
        "cli.pool.busy_ratio": "ratio",
        "minimax.balance_moment_residual.s": "s",
        "trace.overhead_s": "s",
    })
    return units


LAYER_UNITS = _metric_units()


class Tracer:
    """Records one span per call into a traced function."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._table_n: dict[int, int] = {}   # highest n requested per bits so far

    def install(self) -> None:
        for module, names in TRACED.items():
            mod = importlib.import_module(f"cannonball.{module}")
            for name in names:
                setattr(mod, name, self._wrap(f"{module}.{name}", getattr(mod, name)))

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "work": self._work_before(name, bound.arguments)}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                dest = bound.arguments.get("destination")
                if name == "cli.emit" and dest is not None and os.path.exists(dest):
                    span["work"]["bytes"] = os.path.getsize(dest)
        return traced

    def _work_before(self, name: str, a: dict) -> dict:
        if name == "cli.main":
            return {"command": a["argv"][0]}
        if name in ("exactseq.near_half_count", "exactseq.exceptional_indices"):
            return {"indices": a["x"]}
        if name == "exactseq.terms_block":
            return {"indices": a["hi"] - a["lo"] + 1}
        if name == "moments.power_sums_at":
            return {"indices": max(int(x) for x in a["xs"]) - a["start_n"] + 1}
        if name == "equidist.sqrt_frac_points":
            seen = self._table_n.get(a["bits"], 0)
            self._table_n[a["bits"]] = max(seen, a["n"])
            return {"built": max(0, a["n"] - seen)}
        if name == "equidist.erdos_turan":
            return {"point_harmonics": len(a["points"]) * a["K"]}
        if name == "equidist.weyl_profile":
            return {"point_harmonics": a["N"] * a["m_max"]}
        if name == "equidist.exp_sum":
            return {"point_harmonics": a["hi"] - a["lo"] + 1}
        return {}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[dict], ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `ops` are the pass's op records; those that ran a pool carry `workers`,
    their wall time `s` and the CPU their pool children used.
    """
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    work: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    cold = warm = 0.0
    per_command = dict.fromkeys(COMMANDS, 0.0)
    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        total[name] = total.get(name, 0.0) + dur
        self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
        for key, value in s["work"].items():
            if key != "command":
                work[f"{name}.{key}"] = work.get(f"{name}.{key}", 0) + value
        if name == "cli.main" and s["work"]["command"] in per_command:
            per_command[s["work"]["command"]] += dur
        if name == "equidist.sqrt_frac_points":
            if s["work"]["built"]:
                cold += dur
            else:
                warm += dur

    def t(name):
        return total.get(name, 0.0)

    def w(key):
        return work.get(key, 0)

    harmonics = (w("equidist.erdos_turan.point_harmonics") + w("equidist.weyl_profile.point_harmonics")
                 + w("equidist.exp_sum.point_harmonics"))
    engine_s = sum(self_time.get(n, 0.0) for n in
                   ("equidist.erdos_turan", "equidist.weyl_profile", "equidist.exp_sum"))
    pooled = [op for op in ops if op["workers"] > 1]
    pool_cpu = sum(op["child_cpu_s"] for op in pooled)
    pool_capacity = sum(op["workers"] * op["s"] for op in pooled)
    out = {
        "exactseq.near_half_count.s": t("exactseq.near_half_count"),
        "exactseq.exceptional_indices.s": t("exactseq.exceptional_indices"),
        "exactseq.terms_block.s": t("exactseq.terms_block"),
        "exactseq.terms_block.idx_per_s": _rate(w("exactseq.terms_block.indices"),
                                                t("exactseq.terms_block")),
        "exactseq.indices": sum(w(f"exactseq.{n}.indices") for n in TRACED["exactseq"]),
        "moments.power_sums_at.s": t("moments.power_sums_at"),
        "moments.power_sums_at.idx_per_s": _rate(w("moments.power_sums_at.indices"),
                                                 t("moments.power_sums_at")),
        "moments.power_sums_at.indices": w("moments.power_sums_at.indices"),
        "moments.sandwich.s": t("moments.sandwich"),
        "moments.summary_from_exact.s": t("moments.summary_from_exact"),
        "equidist.sqrt_frac_points.cold_s": cold,
        "equidist.sqrt_frac_points.warm_s": warm,
        "equidist.table_indices_built": w("equidist.sqrt_frac_points.built"),
        "equidist.erdos_turan.self_s": self_time.get("equidist.erdos_turan", 0.0),
        "equidist.weyl_profile.self_s": self_time.get("equidist.weyl_profile", 0.0),
        "equidist.exp_sum.s": t("equidist.exp_sum"),
        "equidist.point_harmonics": harmonics,
        "equidist.point_harmonics_per_s": _rate(harmonics, engine_s),
        "equidist.star_discrepancy.s": t("equidist.star_discrepancy"),
        "equidist.half_distance_histogram.s": t("equidist.half_distance_histogram"),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "cli.emit.s": t("cli.emit"),
        "cli.emit.bytes": w("cli.emit.bytes"),
        "cli.emit.bytes_per_s": _rate(w("cli.emit.bytes"), t("cli.emit")),
        "cli.pool.child_cpu_s": pool_cpu,
        "cli.pool.busy_ratio": _rate(pool_cpu, pool_capacity),
        "minimax.balance_moment_residual.s": t("minimax.balance_moment_residual"),
    }
    out.update({f"cli.main.{c}.s": v for c, v in per_command.items()})
    return out
