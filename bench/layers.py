"""The traced run: per-layer metrics from spans around library entry points.

The same fixed, seeded prefix of the workload runs twice: untraced in a
fresh child process, for the tracing overhead, and traced here.  Counts
(calls, LP rows, cutting-plane rounds, stream elements, members, probe
limit hits) repeat exactly for one seed; times do not.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from harness import (HERE, ROOT, child_env, environment, median_spawn,
                     run_fixed)
from spans import Tracer

NORM_KINDS = ("ell1", "sup", "schreier", "mixed", "ex", "tree", "z")

# entry points each workload must reach at least once, so that a renamed or
# re-imported entry point fails the run instead of reading 0
COVERAGE = {
    "certify": ("simplex.solve_lp", "weaknull.min_convex",
                "weaknull.spreading", "weaknull.dichotomy",
                "weaknull.ravg_null", "spaces.ell1.norm", "spaces.sup.norm",
                "spaces.schreier.norm", "spaces.mixed.norm", "spaces.combine",
                "families.contains", "families.enumerate", "ravg.measure",
                "ordinals"),
    "norms": tuple(f"spaces.{k}.norm" for k in NORM_KINDS) + (
        "families.contains", "ordinals"),
    "streams": ("families.segment", "families.enumerate", "families.contains",
                "ravg.measure", "ravg.validate", "ravg.fastgrow", "ordinals"),
    "cli": ("cli.command", "jsonio.canonical", "families.enumerate",
            "families.segment", "ravg.measure", "ravg.validate",
            "ravg.fastgrow", "spaces.schreier.norm", "weaknull.spreading",
            "weaknull.dichotomy", "simplex.solve_lp"),
}
# layers that must read 0 calls on a workload
SEPARATION = {
    "norms": ("simplex.solve_lp",),
    "streams": ("simplex.solve_lp",) + tuple(
        f"spaces.{k}.norm" for k in NORM_KINDS),
}

COUNT_UNIT = "count"


def per_layer(tracer: Tracer, overhead: float, cli_startup: float) -> dict:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def layer(name):
        put(f"{name}.calls", calls[name], COUNT_UNIT)
        put(f"{name}.self_s", self_s[name], "s")

    layer("simplex.solve_lp")
    put("simplex.solve_lp.rows", counts["simplex.solve_lp.rows"], COUNT_UNIT)
    layer("weaknull.min_convex")
    put("weaknull.min_convex.rounds", counts["weaknull.min_convex.rounds"],
        COUNT_UNIT)
    put("weaknull.lp_per_min_convex",
        _ratio(calls["simplex.solve_lp"], calls["weaknull.min_convex"]),
        "ratio")
    for name in ("spreading", "dichotomy", "ravg_null"):
        put(f"weaknull.{name}.self_s", self_s[f"weaknull.{name}"], "s")
    put("weaknull.dichotomy.conclusive_frac",
        _ratio(counts["weaknull.dichotomy.conclusive"],
               calls["weaknull.dichotomy"]), "ratio")
    for kind in NORM_KINDS:
        layer(f"spaces.{kind}.norm")
    put("spaces.combine.self_s", self_s["spaces.combine"], "s")
    layer("families.contains")
    layer("families.segment")
    put("families.stream_elements", counts["families.stream_elements"],
        COUNT_UNIT)
    put("families.probe_limit_hits", counts["families.probe_limit_hits"],
        COUNT_UNIT)
    layer("families.enumerate")
    put("families.enumerate.members", counts["families.enumerate.members"],
        COUNT_UNIT)
    layer("ravg.measure")
    put("ravg.measure.support_points", counts["ravg.measure.support_points"],
        COUNT_UNIT)
    put("ravg.validate.self_s", self_s["ravg.validate"], "s")
    put("ravg.fastgrow.self_s", self_s["ravg.fastgrow"], "s")
    layer("ordinals")
    put("cli.startup_s", cli_startup, "s")
    spans = tracer.total_s["cli.command"]
    put("cli.command_s", statistics.median(spans) if spans else 0.0, "s")
    put("jsonio.canonical.self_s", self_s["jsonio.canonical"], "s")
    put("trace.overhead_ratio", overhead, "ratio")
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def coverage_problems(workload: str, calls: dict) -> list[str]:
    problems = [f"{name} recorded no call" for name in COVERAGE[workload]
                if calls[name] == 0]
    problems += [f"{name} recorded {calls[name]} calls, expected 0"
                 for name in SEPARATION.get(workload, ()) if calls[name]]
    return problems


def untraced_wall(args, rounds: int) -> dict:
    """The same fixed prefix, untraced, in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--fixed-rounds", str(rounds)],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("untraced run failed: " + proc.stderr.decode()[-500:])
    return json.loads(proc.stdout.decode().splitlines()[-1])


def traced_run(args, ops, rounds: int, families_mod) -> dict:
    untraced = untraced_wall(args, rounds)
    tracer = Tracer()
    counts = tracer.counts

    def count_streams(op):
        counts["families.stream_elements"] += sum(s.consumed
                                                  for s in op.streams)

    tracer.install()
    try:
        traced = run_fixed(ops, families_mod, count_streams)
    finally:
        tracer.uninstall()
    startup = 0.0
    if args.workload == "cli":
        startup, _ = median_spawn(
            [sys.executable, "-c", "import schreier.cli"], ready_line=False)
    metrics = per_layer(tracer, _ratio(traced["wall"], untraced["wall"]),
                        startup)
    problems = coverage_problems(args.workload, tracer.calls)
    failures = traced["failures"]
    print("env " + json.dumps(environment(args)))
    print("traced in-process" if args.workload == "cli" else "traced")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in problems + failures[:20]:
        print("problem " + line, file=sys.stderr)
    return {"correct": not problems and not failures,
            "attempted": traced["attempted"], "failed": len(failures),
            "metrics": metrics}
