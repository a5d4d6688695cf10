"""Benchmark for the schreier library: one workload, one seed, one process.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Runs a closed loop with one client for --seconds, checks every output
against independent references, and prints the end-to-end metrics; the
last line is one JSON object.  With --trace 1 it instead runs a fixed,
seeded prefix of the workload with spans around the library's entry points
and prints the per-layer metrics.  NOTES.md describes the workloads, the
metrics and the known-defect ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

from calibrate import (PYTHON_REFERENCE_S, START_REFERENCE_S, Calibration,
                       python_kernel, start_kernel)
from harness import (HERE, ROOT, SRC, OpStream, Watchdog, child_env,
                     environment, execute, fixed_ops, in_process_runner,
                     median_spawn, run_fixed, subprocess_runner)

WORKLOADS = ("certify", "norms", "streams", "cli")
# rounds generated during set-up; later rounds are generated between ops
SETUP_ROUNDS = {"certify": 40, "norms": 100, "streams": 80, "cli": 1}
# rounds in a traced run (fixed, so operation counts repeat exactly)
TRACE_ROUNDS = {"certify": 6, "norms": 24, "streams": 14, "cli": 4}
# one ledger probe per this many workload operations
LEDGER_EVERY = {"norms": 50, "streams": 50, "cli": 25}
# in-process peak memory is read after this many operations, so that it
# measures a fixed amount of work however fast the machine runs
RSS_AFTER_OPS = {"certify": 400, "norms": 1500, "streams": 500}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MiB"))


def make_workload(name: str, seed: int, runner, tmpdir):
    if name == "cli":
        from cliload import Cli
        return Cli(seed, runner, tmpdir)
    from workloads import IN_PROCESS
    return IN_PROCESS[name](seed)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time, unscaled and rescaled by interpreter start-up speed."""
    env = child_env()
    cal = Calibration(lambda: start_kernel(ROOT, env), START_REFERENCE_S)
    if workload == "cli":
        argv = [sys.executable, "-c", "import schreier.cli"]
    else:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe"]
    return median_spawn(argv, ready_line=workload != "cli", cal=cal)


def run_ledger(workload, count: int, watchdog, probe_limit_error) -> dict:
    """Known-defect probes, reported apart from the workload's operations.

    A probe that reproduces its defect is a ledger failure; one that returns
    a checked answer means the defect is fixed; any other failure is a real
    failure of the run.
    """
    out = {"probes": 0, "reproduced": 0, "fixed": 0, "other_failures": [],
           "kind": None}
    for _ in range(count):
        op = workload.ledger()
        out["kind"] = op.kind
        _, reason, exc = execute(op, watchdog, probe_limit_error)
        out["probes"] += 1
        if reason is None:
            out["fixed"] += 1
        elif isinstance(exc, RecursionError) or "RecursionError" in reason:
            out["reproduced"] += 1
        else:
            out["other_failures"].append(reason)
    return out


def peak_rss_kib(workload: str) -> int:
    """Peak resident memory so far: of this process, or for the cli
    workload the largest of its child processes."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def timed_run(args, workload, stream, cal: Calibration,
              families_mod) -> dict:
    """The closed loop.  Latencies are rescaled to the reference machine
    speed; the raw ones are kept for the report."""
    raw: list[float] = []
    starts: list[float] = []
    kinds: list[str] = []
    failures: list[str] = []
    peak_kib = None
    with Watchdog() as watchdog:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            cal.maybe_sample()
            op = stream.next()
            starts.append(time.perf_counter())
            dt, reason, _ = execute(op, watchdog,
                                    families_mod.ProbeLimitError)
            raw.append(dt)
            kinds.append(op.kind)
            if len(raw) == RSS_AFTER_OPS.get(args.workload):
                peak_kib = peak_rss_kib(args.workload)
            if reason is not None:
                failures.append(f"{op.kind}: {reason}")
            if watchdog.rss_tripped:
                break
        cal.sample()
        if peak_kib is None:
            peak_kib = peak_rss_kib(args.workload)
        every = LEDGER_EVERY.get(args.workload)
        ledger = run_ledger(workload, -(-len(raw) // every), watchdog,
                            families_mod.ProbeLimitError) if every else None
    latencies = [dt * cal.factor(t + dt / 2) for t, dt in zip(starts, raw)]
    return {"latencies": latencies, "raw": raw, "kinds": kinds,
            "failures": failures,
            "ledger": ledger, "peak_rss_mb": peak_kib / 1024,
            "machine_speed": cal.speed(),
            "kind_weights": getattr(workload, "kind_weights", None)}


def throughput(run: dict) -> float:
    """Operations per second of op latency.  With kind weights (the cli
    workload's cycle of passes), each kind's mean latency is weighted by
    its share of a full cycle, so where the loop stopped does not matter."""
    lat, weights = run["latencies"], run["kind_weights"]
    if not weights:
        return len(lat) / sum(lat)
    by_kind: dict = {}
    for kind, dt in zip(run["kinds"], lat):
        by_kind.setdefault(kind, []).append(dt)
    return sum(weights[k] for k in by_kind) / sum(
        weights[k] * statistics.fmean(v) for k, v in by_kind.items())


def e2e_metrics(args, run: dict, setup_s: float) -> dict:
    lat = run["latencies"]
    values = {
        "setup_s": setup_s,
        "ops_per_s": throughput(run),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--fixed-rounds", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "schreier" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    os.environ.pop("SCHREIER_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    import schreier
    from schreier import cli, families  # noqa: F401 - loads every module
    if Path(schreier.__file__).resolve().parent != SRC / "schreier":
        print(f"error: imported schreier from {schreier.__file__}",
              file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        runner = in_process_runner if args.trace or args.fixed_rounds \
            else subprocess_runner
        workload = make_workload(args.workload, args.seed, runner, Path(tmp))
        if args.setup_probe:
            OpStream(workload, SETUP_ROUNDS[args.workload])
            print("ready", flush=True)
            return 0
        if args.fixed_rounds:
            out = run_fixed(fixed_ops(workload, args.fixed_rounds), families)
            print(json.dumps(out))
            return 0
        if args.trace:
            from layers import traced_run
            rounds = TRACE_ROUNDS[args.workload]
            result = traced_run(args, fixed_ops(workload, rounds), rounds,
                                families)
        else:
            setup_raw, setup_s = setup_seconds(args.workload, args.seed)
            if args.workload == "cli":
                env = child_env()
                cal = Calibration(lambda: start_kernel(ROOT, env),
                                  START_REFERENCE_S)
            else:
                cal = Calibration(python_kernel, PYTHON_REFERENCE_S)
            stream = OpStream(workload, SETUP_ROUNDS[args.workload])
            run = timed_run(args, workload, stream, cal, families)
            result = report_timed(args, run, setup_s, setup_raw)
    try:
        tmp_root.rmdir()
    except OSError:
        pass
    print(json.dumps(result))
    return 0


def report_timed(args, run: dict, setup_s: float, setup_raw: float) -> dict:
    metrics = e2e_metrics(args, run, setup_s)
    raw = e2e_metrics(args, dict(run, latencies=run["raw"]), setup_raw)
    attempted, failed = len(run["latencies"]), len(run["failures"])
    ledger = run["ledger"]
    print("env " + json.dumps(dict(environment(args),
                                   machine_speed=run["machine_speed"])))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}"
              f" (unscaled {raw[name]['value']:.6g})")
    known = ledger["reproduced"] if ledger else 0
    probes = ledger["probes"] if ledger else 0
    print(f"failed_frac = {(failed + known) / (attempted + probes):.6g} ratio"
          f" ({failed} failed of {attempted} ops, {known} known-defect"
          f" reproductions of {probes} ledger probes)")
    if ledger:
        failed += len(ledger["other_failures"])
        print("ledger " + json.dumps(ledger))
    for reason in run["failures"][:20]:
        print("failure " + reason, file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
