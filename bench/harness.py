"""Shared machinery: guards, operation execution and CLI runners."""

from __future__ import annotations

import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
OP_NET_S = 30.0          # per-operation wall-time net
RSS_CAP_MB = 1536        # in-process resident-memory cap
CHILD_AS_BYTES = 2 << 30  # address-space limit of every CLI child


class GuardTrip(Exception):
    """A safety guard stopped an operation."""


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


class Watchdog:
    """Periodic check of the running operation's wall time and the
    process's resident memory; trips by raising GuardTrip in the op."""

    def __init__(self):
        self.started: float | None = None
        self.rss_tripped = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 0.25, 0.25)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        if self.started is None:
            return
        if time.perf_counter() - self.started > OP_NET_S:
            self.started = None
            raise GuardTrip(f"operation exceeded the {OP_NET_S:.0f} s net")
        if rss_mb() > RSS_CAP_MB:
            self.started = None
            self.rss_tripped = True
            raise GuardTrip(f"resident memory passed {RSS_CAP_MB} MiB")


def limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SCHREIER_CACHE_DIR", None)
    return env


def subprocess_runner(argv):
    """Run one CLI command in a fresh interpreter under the guards."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schreier.cli", *argv], cwd=ROOT,
            env=child_env(), capture_output=True, timeout=OP_NET_S,
            preexec_fn=limit_child)
    except subprocess.TimeoutExpired as exc:
        raise GuardTrip(f"command exceeded the {OP_NET_S:.0f} s net") from exc
    return proc.returncode, proc.stdout, proc.stderr


def in_process_runner(argv):
    """Run one CLI command through ``cli.main`` in this process."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from schreier import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


class OpStream:
    """The workload's operations in order, generated a round at a time."""

    def __init__(self, workload, rounds: int):
        self.workload = workload
        self.ops: list = []
        self.rounds = 0
        self.pos = 0
        for _ in range(rounds):
            self._extend()

    def _extend(self):
        self.ops.extend(self.workload.round(self.rounds))
        self.rounds += 1

    def next(self):
        while self.pos >= len(self.ops):
            self._extend()
        op = self.ops[self.pos]
        self.ops[self.pos] = None   # inputs are used once; let them go
        self.pos += 1
        return op


def execute(op, watchdog, probe_limit_error):
    """Run one op; returns (seconds, failure reason or None, exception)."""
    exc = None
    t0 = time.perf_counter()
    watchdog.started = t0
    try:
        result = op.run()
    except probe_limit_error as e:
        watchdog.started = None
        dt = time.perf_counter() - t0
        return dt, op.on_limit(), e
    except Exception as e:  # noqa: BLE001 - every failure is counted
        watchdog.started = None
        dt = time.perf_counter() - t0
        return dt, f"{type(e).__name__}: {e}"[:300], e
    watchdog.started = None
    dt = time.perf_counter() - t0
    try:
        reason = op.check(result)
    except Exception as e:  # noqa: BLE001 - a crashing check is a failure
        reason, exc = f"check raised {type(e).__name__}: {e}"[:300], e
    return dt, reason, exc


def median_spawn(argv, ready_line: bool, cal=None) -> tuple[float, float]:
    """Median wall time from spawn until the child is ready: unscaled, and
    rescaled by the calibration (sampled before each spawn) when given."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        if cal is not None:
            cal.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            try:
                if ready_line:
                    line = proc.stdout.readline()
                    dt = time.perf_counter() - t0
                    proc.stdout.read()
                code = proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                raise
            if not ready_line:
                line = b"ready\n"
                dt = time.perf_counter() - t0
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe {argv[1:]} failed with {code}")
        samples.append((t0, dt))
    raw = statistics.median(dt for _, dt in samples)
    if cal is None:
        return raw, raw
    cal.sample()
    return raw, statistics.median(dt * cal.factor(t0 + dt / 2)
                                  for t0, dt in samples)


def fixed_ops(workload, rounds: int) -> list:
    stream = OpStream(workload, rounds)
    return [stream.next() for _ in range(len(stream.ops))]


def run_fixed(ops, families_mod, on_op=None) -> dict:
    wall, failures = 0.0, []
    with Watchdog() as watchdog:
        for op in ops:
            dt, reason, _ = execute(op, watchdog, families_mod.ProbeLimitError)
            wall += dt
            if reason is not None:
                failures.append(f"{op.kind}: {reason}")
            if on_op is not None:
                on_op(op)
    return {"wall": wall, "attempted": len(ops), "failures": failures}


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
