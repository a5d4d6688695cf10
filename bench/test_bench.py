"""Self-tests of the benchmark (not part of the library's suite).

    python3 -m pytest -q bench/test_bench.py

Each traced run is a fresh process on a fixed, seeded prefix of its
workload, so its operation counts must repeat exactly for one seed and
change under another; that shows the seed reaches the inputs.  A traced
run also fails (``correct`` false) when an entry point records no call or
a workload reaches a layer it must not.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify", "norms", "streams", "cli")


def traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed_and_change_with_it(workload):
    first, again, other = traced(workload, 1), traced(workload, 1), \
        traced(workload, 2)
    for result in (first, again, other):
        assert result["correct"], result
    assert counts(first) == counts(again)
    assert counts(first) != counts(other)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
