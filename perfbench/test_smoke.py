"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload in both modes with ``--tiny`` and checks the result
line, the exact counts across two runs with one seed, and the refusal to
run without the package source.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 5
# the tiny probe stops at generation 8, so deeper per-generation solves are absent
TINY_ABSENT = {"capacity.cluster_log_capacity_s.n11", "capacity.cluster_log_capacity_s.n12"}
EXACT = (
    "cli.bytes_written",
    "generators.discs",
    "geometry.distance_many_calls",
    "geometry.distance_many_points",
    "capacity.cluster_c2_calls",
    "capacity.quasiadditivity_calls",
    "walker.walk_steps",
)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@functools.cache
def run(workload: str, trace: int) -> tuple[dict, dict]:
    """(last stdout line, full record) of one tiny run."""
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    record = HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(record.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line(workload, trace):
    result, record = run(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, record["failures"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    if trace:
        expected = {k: v for k, v in expected.items() if k not in TINY_ABSENT}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["environment"]["python"] and record["artifacts"]


def test_exact_counts_repeat():
    workload = "walk-storage"
    first_counts = run(workload, 1)[0]["metrics"]
    first_artifacts = run(workload, 0)[1]["artifacts"]
    again = _run(workload, 1)
    counts = json.loads(again.stdout.splitlines()[-1])["metrics"]
    assert {k: counts[k] for k in EXACT} == {k: first_counts[k] for k in EXACT}
    _run(workload, 0)
    record = json.loads((HERE / "out" / f"{workload}-seed{SEED}-trace0.json").read_text())
    assert record["artifacts"] == first_artifacts


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("walk-rings", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
