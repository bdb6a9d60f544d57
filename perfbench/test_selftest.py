"""Self-test of the benchmark at tiny size (8x8 grid, d = 16).

    python3 -m pytest -q perfbench

Each workload runs a few ops in both modes. The test checks that every
metric named in BENCHMARK.json is printed with its unit, that the
outputs pass their checks, and that one seed gives identical per-layer
call counts on two runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ["read-4k", "steer-4k", "cli-8x8"]  # steer-4k runs outside the contract


def test_contract_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def run(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    result, report = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 6
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in report.splitlines()), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_call_counts(workload):
    a, _ = run(workload, 1)
    b, _ = run(workload, 1)
    calls = [name for name in a["metrics"] if name.endswith(".calls") or name.startswith("input.")]
    assert calls
    assert {k: a["metrics"][k] for k in calls} == {k: b["metrics"][k] for k in calls}


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for f in (ROOT / "perfbench").glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
