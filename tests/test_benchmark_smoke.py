"""Smoke run of the benchmark workloads at tiny size (8x8 grid, d = 16).

perfbench/run.py drives the library API and the CLI; this checks that
each workload still runs on the current source and passes its output
checks. The full benchmark and its self-test stay outside this suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["read-4k", "steer-4k", "cli-8x8"]


@pytest.fixture(scope="module")
def runs():
    """(stdout, stderr, exit code) per workload; the runs go at once, as each spends ~3 s of wall time timing its set-up."""
    procs = {
        w: subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for w in WORKLOADS
    }
    try:
        return {w: (*p.communicate(timeout=300), p.returncode) for w, p in procs.items()}
    finally:
        for p in procs.values():
            p.kill()  # does nothing to a run that has finished
            p.wait()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_and_checks_out(runs, workload):
    out, err, code = runs[workload]
    assert code == 0, out + err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True, out
