"""Smoke run of the benchmark workloads at tiny size (8x8 grid, d = 16).

perfbench/run.py drives the library API and the CLI; this checks that
each workload still runs on the current source and passes its output
checks, untimed and traced: the traced run wraps library functions and
record methods by name, so it breaks when one of them changes shape.
The full benchmark and its self-test stay outside this suite.
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
    """(stdout, stderr, exit code) per workload and trace flag.

    The runs go at once, as each spends ~3 s of wall time timing its set-up.
    """
    procs = {
        (w, trace): subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for w in WORKLOADS
        for trace in ("0", "1")
    }
    try:
        return {w: (*p.communicate(timeout=300), p.returncode) for w, p in procs.items()}
    finally:
        for p in procs.values():
            p.kill()  # does nothing to a run that has finished
            p.wait()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_and_checks_out(runs, workload):
    out, err, code = runs[workload, "0"]
    assert code == 0, out + err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True, out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_workload_runs_and_checks_out(runs, workload):
    out, err, code = runs[workload, "1"]
    assert code == 0, out + err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is True, out
