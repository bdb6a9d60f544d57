#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads read-4k steer-4k cli-8x8 --seeds 1-10 --out perfbench/out/runs.json
    python3 perfbench/collect.py --report perfbench/out/runs.json

Runs the command from BENCHMARK.json once per (workload, seed), one run
at a time, from the repository root. For every metric it reports the
median, the quartiles (statistics.quantiles, n = 4) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound, as markdown tables. Every run's result line is kept in --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def report(runs: dict[str, list[dict]], bounds: dict) -> dict:
    """Print a markdown table per workload; returns the summary."""
    summary = {}
    for name, results in runs.items():
        summary[name] = {}
        seeds = ", ".join(str(r["seed"]) for r in results)
        print(f"\n### {name}: {len(results)} runs (seeds {seeds}), {sum(r['attempted'] for r in results)} ops\n")
        print("| metric | unit | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            s = summarize(values) if len(values) > 1 else {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
            s["unit"] = results[0]["metrics"][metric]["unit"]
            summary[name][metric] = s
            bound = bounds.get(metric)
            print(f"| `{metric}` | {s['unit']} | {s['median']:.5g} | {s['q1']:.5g} | {s['q3']:.5g} "
                  f"| {s['spread']:.3f} | {'' if bound is None else bound} |")
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write every run's result here")
    ap.add_argument("--report", type=Path, nargs="+", help="only summarize runs saved by earlier --out files")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    if args.report:
        runs: dict[str, list[dict]] = {}
        for path in args.report:
            for name, results in json.loads(path.read_text())["runs"].items():
                runs.setdefault(name, []).extend(results)
        report(runs, bounds)
        return 0

    runs = {}
    failed = False
    for name in args.workloads:
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run([sys.executable, *cmd[1:]] if cmd[0] == "python3" else cmd,
                                  cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.setdefault(name, []).append(result)
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: {result['attempted']} ops, {result['failed']} failed; {values}", flush=True)

    summary = report(runs, bounds)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seconds": args.seconds, "trace": args.trace, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
