#!/usr/bin/env python3
"""latentcolor benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload read-4k --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ./src. One
process, one client, closed loop: each op starts when the previous one
and its output check are done. BLAS/OpenMP use one thread.

--trace 0 times the set-up several times (setup_s is the median), then
runs ops for --seconds (and at least MIN_OPS of them) and reports the
end-to-end metrics. A workload with short ops calls the program several
times per op with the same input (its `repeats`) and times the op by
its fastest call. --trace 1 spends half of --seconds untraced and half
traced, with span wrappers around every layer function, and reports the
per-layer metrics: self time and calls per op, self time per set-up,
counters, the input properties the ops saw and the tracing overhead
(traced op p50 over untraced op p50). All times are scaled to a
reference host speed (see Calibrator). Both modes print a readable
report and, as the last line, one JSON object with the metrics named in
BENCHMARK.json.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import bisect
import gc
import json
import math
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_OPS = 100  # so that at least ten samples lie beyond p90
MAX_SECONDS = 150.0  # hard stop for a pathologically slow host
SETUP_RUNS = (3, 60)  # set up at least 3 and at most 60 times, until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0

# The host's speed drifts, by up to 2x for seconds at a time: CPU time
# drifts with wall time, and memory-heavy code slows more than a tight
# loop does. A fixed calibration task (object allocation and scattered
# attribute reads over 4096 instances, then one pass over a 2 MB array)
# runs between ops; each op's wall time is scaled by CAL_REF_S over the
# median calibration time around it. CAL_REF_S is the task's time on a
# shared 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) at its fast state, so
# reported times are milliseconds on that host at that speed.
CAL_REF_S = 0.002
CAL_EVERY_S = 0.1  # calibrate before an op if this long has passed since the last time
CAL_WINDOW_S = 0.5  # calibrations this close to an op count for it


def _load_package():
    src = ROOT / "src"
    if not (src / "latentcolor" / "__init__.py").is_file():
        sys.exit(f"error: {src}/latentcolor not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import latentcolor

    if Path(latentcolor.__file__).resolve().parent != (src / "latentcolor").resolve():
        sys.exit(f"error: imported latentcolor from {latentcolor.__file__}, not from {src}")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# steer-4k runs but is not in BENCHMARK.json: between sets of runs its
# p90 and throughput moved by up to 30 %, more than any bound allows.
WORKLOADS = ("read-4k", "steer-4k", "cli-8x8")


def _make(name: str, seed: int, tiny: bool, workdir: Path):
    import workloads as wl

    size = {"side": 8, "d": 16} if tiny else {}
    if name == "read-4k":
        return wl.Read4k(seed, **size)
    if name == "steer-4k":
        return wl.Steer4k(seed, **size)
    return wl.Cli8x8(seed, workdir)


class _Cell:
    def __init__(self, h: float, s: float, l: float) -> None:
        self.h, self.s, self.l = h, s, l


class Calibrator:
    """Times the fixed calibration task and keeps (timestamp, seconds) samples."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.random((4096, 3)).tolist()
        self.order = rng.permutation(4096).tolist()
        self.block = rng.standard_normal((4096, 64))
        self.samples: list[tuple[float, float]] = []

    def measure(self) -> None:
        gc.disable()  # the ops' garbage must not be collected on this clock
        start = time.perf_counter()
        cells = [_Cell(h, s, l) for h, s, l in self.values]
        acc = 0.0
        for i in self.order:
            c = cells[i]
            acc += c.h * c.s + math.sqrt(c.l)
        acc += float((self.block * 0.5 + acc).sum())
        end = time.perf_counter()
        gc.enable()
        self.samples.append((end, end - start))

    def measure_if_due(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= CAL_EVERY_S:
            self.measure()

    def scales(self, intervals: list[tuple[float, float]]) -> list[float]:
        """CAL_REF_S over the median calibration time near each (start, end)."""
        ts = [t for t, _ in self.samples]
        out = []
        for start, end in intervals:
            # samples within CAL_WINDOW_S, and at least the nearest on each side
            lo = min(bisect.bisect_left(ts, start - CAL_WINDOW_S), max(0, bisect.bisect_left(ts, start) - 1))
            hi = max(bisect.bisect_right(ts, end + CAL_WINDOW_S), bisect.bisect_right(ts, end) + 1)
            out.append(CAL_REF_S / statistics.median(v for _, v in self.samples[lo:hi]))
        return out

    def speed(self) -> float:
        """The host's median speed over the run, as a share of the reference."""
        return CAL_REF_S / statistics.median(v for _, v in self.samples)


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Loop:
    """Runs ops in schedule order; keeps wall-time intervals and failures.

    Each op calls the program `repeats` times in a row with the same
    input, and every call's output is checked. An op's time is that of
    its fastest call (scaled), so a call slowed by the host's
    millisecond-scale speed swings does not set the op's time.
    """

    def __init__(self, wl, cal: Calibrator, first_op: int = 0, repeats: int = 1) -> None:
        self.wl = wl
        self.cal = cal
        self.next_op = first_op
        self.repeats = repeats
        self.intervals: list[tuple[float, float]] = []  # one per call
        self.op_of_call: list[int] = []
        self.patches: list[int] = []  # one per op
        self.failures: list[str] = []

    def one(self, call=None) -> None:
        from workloads import CheckFailed

        i = self.next_op
        self.next_op += 1
        spec = self.wl.schedule(i)
        self.patches.append(self.wl.patches(spec))
        for _ in range(self.repeats):
            self.cal.measure_if_due()
            start = time.perf_counter()
            try:
                out = call(i, self.wl.run, spec) if call else self.wl.run(spec)
            except Exception as e:  # an op that raises is a failed op
                out, error = None, f"{type(e).__name__}: {e}"
            else:
                error = None
            self.intervals.append((start, time.perf_counter()))
            self.op_of_call.append(i)
            if error is None:
                try:
                    self.wl.check(spec, out)
                except CheckFailed as e:
                    error = str(e)
            if error is not None:
                self.failures.append(f"op {i} {spec!r}: {error}")
                break

    def ops(self) -> int:
        return len(self.patches)

    def until(self, seconds: float, min_ops: int, whole_cycles: bool, call=None) -> None:
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed > MAX_SECONDS:
                break
            if elapsed >= seconds and self.ops() >= min_ops and not (whole_cycles and self.next_op % self.wl.cycle):
                break
            self.one(call)
        self.cal.measure()  # a sample after the last op

    def _fastest(self, times: list[float]) -> list[float]:
        best: dict[int, float] = {}
        for i, t in zip(self.op_of_call, times):
            best[i] = min(t, best.get(i, t))
        return list(best.values())

    def raw(self) -> list[float]:
        """Op times in wall seconds, fastest call of each op."""
        return self._fastest([end - start for start, end in self.intervals])

    def scaled(self) -> list[float]:
        """Op times at the reference speed, fastest call of each op."""
        calls = [end - start for start, end in self.intervals]
        return self._fastest([t * k for t, k in zip(calls, self.cal.scales(self.intervals))])

    def p50_ms(self) -> float:
        return 1e3 * statistics.median(self.scaled())

    def patches_per_s(self) -> float:
        """Median over blocks of whole cycles of patches per second of scaled op time."""
        times = self.scaled()
        n = max(self.wl.cycle, 10 // self.wl.cycle * self.wl.cycle)
        rates = [sum(self.patches[k:k + n]) / sum(times[k:k + n]) for k in range(0, len(times) - n + 1, n)]
        return statistics.median(rates) if rates else sum(self.patches) / sum(times)


def _timed_setups(wl, cal: Calibrator) -> tuple[list[float], list[float]]:
    """Set up repeatedly; returns the scaled and the raw set-up times."""
    intervals: list[tuple[float, float]] = []
    lo, hi = SETUP_RUNS
    cal.measure()
    while len(intervals) < hi and (len(intervals) < lo or sum(e - s for s, e in intervals) < SETUP_SECONDS):
        gc.collect()
        start = time.perf_counter()
        wl.setup()
        intervals.append((start, time.perf_counter()))
        cal.measure()
    raw = [e - s for s, e in intervals]
    return [t * k for t, k in zip(raw, cal.scales(intervals))], raw


def _ready(wl, cal: Calibrator) -> Loop:
    """Check the world, then warm up on one whole cycle (at least two ops)."""
    world = wl.finish_setup()
    warm = Loop(wl, cal)
    warm.until(0.0, max(2, wl.cycle), True)
    if world:
        warm.failures.insert(0, "world: " + "; ".join(world))
    gc.collect()
    gc.freeze()
    return warm


def end_to_end(wl, seconds: float, min_ops: int) -> tuple[tuple[dict, dict], Loop]:
    cal = Calibrator()
    setup_times, setup_raw = _timed_setups(wl, cal)
    warm = _ready(wl, cal)
    loop = Loop(wl, cal, repeats=wl.repeats)
    loop.until(seconds, min_ops, False)
    loop.failures[:0] = warm.failures
    raw = loop.raw()
    n = len(raw)
    scaled = loop.scaled()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_ms.p50": 1e3 * statistics.median(scaled),
        "op_ms.p90": 1e3 * _quantile(scaled, 0.9),
        "patches_per_s": loop.patches_per_s(),
        "success_ratio": 1.0 - len(loop.failures) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups; raw median {statistics.median(setup_raw):.4g} s",
        "op_ms.p50": f"n = {n} ops, each the fastest of {loop.repeats} calls; raw wall p50 {1e3 * statistics.median(raw):.4g} ms, "
        f"host at {cal.speed():.3f} of reference speed",
        "op_ms.p90": f"n = {n} ops, {n - int(0.9 * n)} beyond p90; raw wall p90 {1e3 * _quantile(raw, 0.9):.4g} ms",
        "success_ratio": f"error_ratio {len(loop.failures) / n:.4g} ({len(loop.failures)} failed / {n} attempted)",
    }
    return (metrics, notes), loop


def per_layer(wl, seconds: float, min_ops: int, spans_path: Path) -> tuple[tuple[dict, dict], Loop]:
    import spans

    rec = spans.Recorder()
    cal = Calibrator()
    cal.measure()
    with spans.Tracer(rec):
        start = time.perf_counter()
        wl.setup()
        setup_interval = (start, time.perf_counter())
    cal.measure()
    setup_table = rec.layer_table([spans.SETUP], {spans.SETUP: cal.scales([setup_interval])[0]})
    warm = _ready(wl, cal)

    plain = Loop(wl, cal, warm.next_op)
    plain.until(seconds / 2, min(min_ops, 10), True)
    traced = Loop(wl, cal, plain.next_op)
    with spans.Tracer(rec):
        traced.until(seconds / 2, min(min_ops, 10), True, call=rec.run_op)
    rec.save(spans_path)

    ops = range(plain.next_op, traced.next_op)
    n = len(ops)
    table = rec.layer_table(ops, dict(zip(ops, cal.scales(traced.intervals))))
    metrics: dict[str, float] = {}
    for layer, row in table.items():
        metrics[f"{layer}.self_ms"] = 1e3 * row["self_s"] / n
        metrics[f"{layer}.calls"] = row["calls"] / n
    for layer, row in setup_table.items():
        metrics[f"setup.{layer}.self_ms"] = 1e3 * row["self_s"]
    for module in spans.MODULES:
        prefix = module + "."
        metrics[f"{module}.self_ms"] = sum(
            1e3 * row["self_s"] / n for layer, row in table.items() if layer.startswith(prefix)
        )
    for key in set(spans.COUNTER_OF_LAYER.values()):
        metrics[key] = sum(table[layer]["count"] for layer, c in spans.COUNTER_OF_LAYER.items() if c == key) / n
    decode = table["bicone.decode"]
    metrics["bicone.decode.us_per_patch"] = 1e6 * decode["inclusive_s"] / decode["count"] if decode["count"] else 0.0
    metrics["trace.overhead"] = traced.p50_ms() / plain.p50_ms()
    metrics["trace.spans_per_op"] = len(rec) / n
    metrics.update(wl.inputs())

    notes = {
        "trace.overhead": f"traced p50 {traced.p50_ms():.4g} ms (n = {len(traced.intervals)}) over untraced p50 "
        f"{plain.p50_ms():.4g} ms (n = {len(plain.intervals)})",
    }
    loop = Loop(wl, cal)
    loop.intervals = plain.intervals + traced.intervals
    loop.patches = plain.patches + traced.patches
    loop.failures = warm.failures + plain.failures + traced.failures
    return (metrics, notes), loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test size: 8x8 grid, d = 16, at least 6 ops")
    args = ap.parse_args(argv)
    min_ops = 6 if args.tiny else MIN_OPS

    _load_package()
    spec = _spec()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [(m["name"], m["unit"]) for m in spec[section]]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="work-") as tmp:
        wl = _make(args.workload, args.seed, args.tiny, Path(tmp))
        if args.trace:
            (metrics, notes), loop = per_layer(wl, args.seconds, min_ops, out_dir / f"spans-{args.workload}.npz")
        else:
            (metrics, notes), loop = end_to_end(wl, args.seconds, min_ops)

    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        print(f"error: the run produced no value for {missing}", file=sys.stderr)
        return 1
    attempted, failed = loop.ops(), len(loop.failures)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} ops attempted, {failed} failed")
    for line in loop.failures[:20]:
        print(f"  FAILED {line}")
    for name, unit in wanted:
        note = notes.get(name)
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}" + (f"   ({note})" if note else ""))
    for name in sorted(set(metrics) - {n for n, _ in wanted}):
        print(f"  {name:40s} {metrics[name]:14.6g}   (not in BENCHMARK.json)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
