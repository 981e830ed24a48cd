"""Benchmark of the romik package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run measures one workload (see workloads.py and spec.json) in this
process, from a single thread, on the romik sources under ``src/`` of the
checkout.  It sets up several times and reports the median set-up time, then
runs iterations in a closed loop until ``--seconds`` have passed, checks
every operation's output against the digests pinned in spec.json, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb).  With ``--trace 1`` iterations alternate between traced and
untraced; the metrics are the per-layer self times and counts of the traced
iterations (medians), and trace.overhead_ratio compares the two kinds.
Times are in reference seconds (see Clock).  ``--workload all`` runs each
workload in a child process, one after another.

Exit status: 0 when every output was correct, 1 when an operation failed or
a digest differed, 2 when the romik sources are missing or usage is wrong.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from math import comb
from pathlib import Path
from time import perf_counter

from tracing import LAYER_UNITS, Tracer
from workloads import WORKLOADS, Context

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = HERE / "spec.json"

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

# The processor speed this benchmark sees can drift by 1.6x within seconds as
# other tenants of the host come and go, which no median over one run can
# hide.  Times are therefore reported in reference seconds: measured seconds
# scaled by REFERENCE_SECONDS over the mean time of the reference kernel in
# samples taken right before, during (every SAMPLE_INTERVAL) and right after
# the measured span.  The kernel does not use romik, so a change to romik
# cannot move it.  Raw medians are printed beside the scaled ones.
REFERENCE_SECONDS = 0.003
SAMPLE_INTERVAL = 0.1


def reference_kernel() -> int:
    """Fixed big-integer work (products, sums, decimal conversion) of the
    kind romik does, taking 2-4 ms on a 2-vCPU cloud VM."""
    row = [comb(200, i) for i in range(201)]
    acc = 0
    for m in range(200):
        for i in range(0, m + 1, 2):
            acc += row[i] * row[m - i]
        acc = int(str(acc)[:-1] or "0") + m
    return acc


class Clock:
    """Times consecutive spans in raw and reference seconds.

    The reference kernel runs before the first span, after each span, and
    from a SIGALRM handler every SAMPLE_INTERVAL during a span; the time of
    samples taken during a span is not counted as the span's.
    """

    def __init__(self) -> None:
        self.reference_times: list[float] = []
        self.on_sample = None  # called with each in-span sample's duration
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._before = self._sample()

    def _sample(self) -> float:
        started = perf_counter()
        reference_kernel()
        elapsed = perf_counter() - started
        self.reference_times.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        elapsed = self._sample()
        if self.on_sample:
            self.on_sample(elapsed)

    def time(self, fn):
        """Run fn(); return its result, raw seconds and reference seconds."""
        first = len(self.reference_times)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        started = perf_counter()
        try:
            result = fn()
        finally:
            # Cancel first: a pending sample then runs inside the timed span.
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - started
        during = self.reference_times[first:]
        raw = elapsed - sum(during)
        after = self._sample()
        scaled = raw * REFERENCE_SECONDS / statistics.mean([self._before, *during, after])
        self._before = after
        return result, raw, scaled


def import_romik():
    """Import romik afresh from the checkout's sources."""
    for name in [m for m in sys.modules if m == "romik" or m.startswith("romik.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    romik = importlib.import_module("romik")
    importlib.import_module("romik.cli")
    if Path(romik.__file__).resolve().parent != SRC / "romik":
        raise ImportError(f"romik was imported from {romik.__file__}, not from {SRC}")
    return romik


def measure(workload, sizes: dict, expected: dict, seed: int, seconds: float, trace: bool, work: str) -> dict:
    problems: Counter[str] = Counter()
    attempted = failed = 0

    def tally(outcomes) -> None:
        nonlocal attempted, failed
        for outcome in outcomes:
            attempted += 1
            found = [outcome.error] if outcome.error else outcome.check(expected)
            if found:
                failed += 1
                problems.update(f"{workload.name}: {outcome.name}: {p}" for p in found)

    def set_up():
        ctx = Context(import_romik(), sizes, work)
        return ctx, workload.setup(ctx)

    clock = Clock()
    setups = [clock.time(set_up) for _ in range(SETUP_REPEATS)]
    (ctx, setup_outcomes), _, _ = setups[-1]
    tally(setup_outcomes)

    rng = random.Random(seed)
    tracer = Tracer(ctx.romik) if trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: list[float] = []
    layers: list[dict[str, float]] = []
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(walls[True]) <= len(walls[False])
        ops = workload.iteration(ctx, rng)
        outcomes, raw, scaled = [], 0.0, 0.0
        if traced:
            tracer.reset()
            tracer.install()
            clock.on_sample = tracer.exclude
        try:
            for op in ops:
                outcome, op_raw, op_scaled = clock.time(op)
                outcomes.append(outcome)
                raw += op_raw
                scaled += op_scaled
        finally:
            if traced:
                tracer.uninstall()
                clock.on_sample = None
        walls[traced].append(scaled)
        if traced:
            metrics = tracer.iteration_metrics()
            for name in metrics:
                if name.endswith(".self_s"):
                    metrics[name] *= scaled / raw
            metrics["cli.stdout_bytes"] = sum(o.stdout_bytes for o in outcomes)
            layers.append(metrics)
        else:
            raw_walls.append(raw)
        tally(outcomes)
        ctx.clean()
        done = len(walls[False]) >= 1 and (not trace or len(walls[True]) >= 1)
        if done and perf_counter() >= deadline:
            break

    for problem, times in problems.items():
        print(f"{problem} ({times}x)", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        "raw_walls": raw_walls,
        "setups": [scaled for _, _, scaled in setups],
        "raw_setups": [raw for _, raw, _ in setups],
        "reference_times": clock.reference_times,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end_metrics(run: dict) -> list[tuple[str, float, str, str]]:
    walls, setups = run["walls"][False], run["setups"]
    return [
        ("wall_s", statistics.median(walls), "s",
         f"median of {len(walls)} iterations, reference seconds (raw {statistics.median(run['raw_walls']):.4g})"),
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups, reference seconds (raw {statistics.median(run['raw_setups']):.4g})"),
        ("peak_rss_mb", run["peak_rss_mb"], "MB", "1 sample, whole process"),
    ]


def layer_metrics(run: dict) -> list[tuple[str, float, str, str]]:
    layers = run["layers"]
    traced, untraced = run["walls"][True], run["walls"][False]
    values = {name: [layer[name] for layer in layers] for name in layers[0]}
    values["trace.overhead_ratio"] = [statistics.median(traced) / statistics.median(untraced)]
    out = []
    for name, unit in LAYER_UNITS.items():
        how = f"median of {len(values[name])} traced iterations"
        median = statistics.median
        if unit in ("count", "bytes"):
            median = statistics.median_low  # stays a whole number
            if len(set(values[name])) > 1:
                how += f", differing: {sorted(set(values[name]))}"
        out.append((name, median(values[name]), unit, how))
    out[-1] = out[-1][:3] + (f"median of {len(traced)} traced / median of {len(untraced)} untraced iterations",)
    return out


def run_one(args) -> int:
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[args.workload]
    sizes = spec["workloads"][args.workload]["sizes"][args.sizes]
    expected = spec["digests"][args.sizes]
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        run = measure(workload, sizes, expected, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    metrics = layer_metrics(run) if args.trace else end_to_end_metrics(run)
    ratio = run["failed"] / run["attempted"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} "
          f"sizes {json.dumps(sizes, separators=(',', ':'))}")
    print(f"python {platform.python_version()} nproc {os.cpu_count()} reference kernel "
          f"{statistics.median(run['reference_times']):.4g} s median of {len(run['reference_times'])}")
    for name, value, unit, how in metrics:
        print(f"{name:40} {value:>16.6g} {unit:6} {how}")
    print(f"{'fail_ratio':40} {ratio:>16.6g} {'ratio':6} {run['failed']} failed of {run['attempted']} operations")
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--sizes", args.sizes],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full",
                        help="input sizes from spec.json; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "romik" / "__init__.py").is_file():
        print(f"run.py: no romik sources under {SRC}", file=sys.stderr)
        return 2
    # An inherited cache directory would turn cold runs warm.
    os.environ.pop("ROMIK_CACHE_DIR", None)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
