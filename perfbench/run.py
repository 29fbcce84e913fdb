"""Run one benchmark workload of mpqss, check its outputs and print its metrics.

    python3 perfbench/run.py --workload bulk-run --seed 1 --seconds 15 --trace 0

The load is a closed loop with one caller: one process, one thread, one
operation at a time. A run builds the workload's objects, makes one untimed
warm-up operation (which also carries the run's one-off checks), then times
operations until ``--seconds`` have passed. Every output is checked.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones; with ``--trace 1`` the first half of the
time runs untraced and the second half under ``tracing.Tracer``, and the
metrics are the per-layer ones. Lines before it repeat the metrics for
people to read. The full record of the run, with its environment, goes to
``perfbench/results/``.

mpqss is imported from ``src/`` of the checkout that holds this script. The
script exits with a message and no result when that source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
# Times are medians of samples in reference seconds (speed.py): the host's
# speed swings by up to 1.8 times for minutes, and no statistic of wall
# times within a run removes that. Wall times are printed and recorded too.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_s", "items/s"),
]

SETUP_PROBES = 11


def pin_to_fastest_cpu() -> dict:
    """Pin this process, and every process it starts, to one CPU: the usable
    CPU that runs the reference loop fastest, taking the best of three tries.

    The CPUs of a virtual machine are not equally fast at a given moment, and
    the scheduler tends to start a child on the other, idle CPU. Pinned, an
    operation, the set-up probes and the reference loops timed next to them
    all run on the same CPU.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if not cpus:
        return {"cpus_usable": cpus, "cpu": None, "loop_s": {}}
    best: dict[int, float] = {}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(best.get(cpu, math.inf), speed.reference_loop())
    chosen = min(best, key=best.get)
    os.sched_setaffinity(0, {chosen})
    return {"cpus_usable": cpus, "cpu": chosen, "loop_s": best}


class SetupProbes:
    """Set-up time of fresh processes, each timed inside itself (``setup_probe.py``).

    The host's speed changes in spells of a second or more, so the probes are
    spread over the run, between timed operations, rather than made in one
    burst that a slow spell can cover. The probes import mpqss from compiled
    bytecode, as an installed package does, whatever
    ``PYTHONDONTWRITEBYTECODE`` says: bytecode goes to a cache under
    ``results/``, and one untimed probe fills it first.
    """

    def __init__(self, workload_name: str, count: int = SETUP_PROBES):
        self.command = [sys.executable, str(HERE / "setup_probe.py"), workload_name]
        self.env = dict(os.environ, PYTHONPYCACHEPREFIX=str(RESULTS / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = count
        self.times: list[float] = []  # wall seconds
        self.loops: list[float] = []  # reference loop seconds next to each
        self._probe()

    def _probe(self) -> tuple[float, float]:
        proc = subprocess.run(
            self.command, capture_output=True, text=True, timeout=120, check=True, env=self.env
        )
        elapsed, loop = proc.stdout.strip().splitlines()[-1].split()
        return float(elapsed), float(loop)

    def catch_up(self, share: float) -> float:
        """Probe until ``share`` of the probes are made; return the wall time spent."""
        start = time.perf_counter()
        while len(self.times) < math.ceil(self.count * min(share, 1.0)):
            elapsed, loop = self._probe()
            self.times.append(elapsed)
            self.loops.append(loop)
        return time.perf_counter() - start

    def scaled_times(self) -> list[float]:
        return [speed.scaled(t, loop) for t, loop in zip(self.times, self.loops)]


def measure(workload, seed: int, seconds: float, trace: bool, probes: SetupProbes | None = None) -> dict:
    """Warm up, then time operations for ``seconds`` and check every output.

    Operation 0 is the untimed warm-up. Under ``trace`` the first half of
    the time is untraced and the second half traced. Set-up ``probes``, if
    given, are made between the timed operations of an untraced run; the
    time they take does not count against ``seconds``.
    """
    state = workload.prepare(workload.build(), seed)
    failures: dict[int, list[str]] = {}
    attempted = 0
    plain = lambda index, inp: workload.run(inp)  # noqa: E731

    def attempt(call) -> tuple[float, float] | None:
        """Wall time of one operation, and the mean reference loop time around it."""
        nonlocal attempted
        index = attempted
        attempted += 1
        inp = workload.make_input(state, seed, index)
        gc.collect()
        before = speed.reference_loop()
        start = time.perf_counter()
        try:
            out = call(index, inp)
        except Exception:  # a failed operation is counted, and the run goes on
            failures[index] = [traceback.format_exc()]
            return None
        elapsed = time.perf_counter() - start
        after = speed.reference_loop()
        problems = workload.check(inp, out)
        if index == 0:
            problems += workload.check_run(inp, out)
        if problems:
            failures[index] = problems
        return elapsed, (before + after) / 2

    def timed(call, seconds: float, probes: SetupProbes | None = None) -> list[tuple[float, float]]:
        times = []
        start = time.perf_counter()
        probing = 0.0
        while True:
            if probes is not None:
                share = (time.perf_counter() - start - probing) / seconds if seconds > 0 else 1.0
                probing += probes.catch_up(share)
            elapsed = attempt(call)
            if elapsed is not None:
                times.append(elapsed)
            if time.perf_counter() - probing >= start + seconds:
                if probes is not None:
                    probes.catch_up(1.0)
                return times

    attempt(plain)
    result = {"tracer": None}
    if not trace:
        timings = timed(plain, seconds, probes)
        result["op_times"] = [t for t, _ in timings]
        result["op_loops"] = [loop for _, loop in timings]
    else:
        result["untraced_op_times"] = [t for t, _ in timed(plain, seconds / 2)]
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = timed(lambda index, inp: tracer.run_op(index, workload.run, inp), seconds / 2)
        result["op_times"] = [t for t, _ in traced]
        result["tracer"] = tracer
    result["attempted"] = attempted
    result["failures"] = failures
    return result


def end_to_end_metrics(workload, result: dict, setup_scaled: list[float]) -> dict[str, float]:
    """The bounded metrics; times are medians of samples in reference seconds (``speed``)."""
    op_scaled = [speed.scaled(t, loop) for t, loop in zip(result["op_times"], result["op_loops"])]
    return {
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_s": workload.items / statistics.median(op_scaled),
    }


def informative_metrics(result: dict) -> dict[str, tuple[float, str]]:
    """Printed and recorded next to the end-to-end metrics, with no bound."""
    times = result["op_times"]
    failed = len(result["failures"])
    return {
        "op_s.min": (min(times), f"s wall (of {len(times)} operations)"),
        "op_s.p50": (statistics.median(times), f"s wall (of {len(times)} operations)"),
        "loop_s.p50": (
            statistics.median(result["op_loops"]),
            f"s (reference loop, {speed.REFERENCE_LOOP_S} at reference speed)",
        ),
        "failed_ratio": (failed / result["attempted"], f"ratio ({failed} of {result['attempted']})"),
    }


def per_layer_metrics(result: dict) -> dict[str, float]:
    metrics = result["tracer"].metrics()
    untraced = min(result["untraced_op_times"])
    traced = min(result["op_times"])
    metrics["trace.untraced_op_s.min"] = untraced
    metrics["trace.op_s.min"] = traced
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    return metrics


def environment() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpqss" / "__init__.py").is_file():
        print(f"perfbench: no mpqss sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mpqss

    if SRC not in Path(mpqss.__file__).resolve().parents:
        print(f"perfbench: mpqss was imported from {mpqss.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    pinned = pin_to_fastest_cpu()
    probes = None if args.trace else SetupProbes(workload.name)
    result = measure(workload, args.seed, args.seconds, bool(args.trace), probes)
    setup_times = [] if probes is None else probes.times

    if args.trace:
        metrics = per_layer_metrics(result)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = end_to_end_metrics(workload, result, probes.scaled_times())
        units = dict(END_TO_END)
    failed = len(result["failures"])
    attempted = result["attempted"]

    shown = {name: (value, units[name]) for name, value in metrics.items()}
    if not args.trace:
        shown["items_per_s"] = (metrics["items_per_s"], f"{workload.item}/s ({workload.throughput})")
        shown.update(informative_metrics(result))
    print(f"workload {workload.name}, seed {args.seed}, {len(result['op_times'])} timed operations")
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for index, problems in sorted(result["failures"].items()):
        for problem in problems:
            print(f"  operation {index} failed: {problem}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": environment(),
        "pinned": pinned,
        "workload": workload.name,
        "parameters": asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_times": setup_times,
        "setup_loops": [] if probes is None else probes.loops,
        "op_times": result["op_times"],
        "op_loops": result.get("op_loops"),
        "untraced_op_times": result.get("untraced_op_times"),
        "attempted": attempted,
        "failures": {str(i): p for i, p in result["failures"].items()},
        "metrics": {name: value for name, (value, _) in shown.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if result["tracer"] is not None:
        result["tracer"].write(str(stem) + "-spans.jsonl.gz")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
