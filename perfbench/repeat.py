"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 15 --out summary.json

It runs every workload untraced, once per seed. For each workload and
metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. Runs go one after
another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", help="also write the summary to this JSON file")
    args = parser.parse_args(argv)

    summary = {}
    for name in workloads.WORKLOADS:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: correct={runs[-1]['correct']}", flush=True)
        metrics = {
            metric: summarise([run["metrics"][metric]["value"] for run in runs])
            for metric in runs[0]["metrics"]
        }
        summary[name] = {
            "seeds": args.seeds,
            "all_correct": all(run["correct"] for run in runs),
            "metrics": metrics,
        }
        for metric, s in metrics.items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {metric:40s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {spread}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
