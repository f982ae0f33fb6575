"""Repeat the benchmark over many seeds and summarise it in one JSON file.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 40 --out perfbench/BENCH_baseline.json

For each workload it makes one untraced run per seed and one traced run
with the first seed, one after another, and records every run's result
and metadata.  Each end-to-end metric gets its median, quartiles and
spread (the distance between the quartiles as a share of the median),
with quartiles as statistics.quantiles(values, n=4) gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2])["meta"]
    return result


def summarise(runs: list[dict]) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values),
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds, trace=0))
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                  file=sys.stderr, flush=True)
        entry = {
            "summary": summarise(runs),
            "runs": runs,
            "traced": run_once(workload, seeds[0], args.seconds, trace=1),
        }
        report["workloads"][workload] = entry
        for name, row in entry["summary"].items():
            print(f"{workload:14} {name:18} median {row['median']:12.6g} {row['unit']:7} "
                  f"spread {row['spread']:.4f}", file=sys.stderr, flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
