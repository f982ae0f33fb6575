"""Benchmark for ttmotifs: one workload, one seed, one result.

    python3 perfbench/run.py --workload small-mixed --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
The runner starts perfbench/worker.py once per set-up sample and once
for the measured run, times each set-up from process start to the first
request, and reads each worker's peak resident set with os.wait4.  It
prints every metric by name with its unit, then run metadata as a JSON
line, and last the result as one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones of a traced replay of the same seeded requests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import ORACLE_NODE_BUDGET, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5  # the measured run's own set-up is the last sample
TIME_LIMIT_S = 170.0


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready": (process, set-up seconds)."""
    start = perf_counter()
    process = subprocess.Popen([sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE,
                               cwd=ROOT, text=True)
    line = process.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        process.kill()
        finish(process)
        raise RuntimeError(f"worker did not start: {line!r}")
    return process, setup


def finish(process: subprocess.Popen) -> tuple[str, int]:
    """Read the rest of a worker's stdout and reap it: (stdout, peak RSS in KB)."""
    output = process.stdout.read()
    process.stdout.close()
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return output, usage.ru_maxrss


def machine() -> dict:
    """Read-only facts about this machine and checkout."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": "unknown",
        "caches": {},
        "commit": "unknown",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        info["commit"] = ref
    except OSError:
        pass
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark one ttmotifs workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ttmotifs" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ttmotifs sources under {ROOT / 'src'}; "
                         "run from the root of a ttmotifs checkout\n")
        return 2

    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    worker_rss = []
    for _ in range(SETUP_SAMPLES - 1):
        probe, seconds = start_worker(worker_args + ["--setup-only"])
        setups.append(seconds)
        worker_rss.append(finish(probe)[1])
    worker, seconds = start_worker(
        worker_args + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    )
    setups.append(seconds)
    watchdog = threading.Timer(TIME_LIMIT_S - sum(setups), worker.kill)
    watchdog.start()
    try:
        output, rss_kb = finish(worker)
    finally:
        watchdog.cancel()
    if worker.returncode != 0 or not output.strip():
        sys.stderr.write(f"error: worker exited with {worker.returncode}\n")
        return 1
    result = json.loads(output.strip().splitlines()[-1])

    metrics = result["metrics"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "oracle_node_budget": ORACLE_NODE_BUDGET,
        "setup_samples": len(setups),
        **result["meta"],
        "machine": machine(),
    }
    if not args.trace:
        # The largest resident set of any process that ran ttmotifs: the
        # worker itself, or for bulk-pipeline the decompose/verify children.
        peak_kb = max(rss_kb, result["child_rss_kb"], *worker_rss)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            **metrics,
        }
    for name, (value, unit) in {**metrics, **result["extra"]}.items():
        print(f"{name:34} {value:>16.6g} {unit}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
