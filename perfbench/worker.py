"""Runs one workload in this process and prints its result as a JSON line.

run.py starts this script, times its set-up (it prints "ready" once
ttmotifs is imported and the round is generated) and reads its resident
set when it exits.  With --setup-only it exits right after "ready".

Untraced (--trace 0) the run replays the seeded round until its time is
up and reports the end-to-end metrics.  Traced (--trace 1) it runs each
request untraced and then traced in this process (bulk-pipeline runs the
subprocess pipeline first), and reports per-layer metrics per round.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ttmotifs.oracle import SearchBudget  # noqa: E402
from workloads import Request, arc_count  # noqa: E402

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
TRACE_DIR = Path(__file__).resolve().parent / "traces"


@dataclass
class Outcome:
    """One request.  Its operations are the CLI call or pipeline (one), or
    the four searches of an oracle request, each checked on its own."""

    latency: float  # seconds spent in the program for this request
    arcs: int  # n(n-1)/2 of the request's order
    operations: int = 1
    failed: int = 0  # operations whose exit code or output failed a check
    certified: int = 1  # operations that passed and, for a search, settled at the reference
    error: str = ""
    violations: int = 0  # violation lines in a verify report
    nodes: int = 0  # oracle search nodes
    certified_nodes: int = 0  # nodes of the searches that were certified
    rss_kb: int = 0  # largest child resident set (bulk pipeline)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def checked(seconds: float, request: Request, ok: bool, error: str, **fields) -> Outcome:
    """Outcome of a request that is one operation."""
    return Outcome(seconds, arc_count(request.n), failed=int(not ok), certified=int(ok),
                   error="" if ok else error, **fields)


def call_cli(main, argv: list[str], stdin_text: str = "") -> tuple[int | None, str, float, str]:
    """Run the CLI in-process: (exit code or None if it raised, stdout, seconds, error)."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    error = ""
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the request failed; the run goes on
                code, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
            seconds = perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), seconds, error


def _decompose_argv(request: Request, output_format: str) -> list[str]:
    return ["decompose", "--n", str(request.n), "--strategy", request.variant,
            "--format", output_format]


def _violation_lines(report: str) -> int:
    _, found, rest = report.partition("\nviolations:\n")
    return rest.count("\n") if found else 0


def run_cli_request(request: Request, layers) -> Outcome:
    """One small-mixed request, or the in-process replay of a bulk pipeline."""
    expected = checks.expected_exit(request.n)
    if request.op == "counts":
        code, out, seconds, error = call_cli(layers.main, ["counts", "--n", str(request.n)])
        ok = code == 0 and checks.check_counts(out, request.n)
    elif request.op == "text":
        code, out, seconds, error = call_cli(layers.main, _decompose_argv(request, "text"))
        ok = code == expected and checks.check_text(out, request.variant, request.n)
    elif request.op == "diagram":
        code, out, seconds, error = call_cli(layers.main, _decompose_argv(request, "diagram"))
        ok = code == expected and checks.check_diagram(out, request.n)
    else:  # verify, pipeline: decompose --format json, then verify
        code, document, seconds, error = call_cli(layers.main, _decompose_argv(request, "json"))
        ok = code == expected
        out = ""
        if ok:
            if request.mutation:
                document = workloads.mutate_document(document, request.mutation, request.site)
                expected = workloads.EXPECTED_MUTATION_EXIT[request.mutation]
            code, out, more, error = call_cli(layers.main, ["verify"], document)
            seconds += more
            ok = code == expected and (
                bool(request.mutation) or checks.check_report(out, request.variant, request.n)
            )
    return checked(seconds, request, ok, error or f"exit {code}", violations=_violation_lines(out))


def run_pipeline(request: Request, env: dict[str, str]) -> Outcome:
    """`ttmotifs decompose --format json | ttmotifs verify` as two processes."""
    command = [sys.executable, "-m", "ttmotifs"]
    start = perf_counter()
    producer = subprocess.Popen(command + _decompose_argv(request, "json"), env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    consumer = subprocess.Popen(command + ["verify"], env=env, stdin=producer.stdout,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    producer.stdout.close()
    report = consumer.stdout.read().decode()
    consumer.stdout.close()
    rss_kb = 0
    for process in (producer, consumer):
        # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would mix all children.
        _, status, usage = os.wait4(process.pid, 0)
        process.returncode = os.waitstatus_to_exitcode(status)
        rss_kb = max(rss_kb, usage.ru_maxrss)
    seconds = perf_counter() - start
    expected = checks.expected_exit(request.n)
    ok = (producer.returncode == expected and consumer.returncode == expected
          and checks.check_report(report, request.variant, request.n))
    return checked(seconds, request, ok, f"exits {producer.returncode}, {consumer.returncode}",
                   rss_kb=rss_kb)


def run_oracle(request: Request, layers) -> Outcome:
    """Certify one order: each kind's search, then its witness against the
    reference.  An order rather than a single search is the request, so
    the latency percentiles rest on searches, not on sub-millisecond
    calls whose timing is mostly noise."""
    budget = SearchBudget(max_nodes=workloads.ORACLE_NODE_BUDGET, max_time=None)
    n = request.n
    outcome = Outcome(0.0, arc_count(n), operations=0, certified=0)
    for kind in workloads.ORACLE_KINDS:
        start = perf_counter()
        if kind == "mixed":
            result = layers.max_p3_packing_undirected(n, budget)
            reference = checks.mixed_reference(n)
        else:
            result = layers.max_packing(kind, n, budget)
            reference = layers.packing_number(kind, n)
        report = layers.verify(result.witness)
        outcome.latency += perf_counter() - start
        ok, certified = checks.check_oracle(kind, n, result, report, reference)
        outcome.operations += 1
        outcome.failed += not ok
        outcome.certified += certified
        outcome.nodes += result.nodes
        outcome.certified_nodes += result.nodes if certified else 0
        if not ok:
            outcome.error = f"{kind} n={n}: optimum {result.optimum}, reference {reference}"
    return outcome


def deep_nesting_probe(main, document: str) -> str:
    """Outcome of the known-defect probe: 'exit <code>' or the exception name."""
    code, _, _, error = call_cli(main, ["verify"], document)
    return f"exit {code}" if code is not None else error.split(":")[0]


def tail_percentile(round_size: int) -> float | None:
    """Highest percentile leaving TAIL_BEYOND samples above it within one
    round, so the choice does not depend on how many rounds a run makes;
    None when a round is too small (the tail is then the maximum)."""
    for percentile in TAIL_PERCENTILES:
        if round_size - math.ceil(percentile / 100 * round_size) >= TAIL_BEYOND:
            return percentile
    return None


def nearest_rank(values: list[float], percentile: float | None) -> float:
    ordered = sorted(values)
    if percentile is None:
        return ordered[-1]
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


class Workload:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.round = workloads.ROUNDS[name](seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        self.deep_document = workloads.deep_nesting_document() if name == "small-mixed" else ""

    def execute(self, request: Request, layers) -> Outcome:
        if request.op == "oracle":
            return run_oracle(request, layers)
        return run_cli_request(request, layers)

    def replay(self, seconds: float, run_round) -> int:
        """Whole rounds; another starts only if it should end in time."""
        start = perf_counter()
        rounds = 0
        while True:
            round_start = perf_counter()
            run_round(rounds)
            rounds += 1
            last = perf_counter() - round_start
            if perf_counter() - start + last > seconds:
                return rounds

    def run_untraced(self, seconds: float) -> dict:
        """End-to-end metrics, robust to bursts of load on the machine.

        Latency percentiles are taken over the requests of one round,
        each request's latency being its median over the run's rounds.
        Rates are taken per round, and the run reports their median.
        """
        plain = tracing.plain_layers()
        rounds_done: list[list[Outcome]] = []
        probes: dict[str, int] = {}

        def run_round(_: int) -> None:
            rounds_done.append([
                run_pipeline(request, self.env) if request.op == "pipeline"
                else self.execute(request, plain)
                for request in self.round
            ])
            if self.deep_document:
                result = deep_nesting_probe(plain.main, self.deep_document)
                probes[result] = probes.get(result, 0) + 1

        rounds = self.replay(seconds, run_round)
        percentile = tail_percentile(len(self.round))
        latencies = [statistics.median(done[i].latency for done in rounds_done)
                     for i in range(len(self.round))]

        def per_round(measure) -> float:
            return statistics.median(measure(done, sum(o.latency for o in done))
                                     for done in rounds_done)

        outcomes = [o for done in rounds_done for o in done]
        operations = sum(o.operations for o in outcomes)
        failed = [o for o in outcomes if not o.ok]
        metrics = {
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_tail_ms": (nearest_rank(latencies, percentile) * 1e3, "ms"),
            "requests_per_s": (per_round(lambda done, busy: len(done) / busy), "1/s"),
            "arcs_per_s": (per_round(lambda done, busy: sum(o.arcs for o in done) / busy),
                           "arcs/s"),
            "certified_share": (sum(o.certified for o in outcomes) / operations, "share"),
        }
        extra = {
            "failed_share": (sum(o.failed for o in outcomes) / operations, "share"),
            "round_s": (per_round(lambda _, busy: busy), "s"),
        }
        if self.name == "oracle-sweep":
            extra["sweep_s"] = extra.pop("round_s")
        meta = {
            "rounds": rounds,
            "round_size": len(self.round),
            "latency_samples": len(latencies),  # one per request, its median over the rounds
            "latency_measurements": len(outcomes),
            "latency_tail_percentile": percentile if percentile is not None else 100.0,
            "latency_tail_beyond_per_round": (
                len(self.round) - math.ceil(percentile / 100 * len(self.round))
                if percentile is not None else 0),
            "failures": [o.error for o in failed[:5]],
        }
        if self.deep_document:
            meta["known_defect_probes"] = {
                "deep_nesting": {"expected": "exit 2", "outcomes": probes,
                                 "depth": workloads.DEEP_NESTING_DEPTH}
            }
        return {
            "attempted": sum(o.operations for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": metrics,
            "extra": extra,
            "meta": meta,
            "child_rss_kb": max(o.rss_kb for o in outcomes),
        }

    def run_traced(self, seconds: float) -> dict:
        plain = tracing.plain_layers()
        tracer = tracing.Tracer()
        outcomes: list[Outcome] = []
        traced: list[Outcome] = []
        overhead = 0.0
        process = 0.0

        def run_round(index: int) -> None:
            nonlocal overhead, process
            for position, request in enumerate(self.round):
                if request.op == "pipeline":
                    piped = run_pipeline(request, self.env)
                    outcomes.append(piped)
                untraced = self.execute(request, plain)
                with tracer.installed(f"{index}:{position}") as layers:
                    observed = self.execute(request, layers)
                outcomes.extend((untraced, observed))
                traced.append(observed)
                overhead += observed.latency - untraced.latency
                if request.op == "pipeline":
                    process += piped.latency - observed.latency

        rounds = self.replay(seconds, run_round)
        tracer.write(TRACE_DIR / f"{self.name}-seed{self.seed}.jsonl.gz")
        metrics = layer_metrics(tracer, traced, rounds, process)
        failed = [o for o in outcomes if not o.ok]
        return {
            "attempted": sum(o.operations for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "metrics": metrics,
            "extra": {},
            "meta": {
                "rounds": rounds,
                "round_size": len(self.round),
                "spans": len(tracer.spans),
                "tracing_overhead_s_per_round": overhead / rounds,
                "traced_request_s_per_round": sum(o.latency for o in traced) / rounds,
                "failures": [o.error for o in failed[:5]],
            },
            "child_rss_kb": max(o.rss_kb for o in outcomes),
        }


def layer_metrics(tracer: tracing.Tracer, traced: list[Outcome], rounds: int,
                  process: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per round, from the spans and counts of a traced run."""
    own, total = tracer.self_times()
    counts = tracer.counts

    def per_round(value: float) -> float:
        return value / rounds

    def count(name: str) -> int:
        return counts[name] // rounds

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    violations = sum(o.violations for o in traced) // rounds
    verify_kinds = {
        kind: count(f"analysis.violations.{kind}")
        for kind in ("duplicate_arc", "foreign_arc", "misclassified_motif")
    }
    nodes_to_certify = sum(o.certified_nodes for o in traced) // rounds
    json_seconds = total["cli.to_json"] + total["cli.from_json"]
    return {
        "constructions.construct_s": (per_round(own["constructions.construct"]), "s"),
        "constructions.motifs": (count("constructions.motifs"), "count"),
        "constructions.unused_arcs_s": (per_round(own["constructions.unused_arcs"]), "s"),
        "analysis.verify_s": (per_round(own["analysis.verify"]), "s"),
        "analysis.verify_motifs_per_s": (
            rate(counts["analysis.verified_motifs"], total["analysis.verify"]), "motifs/s"),
        "analysis.violations": (violations, "count"),
        **{f"analysis.violations.{kind}": (value, "count") for kind, value in verify_kinds.items()},
        "analysis.violations.coverage_gap": (violations - sum(verify_kinds.values()), "count"),
        "analysis.closed_form_s": (per_round(own["analysis.closed_form"]), "s"),
        "cli.self_s": (per_round(own["cli.main"]), "s"),
        "cli.to_json_s": (per_round(own["cli.to_json"]), "s"),
        "cli.from_json_s": (per_round(own["cli.from_json"]), "s"),
        "cli.json_bytes": (count("cli.json_bytes"), "count"),
        "cli.json_mb_per_s": (rate(counts["cli.json_bytes"] / 1e6, json_seconds), "MB/s"),
        "cli.to_text_s": (per_round(own["cli.to_text"]), "s"),
        "cli.process_s": (per_round(process), "s"),
        "diagram.render_s": (per_round(own["diagram.render"]), "s"),
        "diagram.cells": (count("diagram.cells"), "count"),
        "oracle.search_s": (per_round(own["oracle.search"]), "s"),
        "oracle.nodes": (count("oracle.nodes"), "count"),
        "oracle.nodes_per_s": (rate(counts["oracle.nodes"], total["oracle.search"]), "nodes/s"),
        "oracle.nodes_to_certify": (nodes_to_certify, "count"),
        "oracle.inconclusive": (
            sum(o.operations - o.failed - o.certified for o in traced if o.nodes) // rounds,
            "count"),
        "oracle.useful_node_share": (
            rate(nodes_to_certify, count("oracle.nodes")), "share"),
        "python.gc_s": (per_round(total["python.gc"]), "s"),
        "python.gc_collections": (count("python.gc_collections"), "count"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = Workload(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    run = workload.run_traced if args.trace else workload.run_untraced
    print(json.dumps(run(args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
