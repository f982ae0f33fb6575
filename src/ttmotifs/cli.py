"""Command-line interface: argv, payloads and views.  The JSON document
codec lives in `core`, beside the packed motif store it writes and reads.

Subcommands: decompose (run a construction), counts (closed-form table),
verify (check a document), oracle (exact search).  Exit codes are shared
by every subcommand that classifies a collection: 0 for a valid
decomposition, 3 for a valid packing that is not a decomposition, 1 for
an invalid collection, 2 for usage errors, malformed input and output
that cannot be written.  All output is deterministic and newline-terminated.
`counts`, `verify` and `oracle` build each result once, as the payload
that `--format json` prints; their text lines are read from it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from typing import IO, Any

from .analysis import center_capacity, is_admissible, mixed_counts, packing_number, packing_number_table
from .constructions import STRATEGIES
from .core import CHAIN, COLLIDER, COVERAGE_GAP, FORK, KIND_DECOMPOSITION, KIND_PACKING, MOTIF_KINDS
from .core import CollectionDocument, DocumentError, Motif, MotifCollection, TransitiveTournament
from .core import VerificationReport, Violation, document_from_json, document_to_json, verify
from .diagram import Diagram, check_render_order
from .oracle import DEFAULT_MAX_NODES, SearchBudget, max_packing

EXIT_DECOMPOSITION = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_PACKING = 3


def _derived_kind(collection: MotifCollection) -> str:
    """A collection is a packing if any arc of TT_n is unused, else a decomposition."""
    return KIND_PACKING if collection.unused_arc_count else KIND_DECOMPOSITION


def document_from_collection(collection: MotifCollection) -> CollectionDocument:
    """The document a collection declares itself as: its kind and unused
    arcs are derived from the motifs, never taken on trust."""
    return CollectionDocument(
        n=collection.n,
        kind=_derived_kind(collection),
        motifs=collection.motifs,
        unused_arcs=tuple(sorted(collection.unused_arcs)),
    )


def _motif_object(motif: Motif) -> dict[str, Any]:
    """A motif as the JSON object {"type", "vertices"}."""
    kind, vertices = motif
    return {"type": kind, "vertices": list(vertices)}


# --- arrow notation ---------------------------------------------------------

def motif_to_text(motif: Motif) -> str:
    kind, (a, b, c) = motif
    if kind == CHAIN:
        return f"v{a} -> v{b} -> v{c}"
    if kind == COLLIDER:
        return f"v{a} -> v{c} <- v{b}"
    if kind == FORK:
        return f"v{b} <- v{a} -> v{c}"
    raise ValueError(f"unknown motif kind {kind!r}")


# --- shared rendering -------------------------------------------------------


def _verify_document(document: CollectionDocument, collection: MotifCollection) -> VerificationReport:
    """Verify the document's motifs, then hold its declared fields
    against the ones derived from them.  Each disagreement is a coverage
    gap that makes the report invalid.  Nothing here lists the unused
    arcs of TT_n, so the work is bounded by the document's size."""
    report = verify(collection)
    findings: list[Violation] = []
    if not collection.lists_unused_arcs(document.unused_arcs):
        findings.append(
            Violation(
                COVERAGE_GAP,
                "declared unused_arcs disagree with the arcs actually left uncovered "
                f"(declared {len(document.unused_arcs)}, actual {collection.unused_arc_count})",
            )
        )
    derived_kind = _derived_kind(collection)
    if document.kind != derived_kind:
        findings.append(
            Violation(
                COVERAGE_GAP,
                f"document declares a {document.kind} but the motifs form a {derived_kind}",
            )
        )
    if not findings:
        return report
    return replace(
        report,
        valid=False,
        is_decomposition=False,
        violations=report.violations + tuple(findings),
    )


def _yes_no(flag: bool) -> str:
    return "yes" if flag else "no"


def _tally(counts: dict[str, int]) -> str:
    """A count table as "name count, name count, ..."."""
    return ", ".join(f"{name} {count}" for name, count in counts.items())


def _write(fmt: str, payload: dict[str, Any], lines: list[str]) -> None:
    """Print one result: its payload as JSON, or its text lines."""
    sys.stdout.write((json.dumps(payload, indent=2) if fmt == "json" else "\n".join(lines)) + "\n")


def _report(report: VerificationReport, collection: MotifCollection) -> tuple[dict[str, Any], list[str]]:
    """The verify report's payload and the text lines read from it."""
    payload = {
        "n": report.n,
        "motifs": len(collection.motifs),
        "counts": report.counts._asdict(),
        "unused_arcs": collection.unused_arc_count,
        "valid": report.valid,
        "is_decomposition": report.is_decomposition,
        "violations": [violation._asdict() for violation in report.violations],
    }
    lines = [
        f"n: {payload['n']}",
        f"motifs: {payload['motifs']}",
        f"counts: {_tally(payload['counts'])}",
        f"unused arcs: {payload['unused_arcs']}",
        f"valid: {_yes_no(payload['valid'])}",
        f"decomposition: {_yes_no(payload['is_decomposition'])}",
    ]
    if payload["violations"]:
        lines.append("violations:")
    for violation in payload["violations"]:
        suffix = f": motifs {', '.join(map(str, violation['motifs']))}" if violation["motifs"] else ""
        lines.append(f"  {violation['detail']}{suffix}")
    return payload, lines


def _classification_exit(report: VerificationReport) -> int:
    if not report.valid:
        return EXIT_INVALID
    return EXIT_DECOMPOSITION if report.is_decomposition else EXIT_PACKING


# --- subcommands ------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> int:
    if args.format == "diagram":  # before building: a large construction takes seconds
        check_render_order(args.n)
    collection = STRATEGIES[args.strategy](args.n)
    report = verify(collection)
    if not report.valid:  # constructions are total; this is a tripwire
        lines = ["internal error: construction failed verification", *_report(report, collection)[1]]
        sys.stderr.write("\n".join(lines) + "\n")
        return EXIT_INVALID
    if args.format == "diagram":  # the one view drawn from the collection
        print(Diagram(args.n).render_ascii(highlight=collection))
    document = document_from_collection(collection)
    # The document holds all the command still needs.  Dropping the
    # collection frees the walk's arc table before the encoder builds
    # its two copies of the output, which set the process's peak.
    del collection
    if args.format == "json":
        sys.stdout.write(document_to_json(document))
    elif args.format == "text":
        sys.stdout.writelines(f"{motif_to_text(motif)}\n" for motif in document.motifs)
    if document.unused_arcs:
        sys.stderr.write(
            f"warning: n = {args.n} admits no decomposition; "
            f"packing leaves {len(document.unused_arcs)} arc(s) unused: "
            + ", ".join(f"({i},{j})" for i, j in document.unused_arcs)
            + "\n"
        )
    return _classification_exit(report)


def cmd_counts(args: argparse.Namespace) -> int:
    n = args.n
    table = packing_number_table(n)
    admissible = is_admissible(n)
    payload = {
        "n": n,
        "admissible": admissible,
        "arcs": TransitiveTournament(n).arc_count,
        "motif_slots": table.total_motif_slots,
        "packing_numbers": table.per_kind,
        "mixed_counts": mixed_counts(n)._asdict() if admissible else None,
        "center_capacities": [
            {"vertex": t, **{kind: center_capacity(kind, n, t) for kind in MOTIF_KINDS}}
            for t in range(1, n + 1)
        ],
    }
    slots, mixed = payload["motif_slots"], payload["mixed_counts"]
    rows = payload["center_capacities"]
    lines = [
        f"n: {n}",
        f"admissible: {_yes_no(admissible)}",
        f"arcs: {payload['arcs']}",
        f"motif slots: {slots if slots is not None else '-'}",
        f"packing numbers: {_tally(payload['packing_numbers'])}",
        f"mixed counts: {_tally(mixed) if mixed is not None else '- (not admissible)'}",
        f"center capacities (vertex: {' '.join(MOTIF_KINDS)}):",
        *(f"  {row['vertex']}: {' '.join(str(row[kind]) for kind in MOTIF_KINDS)}" for row in rows),
    ]
    _write(args.format, payload, lines)
    return EXIT_DECOMPOSITION


def cmd_verify(args: argparse.Namespace) -> int:
    if args.input is None or args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            sys.stderr.write(f"error: cannot read {args.input}: {exc}\n")
            return EXIT_USAGE
    try:
        document = document_from_json(text)
    except DocumentError as exc:
        sys.stderr.write(f"error: malformed document: {exc}\n")
        return EXIT_USAGE
    del text  # the walk's peak then holds the packed motifs, not the text too
    collection = document.to_collection()
    report = _verify_document(document, collection)
    _write(args.format, *_report(report, collection))
    return _classification_exit(report)


def cmd_oracle(args: argparse.Namespace) -> int:
    budget = SearchBudget(max_nodes=args.max_nodes, max_time=args.max_time)
    result = max_packing(args.kind, args.n, budget)
    formula = packing_number(args.kind, args.n)
    if not result.exhausted:
        comparison = "INCONCLUSIVE"
    elif result.optimum == formula:
        comparison = "MATCH"
    else:
        comparison = "MISMATCH"
    payload: dict[str, Any] = {
        "kind": args.kind,
        "n": args.n,
        "optimum": result.optimum,
        "exhausted": result.exhausted,
        "nodes": result.nodes,
        "packing_number": formula,
        "comparison": comparison,
    }
    lines = [
        f"kind: {payload['kind']}",
        f"n: {payload['n']}",
        f"optimum: {payload['optimum']}",
        f"exhausted: {_yes_no(payload['exhausted'])}",
        f"nodes: {payload['nodes']}",
        f"packing number: {payload['packing_number']}",
        f"comparison: {comparison}" + (f" (lower bound {result.optimum})" if not result.exhausted else ""),
    ]
    if args.witness:
        payload["witness"] = [_motif_object(motif) for motif in result.witness.motifs]
        lines += ["witness:", *(f"  {motif_to_text(motif)}" for motif in result.witness.motifs)]
    _write(args.format, payload, lines)
    return EXIT_DECOMPOSITION


# --- parser -----------------------------------------------------------------


def _positive_order(parser: argparse.ArgumentParser, value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        parser.error(f"--n expects an integer, got {value!r}")
    if n < 1:
        parser.error(f"--n must be at least 1, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    """argparse drops help text it cannot write.  This parser writes and
    flushes it itself, before argparse exits, so a closed stdout reaches
    `run` as it does for every other output."""

    def print_help(self, file: IO[str] | None = None) -> None:
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later call in the process, so callers must not mutate it.  The
    subcommand handlers look up `verify`, `STRATEGIES` and the codec
    functions in this module when they run, so patching those names
    still takes effect; only the strategy names are fixed at build time."""
    parser = _Parser(
        prog="ttmotifs",
        description=(
            "Pack and decompose transitive tournaments into two-arc motifs "
            "(chains, colliders, forks)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    decompose = subparsers.add_parser(
        "decompose", help="run a deterministic construction for TT_n"
    )
    decompose.add_argument("--n", required=True, type=lambda v: _positive_order(decompose, v))
    decompose.add_argument(
        "--strategy", choices=sorted(STRATEGIES), default="mixed",
        help="which construction to run (default: mixed)",
    )
    decompose.add_argument(
        "--format", choices=("json", "text", "diagram"), default="text",
        help="output form (default: text)",
    )
    decompose.set_defaults(func=cmd_decompose)

    counts = subparsers.add_parser("counts", help="closed-form counts for TT_n")
    counts.add_argument("--n", required=True, type=lambda v: _positive_order(counts, v))

    verify_cmd = subparsers.add_parser(
        "verify", help="verify a collection document (JSON from --input or stdin)"
    )
    verify_cmd.add_argument("--input", help="path to the document; '-' or absent reads stdin")

    oracle_cmd = subparsers.add_parser(
        "oracle", help="exact branch-and-bound maximum packing search"
    )
    oracle_cmd.add_argument("--kind", required=True, choices=MOTIF_KINDS)
    oracle_cmd.add_argument("--n", required=True, type=lambda v: _positive_order(oracle_cmd, v))
    oracle_cmd.add_argument(
        "--max-nodes", type=int, default=DEFAULT_MAX_NODES, help="node expansion budget"
    )
    oracle_cmd.add_argument("--max-time", type=float, help="wall-clock budget in seconds")
    oracle_cmd.add_argument("--witness", action="store_true", help="print the witness packing")

    # Each of these prints one payload, as JSON or as text lines; `--format`
    # comes last in its help and usage.
    for subparser, command in ((counts, cmd_counts), (verify_cmd, cmd_verify), (oracle_cmd, cmd_oracle)):
        subparser.add_argument("--format", choices=("json", "text"), default="text")
        subparser.set_defaults(func=command)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def run() -> None:
    """Process entry point.  Output that cannot be written, because the
    reader closed the pipe, exits 2 without a traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; point it at
        # /dev/null so that flush cannot raise (Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)
