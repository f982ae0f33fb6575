"""Output checks: what each request must return for the run to count it.

References come from the closed forms in ttmotifs.analysis and from the
arc count of TT_n.  Every check reads the program's user-visible output
(exit code and stdout), never its internals.
"""

from __future__ import annotations

import re

from ttmotifs.analysis import is_admissible, mixed_counts, packing_number

from workloads import arc_count

DOMINANT_KIND = {"chain-max": "chain", "collider-max": "collider", "fork-max": "fork"}

_TEXT_LINE = re.compile(r"^v(\d+) (->|<-) v(\d+) (->|<-) v(\d+)$")
_TEXT_KIND = {("->", "->"): "chain", ("->", "<-"): "collider", ("<-", "->"): "fork"}
_REPORT_COUNTS = re.compile(r"^counts: chains (\d+), colliders (\d+), forks (\d+)$", re.M)
_PACKING_NUMBERS = re.compile(r"^packing numbers: chain (\d+), collider (\d+), fork (\d+)$", re.M)


def expected_exit(n: int) -> int:
    """0 for a decomposition, 3 for a packing with one arc left over."""
    return 0 if n % 4 in (0, 1) else 3


def mixed_reference(n: int) -> int:
    """Largest packing of TT_n into motifs of any kind: floor(arcs / 2)."""
    return arc_count(n) // 2


def counts_ok(strategy: str, n: int, counts: dict[str, int]) -> bool:
    """The construction packs floor(arcs/2) motifs, and its dominant kind
    reaches packing_number (mixed_counts for the mixed strategy)."""
    if sum(counts.values()) != mixed_reference(n):
        return False
    if strategy == "mixed":
        if not is_admissible(n):
            return True
        expected = mixed_counts(n)
        return (counts["chain"], counts["collider"], counts["fork"]) == tuple(expected)
    kind = DOMINANT_KIND[strategy]
    return counts[kind] == packing_number(kind, n)


def check_text(output: str, strategy: str, n: int) -> bool:
    counts = {"chain": 0, "collider": 0, "fork": 0}
    for line in output.splitlines():
        match = _TEXT_LINE.match(line)
        if match is None or max(int(match[1]), int(match[3]), int(match[5])) > n:
            return False
        kind = _TEXT_KIND.get((match[2], match[4]))
        if kind is None:
            return False
        counts[kind] += 1
    return counts_ok(strategy, n, counts)


def check_diagram(output: str, n: int) -> bool:
    """Header plus n-1 rows, and a plain dot exactly where an arc is unused."""
    lines = output.rstrip("\n").split("\n")
    return len(lines) == n and output.count("·") == arc_count(n) % 2


def check_counts(output: str, n: int) -> bool:
    match = _PACKING_NUMBERS.search(output)
    if match is None or f"\narcs: {arc_count(n)}\n" not in output:
        return False
    return [int(value) for value in match.groups()] == [
        packing_number(kind, n) for kind in ("chain", "collider", "fork")
    ]


def check_report(report: str, strategy: str, n: int) -> bool:
    """The verify report of an unmutated construction."""
    match = _REPORT_COUNTS.search(report)
    if match is None:
        return False
    counts = dict(zip(("chain", "collider", "fork"), map(int, match.groups())))
    decomposition = "yes" if expected_exit(n) == 0 else "no"
    return (
        "\nvalid: yes\n" in report
        and f"\ndecomposition: {decomposition}\n" in report
        and f"\nunused arcs: {arc_count(n) % 2}\n" in report
        and counts_ok(strategy, n, counts)
    )


def check_oracle(kind: str, n: int, result, report, reference: int) -> tuple[bool, bool]:
    """(ok, certified) for one oracle instance.

    ok: the witness is a valid packing of the reported size, of the asked
    kind, and no larger than the reference; an exhausted search must
    match the reference exactly.  certified: ok, exhausted and equal to
    the reference.  An inconclusive search is ok but not certified.
    """
    motifs = result.witness.motifs
    ok = (
        report.valid
        and len(motifs) == result.optimum <= reference
        and (kind == "mixed" or all(motif.kind == kind for motif in motifs))
        and (not result.exhausted or result.optimum == reference)
    )
    return ok, ok and result.exhausted
