"""Closed-form counts and the collection verifier.

All arithmetic here is exact integer arithmetic; every division sits on
a guard that makes it exact, and that exactness is asserted rather than
assumed.  The verifier is deliberately independent of the builders: it
checks each motif's canonical form and arcs, through the collection's
own walk over its motifs, and reports what it finds instead of trusting
the producer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constructions import MotifCollection, MotifCounts
from .core import CHAIN, COLLIDER, MOTIF_KINDS, Arc, check_kind, check_order

DUPLICATE_ARC = "duplicate_arc"
FOREIGN_ARC = "foreign_arc"
MISCLASSIFIED_MOTIF = "misclassified_motif"
COVERAGE_GAP = "coverage_gap"


def is_admissible(n: int) -> bool:
    """True iff n(n-1)/2 is even, i.e. n = 0 or 1 (mod 4), so the arc
    set can split into two-arc motifs without remainder."""
    check_order(n)
    return n % 4 in (0, 1)


def packing_number(kind: str, n: int) -> int:
    """Maximum number of arc-disjoint motifs of one kind in TT_n:
    n(n-2)/4 for even n, (n-1)^2/4 for odd n — the same for all kinds."""
    check_kind(kind)
    check_order(n)
    numerator = n * (n - 2) if n % 2 == 0 else (n - 1) * (n - 1)
    assert numerator % 4 == 0
    return numerator // 4


def mixed_counts(n: int) -> MotifCounts:
    """Kind counts of the mixed decomposition for admissible n:
    floor((n-1)/2) chains, floor(n/4) colliders, the rest forks."""
    if not is_admissible(n):
        raise ValueError(f"n = {n} is not admissible (needs n = 0 or 1 mod 4)")
    assert n * (n - 1) % 4 == 0
    total = n * (n - 1) // 4
    chains = (n - 1) // 2
    colliders = n // 4
    return MotifCounts(chains, colliders, total - chains - colliders)


def center_capacity(kind: str, n: int, t: int) -> int:
    """Maximum number of kind-motifs that can be centred on vertex t:
    chains need an in- and an out-arc, colliders two in-arcs, forks two
    out-arcs, and vertex t has t-1 arcs in and n-t arcs out."""
    check_kind(kind)
    check_order(n)
    if not 1 <= t <= n:
        raise ValueError(f"vertex {t} outside 1..{n}")
    if kind == CHAIN:
        return min(t - 1, n - t)
    if kind == COLLIDER:
        return (t - 1) // 2
    return (n - t) // 2


def capacity_sum(kind: str, n: int) -> int:
    """Sum of per-centre capacities; an upper bound on any packing of
    the kind, and in fact equal to packing_number(kind, n)."""
    return sum(center_capacity(kind, n, t) for t in range(1, n + 1))


@dataclass(frozen=True)
class PackingNumberTable:
    """Packing numbers of one order, per kind, next to the count
    n(n-1)/4 that a full decomposition would need (None when that is
    not an integer)."""

    n: int
    per_kind: dict[str, int]
    total_motif_slots: int | None


def packing_number_table(n: int) -> PackingNumberTable:
    slots = n * (n - 1) // 4 if n * (n - 1) % 4 == 0 else None
    return PackingNumberTable(
        n=n,
        per_kind={kind: packing_number(kind, n) for kind in MOTIF_KINDS},
        total_motif_slots=slots,
    )


@dataclass(frozen=True)
class Violation:
    """One structured verifier finding."""

    kind: str  # DUPLICATE_ARC | FOREIGN_ARC | MISCLASSIFIED_MOTIF | COVERAGE_GAP
    detail: str
    motifs: tuple[int, ...] = ()  # offending positions in the motif list
    arc: Arc | None = None


@dataclass(frozen=True)
class VerificationReport:
    """Verdict on a motif collection.

    `valid` means no violations; `is_decomposition` additionally means
    the motifs' arcs cover every arc of TT_n exactly once.  Problems are
    reported, never thrown.
    """

    n: int
    valid: bool
    is_decomposition: bool
    counts: MotifCounts
    violations: tuple[Violation, ...] = field(default_factory=tuple)


def verify(collection: MotifCollection) -> VerificationReport:
    """Check a collection bottom-up, trusting nothing about its origin.

    Each motif must be canonical (a known kind on three int vertices,
    strictly ascending) and must use only arcs of TT_n; across motifs
    every arc may appear at most once.  A canonical motif's two arcs,
    from `motif_arc_ends`, always form a motif of its own kind, so the
    kind tag needs no re-derivation.  Everything is read from the
    collection's one walk over its motifs, which also records the
    positions of the motifs that are not canonical in range; only those
    go through the checks above, which say what is wrong with each.  A
    shared arc is reported among the motifs that pass the checks, and
    the counts are the walk's tally of the kind tags.
    """
    n = collection.n
    _, shared, flagged, counts = collection._arc_walk
    motifs = collection.motifs
    violations: list[Violation] = []
    rejected: set[int] = set()
    for index in flagged:
        kind, vertices = motifs[index]
        if type(vertices) is tuple and len(vertices) == 3:
            a, b, c = vertices
        else:
            a = b = c = None
        if kind not in MOTIF_KINDS:
            problem = MISCLASSIFIED_MOTIF, f"motif {index} has unknown kind {kind!r}"
        elif not (type(a) is int and type(b) is int and type(c) is int):
            problem = (
                MISCLASSIFIED_MOTIF,
                f"motif {index} vertices {vertices!r} are not a vertex triple",
            )
        elif not a < b < c:
            problem = (
                MISCLASSIFIED_MOTIF,
                f"motif {index} vertices ({a},{b},{c}) are not in canonical ascending order",
            )
        elif a < 1 or c > n:
            problem = FOREIGN_ARC, f"motif {index} vertices ({a},{b},{c}) leave 1..{n}"
        else:
            continue
        violations.append(Violation(*problem, motifs=(index,)))
        rejected.add(index)
    for key in sorted(shared):
        users = tuple(user for user in shared[key] if user not in rejected)
        if len(users) > 1:
            arc = divmod(key, n + 1)
            detail = f"duplicate arc ({arc[0]},{arc[1]})"
            violations.append(Violation(DUPLICATE_ARC, detail, motifs=users, arc=arc))
    valid = not violations
    return VerificationReport(
        n=n,
        valid=valid,
        is_decomposition=valid and collection.unused_arc_count == 0,
        counts=counts,
        violations=tuple(violations),
    )
