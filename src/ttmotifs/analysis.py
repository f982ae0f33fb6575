"""Closed-form counts: admissibility, packing numbers, per-centre
capacities and the mixed decomposition's kind counts.

All arithmetic here is exact integer arithmetic; every division sits on
a guard that makes it exact, and that exactness is asserted rather than
assumed.  Nothing here builds or judges a collection: the builders are
in `ttmotifs.constructions`, and `verify` is in `ttmotifs.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CHAIN, COLLIDER, MOTIF_KINDS, MotifCounts, check_kind, check_order
from .core import verify  # re-exported


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
    if isinstance(t, bool) or not isinstance(t, int):
        raise ValueError(f"vertex must be an integer, got {t!r}")
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
    check_order(n)
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
    slots = n * (n - 1) // 4 if is_admissible(n) else None
    return PackingNumberTable(
        n=n,
        per_kind={kind: packing_number(kind, n) for kind in MOTIF_KINDS},
        total_motif_slots=slots,
    )
