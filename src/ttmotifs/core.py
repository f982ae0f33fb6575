"""Transitive tournaments and their connected two-arc motifs.

The transitive tournament on n vertices is determined by its order
alone: vertices are the integers 1..n in topological order and the arc
(i, j) exists exactly when i < j.  Arcs are plain ``(tail, head)``
tuples and motifs are named tuples, so every value in this module is
hashable, comparable, and cheap to put in sets.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

Arc = tuple[int, int]  # (tail, head), tail < head in a transitive tournament

CHAIN = "chain"
COLLIDER = "collider"
FORK = "fork"
MOTIF_KINDS = (CHAIN, COLLIDER, FORK)

DUPLICATE_ARC = "duplicate_arc"
FOREIGN_ARC = "foreign_arc"
MISCLASSIFIED_MOTIF = "misclassified_motif"
COVERAGE_GAP = "coverage_gap"


def check_order(n: int) -> None:
    """Reject orders below 1."""
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")


def check_kind(kind: str) -> None:
    """Reject anything but the three motif kinds."""
    if kind not in MOTIF_KINDS:
        raise ValueError(f"unknown motif kind {kind!r}; expected one of {MOTIF_KINDS}")


def iter_arcs(n: int) -> Iterator[Arc]:
    """All arcs of TT_n in lexicographic (tail, head) order.  Lazy, so a
    caller that keeps only some of them never builds the full list."""
    return ((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


class Motif(NamedTuple):
    """A connected two-arc motif in canonical form.

    The vertex triple is strictly increasing for every kind; the kind
    decides how the triple is read:

    * ``chain    (a, b, c)``: a -> b -> c, centre b (the interior vertex)
    * ``collider (a, b, c)``: a -> c <- b, centre c (the shared head)
    * ``fork     (a, b, c)``: b <- a -> c, centre a (the shared tail)

    Because the symmetric pair (the collider's tails, the fork's heads)
    is stored in ascending order, two motifs are equal as tuples exactly
    when they are the same subgraph.
    """

    kind: str
    vertices: tuple[int, int, int]


def _new_motif(kind: str, vertices: tuple[int, int, int]) -> Motif:
    """`Motif(kind, vertices)` without the named tuple's `__new__`
    wrapper, i.e. `Motif._make` without its classmethod call and length
    check.  Checks nothing: for the builders and the JSON decoder, which
    make hundreds of thousands of motifs from parts they have checked."""
    return tuple.__new__(Motif, (kind, vertices))


def chain(a: int, b: int, c: int) -> Motif:
    """The chain a -> b -> c; requires a < b < c."""
    if not a < b < c:
        raise ValueError(f"chain vertices must be strictly increasing, got ({a}, {b}, {c})")
    return Motif(CHAIN, (a, b, c))


def collider(tail_a: int, tail_b: int, head: int) -> Motif:
    """The collider tail_a -> head <- tail_b; tails may come in any order."""
    a, b = sorted((tail_a, tail_b))
    if not a < b < head:
        raise ValueError(
            f"collider tails must be distinct and below the head, got ({tail_a}, {tail_b}) -> {head}"
        )
    return Motif(COLLIDER, (a, b, head))


def fork(tail: int, head_a: int, head_b: int) -> Motif:
    """The fork head_a <- tail -> head_b; heads may come in any order."""
    b, c = sorted((head_a, head_b))
    if not tail < b < c:
        raise ValueError(
            f"fork heads must be distinct and above the tail, got {tail} -> ({head_a}, {head_b})"
        )
    return Motif(FORK, (tail, b, c))


def motif_arc_ends(kind: str, a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """(tail, head, tail, head) of the two arcs of a kind-motif on the
    triple (a, b, c), as plain ints for the callers that key arcs by
    number instead of building them."""
    if kind == CHAIN:
        return a, b, b, c
    if kind == COLLIDER:
        return a, c, b, c
    if kind == FORK:
        return a, b, a, c
    raise ValueError(f"unknown motif kind {kind!r}")


def motif_arcs(motif: Motif) -> tuple[Arc, Arc]:
    """The two arcs of a canonical motif."""
    a, b, c = motif.vertices
    tail1, head1, tail2, head2 = motif_arc_ends(motif.kind, a, b, c)
    return (tail1, head1), (tail2, head2)


def motif_center(motif: Motif) -> int:
    """The vertex shared by the motif's two arcs."""
    a, b, c = motif.vertices
    if motif.kind == CHAIN:
        return b
    if motif.kind == COLLIDER:
        return c
    if motif.kind == FORK:
        return a
    raise ValueError(f"unknown motif kind {motif.kind!r}")


def classify_arcs(a: Arc, b: Arc) -> Motif | None:
    """Canonical motif formed by two distinct well-formed arcs.

    Returns None when the arcs share no vertex.  Two distinct arcs of a
    transitive tournament can share at most one vertex, so the four
    cases below are exhaustive and mutually exclusive.
    """
    if a == b:
        raise ValueError(f"arcs must be distinct, got {a} twice")
    (ta, ha), (tb, hb) = a, b
    if ha == tb:
        return chain(ta, ha, hb)
    if hb == ta:
        return chain(tb, hb, ha)
    if ha == hb:
        return collider(ta, tb, ha)
    if ta == tb:
        return fork(ta, ha, hb)
    return None


@dataclass(frozen=True)
class TransitiveTournament:
    """The transitive tournament TT_n: vertices 1..n, arc (i, j) iff i < j."""

    n: int

    def __post_init__(self) -> None:
        check_order(self.n)

    @property
    def arc_count(self) -> int:
        return self.n * (self.n - 1) // 2
