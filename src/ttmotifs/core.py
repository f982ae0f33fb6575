"""Transitive tournaments, their connected two-arc motifs, collections of
motifs, and the verdict on a collection.

The transitive tournament on n vertices is determined by its order
alone: vertices are the integers 1..n in topological order and the arc
(i, j) exists exactly when i < j.  Arcs are plain ``(tail, head)``
tuples and motifs are named tuples, so they are hashable, comparable,
and cheap to put in sets.

A `MotifCollection` is an ordered family of motifs over one TT_n; its
one cached walk judges every motif, and `verify` reports what the walk
found.  This module imports no other ttmotifs module, so the verdict
shares no code with the builders it checks.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
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
    """Reject anything but an int (a bool is not an order) of at least 1."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"order must be an integer, got {n!r}")
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


# Kept beside `Motif(kind, vertices)`, which builds the same tuple, for
# speed: the named tuple's own `__new__` takes 320 ns a call against 235 ns
# here (CPython 3.11), and with `Motif(...)` in the builders and the
# decoder hook the four n = 800 builds went from a median 620 to 776 ms and
# the four n = 800 decodes from 1,424 to 1,641 ms (8 alternating process
# pairs on a 2-core machine).
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


def motif_arcs(motif: Motif) -> tuple[Arc, Arc]:
    """The two arcs of a canonical motif: the one statement of which two
    arcs of its ascending triple each kind uses."""
    check_kind(motif.kind)
    a, b, c = motif.vertices
    if motif.kind == CHAIN:
        return (a, b), (b, c)
    if motif.kind == COLLIDER:
        return (a, c), (b, c)
    return (a, b), (a, c)


def motif_center(motif: Motif) -> int:
    """The vertex shared by the motif's two arcs: the first arc's head,
    or its tail for a fork."""
    (tail, head), _ = motif_arcs(motif)
    return tail if motif.kind == FORK else head


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


class MotifCounts(NamedTuple):
    chains: int
    colliders: int
    forks: int


class Violation(NamedTuple):
    """One structured verifier finding; its fields are one entry of the
    verify report."""

    kind: str  # DUPLICATE_ARC | FOREIGN_ARC | MISCLASSIFIED_MOTIF | COVERAGE_GAP
    detail: str
    motifs: tuple[int, ...] = ()  # offending positions in the motif list
    arc: Arc | None = None


# The walk's arc table is a list of every key when TT_n has at most this
# many keys per motif.  The list costs 8 bytes a key, so at most 128 bytes
# a motif; a dict of used keys costs about 130 bytes a motif (tracemalloc,
# fork-max n = 400 and 782, CPython 3.11), and claims more slowly.
_DENSE_SLOTS_PER_MOTIF = 16


class _SparseArcs(dict):
    """The walk's arc table where TT_n has far more keys than the motifs
    use: the used keys only.  A free key reads as -1 and is not inserted,
    so looking one up never grows the table."""

    __slots__ = ()

    def __missing__(self, key: int) -> int:
        return -1


def _shown(value: object) -> str:
    """`repr(value)` for a violation detail.  An int past the interpreter's
    int-to-str digit limit, which `repr` refuses, shows as its bit length,
    also inside a tuple or list; any other value that `repr` refuses shows
    as its type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        if isinstance(value, list):
            return f"[{', '.join(map(_shown, value))}]"
        if isinstance(value, tuple):
            items = ", ".join(map(_shown, value))
            return f"({items},)" if len(value) == 1 else f"({items})"
        return f"<{type(value).__name__}>"


@dataclass(frozen=True)
class MotifCollection:
    """An ordered family of motifs over one TT_n.

    The container itself enforces nothing beyond the order being a
    positive int: arc-disjointness, canonical form, and vertex ranges are
    judged by its cached walk and reported by `verify`, which must be
    able to inspect broken collections instead of never seeing them.
    """

    n: int
    motifs: tuple[Motif, ...]

    def __post_init__(self) -> None:
        check_order(self.n)

    @cached_property
    def _arc_walk(self) -> tuple[list[int] | _SparseArcs, tuple[Violation, ...], MotifCounts]:
        """The one loop over the motifs, and the only place that judges one.

        Each arc (tail, head) of TT_n is keyed as the int tail*(n+1)+head,
        which sorts like the pair.  Returns the arc table, which maps each
        key to the position of the arc's first user, or -1 for a free arc;
        the violations: one per motif that is not canonical, in position
        order, then one per arc that canonical motifs share, in arc order,
        naming every user; and the tally of the kind tags, compared with
        ``==`` so that any tag can be counted.

        The table is a list of all (n+1)**2 keys when that is at most
        `_DENSE_SLOTS_PER_MOTIF` slots per motif, and otherwise a
        `_SparseArcs` dict, so a few motifs at a huge order allocate
        nothing of size n**2.  Both read ``table[key]``.

        Each motif is judged where the loop meets it, by the first check
        it fails: a (kind, vertices) pair, known kind, three int vertices,
        ascending, inside 1..n.  A canonical motif (a known kind on a
        tuple of three ints 1 <= a < b < c <= n) uses its two arcs.  A
        rejected one of a known kind on three ints sets aside those of its
        arcs that lie in TT_n; they are claimed after the loop, so they
        count as used but share nothing.  The rest use nothing.  A detail
        shows each value as `_shown` does, so no value makes the walk
        raise."""
        n = self.n
        stride = n + 1
        slots = stride * stride
        table: list[int] | _SparseArcs
        table = [-1] * slots if slots <= _DENSE_SLOTS_PER_MOTIF * len(self.motifs) else _SparseArcs()
        shared: dict[Arc, list[int]] = {}
        set_aside: list[tuple[int, int]] = []  # (arc key, position) of rejected motifs
        violations: list[Violation] = []
        chains = colliders = forks = 0
        for index, entry in enumerate(self.motifs):
            try:
                kind, vertices = entry
            except (TypeError, ValueError):
                detail = f"motif {index} is not a (kind, vertices) pair: {_shown(entry)}"
                violations.append(Violation(MISCLASSIFIED_MOTIF, detail, motifs=(index,)))
                continue
            if type(vertices) is tuple and len(vertices) == 3:
                a, b, c = vertices
            else:
                a = b = c = None
            # The two arcs are (a, head1) and (tail2, c).  This mirrors
            # `motif_arcs`, inline for speed: it runs once per motif.
            if kind == CHAIN:
                chains += 1
                head1 = tail2 = b
            elif kind == FORK:
                forks += 1
                head1, tail2 = b, a
            elif kind == COLLIDER:
                colliders += 1
                head1, tail2 = c, b
            else:
                detail = f"motif {index} has unknown kind {_shown(kind)}"
                violations.append(Violation(MISCLASSIFIED_MOTIF, detail, motifs=(index,)))
                continue
            if not (type(a) is int and type(b) is int and type(c) is int):
                detail = f"motif {index} vertices {_shown(vertices)} are not a vertex triple"
                violations.append(Violation(MISCLASSIFIED_MOTIF, detail, motifs=(index,)))
                continue
            if 0 < a < b < c <= n:
                key = a * stride + head1
                if table[key] < 0:
                    table[key] = index
                else:
                    shared.setdefault((a, head1), [table[key]]).append(index)
                key = tail2 * stride + c
                if table[key] < 0:
                    table[key] = index
                else:
                    shared.setdefault((tail2, c), [table[key]]).append(index)
                continue
            triple = f"({_shown(a)},{_shown(b)},{_shown(c)})"
            if not a < b < c:
                detail = f"motif {index} vertices {triple} are not in canonical ascending order"
                violations.append(Violation(MISCLASSIFIED_MOTIF, detail, motifs=(index,)))
            else:  # ascending ints of a known kind are rejected only outside 1..n
                detail = f"motif {index} vertices {triple} leave 1..{_shown(n)}"
                violations.append(Violation(FOREIGN_ARC, detail, motifs=(index,)))
            for tail, head in ((a, head1), (tail2, c)):
                if 1 <= tail < head <= n:
                    set_aside.append((tail * stride + head, index))
        for key, index in set_aside:
            if table[key] < 0:
                table[key] = index
        for arc in sorted(shared):
            detail = f"duplicate arc ({_shown(arc[0])},{_shown(arc[1])})"
            violations.append(Violation(DUPLICATE_ARC, detail, motifs=tuple(shared[arc]), arc=arc))
        return table, tuple(violations), MotifCounts(chains, colliders, forks)

    @cached_property
    def unused_arc_count(self) -> int:
        """How many arcs of TT_n are in no motif, without listing them."""
        table = self._arc_walk[0]
        used = len(table) - table.count(-1) if type(table) is list else len(table)
        return self.n * (self.n - 1) // 2 - used

    @cached_property
    def unused_arcs(self) -> frozenset[Arc]:
        """Arcs of TT_n in no motif."""
        if not self.unused_arc_count:
            return frozenset()
        n = self.n
        stride = n + 1
        table = self._arc_walk[0]
        if type(table) is not list:
            return frozenset(
                (tail, head)
                for tail in range(1, n)
                for head in range(tail + 1, n + 1)
                if tail * stride + head not in table
            )
        # Row `tail` holds the keys of the arcs (tail, tail+1..n), and
        # `list.index` finds each free one at C speed: 4.3 ms at n = 802
        # (the mixed strategy, one unused arc; best of 7, CPython 3.11 on a
        # 2-core machine), where a Python loop testing each key of a dict
        # table took 27.7 ms.  `decompose` derives the unused arcs of every
        # packing.
        unused = []
        for tail in range(1, n):
            row = tail * stride
            key, end = row + tail, row + stride
            while True:
                try:
                    key = table.index(-1, key + 1, end)
                except ValueError:
                    break
                unused.append((tail, key - row))
        return frozenset(unused)

    def lists_unused_arcs(self, arcs: Sequence[Arc]) -> bool:
        """True iff `arcs` holds each unused arc of TT_n once, in any
        order.  The length is compared first, so the work is bounded by
        len(arcs), never by the size of TT_n."""
        if len(arcs) != self.unused_arc_count:
            return False
        n = self.n
        stride = n + 1
        table = self._arc_walk[0]
        seen: set[int] = set()
        for arc in arcs:
            try:
                tail, head = arc
            except (TypeError, ValueError):  # not a pair
                return False
            if not (type(tail) is int and type(head) is int and 1 <= tail < head <= n):
                return False
            key = tail * stride + head
            if table[key] >= 0 or key in seen:
                return False
            seen.add(key)
        return True

    @property
    def counts(self) -> MotifCounts:
        """Tally of the stored kind tags."""
        return self._arc_walk[2]


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
    violations: tuple[Violation, ...] = ()


def verify(collection: MotifCollection) -> VerificationReport:
    """Report on a collection, trusting nothing about its origin.

    Each entry must be a (kind, vertices) pair holding a canonical motif
    (a known kind on three int vertices, strictly ascending) that uses
    only arcs of TT_n; across motifs every arc may appear at most once.
    A canonical motif's two arcs, as `motif_arcs` gives them, always
    form a motif of its own kind, so the kind tag needs no re-derivation.
    The collection's one loop over its motifs makes every one of these
    checks where it meets the motif and records each failure as a
    `Violation`; this reads the walk's violations and its tally of the
    kind tags, and is the only judge of validity.  It shares no code with
    the builders, so a construction's result is checked by code that did
    not make it.
    """
    _, violations, counts = collection._arc_walk
    valid = not violations
    return VerificationReport(
        n=collection.n,
        valid=valid,
        is_decomposition=valid and collection.unused_arc_count == 0,
        counts=counts,
        violations=violations,
    )
