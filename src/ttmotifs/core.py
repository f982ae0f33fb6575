"""Transitive tournaments, their connected two-arc motifs, collections of
motifs, and the verdict on a collection.

The transitive tournament on n vertices is determined by its order
alone: vertices are the integers 1..n in topological order and the arc
(i, j) exists exactly when i < j.  Arcs are plain ``(tail, head)``
tuples and motifs are named tuples, so they are hashable, comparable,
and cheap to put in sets.

A `MotifCollection` is an ordered family of motifs over one TT_n; its
one cached walk judges every motif, and `verify` reports what the walk
found.  The builders and the JSON decoder store their motifs packed, as
one kind byte and three vertex ints each (`_PackedMotifs`), through its
two writers.  Both layouts, the packed store and the walk's arc table,
are read and written only here.  The walk builds the arc table and
counts the arcs it claims, and `MotifCollection._row_users` is the one
reader of a row of it; the table's two layouts, dense and sparse, are
told apart in those two places only.  This module imports no other
ttmotifs module, so the verdict shares no code with the builders it
checks.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain as _iter_chain, repeat
from typing import Any, NamedTuple

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
    """All arcs of TT_n in lexicographic (tail, head) order."""
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


def _check_vertices(*vertices: int) -> None:
    """Reject a vertex that is not an int (a bool is not a vertex), as
    the walk does."""
    for vertex in vertices:
        if type(vertex) is not int:
            raise ValueError(f"motif vertices must be integers, got {vertex!r}")


def chain(a: int, b: int, c: int) -> Motif:
    """The chain a -> b -> c; requires a < b < c."""
    _check_vertices(a, b, c)
    if not a < b < c:
        raise ValueError(f"chain vertices must be strictly increasing, got ({a}, {b}, {c})")
    return Motif(CHAIN, (a, b, c))


def collider(tail_a: int, tail_b: int, head: int) -> Motif:
    """The collider tail_a -> head <- tail_b; tails may come in any order."""
    _check_vertices(tail_a, tail_b, head)
    a, b = sorted((tail_a, tail_b))
    if not a < b < head:
        raise ValueError(
            f"collider tails must be distinct and below the head, got ({tail_a}, {tail_b}) -> {head}"
        )
    return Motif(COLLIDER, (a, b, head))


def fork(tail: int, head_a: int, head_b: int) -> Motif:
    """The fork head_a <- tail -> head_b; heads may come in any order."""
    _check_vertices(tail, head_a, head_b)
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


# A kind byte's name.  `map` calls a list's `__getitem__` about twice as
# fast as a tuple's, which is a slot wrapper: 21 against 42 ns an item
# (CPython 3.11), once per motif in every walk and every encoding.
_kind_name = list(MOTIF_KINDS).__getitem__


class _PackedMotifs(Sequence):
    """A tuple of motifs held flat: motif j is the kind
    ``MOTIF_KINDS[kinds[j]]`` on the vertices ``vertices[3j:3j+3]``.

    It keeps 26 bytes a motif where a tuple of `Motif`s kept 174
    (tracemalloc, fork-max n = 400), and nothing the collector tracks.
    It iterates, indexes, slices, concatenates, hashes and prints as that
    tuple does, building each `Motif` it hands out, and compares with it
    for equality only; the walk and the encoder read `rows` instead,
    (kind, a, b, c) at C speed.
    It starts empty: the builders append through `put_runs` and the JSON
    decoder through `put`, and nothing changes it once a collection holds it.
    """

    __slots__ = ("kinds", "vertices")

    def __init__(self) -> None:
        self.kinds = bytearray()
        self.vertices = array("q")  # 64-bit signed: a larger vertex needs a `Motif`

    def put_runs(self, kind: str, a: Iterable[int], b: Iterable[int], c: Iterable[int]) -> None:
        """Append the motifs of one known kind on the vertex triples that zip
        takes from the columns `a`, `b` and `c`, as many as the shortest
        column holds; `repeat(v)` gives the same vertex v to every triple.
        An unknown kind, or a vertex that is not an int of 64 bits, raises
        and appends nothing."""
        code = bytes([MOTIF_KINDS.index(kind)])
        vertices = self.vertices
        start = len(vertices)
        try:
            vertices.extend(_iter_chain.from_iterable(zip(a, b, c)))
        except (TypeError, OverflowError):
            del vertices[start:]
            raise
        self.kinds.extend(code * ((len(vertices) - start) // 3))

    def put(self, kind: Any, vertices: Any) -> bool:
        """Append the motif `kind` on `vertices` if it is a known kind on
        three ints that fit in 64 signed bits, and say whether it did;
        anything else appends nothing.  The kind is found by ``==``, so an
        unhashable one is merely unknown."""
        try:
            code = MOTIF_KINDS.index(kind)
            a, b, c = vertices
        except (TypeError, ValueError):
            return False
        if not (type(a) is int and type(b) is int and type(c) is int):
            return False
        try:
            self.vertices.extend((a, b, c))
        except OverflowError:
            del self.vertices[3 * len(self.kinds) :]
            return False
        self.kinds.append(code)
        return True

    def rows(self) -> Iterator[tuple[str, int, int, int]]:
        it = iter(self.vertices)
        return zip(map(_kind_name, self.kinds), it, it, it)

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[Motif]:
        it = iter(self.vertices)
        pairs = zip(map(_kind_name, self.kinds), zip(it, it, it))
        return map(tuple.__new__, repeat(Motif), pairs)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        j = range(len(self))[index]  # raises IndexError and TypeError as a tuple does
        return Motif(MOTIF_KINDS[self.kinds[j]], tuple(self.vertices[3 * j : 3 * j + 3]))

    # The rest is the tuple's own.  A tuple on the left of ``==`` answers
    # through the reflected `__eq__`, so a collection's generated eq, hash
    # and repr treat a packed sequence as the tuple of its motifs.
    def __eq__(self, other: object) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other: Any) -> tuple:
        return tuple(self) + (tuple(other) if type(other) is _PackedMotifs else other)

    def __repr__(self) -> str:
        return repr(tuple(self))


def _motif_rows(motifs: Sequence[Motif]) -> Iterator[tuple[str, int, int, int]]:
    """Each motif as a row (kind, a, b, c): at C speed from a packed
    sequence, and unpacked from each (kind, (a, b, c)) entry of any
    other, which must hold only such entries."""
    if type(motifs) is _PackedMotifs:
        return motifs.rows()
    return ((kind, a, b, c) for kind, (a, b, c) in motifs)


def _entry_rows(motifs: Iterable[Any]) -> Iterator[tuple[Any, Any, Any, Any]]:
    """Each entry of a sequence that is not packed as the walk's row
    (kind, a, b, c).  An entry that is not a (kind, vertices) pair is a
    row of kind None, and vertices that are not a tuple of three are
    None, None, None; the walk rejects both, and reads what its message
    shows from the entry itself."""
    for entry in motifs:
        try:
            kind, vertices = entry
        except (TypeError, ValueError):
            yield None, None, None, None
            continue
        if type(vertices) is tuple and len(vertices) == 3:
            yield (kind, *vertices)
        else:
            yield kind, None, None, None


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


def _misshapen(index: int, entry: Any, by_vertices: bool) -> Violation:
    """The walk's rejection of the entry at `index` for its kind, or
    `by_vertices`, read back from the entry.  One that is not a (kind,
    vertices) pair on this second read is rejected as such, so no entry
    makes the walk raise."""
    try:
        kind, vertices = entry
    except (TypeError, ValueError):
        detail = f"motif {index} is not a (kind, vertices) pair: {_shown(entry)}"
    else:
        if by_vertices:
            detail = f"motif {index} vertices {_shown(vertices)} are not a vertex triple"
        else:
            detail = f"motif {index} has unknown kind {_shown(kind)}"
    return Violation(MISCLASSIFIED_MOTIF, detail, motifs=(index,))


@dataclass(frozen=True)
class MotifCollection:
    """An ordered family of motifs over one TT_n.

    The container itself enforces nothing beyond the order being a
    positive int: arc-disjointness, canonical form, and vertex ranges are
    judged by its cached walk and reported by `verify`, which must be
    able to inspect broken collections instead of never seeing them.
    The motifs may be any sequence; the builders and the JSON decoder
    hand over a `_PackedMotifs`.
    """

    n: int
    motifs: Sequence[Motif]

    def __post_init__(self) -> None:
        check_order(self.n)

    @cached_property
    def _arc_walk(self) -> tuple[list[int] | _SparseArcs, tuple[Violation, ...], MotifCounts, int]:
        """The one loop over the motifs, and the only place that judges one.

        Each arc (tail, head) of TT_n is keyed as the int tail*(n+1)+head,
        which sorts like the pair.  Returns the arc table, which maps each
        key to the position of the arc's first user, or -1 for a free arc;
        the violations: one per motif that is not canonical, in position
        order, then one per arc that canonical motifs share, in arc order,
        naming every user; the tally of the kind tags, compared with ``==``
        so that any tag can be counted; and the number of keys it claimed.

        The table is a list of all (n+1)**2 keys when that is at most
        `_DENSE_SLOTS_PER_MOTIF` slots per motif, and otherwise a
        `_SparseArcs` dict, so a few motifs at a huge order allocate
        nothing of size n**2.  Both read ``table[key]``; only this and
        `_row_users` tell them apart.  The claims are counted, not
        recounted from the table: two for each canonical motif, less one
        for each later user of a shared arc, plus the set-aside arcs
        claimed after the loop.

        The loop reads each motif as a row (kind, a, b, c): at C speed
        from a packed collection, through `_entry_rows` from any other.
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
        motifs = self.motifs
        stride = n + 1
        slots = stride * stride
        table: list[int] | _SparseArcs
        table = [-1] * slots if slots <= _DENSE_SLOTS_PER_MOTIF * len(motifs) else _SparseArcs()
        shared: dict[Arc, list[int]] = {}
        set_aside: list[tuple[int, int]] = []  # (arc key, position) of rejected motifs
        violations: list[Violation] = []
        chains = colliders = forks = 0
        rows = motifs.rows() if type(motifs) is _PackedMotifs else _entry_rows(motifs)
        for index, (kind, a, b, c) in enumerate(rows):
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
                violations.append(_misshapen(index, motifs[index], by_vertices=False))
                continue
            if not (type(a) is int and type(b) is int and type(c) is int):
                violations.append(_misshapen(index, motifs[index], by_vertices=True))
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
        # Each motif is canonical or rejected by one violation; a canonical
        # one claims its two arcs unless a user came before it.
        claimed = 2 * (len(motifs) - len(violations)) - sum(map(len, shared.values())) + len(shared)
        for key, index in set_aside:
            if table[key] < 0:
                table[key] = index
                claimed += 1
        for arc in sorted(shared):
            detail = f"duplicate arc ({_shown(arc[0])},{_shown(arc[1])})"
            violations.append(Violation(DUPLICATE_ARC, detail, motifs=tuple(shared[arc]), arc=arc))
        return table, tuple(violations), MotifCounts(chains, colliders, forks), claimed

    @property
    def unused_arc_count(self) -> int:
        """How many arcs of TT_n are in no motif, without listing them."""
        return self.n * (self.n - 1) // 2 - self._arc_walk[3]

    @cached_property
    def unused_arcs(self) -> frozenset[Arc]:
        """Arcs of TT_n in no motif."""
        # `list.index` finds each free arc of a row at C speed, and the
        # rows stop once the walk's count of them is found: 0.08 ms for
        # collider-max's one unused arc, in row 1, at n = 778, and 5 ms
        # for one in the last row at n = 799-802 (best of 9, CPython 3.11
        # on a 2-core machine).  `decompose` derives the unused arcs of
        # every packing.
        count = self.unused_arc_count
        unused = []
        for tail in range(1, self.n):
            if len(unused) == count:
                break
            users = self._row_users(tail)
            at = -1
            while True:
                try:
                    at = users.index(-1, at + 1)
                except ValueError:
                    break
                unused.append((tail, tail + 1 + at))
        return frozenset(unused)

    def _row_users(self, tail: int) -> list[int]:
        """The position of the motif on each arc (tail, tail+1..n) of the
        walk's arc table, or -1 where the arc is free."""
        row = tail * (self.n + 1)
        start, stop = row + tail + 1, row + self.n + 1
        table = self._arc_walk[0]
        if type(table) is list:
            return table[start:stop]
        return [table[key] for key in range(start, stop)]

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
    _, violations, counts, _ = collection._arc_walk
    valid = not violations
    return VerificationReport(
        n=collection.n,
        valid=valid,
        is_decomposition=valid and collection.unused_arc_count == 0,
        counts=counts,
        violations=violations,
    )
