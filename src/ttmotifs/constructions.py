"""Deterministic motif packings and decompositions of TT_n.

Each construction is a pairing of dots in the grid view of the arc set
(see `ttmotifs.diagram`): a row pair is a fork, a column pair is a
collider, a diagonal pair is a chain.  Three of the constructions
maximise one kind and spend the unpairable remainder on a second kind;
the fourth mixes all three kinds.  All four are total: whenever n(n-1)/2
is odd one arc necessarily stays unpaired, and it is simply left in
`unused_arcs`, so the result degrades from a decomposition to a packing
exactly for n = 2, 3 (mod 4).

Every construction is a pure function of n, and emission order is the
construction's own sweep order, so repeated calls
produce identical motif lists.  The builders emit each motif with its
triple already ascending, so they build it with the unchecked
`ttmotifs.core._new_motif` rather than through the checking constructors;
`decompose` runs `ttmotifs.analysis.verify` on every result all the same.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .core import CHAIN, COLLIDER, FORK, Arc, Motif, _new_motif, check_order, motif_arc_ends
from .core import FOREIGN_ARC, MISCLASSIFIED_MOTIF


class MotifCounts(NamedTuple):
    chains: int
    colliders: int
    forks: int


@dataclass(frozen=True)
class MotifCollection:
    """An ordered family of motifs over one TT_n.

    The container itself enforces nothing beyond the order being
    positive: arc-disjointness, canonical form, and vertex ranges are
    judged by its cached walk and reported by `ttmotifs.analysis.verify`,
    which must be able to inspect broken collections instead of never
    seeing them.
    """

    n: int
    motifs: tuple[Motif, ...]

    def __post_init__(self) -> None:
        check_order(self.n)

    @cached_property
    def _arc_walk(
        self,
    ) -> tuple[dict[int, int], dict[Arc, list[int]], list[tuple[int, str, str]], MotifCounts]:
        """The one loop over the motifs, and the only place that judges one.

        Each arc (tail, head) of TT_n is keyed as the int tail*(n+1)+head,
        which sorts like the pair.  Returns a user of each used arc; every
        user, in order, of each arc (tail, head) that canonical motifs
        share; (position, violation kind, detail) for each motif that is
        not canonical, in position order; and the tally of the kind tags,
        compared with ``==`` so that any tag can be counted.

        A canonical motif (a known kind on a tuple of three ints
        1 <= a < b < c <= n) uses its two arcs.  Any other is judged after
        the loop by the first check it fails: known kind, three int
        vertices, ascending, inside 1..n.  One of a known kind on three
        ints still uses those of its arcs that lie in TT_n, but, already
        rejected, shares none; the rest use nothing."""
        n = self.n
        stride = n + 1
        first_user: dict[int, int] = {}
        shared: dict[Arc, list[int]] = {}
        flagged: list[int] = []
        claim = first_user.setdefault
        chains = colliders = forks = 0
        for index, (kind, vertices) in enumerate(self.motifs):
            if type(vertices) is tuple and len(vertices) == 3:
                a, b, c = vertices
                if type(a) is int and type(b) is int and type(c) is int and 0 < a < b < c <= n:
                    if kind == CHAIN:
                        chains += 1
                        key1 = a * stride + b
                        key2 = b * stride + c
                    elif kind == FORK:
                        forks += 1
                        key1 = a * stride + b
                        key2 = a * stride + c
                    elif kind == COLLIDER:
                        colliders += 1
                        key1 = a * stride + c
                        key2 = b * stride + c
                    else:
                        flagged.append(index)
                        continue
                    user = claim(key1, index)
                    if user != index:
                        shared.setdefault(divmod(key1, stride), [user]).append(index)
                    user = claim(key2, index)
                    if user != index:
                        shared.setdefault(divmod(key2, stride), [user]).append(index)
                    continue
            flagged.append(index)
        problems: list[tuple[int, str, str]] = []
        for index in flagged:
            kind, vertices = self.motifs[index]
            if kind == CHAIN:
                chains += 1
            elif kind == FORK:
                forks += 1
            elif kind == COLLIDER:
                colliders += 1
            else:
                detail = f"motif {index} has unknown kind {kind!r}"
                problems.append((index, MISCLASSIFIED_MOTIF, detail))
                continue
            triple = type(vertices) is tuple and len(vertices) == 3
            a, b, c = vertices if triple else (None, None, None)
            if not (type(a) is int and type(b) is int and type(c) is int):
                detail = f"motif {index} vertices {vertices!r} are not a vertex triple"
                problems.append((index, MISCLASSIFIED_MOTIF, detail))
                continue
            if not a < b < c:
                detail = f"motif {index} vertices ({a},{b},{c}) are not in canonical ascending order"
                problems.append((index, MISCLASSIFIED_MOTIF, detail))
            else:  # ascending ints of a known kind are flagged only outside 1..n
                detail = f"motif {index} vertices ({a},{b},{c}) leave 1..{n}"
                problems.append((index, FOREIGN_ARC, detail))
            tail1, head1, tail2, head2 = motif_arc_ends(kind, a, b, c)
            for tail, head in ((tail1, head1), (tail2, head2)):
                if 1 <= tail < head <= n:
                    claim(tail * stride + head, index)
        return first_user, shared, problems, MotifCounts(chains, colliders, forks)

    @cached_property
    def unused_arc_count(self) -> int:
        """How many arcs of TT_n are in no motif, without listing them."""
        return self.n * (self.n - 1) // 2 - len(self._arc_walk[0])

    @cached_property
    def unused_arcs(self) -> frozenset[Arc]:
        """Arcs of TT_n in no motif."""
        if not self.unused_arc_count:
            return frozenset()
        n = self.n
        stride = n + 1
        covered = self._arc_walk[0]
        return frozenset(
            (tail, head)
            for tail in range(1, n)
            for head in range(tail + 1, n + 1)
            if tail * stride + head not in covered
        )

    def lists_unused_arcs(self, arcs: Sequence[Arc]) -> bool:
        """True iff `arcs` holds each unused arc of TT_n once, in any
        order.  The length is compared first, so the work is bounded by
        len(arcs), never by the size of TT_n."""
        if len(arcs) != self.unused_arc_count:
            return False
        n = self.n
        stride = n + 1
        covered = self._arc_walk[0]
        seen: set[int] = set()
        for tail, head in arcs:
            if not (type(tail) is int and type(head) is int and 1 <= tail < head <= n):
                return False
            key = tail * stride + head
            if key in covered or key in seen:
                return False
            seen.add(key)
        return True

    @property
    def counts(self) -> MotifCounts:
        """Tally of the stored kind tags."""
        return self._arc_walk[3]


def _pairs(dots: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Consecutive dots paired off in order: (d0, d1), (d2, d3), ...;
    an odd last dot is left out, and the caller decides where it goes."""
    it = iter(dots)
    return zip(it, it)


def construct_mixed(n: int) -> MotifCollection:
    """Mixed decomposition: diagonal chains, then row forks, then colliders.

    Consecutive main-diagonal dots pair into the chains
    (2m-1) -> 2m -> (2m+1); the dots remaining in each row pair off left
    to right into forks; the unpaired dots — all in column n — pair off
    top to bottom into colliders with head n.
    """
    motifs: list[Motif] = []
    for m in range(1, (n - 1) // 2 + 1):
        motifs.append(_new_motif(CHAIN, (2 * m - 1, 2 * m, 2 * m + 1)))
    leftover_rows: list[int] = []
    for i in range(1, n):
        if i <= n - 2:
            cols = range(i + 2, n + 1)
        elif n % 2 == 0:
            cols = [n]  # odd diagonal count: dot (n-1, n) survives the chains
        else:
            cols = []
        motifs.extend(_new_motif(FORK, (i, b, c)) for b, c in _pairs(cols))
        if len(cols) % 2 == 1:
            leftover_rows.append(i)  # the unpaired dot is (i, n)
    motifs.extend(_new_motif(COLLIDER, (a, b, n)) for a, b in _pairs(leftover_rows))
    return MotifCollection(n, tuple(motifs))


def construct_chain_max(n: int) -> MotifCollection:
    """Chain-maximal packing: saturate every interior centre with chains.

    High centres t (upper half, descending) host the chains
    i -> t -> i+t for i = 1..n-t; low centres t (descending) host
    i -> t -> n-i for i = 1..t-1.  That uses every arc except
    (i, n) for i = 1 and each low centre i; those pair into colliders
    with head n, tails taken in ascending consecutive pairs.
    """
    motifs: list[Motif] = []
    mid = (n + 2) // 2  # smallest high centre
    for t in range(n - 1, mid - 1, -1):
        for i in range(1, n - t + 1):
            motifs.append(_new_motif(CHAIN, (i, t, i + t)))
    for t in range(mid - 1, 1, -1):
        for i in range(1, t):
            motifs.append(_new_motif(CHAIN, (i, t, n - i)))
    tails = range(1, mid) if n >= 2 else ()
    motifs.extend(_new_motif(COLLIDER, (a, b, n)) for a, b in _pairs(tails))
    return MotifCollection(n, tuple(motifs))


def construct_collider_max(n: int) -> MotifCollection:
    """Collider-maximal packing: pair every column bottom-up.

    Column j pairs (j-1, j) with (j-2, j), (j-3, j) with (j-4, j), and
    so on; the even columns are left with their top dot (1, j), and
    those pair into forks with tail 1, heads ascending.
    """
    motifs: list[Motif] = []
    unpaired_heads: list[int] = []
    for j in range(2, n + 1):
        rows = range(j - 1, 0, -1)
        motifs.extend(_new_motif(COLLIDER, (b, a, j)) for a, b in _pairs(rows))  # a > b
        if len(rows) % 2 == 1:
            unpaired_heads.append(j)  # the unpaired dot is (1, j)
    motifs.extend(_new_motif(FORK, (1, b, c)) for b, c in _pairs(unpaired_heads))
    return MotifCollection(n, tuple(motifs))


def construct_fork_max(n: int) -> MotifCollection:
    """Fork-maximal packing: pair every row left-to-right.

    Row i pairs (i, i+1) with (i, i+2), (i, i+3) with (i, i+4), and so
    on; rows of odd length are left with their last dot (i, n), and
    those pair into colliders with head n, tails ascending.
    """
    motifs: list[Motif] = []
    unpaired_tails: list[int] = []
    for i in range(1, n):
        cols = range(i + 1, n + 1)
        motifs.extend(_new_motif(FORK, (i, b, c)) for b, c in _pairs(cols))
        if len(cols) % 2 == 1:
            unpaired_tails.append(i)  # the unpaired dot is (i, n)
    motifs.extend(_new_motif(COLLIDER, (a, b, n)) for a, b in _pairs(unpaired_tails))
    return MotifCollection(n, tuple(motifs))


STRATEGIES = {
    "mixed": construct_mixed,
    "chain-max": construct_chain_max,
    "collider-max": construct_collider_max,
    "fork-max": construct_fork_max,
}
