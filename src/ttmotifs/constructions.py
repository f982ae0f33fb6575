"""Deterministic motif packings and decompositions of TT_n: the four
builders and `STRATEGIES`, which names them for the command line.

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
`decompose` runs `ttmotifs.core.verify` on every result all the same.
Only the command line and the package root import this module, so the
verifier, the closed forms, the diagram and the oracle share no code with
what they check.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .core import CHAIN, COLLIDER, FORK, Motif, MotifCollection, _new_motif


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
