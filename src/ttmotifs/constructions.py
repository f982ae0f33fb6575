"""Deterministic motif packings and decompositions of TT_n: the four
builders and `STRATEGIES`, which names them for the command line.

Each construction is a pairing of dots in the grid view of the arc set
(see `ttmotifs.diagram`): a row pair is a fork, a column pair is a
collider, a diagonal pair is a chain.  Three of the constructions
maximise one kind and spend the unpairable remainder on a second kind;
the fourth mixes all three kinds.  Two pairings are shared.  The row
sweep pairs each row's dots into forks from the row's first free column
and decides where an odd row's last dot (i, n) goes: to the column-n
pairing, which pairs such dots into colliders with head n.
`construct_fork_max` is the sweep alone, `construct_mixed` is its
diagonal chains and then the sweep, and `construct_chain_max` hands its
leftover tails to the column-n pairing; only `construct_collider_max`
sweeps columns.  All four are total: whenever n(n-1)/2
is odd one arc necessarily stays unpaired, and it is simply left in
`unused_arcs`, so the result degrades from a decomposition to a packing
exactly for n = 2, 3 (mod 4).

Every construction checks its order first, as every entry point does,
and is then a pure function of n; emission order is the construction's
own sweep order, so repeated calls produce identical motif lists.  The
builders emit each motif with its triple already ascending, so they
build it with the unchecked `ttmotifs.core._new_motif` rather than
through the checking constructors;
`decompose` runs `ttmotifs.core.verify` on every result all the same.
Only the command line and the package root import this module, so the
verifier, the closed forms, the diagram and the oracle share no code with
what they check.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .core import CHAIN, COLLIDER, FORK, Motif, MotifCollection, _new_motif, check_order


def _pairs(dots: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Consecutive dots paired off in order: (d0, d1), (d2, d3), ...;
    an odd last dot is left out, and the caller decides where it goes:
    `_row_sweep` hands a row's to `_column_n_colliders`, and
    `construct_collider_max` pairs a column's into forks."""
    it = iter(dots)
    return zip(it, it)


def _column_n_colliders(n: int, tails: Iterable[int]) -> Iterator[Motif]:
    """The column-n dots (t, n), t in `tails`, paired in order into
    colliders with head n."""
    return (_new_motif(COLLIDER, (a, b, n)) for a, b in _pairs(tails))


def _row_sweep(n: int, starts: Iterable[int], motifs: list[Motif]) -> list[Motif]:
    """Extend `motifs`, the motifs emitted before the sweep, and return it.

    Row i (1, 2, ...) pairs its dots into forks left to right, from its
    first free column, the i-th of `starts`, to column n.  A row of odd
    length keeps its last dot (i, n); after the last row those dots go to
    `_column_n_colliders`, tails ascending.  The sweep does not know
    which builder called it: the start columns carry the difference."""
    odd_rows: list[int] = []
    for i, start in enumerate(starts, 1):
        cols = range(start, n + 1)
        motifs.extend(_new_motif(FORK, (i, b, c)) for b, c in _pairs(cols))
        if len(cols) % 2 == 1:
            odd_rows.append(i)  # the unpaired dot is (i, n)
    motifs.extend(_column_n_colliders(n, odd_rows))
    return motifs


def construct_mixed(n: int) -> MotifCollection:
    """Mixed decomposition: diagonal chains, then row forks, then colliders.

    Consecutive main-diagonal dots pair into the chains
    (2m-1) -> 2m -> (2m+1); the row sweep then pairs the dots remaining
    in each row into forks and the unpaired dots, all in column n, into
    colliders with head n.  Rows 1..2*floor((n-1)/2), whose diagonal dot
    a chain took, start the sweep one column later.
    """
    check_order(n)
    half = (n - 1) // 2  # chain m takes the diagonal dots of rows 2m-1 and 2m
    chains = [_new_motif(CHAIN, (2 * m - 1, 2 * m, 2 * m + 1)) for m in range(1, half + 1)]
    starts = [i + 2 if i <= 2 * half else i + 1 for i in range(1, n)]
    return MotifCollection(n, tuple(_row_sweep(n, starts, chains)))


def construct_chain_max(n: int) -> MotifCollection:
    """Chain-maximal packing: saturate every interior centre with chains.

    High centres t (upper half, descending) host the chains
    i -> t -> i+t for i = 1..n-t; low centres t (descending) host
    i -> t -> n-i for i = 1..t-1.  That uses every arc except
    (i, n) for i = 1 and each low centre i; those pair into colliders
    with head n, tails taken in ascending consecutive pairs.
    """
    check_order(n)
    motifs: list[Motif] = []
    mid = (n + 2) // 2  # smallest high centre
    for t in range(n - 1, mid - 1, -1):
        for i in range(1, n - t + 1):
            motifs.append(_new_motif(CHAIN, (i, t, i + t)))
    for t in range(mid - 1, 1, -1):
        for i in range(1, t):
            motifs.append(_new_motif(CHAIN, (i, t, n - i)))
    motifs += _column_n_colliders(n, range(1, mid))
    return MotifCollection(n, tuple(motifs))


def construct_collider_max(n: int) -> MotifCollection:
    """Collider-maximal packing: pair every column bottom-up.

    Column j pairs (j-1, j) with (j-2, j), (j-3, j) with (j-4, j), and
    so on; the even columns are left with their top dot (1, j), and
    those pair into forks with tail 1, heads ascending.
    """
    check_order(n)
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
    """Fork-maximal packing: the row sweep from the diagonal on.

    Row i pairs (i, i+1) with (i, i+2), (i, i+3) with (i, i+4), and so
    on; rows of odd length are left with their last dot (i, n), and
    those pair into colliders with head n, tails ascending.
    """
    check_order(n)
    return MotifCollection(n, tuple(_row_sweep(n, range(2, n + 1), [])))


STRATEGIES = {
    "mixed": construct_mixed,
    "chain-max": construct_chain_max,
    "collider-max": construct_collider_max,
    "fork-max": construct_fork_max,
}
