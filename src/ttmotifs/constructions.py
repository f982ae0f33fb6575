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
builders emit each motif with its triple already ascending, and write
whole runs of motifs, zipped from ranges of vertices, into a
`ttmotifs.core._PackedMotifs` at once (its `put_runs`), never one
`Motif` at a time and never touching how the store lays them out;
`decompose` runs `ttmotifs.core.verify` on every result all the same.
Only the command line and the package root import this module, so the
verifier, the closed forms, the diagram and the oracle share no code
with what they check.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import repeat

from .core import CHAIN, COLLIDER, FORK, MotifCollection, _PackedMotifs, check_order


def _column_n_colliders(n: int, tails: Sequence[int], motifs: _PackedMotifs) -> None:
    """The column-n dots (t, n), t in `tails`, paired in order into
    colliders with head n; an odd last tail stays unpaired."""
    motifs.put_runs(COLLIDER, tails[0::2], tails[1::2], repeat(n))


def _row_sweep(n: int, starts: Iterable[int], motifs: _PackedMotifs) -> MotifCollection:
    """Extend `motifs`, the motifs emitted before the sweep, and return
    their collection.

    Row i (1, 2, ...) pairs its dots into forks left to right, from its
    first free column, the i-th of `starts`, to column n.  A row of odd
    length keeps its last dot (i, n); after the last row those dots go to
    `_column_n_colliders`, tails ascending.  The sweep does not know
    which builder called it: the start columns carry the difference."""
    odd_rows: list[int] = []
    for i, start in enumerate(starts, 1):
        # The forks (i, b, b+1), b = start, start+2, ...
        motifs.put_runs(FORK, repeat(i), range(start, n, 2), range(start + 1, n + 1, 2))
        if (n + 1 - start) % 2 == 1:
            odd_rows.append(i)  # the unpaired dot is (i, n)
    _column_n_colliders(n, odd_rows, motifs)
    return MotifCollection(n, motifs)


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
    motifs = _PackedMotifs()
    motifs.put_runs(CHAIN, range(1, 2 * half, 2), range(2, 2 * half + 1, 2), range(3, 2 * half + 2, 2))
    starts = [i + 2 if i <= 2 * half else i + 1 for i in range(1, n)]
    return _row_sweep(n, starts, motifs)


def construct_chain_max(n: int) -> MotifCollection:
    """Chain-maximal packing: saturate every interior centre with chains.

    High centres t (upper half, descending) host the chains
    i -> t -> i+t for i = 1..n-t; low centres t (descending) host
    i -> t -> n-i for i = 1..t-1.  That uses every arc except
    (i, n) for i = 1 and each low centre i; those pair into colliders
    with head n, tails taken in ascending consecutive pairs.
    """
    check_order(n)
    motifs = _PackedMotifs()
    mid = (n + 2) // 2  # smallest high centre
    for t in range(n - 1, mid - 1, -1):
        motifs.put_runs(CHAIN, range(1, n - t + 1), repeat(t), range(1 + t, n + 1))
    for t in range(mid - 1, 1, -1):
        motifs.put_runs(CHAIN, range(1, t), repeat(t), range(n - 1, n - t, -1))
    _column_n_colliders(n, range(1, mid), motifs)
    return MotifCollection(n, motifs)


def construct_collider_max(n: int) -> MotifCollection:
    """Collider-maximal packing: pair every column bottom-up.

    Column j pairs (j-1, j) with (j-2, j), (j-3, j) with (j-4, j), and
    so on; the even columns are left with their top dot (1, j), and
    those pair into forks with tail 1, heads ascending.
    """
    check_order(n)
    motifs = _PackedMotifs()
    for j in range(2, n + 1):
        # Column j's pairs (j-1, j-2), (j-3, j-4), ... are the colliders
        # (j-2, j-1, j), (j-4, j-3, j), ...
        motifs.put_runs(COLLIDER, range(j - 2, 0, -2), range(j - 1, 1, -2), repeat(j))
    heads = range(2, n + 1, 2)  # the even columns' unpaired dots (1, j)
    motifs.put_runs(FORK, repeat(1), heads[0::2], heads[1::2])
    return MotifCollection(n, motifs)


def construct_fork_max(n: int) -> MotifCollection:
    """Fork-maximal packing: the row sweep from the diagonal on.

    Row i pairs (i, i+1) with (i, i+2), (i, i+3) with (i, i+4), and so
    on; rows of odd length are left with their last dot (i, n), and
    those pair into colliders with head n, tails ascending.
    """
    check_order(n)
    return _row_sweep(n, range(2, n + 1), _PackedMotifs())


STRATEGIES = {
    "mixed": construct_mixed,
    "chain-max": construct_chain_max,
    "collider-max": construct_collider_max,
    "fork-max": construct_fork_max,
}
