"""Exact search oracle for maximum motif packings.

A deliberately independent cross-check on the closed-form counts and
the constructions: depth-first branch and bound over the candidate
motifs of TT_n, in fixed lexicographic order, each held as two arc
indices in flat lists.  It prunes with an upper bound on the arcs still
free that follows from the kinds searched: for one kind, per-centre
capacities kept as a running total as arcs are taken and given back;
for several, per-component counts recomputed at each node.  The search
is fully deterministic under a node budget, and it is anytime-sound: the
reported optimum always comes with a witness packing, so even a
truncated run certifies a lower bound.  Orders above 99 are rejected:
the candidates are built before the budget counts a node.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from itertools import combinations

from .core import CHAIN, COLLIDER, FORK, MOTIF_KINDS, Motif, MotifCollection, check_kind
from .core import check_order, iter_arcs, motif_arcs

DEFAULT_MAX_NODES = 10_000_000
_MAX_ORDER = 99  # C(n,3) candidates per kind: about 157k motifs at n = 99


@dataclass(frozen=True)
class SearchBudget:
    """Limits on the search: node expansions and/or wall-clock seconds.

    None means unlimited for that field; a given limit must be positive,
    a node limit must be an int (not a bool or a float), and a time limit
    an int or a float (not a bool), where an int may not exceed the
    largest float; float("inf") is accepted.
    """

    max_nodes: int | None = DEFAULT_MAX_NODES
    max_time: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes is not None and type(self.max_nodes) is not int:  # bool is not int
            raise ValueError(f"max_nodes must be an integer, got {self.max_nodes!r}")
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError(f"max_nodes must be positive, got {self.max_nodes}")
        if self.max_time is not None and type(self.max_time) not in (int, float):
            raise ValueError(f"max_time must be a number of seconds, got {self.max_time!r}")
        if self.max_time is not None and not self.max_time > 0:  # also rejects NaN
            raise ValueError(f"max_time must be positive, got {self.max_time}")
        if type(self.max_time) is int and self.max_time > sys.float_info.max:  # the deadline is a float
            raise ValueError("max_time must be at most sys.float_info.max seconds")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one search.

    `optimum` is exact when `exhausted` is true and otherwise a lower
    bound; either way `witness` is a valid packing of that size.
    """

    optimum: int
    witness: MotifCollection
    exhausted: bool
    nodes: int


def _check_search_order(n: int) -> None:
    """Reject orders the search cannot set up in bounded memory; cheap
    enough to run before anything is built."""
    check_order(n)
    if n > _MAX_ORDER:
        raise ValueError(f"exact search supports n <= {_MAX_ORDER}, got {n}")


def _solve(n: int, kinds: tuple[str, ...], budget: SearchBudget) -> OracleResult:
    """Shared branch-and-bound core over the candidates of `kinds`.

    A candidate is the indices of its two arcs, and taking it or giving
    it back updates the free arcs in place.  The admissible upper bound
    follows from the arcs still free: for one kind, the sum over vertices
    of the motifs each could still centre (a chain needs one arc in and
    one out, a collider two in, a fork two out), a running total that
    changes only at the endpoints of the arcs that change; for several,
    floor(arcs/2) per component of the free graph, recomputed at each node.
    """
    arcs = list(iter_arcs(n))
    tails = [tail for tail, _ in arcs]
    heads = [head for _, head in arcs]
    arc_index = {arc: k for k, arc in enumerate(arcs)}
    # Every canonical motif of `kinds`, lexicographic by (triple, kind), as
    # its two arcs: each kind's arcs on the positions (0, 1, 2) of a triple,
    # read off every triple.
    shapes = [motif_arcs(Motif(kind, (0, 1, 2))) for kind in kinds]
    first = [arc_index[t[p], t[q]] for t in combinations(range(1, n + 1), 3) for (p, q), _ in shapes]
    second = [arc_index[t[p], t[q]] for t in combinations(range(1, n + 1), 3) for _, (p, q) in shapes]
    end = len(first)
    first.append(len(arcs))  # a sentinel on an arc never used ends every scan
    second.append(len(arcs))
    used = [False] * (len(arcs) + 1)
    free_in = [0] + [t - 1 for t in range(1, n + 1)]  # 1-indexed by vertex
    free_out = [0] + [n - t for t in range(1, n + 1)]
    # Capacity by (free in, free out), looked up rather than called: the
    # first kind's, which only a single-kind search reads.
    capacity = {CHAIN: min, COLLIDER: lambda i, o: i // 2, FORK: lambda i, o: o // 2}[kinds[0]]
    table = [[capacity(i, o) for o in range(n)] for i in range(n)]
    room = list(map(capacity, free_in, free_out))
    total = sum(room)
    bound = None

    if len(kinds) > 1:  # each component of the free graph packs at most floor(arcs/2) motifs

        def bound() -> int:
            parent = list(range(n + 1))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            edges = [0] * (n + 1)
            for k, (i, j) in enumerate(arcs):
                if not used[k]:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[ri] = rj
                        edges[rj] += edges[ri]
                        edges[ri] = 0
                    edges[find(i)] += 1
            return sum(e // 2 for e in edges)

    max_nodes = budget.max_nodes if budget.max_nodes is not None else float("inf")
    deadline = time.monotonic() + budget.max_time if budget.max_time is not None else None

    nodes = 0
    best = 0
    best_selection: list[int] = []
    selection: list[int] = []  # the candidates taken, in order
    exhausted = True
    # Depth first: entry `start` visits a node that may take the first
    # free candidate from `start` on.  Entry ~k first takes candidate k,
    # or gives it back if it is taken, then visits a node that goes on
    # from k + 1: a node that finds k pushes its "without k" branch under
    # its "with k" branch, and both are ~k.
    stack = [0]
    while stack:
        start = stack.pop()
        if start < 0:
            start = ~start
            a, b = first[start], second[start]
            step = 1 if used[a] else -1
            used[a] = used[b] = step < 0
            ends = (tails[a], heads[a], tails[b], heads[b])
            free_out[ends[0]] += step
            free_in[ends[1]] += step
            free_out[ends[2]] += step
            free_in[ends[3]] += step
            for v in ends:
                c = table[free_in[v]][free_out[v]]
                total += c - room[v]
                room[v] = c
            if step > 0:
                selection.pop()
            else:
                selection.append(start)
                if len(selection) > best:
                    best = len(selection)
                    best_selection = selection[:]
            start += 1
        nodes += 1
        if nodes > max_nodes or (deadline is not None and time.monotonic() > deadline):
            exhausted = False
            break
        if len(selection) + (total if bound is None else bound()) <= best:
            continue
        while used[first[start]] or used[second[start]]:
            start += 1
        if start < end:
            stack.append(~start)
            stack.append(~start)
    witness = tuple(
        Motif(kinds[k % len(kinds)], tuple(sorted({tails[a], heads[a], tails[b], heads[b]})))
        for k in best_selection
        for a, b in [(first[k], second[k])]
    )
    return OracleResult(optimum=best, witness=MotifCollection(n, witness), exhausted=exhausted, nodes=nodes)


def max_packing(kind: str, n: int, budget: SearchBudget | None = None) -> OracleResult:
    """Maximum arc-disjoint packing of one motif kind, by exact search."""
    check_kind(kind)
    _check_search_order(n)
    return _solve(n, (kind,), budget or SearchBudget())


def max_p3_packing_undirected(n: int, budget: SearchBudget | None = None) -> OracleResult:
    """Maximum packing into motifs of any kind — equivalently, the
    orientation-blind packing of K_n's edges into paths of two edges."""
    _check_search_order(n)
    return _solve(n, MOTIF_KINDS, budget or SearchBudget())


def pure_decomposition_exists(kind: str, n: int, budget: SearchBudget | None = None) -> bool | None:
    """Whether TT_n decomposes into motifs of a single kind.

    Requires admissible n (otherwise no decomposition of any shape can
    exist and the question answers itself).  Returns True or False when
    the search settles it, None when the budget ran out first.
    """
    check_kind(kind)
    _check_search_order(n)
    if n % 4 not in (0, 1):
        raise ValueError(f"n = {n} is not admissible (needs n = 0 or 1 mod 4)")
    target = n * (n - 1) // 4
    result = max_packing(kind, n, budget)
    if result.optimum == target:
        return True  # the witness itself is a decomposition
    if result.exhausted:
        return False
    return None
