"""Exact search oracle for maximum motif packings.

A deliberately independent cross-check on the closed-form counts and
the constructions: depth-first branch and bound over the candidate
motifs of TT_n, in fixed lexicographic order, pruning with an upper
bound that follows from the kinds searched, recomputed on the residual
arc supply: per-centre capacities for one kind, per-component counts
for several.  The search is
fully deterministic under a node budget, and it is anytime-sound: the
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

    The admissible upper bound is recomputed at every node from the arcs
    still free: for one kind, each centre's capacity (a chain needs one
    arc in and one out, a collider two in, a fork two out); for several,
    floor(arcs/2) per component of the free graph.
    """
    arcs = list(iter_arcs(n))
    arc_index = {arc: k for k, arc in enumerate(arcs)}
    # Every canonical motif of `kinds`, lexicographic by (triple, kind).
    cand = [
        (motif, arc_index[pair[0]], arc_index[pair[1]])
        for triple in combinations(range(1, n + 1), 3) for kind in kinds
        for motif in [Motif(kind, triple)]
        for pair in [motif_arcs(motif)]
    ]
    used = [False] * len(arcs)
    free_in = [0] + [t - 1 for t in range(1, n + 1)]  # 1-indexed by vertex
    free_out = [0] + [n - t for t in range(1, n + 1)]

    def toggle(index: int) -> None:
        """Take candidate `index`'s two arcs if they are free, else give them back."""
        _, a, b = cand[index]
        step = 1 if used[a] else -1
        used[a] = used[b] = step < 0
        for tail, head in (arcs[a], arcs[b]):
            free_out[tail] += step
            free_in[head] += step

    if len(kinds) == 1:
        capacity = {CHAIN: min, COLLIDER: lambda i, o: i // 2, FORK: lambda i, o: o // 2}[kinds[0]]

        def bound() -> int:
            return sum(map(capacity, free_in, free_out))

    else:  # each component of the free graph packs at most floor(arcs/2) motifs

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
    best_selection: tuple[Motif, ...] = ()
    selection: list[Motif] = []
    exhausted = True
    # Depth first: each entry visits a node that may take the first free
    # candidate from `start` on, after giving back candidate `release`
    # when that node is the "without it" branch of its parent.
    stack: list[tuple[int, int | None]] = [(0, None)]
    while stack:
        start, release = stack.pop()
        if release is not None:
            toggle(release)
            selection.pop()
        size = len(selection)
        nodes += 1
        if nodes > max_nodes or (deadline is not None and time.monotonic() > deadline):
            exhausted = False
            break
        if size + bound() <= best:
            continue
        index = start
        while index < len(cand) and (used[cand[index][1]] or used[cand[index][2]]):
            index += 1
        if index == len(cand):
            continue
        toggle(index)
        selection.append(cand[index][0])
        if size + 1 > best:
            best = size + 1
            best_selection = tuple(selection)
        stack.append((index + 1, index))
        stack.append((index + 1, None))
    return OracleResult(
        optimum=best,
        witness=MotifCollection(n, best_selection),
        exhausted=exhausted,
        nodes=nodes,
    )


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
