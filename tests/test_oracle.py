"""Tests for the exact branch-and-bound packing oracle."""

from __future__ import annotations

import ast
import hashlib
import sys
import time
import tracemalloc
from itertools import combinations

import pytest

from ttmotifs.analysis import packing_number, verify
import ttmotifs.oracle
from ttmotifs.core import CHAIN, COLLIDER, FORK, MOTIF_KINDS, Motif, motif_arcs
from ttmotifs.oracle import (
    OracleResult,
    SearchBudget,
    max_p3_packing_undirected,
    max_packing,
    pure_decomposition_exists,
)


@pytest.fixture(scope="module")
def small_optima() -> dict[tuple[str, int], OracleResult]:
    """One exhaustive search per (kind, n) shared by the tests below."""
    return {
        (kind, n): max_packing(kind, n)
        for kind in MOTIF_KINDS
        for n in range(3, 9)
    }


def _brute_force_optimum(kind: str, n: int) -> int:
    """Plain recursive maximum, no bounds — an independent referee."""
    candidates = [Motif(kind, t) for t in combinations(range(1, n + 1), 3)]
    best = 0

    def extend(start: int, used: frozenset, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for index in range(start, len(candidates)):
            first, second = motif_arcs(candidates[index])
            if first not in used and second not in used:
                extend(index + 1, used | {first, second}, size + 1)

    extend(0, frozenset(), 0)
    return best


def test_oracle_examples(small_optima):
    assert small_optima[(COLLIDER, 3)].optimum == 1
    assert small_optima[(FORK, 6)].optimum == 6
    assert small_optima[(CHAIN, 8)].optimum == 12
    assert all(result.exhausted for result in small_optima.values())


def test_oracle_matches_formula_for_small_orders(small_optima):
    for (kind, n), result in small_optima.items():
        assert result.optimum == packing_number(kind, n), (kind, n)


def test_oracle_matches_brute_force():
    for kind in MOTIF_KINDS:
        for n in range(3, 7):
            assert max_packing(kind, n).optimum == _brute_force_optimum(kind, n)


def test_witnesses_are_valid_packings_of_stated_size(small_optima):
    for (kind, n), result in small_optima.items():
        report = verify(result.witness)
        assert report.valid
        assert len(result.witness.motifs) == result.optimum
        assert all(motif.kind == kind for motif in result.witness.motifs)
        assert result.witness.n == n


def test_optimum_is_monotone_in_order(small_optima):
    for kind in MOTIF_KINDS:
        for n in range(3, 8):
            assert small_optima[(kind, n + 1)].optimum >= small_optima[(kind, n)].optimum


def test_search_is_deterministic():
    first = max_packing(CHAIN, 7)
    second = max_packing(CHAIN, 7)
    assert first == second
    assert first.nodes == second.nodes
    assert first.witness.motifs == second.witness.motifs


def test_truncated_search_is_anytime_sound():
    result = max_packing(CHAIN, 8, SearchBudget(max_nodes=5))
    assert not result.exhausted
    assert result.nodes <= 6  # the budget check fires on the first node over
    report = verify(result.witness)
    assert report.valid
    assert len(result.witness.motifs) == result.optimum
    assert result.optimum <= packing_number(CHAIN, 8)


def test_budget_must_be_positive():
    with pytest.raises(ValueError, match="^max_nodes must be positive, got 0$"):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_time=-1.0)
    with pytest.raises(ValueError):
        SearchBudget(max_time=float("nan"))
    assert SearchBudget(max_time=1).max_time == 1
    unlimited = SearchBudget(max_nodes=None, max_time=None)
    assert unlimited.max_nodes is None and unlimited.max_time is None


@pytest.mark.parametrize("max_nodes", [True, False, 2.5, 3.0, "5"])
def test_node_budget_must_be_an_integer(max_nodes):
    # True would otherwise run a one-node search and 2.5 a fractional budget.
    with pytest.raises(ValueError, match=f"^max_nodes must be an integer, got {max_nodes!r}$"):
        SearchBudget(max_nodes=max_nodes)


@pytest.mark.parametrize("max_time", [True, False, "5"])
def test_time_budget_must_be_a_number(max_time):
    # True would otherwise run a one-second search, and "5" raise TypeError.
    with pytest.raises(ValueError, match=f"^max_time must be a number of seconds, got {max_time!r}$"):
        SearchBudget(max_time=max_time)


def test_time_budget_must_fit_a_float():
    # The deadline is monotonic() + max_time, which overflows for such an int.
    with pytest.raises(ValueError, match="^max_time must be at most sys.float_info.max seconds$"):
        SearchBudget(max_time=10**400)
    unlimited = SearchBudget(max_time=float("inf"))  # what `--max-time 1e400` gives the CLI
    assert max_packing(CHAIN, 5, unlimited).exhausted


def test_default_budget_is_ten_million_nodes():
    assert SearchBudget().max_nodes == 10_000_000
    assert SearchBudget().max_time is None


def test_oracle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        max_packing("triangle", 5)
    with pytest.raises(ValueError):
        max_packing(CHAIN, 0)
    with pytest.raises(ValueError):
        max_p3_packing_undirected(0)
    with pytest.raises(ValueError, match="^unknown motif kind 'junk'"):
        pure_decomposition_exists("junk", 6)  # the kind is checked before admissibility


def test_search_accepts_order_99_under_a_one_node_budget():
    tracemalloc.start()
    try:
        result = max_packing(CHAIN, 99, SearchBudget(max_nodes=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not result.exhausted
    assert result.nodes == 2  # the node that broke the budget is counted
    # Measured at 3.2 MB with the candidates as two lists of arc indices;
    # a tuple and a Motif per candidate took 31.8 MB.
    assert peak < 16_000_000


def test_search_rejects_orders_above_99_before_building_anything(monkeypatch):
    def no_setup(*args):
        raise AssertionError("search set up for a rejected order")

    monkeypatch.setattr(ttmotifs.oracle, "_solve", no_setup)
    for search in (
        lambda: max_packing(CHAIN, 100, SearchBudget(max_nodes=1)),
        lambda: max_p3_packing_undirected(100, SearchBudget(max_nodes=1)),
        lambda: pure_decomposition_exists(FORK, 100, SearchBudget(max_nodes=1)),
        lambda: pure_decomposition_exists(FORK, 102),  # inadmissible, and too large
        lambda: max_packing(COLLIDER, 10_000),
    ):
        with pytest.raises(ValueError, match="n <= 99"):
            search()


def test_chain_search_at_order_9_runs_out_of_a_200k_node_budget():
    # This is the oracle-sweep benchmark's budget, and this search is why
    # its certified share is 0.9.  The optimum is 16 (packing_number).  The
    # arc-branching search of ROADMAP item 3 changes this test on purpose:
    # it should then certify 16, exhausted.
    result = max_packing(CHAIN, 9, SearchBudget(max_nodes=200_000))
    assert (result.optimum, result.exhausted, result.nodes) == (14, False, 200_001)
    assert verify(result.witness).valid


def test_time_budget_stops_a_search_the_node_budget_would_not():
    started = time.monotonic()
    result = max_packing(CHAIN, 12, SearchBudget(max_nodes=None, max_time=0.05))
    assert time.monotonic() - started < 5.0
    assert result.exhausted is False
    assert result.optimum >= 1
    assert len(result.witness.motifs) == result.optimum
    assert verify(result.witness).valid


def test_pure_decomposition_never_exists_for_single_kinds():
    assert pure_decomposition_exists(CHAIN, 4) is False
    assert pure_decomposition_exists(FORK, 5) is False
    assert pure_decomposition_exists(COLLIDER, 8) is False


def test_pure_decomposition_trivially_exists_for_order_one():
    # TT_1 has no arcs, so the empty family already covers everything.
    assert pure_decomposition_exists(CHAIN, 1) is True


def test_pure_decomposition_requires_admissible_order():
    with pytest.raises(ValueError):
        pure_decomposition_exists(CHAIN, 6)


def test_pure_decomposition_indeterminate_under_tiny_budget():
    assert pure_decomposition_exists(CHAIN, 8, SearchBudget(max_nodes=2)) is None


def test_mixed_packing_reaches_full_decomposition_on_admissible_orders():
    for n, expected in [(3, 1), (4, 3), (5, 5), (8, 14)]:
        result = max_p3_packing_undirected(n)
        assert result.exhausted
        assert result.optimum == expected
        report = verify(result.witness)
        assert report.valid
        assert report.is_decomposition == (n * (n - 1) % 4 == 0)


def test_mixed_packing_on_non_admissible_orders():
    for n in (6, 7):
        result = max_p3_packing_undirected(n)
        assert result.exhausted
        assert result.optimum == n * (n - 1) // 2 // 2  # floor(arcs / 2)


# sha256 over n = 1..12 of max_p3_packing_undirected under a 20,000-node
# budget, recorded from the recursive search before it became a loop over
# an explicit stack.  The CLI cannot reach the mixed search, so this pins
# it node for node the way tests/test_byte_identity.py pins the pure kinds.
MIXED_SEARCH_DIGEST = "b8154212ac6cd837e05cf79552149546d4a43d38732937fbb37bc27d751c4207"


def _mixed_search_digest() -> str:
    digest = hashlib.sha256()
    for n in range(1, 13):
        result = max_p3_packing_undirected(n, SearchBudget(max_nodes=20_000))
        digest.update(f"n={n}\0{result.optimum}\0{result.exhausted}\0{result.nodes}\0".encode())
        for motif in result.witness.motifs:
            digest.update(f"{motif.kind}{motif.vertices}\0".encode())
    return digest.hexdigest()


def test_mixed_search_is_node_for_node_unchanged():
    assert _mixed_search_digest() == MIXED_SEARCH_DIGEST


# sha256 over chain, collider, fork and mixed at n = 1..12, each under
# budgets of 1, 2, 3, 7, 50, 500 and 5,000 nodes, recorded from the search
# whose candidates were (Motif, arc, arc) tuples and whose single-kind
# bound was summed afresh at every node.  Where a budget cuts a search,
# its optimum, node count and witness pin the visit order itself.
TRUNCATED_SEARCH_DIGEST = "89fb6bc666f644b11fc7b2316581dc5767d10c878cd62c87ba558882dc7ce719"


def _truncated_search_digest() -> str:
    digest = hashlib.sha256()
    for search in [*MOTIF_KINDS, "mixed"]:
        for n in range(1, 13):
            for max_nodes in (1, 2, 3, 7, 50, 500, 5000):
                budget = SearchBudget(max_nodes=max_nodes)
                if search == "mixed":
                    result = max_p3_packing_undirected(n, budget)
                else:
                    result = max_packing(search, n, budget)
                fields = (search, f"n={n}", max_nodes, result.optimum, result.exhausted, result.nodes)
                digest.update("".join(f"{field}\0" for field in fields).encode())
                for motif in result.witness.motifs:
                    digest.update(f"{motif.kind}{motif.vertices}\0".encode())
    return digest.hexdigest()


def test_truncated_searches_are_node_for_node_unchanged():
    assert _truncated_search_digest() == TRUNCATED_SEARCH_DIGEST


def test_search_leaves_the_recursion_limit_alone(monkeypatch):
    limit = sys.getrecursionlimit()
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    for kind in MOTIF_KINDS:
        max_packing(kind, 8)
    max_packing(FORK, 40, SearchBudget(max_nodes=2000))
    max_p3_packing_undirected(5)
    assert calls == []
    assert sys.getrecursionlimit() == limit


def _imported_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every import in a ttmotifs module, with
    relative imports resolved against the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((alias.name, "*") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "ttmotifs" + (f".{module}" if module else "")
            for alias in node.names:
                if module == "ttmotifs":  # `from . import analysis`
                    found.add((f"ttmotifs.{alias.name}", "*"))
                else:
                    found.add((module, alias.name))
    return found


def test_oracle_stays_independent_of_closed_forms_and_builders():
    """The oracle is a cross-check only while it shares nothing with what
    it checks: no name from `analysis` (the closed forms) and none from
    `constructions` (the builders).  The `MotifCollection` its witness
    comes in lives in `core`."""
    with open(ttmotifs.oracle.__file__, encoding="utf-8") as handle:
        imports = _imported_names(ast.parse(handle.read()))
    assert not {imp for imp in imports if imp[0] == "ttmotifs.analysis"}
    assert not {imp for imp in imports if imp[0] == "ttmotifs.constructions"}
