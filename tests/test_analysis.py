"""Tests for closed-form counts and the verifier."""

from __future__ import annotations

import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttmotifs.analysis import (
    capacity_sum,
    center_capacity,
    is_admissible,
    mixed_counts,
    packing_number,
    packing_number_table,
)
from ttmotifs.constructions import (
    STRATEGIES,
    construct_chain_max,
    construct_fork_max,
    construct_mixed,
)
from ttmotifs.core import (
    CHAIN,
    COLLIDER,
    DUPLICATE_ARC,
    FOREIGN_ARC,
    FORK,
    MISCLASSIFIED_MOTIF,
    MOTIF_KINDS,
    Motif,
    MotifCollection,
    MotifCounts,
    TransitiveTournament,
    VerificationReport,
    Violation,
    _DENSE_SLOTS_PER_MOTIF,
    chain,
    classify_arcs,
    collider,
    fork,
    motif_arcs,
    verify,
)
from ttmotifs.diagram import Diagram
from ttmotifs.oracle import max_p3_packing_undirected, max_packing, pure_decomposition_exists


def test_admissibility():
    admissible = [n for n in range(1, 26) if is_admissible(n)]
    assert admissible == [1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21, 24, 25]
    for n in admissible:
        assert n * (n - 1) % 4 == 0
    with pytest.raises(ValueError):
        is_admissible(0)


def test_packing_number_examples():
    assert packing_number(CHAIN, 8) == 12
    assert packing_number(COLLIDER, 9) == 16
    assert packing_number(FORK, 5) == 4
    assert packing_number(CHAIN, 1) == 0
    assert packing_number(FORK, 2) == 0
    assert packing_number(COLLIDER, 3) == 1


@pytest.mark.parametrize("n", range(1, 101))
def test_packing_number_is_kind_independent(n):
    values = {packing_number(kind, n) for kind in MOTIF_KINDS}
    assert len(values) == 1
    (value,) = values
    assert isinstance(value, int)
    assert value == (n * (n - 2) // 4 if n % 2 == 0 else (n - 1) ** 2 // 4)


def test_packing_number_rejects_bad_arguments():
    with pytest.raises(ValueError):
        packing_number("triangle", 8)
    with pytest.raises(ValueError):
        packing_number(CHAIN, 0)


def test_mixed_counts_examples():
    assert tuple(mixed_counts(8)) == (3, 2, 9)
    assert tuple(mixed_counts(4)) == (1, 1, 1)
    assert tuple(mixed_counts(5)) == (2, 1, 2)
    assert tuple(mixed_counts(13)) == (6, 3, 30)
    assert tuple(mixed_counts(1)) == (0, 0, 0)


@pytest.mark.parametrize("n", [2, 3, 6, 7, 10, 11, 199])
def test_mixed_counts_rejects_non_admissible(n):
    with pytest.raises(ValueError):
        mixed_counts(n)


def test_mixed_counts_are_consistent_for_admissible_orders():
    for n in range(1, 501):
        if not is_admissible(n):
            continue
        counts = mixed_counts(n)
        assert min(counts) >= 0
        assert sum(counts) == n * (n - 1) // 4


def test_center_capacity_examples():
    assert center_capacity(CHAIN, 8, 1) == 0
    assert center_capacity(CHAIN, 8, 4) == 3
    assert center_capacity(COLLIDER, 8, 8) == 3
    assert center_capacity(COLLIDER, 8, 1) == 0
    assert center_capacity(FORK, 9, 1) == 4
    assert center_capacity(FORK, 9, 9) == 0


def test_center_capacity_rejects_out_of_range_vertex():
    with pytest.raises(ValueError):
        center_capacity(CHAIN, 8, 0)
    with pytest.raises(ValueError):
        center_capacity(CHAIN, 8, 9)
    with pytest.raises(ValueError):
        center_capacity("triangle", 8, 3)
    for vertex in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=f"^vertex must be an integer, got {vertex!r}$"):
            center_capacity(CHAIN, 8, vertex)


ORDER_TAKERS = {
    "is_admissible": is_admissible,
    "packing_number": lambda n: packing_number(CHAIN, n),
    "mixed_counts": mixed_counts,
    "center_capacity": lambda n: center_capacity(CHAIN, n, 1),
    "capacity_sum": lambda n: capacity_sum(CHAIN, n),
    "packing_number_table": packing_number_table,
    "MotifCollection": lambda n: MotifCollection(n, ()),
    "TransitiveTournament": TransitiveTournament,
    "Diagram": Diagram,
    "max_packing": lambda n: max_packing(CHAIN, n),
    "max_p3_packing_undirected": max_p3_packing_undirected,
    "pure_decomposition_exists": lambda n: pure_decomposition_exists(CHAIN, n),
    **{build.__name__: build for build in STRATEGIES.values()},
}


@pytest.mark.parametrize(
    "order", [5.5, 6.0, True, "8", None], ids=["fraction", "float", "bool", "str", "none"]
)
@pytest.mark.parametrize("take", ORDER_TAKERS.values(), ids=ORDER_TAKERS.keys())
def test_orders_must_be_integers(take, order):
    # 6.0 or True would otherwise pass for an order and return a float or a
    # wrong count; 5.5 would trip an assertion, pass one under -O, or be
    # called inadmissible; "8" and None would raise TypeError in arithmetic.
    with pytest.raises(ValueError, match=f"^order must be an integer, got {order!r}$"):
        take(order)


def test_capacity_sum_examples():
    assert capacity_sum(COLLIDER, 8) == 12
    assert capacity_sum(FORK, 9) == 16
    assert capacity_sum(CHAIN, 6) == 6


@pytest.mark.parametrize("kind", MOTIF_KINDS)
def test_capacity_sum_equals_packing_number(kind):
    for n in range(1, 501):
        assert capacity_sum(kind, n) == packing_number(kind, n)


def test_packing_number_table():
    table = packing_number_table(8)
    assert table.n == 8
    assert table.per_kind == {CHAIN: 12, COLLIDER: 12, FORK: 12}
    assert table.total_motif_slots == 14
    assert packing_number_table(6).total_motif_slots is None
    for n in (0, -1, -5, -10**9):
        with pytest.raises(ValueError, match=f"^order must be at least 1, got {n}$"):
            packing_number_table(n)


@pytest.mark.parametrize("kind", MOTIF_KINDS)
def test_packing_deficit_boundary(kind):
    # The maximum pure packing falls strictly short of the motif-slot count
    # n(n-1)/4 at every admissible order with at least one arc; only the
    # arcless n=1 reaches it (0 of 0 slots), via the empty decomposition.
    assert packing_number(kind, 1) == 0 == 1 * 0 // 4
    for n in range(4, 501):
        if is_admissible(n):
            assert packing_number(kind, n) < n * (n - 1) // 4


# --- verifier ---------------------------------------------------------------


def test_verify_accepts_fork_max_decomposition():
    report = verify(construct_fork_max(8))
    assert report.valid and report.is_decomposition
    assert tuple(report.counts) == (0, 2, 12)
    assert report.violations == ()


def test_verify_accepts_maximum_packing():
    collection = construct_chain_max(6)
    report = verify(collection)
    assert report.valid and not report.is_decomposition
    assert len(collection.unused_arcs) == 1


def test_verify_flags_duplicate_motif():
    base = construct_mixed(8)
    doubled = MotifCollection(8, base.motifs + (base.motifs[0],))
    report = verify(doubled)
    assert not report.valid and not report.is_decomposition
    assert {v.kind for v in report.violations} == {DUPLICATE_ARC}
    flagged_arcs = {v.arc for v in report.violations}
    assert flagged_arcs == {(1, 2), (2, 3)}  # both arcs of the doubled chain
    offenders = {i for v in report.violations for i in v.motifs}
    assert offenders == {0, len(base.motifs)}


def test_verify_flags_foreign_arc():
    report = verify(MotifCollection(8, (chain(1, 2, 9),)))
    assert not report.valid
    assert [v.kind for v in report.violations] == [FOREIGN_ARC]


def test_verify_flags_non_canonical_vertices():
    report = verify(MotifCollection(8, (Motif(FORK, (2, 1, 3)),)))
    assert not report.valid
    assert [v.kind for v in report.violations] == [MISCLASSIFIED_MOTIF]
    assert "canonical" in report.violations[0].detail


def test_verify_flags_unknown_kind():
    report = verify(MotifCollection(8, (Motif("triangle", (1, 2, 3)),)))
    assert not report.valid
    assert [v.kind for v in report.violations] == [MISCLASSIFIED_MOTIF]


def test_verify_reports_do_not_throw_on_garbage():
    junk = MotifCollection(
        5,
        (
            Motif(CHAIN, (3, 3, 4)),
            Motif(COLLIDER, (0, 1, 2)),
            Motif(FORK, (1, 2, 3)),
            Motif(FORK, (1, 2, 3)),
        ),
    )
    report = verify(junk)
    assert not report.valid
    kinds = [v.kind for v in report.violations]
    assert MISCLASSIFIED_MOTIF in kinds and DUPLICATE_ARC in kinds


@pytest.mark.parametrize("vertices", [(1, 2), (1, 2, 3, 4)], ids=["pair", "quadruple"])
def test_verify_reports_vertices_that_are_not_a_triple(vertices):
    report = verify(MotifCollection(5, (fork(1, 2, 3), Motif(CHAIN, vertices))))
    assert not report.valid
    assert [(v.kind, v.motifs) for v in report.violations] == [(MISCLASSIFIED_MOTIF, (1,))]
    assert "triple" in report.violations[0].detail


@pytest.mark.parametrize(
    "vertices", [(1.0, 2, 3), (1, 2.5, 4), (True, 2, 3), [1, 2, 3]], ids=["float", "fraction", "bool", "list"]
)
def test_verify_reports_vertices_that_are_not_ints(vertices):
    # A vertex of TT_n is an int; 1.0 or True would otherwise pass for vertex 1.
    report = verify(MotifCollection(5, (fork(1, 2, 3), Motif(CHAIN, vertices))))
    assert not report.valid
    assert [(v.kind, v.motifs) for v in report.violations] == [(MISCLASSIFIED_MOTIF, (1,))]
    assert "not a vertex triple" in report.violations[0].detail


@pytest.mark.parametrize("kind", [[CHAIN], {CHAIN: 1}], ids=["list", "dict"])
def test_verify_reports_an_unhashable_kind(kind):
    report = verify(MotifCollection(5, (Motif(kind, (1, 2, 3)), fork(1, 3, 4))))
    assert not report.valid
    assert report.violations == (
        Violation(MISCLASSIFIED_MOTIF, f"motif 0 has unknown kind {kind!r}", motifs=(0,)),
    )
    assert tuple(report.counts) == (0, 0, 1)


@pytest.mark.parametrize(
    "entry", [None, 7, (CHAIN,), (CHAIN, (1, 2, 3), "x")], ids=["none", "int", "one-field", "three-fields"]
)
def test_an_entry_that_is_not_a_kind_vertices_pair_is_reported_not_raised(entry):
    # The entry is tallied under no kind and uses no arc; every question
    # that reads the walk answers instead of raising.
    collection = MotifCollection(5, (entry, fork(1, 2, 3)))
    report = verify(collection)
    assert report.violations == (
        Violation(MISCLASSIFIED_MOTIF, f"motif 0 is not a (kind, vertices) pair: {entry!r}", motifs=(0,)),
    )
    assert tuple(report.counts) == tuple(collection.counts) == (0, 0, 1)
    assert collection.unused_arc_count == 8
    with pytest.raises(ValueError, match="must hold canonical motifs"):
        Diagram(5).render_ascii(highlight=collection)


def test_verify_lists_every_user_of_a_shared_arc_in_order():
    motifs = (chain(1, 2, 3), fork(1, 2, 4), chain(3, 4, 5), fork(1, 2, 5), collider(1, 4, 5))
    report = verify(MotifCollection(5, motifs))
    assert [(v.kind, v.arc, v.motifs) for v in report.violations] == [
        (DUPLICATE_ARC, (1, 2), (0, 1, 3)),
        (DUPLICATE_ARC, (1, 5), (3, 4)),
        (DUPLICATE_ARC, (4, 5), (2, 4)),
    ]
    assert report.violations[0].detail == "duplicate arc (1,2)"


def test_verify_counts_follow_declared_tags():
    collection = MotifCollection(9, (chain(1, 2, 3), fork(4, 5, 6), fork(4, 7, 8)))
    report = verify(collection)
    assert tuple(report.counts) == (1, 0, 2)
    assert report.valid and not report.is_decomposition


@pytest.mark.parametrize("n", range(3, 13))
def test_every_canonical_motif_keeps_its_kind(n):
    """verify trusts a canonical motif's kind tag without re-deriving it:
    for every kind and every ascending triple, the two arcs that
    `motif_arcs` gives classify back to the same motif, and the
    motif alone is a valid collection."""
    for kind in MOTIF_KINDS:
        for triple in combinations(range(1, n + 1), 3):
            motif = Motif(kind, triple)
            assert classify_arcs(*motif_arcs(motif)) == motif
            report = verify(MotifCollection(n, (motif,)))
            assert report.valid and not report.violations, motif


def _mutate(collection: MotifCollection, rng: random.Random) -> MotifCollection:
    """One random structural mutation of a motif collection."""
    motifs = list(collection.motifs)
    op = rng.choice(("reorder", "drop", "duplicate", "swap", "replace", "relabel"))
    if op == "reorder":
        rng.shuffle(motifs)
    elif op == "drop" and motifs:
        motifs.pop(rng.randrange(len(motifs)))
    elif op == "duplicate" and motifs:
        motifs.append(motifs[rng.randrange(len(motifs))])
    elif op == "swap" and motifs:
        index = rng.randrange(len(motifs))
        vertices = list(motifs[index].vertices)
        i, j = rng.sample(range(3), 2)
        vertices[i], vertices[j] = vertices[j], vertices[i]
        motifs[index] = Motif(motifs[index].kind, tuple(vertices))
    elif op == "replace" and motifs:
        index = rng.randrange(len(motifs))
        vertices = list(motifs[index].vertices)
        vertices[rng.randrange(3)] = rng.randint(1, collection.n + 1)
        motifs[index] = Motif(motifs[index].kind, tuple(vertices))
    elif op == "relabel" and motifs:
        index = rng.randrange(len(motifs))
        motifs[index] = Motif(rng.choice(MOTIF_KINDS), motifs[index].vertices)
    return MotifCollection(collection.n, tuple(motifs))


def _independently_valid(collection: MotifCollection) -> bool:
    """First-principles validity: canonical in-range motifs, no arc reuse."""
    seen = set()
    for motif in collection.motifs:
        a, b, c = motif.vertices
        if not (1 <= a < b < c <= collection.n):
            return False
        if motif.kind == CHAIN:
            arcs = [(a, b), (b, c)]
        elif motif.kind == COLLIDER:
            arcs = [(a, c), (b, c)]
        elif motif.kind == FORK:
            arcs = [(a, b), (a, c)]
        else:
            return False
        for arc in arcs:
            if arc in seen:
                return False
            seen.add(arc)
    return True


def test_verifier_agrees_with_first_principles_on_mutations():
    """Seeded mutation fuzzing: verify() must flag exactly the mutations
    that break an invariant (reorderings and drops stay valid)."""
    rng = random.Random(20260815)
    bases = [construct_mixed(8), construct_fork_max(9), construct_chain_max(6)]
    flagged = passed = 0
    for _ in range(400):
        mutated = _mutate(rng.choice(bases), rng)
        expected = _independently_valid(mutated)
        report = verify(mutated)
        assert report.valid == expected, (mutated, report.violations)
        flagged += not expected
        passed += expected
    assert flagged and passed  # the fuzz must exercise both outcomes


BIG = 10**5000  # past the default 4,300-digit int-to-str limit
SHOWN_BIG = f"<int of {BIG.bit_length()} bits>"


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, whatever the
    environment set."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # absent before 3.10.7
    if set_limit is None:
        pytest.fail("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    set_limit(4300)
    yield
    set_limit(saved)


@pytest.mark.parametrize(
    "entry, violation",
    [
        (
            Motif(CHAIN, (BIG, 2, 3)),
            (MISCLASSIFIED_MOTIF, f"motif 0 vertices ({SHOWN_BIG},2,3) are not in canonical ascending order"),
        ),
        (
            Motif(FORK, (1, BIG, 3)),
            (MISCLASSIFIED_MOTIF, f"motif 0 vertices (1,{SHOWN_BIG},3) are not in canonical ascending order"),
        ),
        (Motif(COLLIDER, (1, 2, BIG)), (FOREIGN_ARC, f"motif 0 vertices (1,2,{SHOWN_BIG}) leave 1..5")),
        (
            Motif(CHAIN, (1, 2.0, BIG)),
            (MISCLASSIFIED_MOTIF, f"motif 0 vertices (1, 2.0, {SHOWN_BIG}) are not a vertex triple"),
        ),
        (Motif(BIG, (1, 2, 3)), (MISCLASSIFIED_MOTIF, f"motif 0 has unknown kind {SHOWN_BIG}")),
        ((BIG,), (MISCLASSIFIED_MOTIF, f"motif 0 is not a (kind, vertices) pair: ({SHOWN_BIG},)")),
        (
            (CHAIN, (1, 2), [BIG, "x"]),
            (MISCLASSIFIED_MOTIF, f"motif 0 is not a (kind, vertices) pair: ('chain', (1, 2), [{SHOWN_BIG}, 'x'])"),
        ),
        (
            (CHAIN, {"v": BIG}, 3),
            (MISCLASSIFIED_MOTIF, "motif 0 is not a (kind, vertices) pair: ('chain', <dict>, 3)"),
        ),
    ],
    ids=["first-vertex", "second-vertex", "third-vertex", "not-a-triple", "kind", "one-field", "in-a-list", "in-a-dict"],
)
def test_the_walk_shows_an_int_past_the_digit_limit_by_its_bit_length(default_digit_limit, entry, violation):
    # repr refuses such an int; the walk still reports, never raises.
    collection = MotifCollection(5, (entry, fork(2, 3, 4)))
    report = verify(collection)
    assert report.violations == (Violation(*violation, motifs=(0,)),)
    # The fork uses (2, 3) and (2, 4).  The rejected fork (1, BIG, 3) sets
    # aside (1, 3); no other entry names a further arc of TT_5.
    assert collection.unused_arc_count == (7 if entry[0] == FORK else 8)


def test_the_walk_shows_an_order_past_the_digit_limit_by_its_bit_length(default_digit_limit):
    top = chain(BIG - 2, BIG - 1, BIG)
    collection = MotifCollection(BIG, (Motif(CHAIN, (0, 1, 2)), top, top))
    report = verify(collection)
    assert report.violations == (
        Violation(FOREIGN_ARC, f"motif 0 vertices (0,1,2) leave 1..{SHOWN_BIG}", motifs=(0,)),
        Violation(DUPLICATE_ARC, f"duplicate arc ({SHOWN_BIG},{SHOWN_BIG})", motifs=(1, 2), arc=(BIG - 2, BIG - 1)),
        Violation(DUPLICATE_ARC, f"duplicate arc ({SHOWN_BIG},{SHOWN_BIG})", motifs=(1, 2), arc=(BIG - 1, BIG)),
    )
    # (1, 2), set aside by the rejected chain, and the two arcs of `top`.
    assert collection.unused_arc_count == BIG * (BIG - 1) // 2 - 3


# --- verify against a referee -----------------------------------------------


def _referee(collection: MotifCollection) -> VerificationReport:
    """verify written out the long way: the rejection chain over every
    motif, then the users of each arc among the motifs that pass it, then
    the tally of the kind tags."""
    n = collection.n
    violations = []
    users: dict = {}
    for index, (kind, vertices) in enumerate(collection.motifs):
        triple = type(vertices) is tuple and len(vertices) == 3
        a, b, c = vertices if triple else (None, None, None)
        if kind not in MOTIF_KINDS:
            problem = MISCLASSIFIED_MOTIF, f"motif {index} has unknown kind {kind!r}"
        elif not all(type(v) is int for v in (a, b, c)):
            problem = MISCLASSIFIED_MOTIF, f"motif {index} vertices {vertices!r} are not a vertex triple"
        elif not a < b < c:
            problem = (
                MISCLASSIFIED_MOTIF,
                f"motif {index} vertices ({a},{b},{c}) are not in canonical ascending order",
            )
        elif a < 1 or c > n:
            problem = FOREIGN_ARC, f"motif {index} vertices ({a},{b},{c}) leave 1..{n}"
        else:
            for arc in motif_arcs(Motif(kind, vertices)):
                users.setdefault(arc, []).append(index)
            continue
        violations.append(Violation(*problem, motifs=(index,)))
    for arc in sorted(users):
        if len(users[arc]) > 1:
            detail = f"duplicate arc ({arc[0]},{arc[1]})"
            violations.append(Violation(DUPLICATE_ARC, detail, motifs=tuple(users[arc]), arc=arc))
    valid = not violations
    kinds = [kind for kind, _ in collection.motifs]
    return VerificationReport(
        n=n,
        valid=valid,
        is_decomposition=valid and len(users) == n * (n - 1) // 2,
        counts=MotifCounts(*(sum(k == kind for k in kinds) for kind in MOTIF_KINDS)),
        violations=tuple(violations),
    )


def _entries(vertex: st.SearchStrategy[int]) -> st.SearchStrategy[Motif]:
    """Motif entries of every shape the walk judges, on vertices drawn from `vertex`."""
    return st.tuples(
        st.sampled_from(MOTIF_KINDS + ("triangle", [CHAIN], {FORK: 1})),
        st.one_of(
            st.tuples(vertex, vertex, vertex),
            st.lists(vertex, min_size=3, max_size=3).map(lambda v: tuple(sorted(v))),
            st.lists(st.one_of(vertex, st.floats(), st.booleans()), max_size=4).map(tuple),
        ),
    ).map(lambda entry: Motif(*entry))


_VERTEX = st.integers(-1, 14)
_ENTRIES = _entries(_VERTEX)


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 12), pool=st.lists(_ENTRIES, min_size=1, max_size=8), data=st.data())
def test_verify_matches_the_referee_on_library_collections(n, pool, data):
    # Drawing the motifs from a small pool repeats entries, so arcs get shared.
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=16))
    collection = MotifCollection(n, tuple(picks))
    assert verify(collection) == _referee(collection)


def _assert_unused_arcs_match_their_definition(collection: MotifCollection) -> None:
    """The unused arcs are the arcs of TT_n that no entry names, where an
    entry of a known kind on a tuple of three ints names the two arcs
    `motif_arcs` reads from it, canonical or not."""
    n = collection.n
    arcs = {(tail, head) for tail in range(1, n) for head in range(tail + 1, n + 1)}
    named = set()
    for kind, vertices in collection.motifs:
        if kind in MOTIF_KINDS and type(vertices) is tuple and len(vertices) == 3:
            if all(type(v) is int for v in vertices):
                named.update(motif_arcs(Motif(kind, vertices)))
    unused = sorted(arcs - named)
    used = sorted(arcs & named)
    assert collection.unused_arcs == frozenset(unused)
    assert collection.unused_arc_count == len(unused)
    assert collection.lists_unused_arcs(unused)
    assert collection.lists_unused_arcs(unused[::-1])
    assert not collection.lists_unused_arcs(unused + [(1, 1)])
    if used and unused:
        assert not collection.lists_unused_arcs(unused[:-1] + used[:1])
    if len(unused) > 1:
        assert not collection.lists_unused_arcs(unused[:-1] + unused[:1])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), pool=st.lists(_ENTRIES, min_size=1, max_size=8), data=st.data())
def test_the_dense_arc_table_matches_the_referee_and_the_definitions(n, pool, data):
    # Enough motifs that the walk lists every key of TT_n.
    least = -(-((n + 1) ** 2) // _DENSE_SLOTS_PER_MOTIF)
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=least, max_size=least + 32))
    collection = MotifCollection(n, tuple(picks))
    assert type(collection._arc_walk[0]) is list
    assert verify(collection) == _referee(collection)
    _assert_unused_arcs_match_their_definition(collection)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(60, 200),
    pool=st.lists(_entries(st.integers(-1, 14) | st.integers(55, 202)), min_size=1, max_size=8),
    data=st.data(),
)
def test_the_sparse_arc_table_matches_the_referee_and_the_definitions(n, pool, data):
    # So few motifs at so large an order that the walk keeps only the used keys.
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=16))
    collection = MotifCollection(n, tuple(picks))
    table = collection._arc_walk[0]
    assert type(table) is not list
    assert verify(collection) == _referee(collection)
    used = len(table)
    _assert_unused_arcs_match_their_definition(collection)
    assert len(table) == used  # no lookup of a free key stored it


def _assert_row_users_match_the_motifs(collection: MotifCollection) -> None:
    """Each arc's user, row by row, is the first canonical entry whose
    `motif_arcs` hold it, else the first other entry of a known kind on
    three ints that names it, else -1: the claims the walk's docstring
    describes, read from the entries alone."""
    n = collection.n
    canonical, other = [], []
    for index, (kind, vertices) in enumerate(collection.motifs):
        if kind in MOTIF_KINDS and type(vertices) is tuple and len(vertices) == 3:
            if all(type(v) is int for v in vertices):
                a, b, c = vertices
                (canonical if 0 < a < b < c <= n else other).append((index, Motif(kind, vertices)))
    users: dict[tuple[int, int], int] = {}
    for index, motif in canonical + other:
        for tail, head in motif_arcs(motif):
            if 1 <= tail < head <= n:
                users.setdefault((tail, head), index)
    for tail in range(1, n):
        expected = [users.get((tail, head), -1) for head in range(tail + 1, n + 1)]
        assert collection._row_users(tail) == expected, tail


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), pool=st.lists(_ENTRIES, min_size=1, max_size=8), data=st.data())
def test_row_users_read_a_dense_arc_table(n, pool, data):
    least = -(-((n + 1) ** 2) // _DENSE_SLOTS_PER_MOTIF)
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=least, max_size=least + 32))
    collection = MotifCollection(n, tuple(picks))
    assert type(collection._arc_walk[0]) is list
    _assert_row_users_match_the_motifs(collection)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(60, 200),
    pool=st.lists(_entries(st.integers(-1, 14) | st.integers(55, 202)), min_size=1, max_size=8),
    data=st.data(),
)
def test_row_users_read_a_sparse_arc_table_without_growing_it(n, pool, data):
    picks = data.draw(st.lists(st.sampled_from(pool), max_size=16))
    collection = MotifCollection(n, tuple(picks))
    table = collection._arc_walk[0]
    assert type(table) is not list
    used = len(table)
    _assert_row_users_match_the_motifs(collection)
    assert len(table) == used


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_row_users_of_every_builder_name_the_one_motif_on_each_arc(strategy):
    for n in range(1, 41):
        _assert_row_users_match_the_motifs(STRATEGIES[strategy](n))
