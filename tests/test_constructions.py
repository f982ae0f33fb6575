"""Tests for the four deterministic constructions."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttmotifs.analysis import is_admissible, packing_number, verify
from ttmotifs.constructions import (
    STRATEGIES,
    MotifCollection,
    construct_chain_max,
    construct_collider_max,
    construct_fork_max,
    construct_mixed,
)
from ttmotifs.core import (
    CHAIN,
    COLLIDER,
    FORK,
    MOTIF_KINDS,
    Motif,
    _PackedMotifs,
    chain,
    collider,
    fork,
    iter_arcs,
    motif_arcs,
    motif_center,
)
from ttmotifs.diagram import Diagram

DOMINANT_KIND = {"chain-max": CHAIN, "collider-max": COLLIDER, "fork-max": FORK}


def _assert_valid_packing(collection: MotifCollection) -> None:
    report = verify(collection)
    assert report.valid, report.violations
    used = 2 * len(collection.motifs)
    assert used + len(collection.unused_arcs) == collection.n * (collection.n - 1) // 2
    assert report.is_decomposition == (len(collection.unused_arcs) == 0)


# --- golden tables ----------------------------------------------------------


@pytest.mark.parametrize("strategy,n", [(s, n) for s in DOMINANT_KIND for n in (8, 9)])
def test_golden_tables_are_valid_decompositions(golden_tables, strategy, n):
    """The frozen reference tables themselves must be arc-disjoint full
    decompositions — guards against transcription slips."""
    collection = MotifCollection(n, tuple(sorted(golden_tables[(strategy, n)])))
    report = verify(collection)
    assert report.valid and report.is_decomposition


@pytest.mark.parametrize("strategy,n", [(s, n) for s in DOMINANT_KIND for n in (8, 9)])
def test_constructions_reproduce_golden_tables(golden_tables, strategy, n):
    collection = STRATEGIES[strategy](n)
    assert frozenset(collection.motifs) == golden_tables[(strategy, n)]
    assert len(collection.motifs) == len(golden_tables[(strategy, n)])


def test_chain_max_8_emission_order():
    """Chains come out centre-by-centre, high centres first, and the
    leftover colliders last."""
    motifs = construct_chain_max(8).motifs
    assert [m.vertices for m in motifs] == [
        (1, 7, 8),
        (1, 6, 7), (2, 6, 8),
        (1, 5, 6), (2, 5, 7), (3, 5, 8),
        (1, 4, 7), (2, 4, 6), (3, 4, 5),
        (1, 3, 7), (2, 3, 6),
        (1, 2, 7),
        (1, 2, 8), (3, 4, 8),
    ]
    assert [m.kind for m in motifs] == [CHAIN] * 12 + [COLLIDER] * 2


# --- worked examples --------------------------------------------------------


def test_mixed_decomposition_of_tt8():
    collection = construct_mixed(8)
    _assert_valid_packing(collection)
    assert tuple(collection.counts) == (3, 2, 9)
    assert collection.unused_arcs == frozenset()
    assert collection.motifs[:3] == (chain(1, 2, 3), chain(3, 4, 5), chain(5, 6, 7))


def test_mixed_decomposition_of_tt4():
    collection = construct_mixed(4)
    assert set(collection.motifs) == {chain(1, 2, 3), fork(1, 3, 4), collider(2, 3, 4)}
    assert verify(collection).is_decomposition


def test_mixed_decomposition_of_tt5():
    collection = construct_mixed(5)
    _assert_valid_packing(collection)
    assert tuple(collection.counts) == (2, 1, 2)
    assert collection.unused_arcs == frozenset()


def test_trivial_orders_give_empty_collections():
    for build in STRATEGIES.values():
        assert build(1).motifs == ()
        assert build(1).unused_arcs == frozenset()
        assert build(2).motifs == ()
        assert build(2).unused_arcs == {(1, 2)}


def test_chain_max_6_is_a_maximum_packing():
    collection = construct_chain_max(6)
    _assert_valid_packing(collection)
    assert tuple(collection.counts) == (6, 1, 0)
    assert collection.unused_arcs == {(3, 6)}


def test_collider_max_3():
    collection = construct_collider_max(3)
    assert collection.motifs == (collider(1, 2, 3),)
    assert collection.unused_arcs == {(1, 2)}


def test_fork_max_7_leftover():
    collection = construct_fork_max(7)
    _assert_valid_packing(collection)
    assert tuple(collection.counts) == (0, 1, 9)
    assert len(collection.unused_arcs) == 1


# --- sweep invariants -------------------------------------------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_constructions_valid_for_all_small_orders(strategy):
    """For every n <= 80: verified packing, decomposition exactly on
    admissible n, dominant count equal to the packing number, purity."""
    build = STRATEGIES[strategy]
    for n in range(1, 81):
        collection = build(n)
        _assert_valid_packing(collection)
        assert verify(collection).is_decomposition == is_admissible(n)
        counts = dict(zip((CHAIN, COLLIDER, FORK), collection.counts))
        if strategy == "mixed":
            continue
        dominant = DOMINANT_KIND[strategy]
        assert counts[dominant] == packing_number(dominant, n)
        # exactly one helper kind mops up the remainder
        helper = COLLIDER if dominant in (CHAIN, FORK) else FORK
        absent = [k for k in (CHAIN, COLLIDER, FORK) if k not in (dominant, helper)]
        assert all(counts[k] == 0 for k in absent)


def _reversed(collection: MotifCollection) -> MotifCollection:
    """The image under the vertex reversal i -> n+1-i, which maps TT_n
    onto itself: a chain stays a chain, a collider becomes a fork and a
    fork a collider, each on the reversed triple."""
    n = collection.n
    image = {CHAIN: chain, COLLIDER: fork, FORK: collider}
    return MotifCollection(n, tuple(
        image[kind](*(n + 1 - v for v in reversed(vertices)))
        for kind, vertices in collection.motifs
    ))


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_reversal_maps_every_construction_to_a_valid_mirror(strategy):
    """An independent cross-check of verify and of the builders: the
    reversed collection is valid, is a decomposition exactly when the
    original is, keeps the chains, swaps colliders with forks, and leaves
    the reversed arcs unused."""
    for n in range(1, 41):
        collection = STRATEGIES[strategy](n)
        mirror = _reversed(collection)
        report = verify(mirror)
        assert report.valid, (n, report.violations)
        assert report.is_decomposition == verify(collection).is_decomposition
        chains, colliders, forks = collection.counts
        assert tuple(report.counts) == (chains, forks, colliders)
        mirrored = {(n + 1 - head, n + 1 - tail) for tail, head in collection.unused_arcs}
        assert mirror.unused_arcs == mirrored


def test_mixed_unused_arc_is_in_last_column():
    for n in range(2, 81):
        collection = construct_mixed(n)
        if is_admissible(n):
            assert collection.unused_arcs == frozenset()
        else:
            (arc,) = collection.unused_arcs
            assert arc[1] == n


def test_chain_max_saturates_every_interior_center():
    """In the chain-max output every interior vertex centres exactly
    min(in-degree, out-degree) = min(t - 1, n - t) chains."""
    for n in (5, 8, 9, 16, 33, 40):
        by_center = {t: 0 for t in range(1, n + 1)}
        for motif in construct_chain_max(n).motifs:
            if motif.kind == CHAIN:
                by_center[motif_center(motif)] += 1
        for t in range(1, n + 1):
            assert by_center[t] == min(t - 1, n - t)


def test_collider_and_fork_max_saturate_centers():
    for n in (6, 8, 9, 21):
        by_head = {t: 0 for t in range(1, n + 1)}
        for motif in construct_collider_max(n).motifs:
            if motif.kind == COLLIDER:
                by_head[motif_center(motif)] += 1
        assert all(by_head[t] == (t - 1) // 2 for t in range(1, n + 1))
        by_tail = {t: 0 for t in range(1, n + 1)}
        for motif in construct_fork_max(n).motifs:
            if motif.kind == FORK:
                by_tail[motif_center(motif)] += 1
        assert all(by_tail[t] == (n - t) // 2 for t in range(1, n + 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.sampled_from(sorted(STRATEGIES)))
def test_constructions_are_deterministic(n, strategy):
    first = STRATEGIES[strategy](n)
    second = STRATEGIES[strategy](n)
    assert first == second
    assert first.motifs == second.motifs


def test_collections_must_have_positive_order():
    with pytest.raises(ValueError):
        MotifCollection(0, ())
    for build in STRATEGIES.values():
        for n in (0, -1, -5, -10**9):
            with pytest.raises(ValueError, match=f"^order must be at least 1, got {n}$"):
                build(n)


def test_motif_collection_derived_fields():
    collection = MotifCollection(4, (chain(1, 2, 3),))
    assert collection.unused_arcs == {(1, 3), (1, 4), (2, 4), (3, 4)}
    assert tuple(collection.counts) == (1, 0, 0)
    arcs_of_all = [a for m in collection.motifs for a in motif_arcs(m)]
    assert len(arcs_of_all) == 2


def _unused_by_enumeration(collection: MotifCollection) -> frozenset:
    """The unused arcs straight from the definition: every arc of TT_n
    that no motif's arc list contains."""
    n = collection.n
    used = {arc for motif in collection.motifs for arc in motif_arcs(motif)}
    return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1) if (i, j) not in used)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_unused_arcs_match_the_definition(strategy):
    for n in range(1, 31):
        collection = STRATEGIES[strategy](n)
        assert collection.unused_arcs == _unused_by_enumeration(collection)
        assert collection.unused_arc_count == len(collection.unused_arcs)


def test_unused_arcs_ignore_arcs_outside_the_tournament():
    odd = MotifCollection(5, (
        chain(1, 2, 9),            # (2, 9) leaves TT_5; (1, 2) is covered
        Motif(FORK, (3, 1, 4)),    # (3, 1) runs backwards; (3, 4) is covered
        Motif(COLLIDER, (0, 2, 3)),  # (0, 3) leaves TT_5; (2, 3) is covered
        chain(1, 2, 3),            # (1, 2) again, and (2, 3) again
    ))
    assert odd.unused_arcs == _unused_by_enumeration(odd)
    assert odd.unused_arc_count == 10 - 3


def test_unused_arcs_stop_reading_rows_once_the_walk_count_is_found(monkeypatch):
    # Collider-max at n = 778 leaves one arc free, in row 1, so the other
    # 776 rows of the arc table need not be read.
    collection = construct_collider_max(778)
    rows = []
    read = MotifCollection._row_users

    def counted(self, tail):
        rows.append(tail)
        return read(self, tail)

    monkeypatch.setattr(MotifCollection, "_row_users", counted)
    assert collection.unused_arcs == {(1, 778)}
    assert rows == [1]


def test_unused_arc_count_does_not_enumerate_the_tournament():
    # TT_100000 has about 5e9 arcs; the count is arithmetic on the motifs.
    collection = MotifCollection(100_000, (chain(1, 2, 3),))
    assert collection.unused_arc_count == 100_000 * 99_999 // 2 - 2


def test_lists_unused_arcs_compares_as_a_set_of_distinct_arcs():
    collection = MotifCollection(4, (chain(1, 2, 3), fork(1, 3, 4)))  # leaves (2, 4), (3, 4)
    assert collection.lists_unused_arcs([(2, 4), (3, 4)])
    assert collection.lists_unused_arcs([(3, 4), (2, 4)])
    for wrong in (
        [],
        [(2, 4)],
        [(2, 4), (2, 4)],           # right count, one arc twice
        [(2, 4), (1, 2)],           # a covered arc
        [(2, 4), (4, 3)],           # reversed
        [(2, 4), (0, 4)],           # foreign
        [(2, 4), (3, 4), (1, 4)],
        [(2, 4), 5],                # not pairs: right count, nothing to unpack
        [(2, 4), None],
        [(2, 4), (1, 2, 3)],
    ):
        assert not collection.lists_unused_arcs(wrong), wrong


# --- coverage and rendering over everything verify accepts ----------------


def _used_by_definition(n: int, motifs) -> set:
    """Arcs of TT_n that some motif uses: a motif of a known kind on a
    tuple of three ints (not bools) uses the two arcs its kind names,
    and anything else uses nothing."""
    used = set()
    for kind, vertices in motifs:
        if (
            kind in MOTIF_KINDS
            and type(vertices) is tuple
            and len(vertices) == 3
            and all(type(v) is int for v in vertices)
        ):
            used.update(motif_arcs(Motif(kind, vertices)))
    return used & set(iter_arcs(n))


_ANY_VERTEX = st.one_of(
    st.integers(-2, 14), st.floats(allow_nan=True), st.booleans(), st.none()
)
_LIBRARY_MOTIFS = st.builds(
    Motif,
    st.sampled_from(MOTIF_KINDS + ("triangle", "", "CHAIN", [CHAIN], {CHAIN: 1})),
    st.one_of(st.none(), st.lists(_ANY_VERTEX, max_size=4).map(tuple)),
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 12), motifs=st.lists(_LIBRARY_MOTIFS, max_size=12))
@example(n=4, motifs=[Motif(COLLIDER, (2, 1, 3))])  # two arcs of TT_4, not ascending
def test_coverage_and_rendering_accept_every_collection_verify_reports_on(n, motifs):
    collection = MotifCollection(n, tuple(motifs))
    report = verify(collection)  # reports, never raises
    used = _used_by_definition(n, motifs)
    unused = frozenset(iter_arcs(n)) - used
    assert collection.unused_arc_count == len(unused)
    assert collection.unused_arcs == unused
    assert collection.lists_unused_arcs(sorted(unused))
    if report.valid:
        Diagram(n).render_ascii(highlight=collection)
    else:
        with pytest.raises(ValueError):
            Diagram(n).render_ascii(highlight=collection)


@pytest.mark.parametrize(
    "motif", [Motif(CHAIN, (1, 2)), Motif("triangle", (1, 2, 3)), Motif(CHAIN, None)]
)
def test_a_motif_verify_calls_misclassified_uses_no_arc(motif):
    collection = MotifCollection(5, (motif,))
    assert collection.unused_arc_count == 10
    assert len(collection.unused_arcs) == 10
    assert verify(collection).violations[0].kind == "misclassified_motif"


class _CountingTuple(tuple):
    """A motif tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_every_arc_question_reads_one_walk_over_the_motifs():
    collection = MotifCollection(9, _CountingTuple(construct_mixed(9).motifs))
    report = verify(collection)
    assert report.valid and report.is_decomposition
    assert collection.unused_arc_count == 0
    assert collection.unused_arcs == frozenset()
    assert collection.lists_unused_arcs([])
    assert tuple(collection.counts) == (4, 2, 12)
    Diagram(9).render_ascii(highlight=collection)
    assert collection.motifs.iterations == 1


def test_the_walk_of_a_large_decomposition_holds_a_few_bytes_per_key():
    # Measured at 15 bytes per key of TT_n (8 for the table's slot, the
    # rest for the motif positions it holds); a dict of the used keys
    # took 39.
    n = 400
    collection = MotifCollection(n, construct_fork_max(n).motifs)
    tracemalloc.start()
    try:
        collection._arc_walk
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * (n + 1) ** 2


def test_a_builder_keeps_a_few_bytes_per_motif():
    # Measured at 26 bytes a motif: one kind byte and three 8-byte
    # vertices.  A tuple of `Motif`s kept 174.
    n = 400
    tracemalloc.start()
    try:
        collection = construct_fork_max(n)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 40 * len(collection.motifs)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_built_motifs_behave_as_the_tuple_of_their_motifs(strategy):
    for n in (1, 2, 3, 7, 12):
        packed = STRATEGIES[strategy](n).motifs
        motifs = tuple(packed)
        assert all(type(motif) is Motif for motif in motifs)
        assert len(packed) == len(motifs)
        assert [packed[i] for i in range(-len(motifs), len(motifs))] == [
            motifs[i] for i in range(-len(motifs), len(motifs))
        ]
        for index in (len(motifs), -len(motifs) - 1):
            with pytest.raises(IndexError):
                packed[index]
        with pytest.raises(TypeError):
            packed["0"]
        for cut in (slice(None), slice(1, 4), slice(None, None, -2), slice(-3, 100)):
            assert packed[cut] == motifs[cut] and type(packed[cut]) is tuple
        assert packed == motifs and motifs == packed and not packed != motifs
        assert packed == STRATEGIES[strategy](n).motifs
        assert packed != list(motifs) and packed != motifs + (chain(1, 2, 3),)
        assert packed + motifs == motifs + motifs
        assert packed + packed == motifs + motifs
        assert hash(packed) == hash(motifs) and repr(packed) == repr(motifs)
        assert list(reversed(packed)) == list(reversed(motifs))
        if motifs:
            assert motifs[-1] in packed and packed.index(motifs[-1]) == motifs.index(motifs[-1])
            assert packed.count(motifs[0]) == 1
        collection, listed = MotifCollection(n, packed), MotifCollection(n, motifs)
        assert collection == listed and hash(collection) == hash(listed) and repr(collection) == repr(listed)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_packed_and_tuple_motifs_get_the_same_verdict(strategy):
    for n in range(1, 41):
        packed = STRATEGIES[strategy](n)
        listed = MotifCollection(n, tuple(packed.motifs))
        assert repr(verify(packed)) == repr(verify(listed))
        assert packed.unused_arcs == listed.unused_arcs
        assert packed.unused_arc_count == listed.unused_arc_count
        unused = sorted(listed.unused_arcs)
        for arcs in (unused, unused[::-1], unused + [(1, 2)], unused[1:]):
            assert packed.lists_unused_arcs(arcs) == listed.lists_unused_arcs(arcs)


def _store(motifs) -> _PackedMotifs:
    store = _PackedMotifs()
    for kind, vertices in motifs:
        assert store.put(kind, vertices)
    return store


_UNSTORABLE = {
    "unknown-kind": ("triangle", (1, 2, 3)),
    "list-kind": ([CHAIN], (1, 2, 3)),
    "dict-kind": ({FORK: 1}, (1, 2, 3)),
    "pair": (CHAIN, (1, 2)),
    "quadruple": (CHAIN, [1, 2, 3, 4]),
    "int-vertices": (CHAIN, 123),
    "no-vertices": (CHAIN, None),
    "bool-vertex": (CHAIN, [1, True, 3]),
    "float-vertex": (FORK, (1, 2, 3.0)),
    "str-vertex": (COLLIDER, ["1", 2, 3]),
    "str-of-three": (CHAIN, "123"),
    "third-vertex-2**63": (CHAIN, [1, 2, 2**63]),
    "first-vertex-below-int64": (COLLIDER, (-(2**63) - 1, 2, 3)),
    "first-vertex-2**63": (FORK, [2**63, 1, 2]),
}


@pytest.mark.parametrize("before", [(), (chain(1, 2, 3), fork(1, 4, 5))], ids=["empty", "after-two"])
@pytest.mark.parametrize("name", sorted(_UNSTORABLE))
def test_put_stores_nothing_it_cannot_hold(name, before):
    store = _store(before)
    kinds, vertices = bytes(store.kinds), store.vertices.tobytes()
    assert store.put(*_UNSTORABLE[name]) is False
    assert (bytes(store.kinds), store.vertices.tobytes()) == (kinds, vertices)
    assert store == before


@pytest.mark.parametrize(
    "run, error",
    [
        (("triangle", [1], [2], [3]), ValueError),
        ((CHAIN, [1], [2]), TypeError),
        ((CHAIN, [1], [2], [3], [4]), TypeError),
    ],
    ids=["unknown-kind", "two-columns", "four-columns"],
)
def test_put_runs_of_an_unknown_kind_or_not_three_columns_stores_nothing(run, error):
    store = _PackedMotifs()
    with pytest.raises(error):
        store.put_runs(*run)
    assert (len(store.kinds), len(store.vertices)) == (0, 0)


@pytest.mark.parametrize(
    "vertex, error", [(2.0, TypeError), (2**63, OverflowError)], ids=["float", "past-int64"]
)
def test_put_runs_leaves_the_store_as_it_was_when_a_vertex_does_not_fit(vertex, error):
    store = _store((chain(1, 2, 3), fork(1, 4, 5)))
    kinds, vertices = bytes(store.kinds), store.vertices.tobytes()
    with pytest.raises(error):
        store.put_runs(CHAIN, [1, 1], [4, vertex], [7, 8])
    assert (bytes(store.kinds), store.vertices.tobytes()) == (kinds, vertices)


def test_put_stores_any_three_ints_of_64_bits_as_written():
    # The store judges nothing beyond what it can hold: order and range
    # are the walk's to reject.
    motifs = (Motif(CHAIN, (3, 2, 1)), Motif(FORK, (2**63 - 1, -(2**63), 0)), Motif(COLLIDER, (1, 2, 3)))
    store = _store(motifs)
    assert store == motifs and len(store) == 3


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_put_rebuilds_every_builders_store(strategy):
    for n in range(1, 41):
        built = STRATEGIES[strategy](n).motifs
        rebuilt = _store(tuple(built))
        assert (rebuilt.kinds, rebuilt.vertices) == (built.kinds, built.vertices), n


def test_an_entry_that_unpacks_only_once_is_rejected_not_raised():
    # The walk reads a rejected entry's message back from the entry; a
    # one-shot iterator gives nothing the second time, and is then
    # reported as not a (kind, vertices) pair.
    # The walk counts an entry by its kind tag, as it read it the first time.
    for kind, vertices in ((CHAIN, (1, 2)), ("triangle", (1, 2, 3)), (CHAIN, (1, None, 3))):
        collection = MotifCollection(5, (iter((kind, vertices)), fork(2, 3, 4)))
        report = verify(collection)
        assert [(v.kind, v.motifs) for v in report.violations] == [("misclassified_motif", (0,))]
        assert report.violations[0].detail.startswith("motif 0 is not a (kind, vertices) pair: ")
        assert report.counts == (int(kind == CHAIN), 0, 1)
        assert collection.unused_arc_count == 8
