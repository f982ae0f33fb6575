"""Tests for arcs, degrees, motif canonical forms, and classification."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ttmotifs.core import (
    CHAIN,
    COLLIDER,
    FORK,
    MOTIF_KINDS,
    Motif,
    TransitiveTournament,
    chain,
    classify_arcs,
    collider,
    fork,
    iter_arcs,
    motif_arcs,
    motif_center,
)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        TransitiveTournament(0)
    with pytest.raises(ValueError):
        TransitiveTournament(-3)


def test_arcs_small_orders():
    assert list(iter_arcs(1)) == []
    assert list(iter_arcs(2)) == [(1, 2)]
    assert list(iter_arcs(4)) == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]


@pytest.mark.parametrize("n", range(1, 51))
def test_arc_count_formula(n):
    tt = TransitiveTournament(n)
    arcs = list(iter_arcs(n))
    assert len(arcs) == n * (n - 1) // 2 == tt.arc_count
    assert arcs == sorted(arcs)
    assert len(set(arcs)) == len(arcs)
    assert all(1 <= i < j <= n for i, j in arcs)


@pytest.mark.parametrize("n", range(1, 31))
def test_degree_identities(n):
    """Read off the arc list, vertex t has out-degree n - t and in-degree
    t - 1, so in-degree catches up with out-degree at t = (n + 2) // 2."""
    tt = TransitiveTournament(n)
    out_degree = {t: 0 for t in range(1, n + 1)}
    in_degree = {t: 0 for t in range(1, n + 1)}
    for tail, head in iter_arcs(n):
        out_degree[tail] += 1
        in_degree[head] += 1
    assert all(out_degree[t] == n - t and in_degree[t] == t - 1 for t in range(1, n + 1))
    assert sum(out_degree.values()) == tt.arc_count
    threshold = (n + 2) // 2  # smallest t with in-degree >= out-degree
    for t in range(1, n + 1):
        assert (in_degree[t] >= out_degree[t]) == (t >= threshold)


def test_classify_pair_examples():
    assert classify_arcs((1, 7), (7, 8)) == chain(1, 7, 8)
    assert classify_arcs((3, 8), (4, 8)) == collider(3, 4, 8)
    assert classify_arcs((1, 2), (1, 3)) == fork(1, 2, 3)
    assert classify_arcs((1, 2), (3, 4)) is None


def test_classify_pair_is_order_insensitive():
    assert classify_arcs((7, 8), (1, 7)) == chain(1, 7, 8)
    assert classify_arcs((4, 8), (3, 8)) == collider(3, 4, 8)


def test_classify_pair_rejects_identical_arcs():
    with pytest.raises(ValueError):
        classify_arcs((1, 2), (1, 2))


@pytest.mark.parametrize("n", range(2, 11))
def test_classification_is_exhaustive(n):
    """Over every pair of distinct arcs: two shared vertices are
    impossible, one shared vertex yields exactly one motif kind, zero
    shared vertices yield no motif."""
    arcs = list(iter_arcs(n))
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            shared = set(a) & set(b)
            assert len(shared) <= 1
            motif = classify_arcs(a, b)
            if not shared:
                assert motif is None
            else:
                assert motif is not None
                assert motif.kind in MOTIF_KINDS
                assert set(motif_arcs(motif)) == {a, b}


def test_constructors_canonicalise_symmetric_pair():
    assert collider(4, 3, 8) == collider(3, 4, 8) == Motif(COLLIDER, (3, 4, 8))
    assert fork(1, 3, 2) == fork(1, 2, 3) == Motif(FORK, (1, 2, 3))
    assert chain(1, 2, 3) == Motif(CHAIN, (1, 2, 3))


def test_constructors_reject_degenerate_triples():
    with pytest.raises(ValueError):
        chain(2, 2, 3)
    with pytest.raises(ValueError):
        chain(3, 2, 4)
    with pytest.raises(ValueError):
        collider(3, 3, 8)
    with pytest.raises(ValueError):
        collider(3, 8, 5)  # head not above both tails
    with pytest.raises(ValueError):
        fork(4, 4, 5)
    with pytest.raises(ValueError):
        fork(4, 2, 5)  # tail not below both heads


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("vertex", [1.0, True, "1", None], ids=["float", "bool", "str", "none"])
def test_constructors_reject_a_vertex_that_is_not_an_int(vertex, position):
    # The walk rejects such a triple as "not a vertex triple", so a
    # constructor that accepted it would hand out a motif `verify` rejects.
    for make in (chain, collider, fork):
        vertices = [1, 2, 3]
        vertices[position] = vertex
        with pytest.raises(ValueError, match="must be integers"):
            make(*vertices)


def test_classify_arcs_rejects_an_arc_on_a_vertex_that_is_not_an_int():
    for a, b in (((1.0, 2), (2, 3)), ((True, 3), (2, 3)), ((1, 2), (1, 3.0))):
        with pytest.raises(ValueError, match="must be integers"):
            classify_arcs(a, b)


def test_motif_arcs_and_center():
    assert motif_arcs(chain(1, 4, 6)) == ((1, 4), (4, 6))
    assert motif_center(chain(1, 4, 6)) == 4
    assert motif_arcs(collider(2, 5, 7)) == ((2, 7), (5, 7))
    assert motif_center(collider(2, 5, 7)) == 7
    assert motif_arcs(fork(2, 5, 7)) == ((2, 5), (2, 7))
    assert motif_center(fork(2, 5, 7)) == 2


def test_motif_arcs_rejects_unknown_kind():
    with pytest.raises(ValueError):
        motif_arcs(Motif("loop", (1, 2, 3)))
    with pytest.raises(ValueError):
        motif_center(Motif("loop", (1, 2, 3)))


@pytest.mark.parametrize("read", [motif_arcs, motif_center], ids=["motif_arcs", "motif_center"])
def test_unknown_kind_gives_the_kind_check_message(read):
    with pytest.raises(ValueError, match=r"^unknown motif kind 'loop'; expected one of \("):
        read(Motif("loop", (1, 2, 3)))


@st.composite
def canonical_motifs(draw, max_n: int = 30):
    n = draw(st.integers(min_value=3, max_value=max_n))
    triple = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=3, max_size=3))))
    kind = draw(st.sampled_from(MOTIF_KINDS))
    return Motif(kind, triple)


@given(canonical_motifs())
def test_canonical_round_trip(motif):
    """The two arcs recovered from a canonical motif classify back to
    an equal motif, in either argument order."""
    first, second = motif_arcs(motif)
    assert classify_arcs(first, second) == motif
    assert classify_arcs(second, first) == motif
    assert motif_center(motif) in set(first) & set(second)
