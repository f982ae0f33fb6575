"""Tests for the dots-in-cells grid: dot placement, cell selection,
and the text rendering."""

from __future__ import annotations

import pytest

from ttmotifs.constructions import MotifCollection, construct_collider_max
from ttmotifs.core import TransitiveTournament, chain, classify_arcs, collider, fork
from ttmotifs.diagram import Diagram


def test_dot_present_examples():
    d = Diagram(8)
    assert d.dot_present((1, 2)) is True
    assert d.dot_present((3, 8)) is True
    assert d.dot_present((5, 4)) is False
    assert d.dot_present((7, 7)) is False


def test_dot_present_rejects_out_of_range_cells():
    d = Diagram(8)
    for cell in [(0, 2), (8, 3), (1, 1), (1, 9), (-1, 5)]:
        with pytest.raises(ValueError):
            d.dot_present(cell)


def _dotted_cells(d: Diagram) -> list[tuple[int, int]]:
    """Every cell of the grid that carries a dot, in row-major order."""
    return [
        (row, col)
        for row in range(1, d.n)
        for col in range(2, d.n + 1)
        if d.dot_present((row, col))
    ]


@pytest.mark.parametrize("n", range(2, 51))
def test_dots_are_exactly_the_arcs(n):
    assert _dotted_cells(Diagram(n)) == TransitiveTournament(n).arcs()


@pytest.mark.parametrize("n", range(2, 51))
def test_row_and_column_dot_counts(n):
    dots = set(_dotted_cells(Diagram(n)))
    for i in range(1, n):
        assert sum(1 for (r, _) in dots if r == i) == n - i
    for j in range(2, n + 1):
        assert sum(1 for (_, c) in dots if c == j) == j - 1


def test_motif_from_cells_examples():
    d = Diagram(8)
    assert d.motif_from_cells((2, 5), (2, 6)) == fork(2, 5, 6)
    assert d.motif_from_cells((3, 8), (4, 8)) == collider(3, 4, 8)
    assert d.motif_from_cells((5, 6), (6, 7)) == chain(5, 6, 7)
    assert d.motif_from_cells((6, 7), (5, 6)) == chain(5, 6, 7)  # either order
    assert d.motif_from_cells((1, 3), (2, 4)) is None


def test_motif_from_cells_rejects_bad_selections():
    d = Diagram(8)
    with pytest.raises(ValueError):
        d.motif_from_cells((4, 3), (1, 3))  # first cell undotted
    with pytest.raises(ValueError):
        d.motif_from_cells((1, 3), (5, 5))  # second cell undotted
    with pytest.raises(ValueError):
        d.motif_from_cells((1, 3), (1, 3))  # identical cells


@pytest.mark.parametrize("n", range(2, 11))
def test_motif_from_cells_agrees_with_classify_pair(n):
    """A dotted cell is an arc; selecting two of them must agree with
    arc-pair classification everywhere."""
    d = Diagram(n)
    arcs = TransitiveTournament(n).arcs()
    for i, a in enumerate(arcs):
        for b in arcs[i + 1 :]:
            assert d.motif_from_cells(a, b) == classify_arcs(a, b)


def test_render_small_grid():
    assert Diagram(3).render_ascii() == "   2 3\n 1 · ·\n 2   ·"


def _grid_cells(rendered: str) -> dict[tuple[int, int], str]:
    """Parse a rendering back into {(row, col): cell_text}."""
    lines = rendered.split("\n")
    header = lines[0]
    cols = [int(header[3 + 2 * k : 5 + 2 * k]) for k in range((len(header) - 3 + 1) // 2)]
    cells = {}
    for line in lines[1:]:
        row = int(line[:2])
        body = line[3:]
        for k, col in enumerate(cols):
            cells[(row, col)] = body[2 * k : 2 * k + 2].strip()
    return cells


def test_render_grid_shape_and_dot_count():
    rendered = Diagram(8).render_ascii()
    lines = rendered.split("\n")
    assert len(lines) == 8  # header + rows 1..7
    cells = _grid_cells(rendered)
    dots = [pos for pos, text in cells.items() if text == "·"]
    assert len(dots) == 28
    assert sum(1 for (r, _) in dots if r == 1) == 7  # row 1 is full


def test_render_highlight_tags_column_pairs_bottom_up():
    """Rendering the collider-max packing of TT_8 must tag each
    column's dots in consecutive bottom-up pairs."""
    n = 8
    collection = construct_collider_max(n)
    rendered = Diagram(n).render_ascii(highlight=collection)
    cells = _grid_cells(rendered)
    for j in range(3, n + 1):
        rows = list(range(j - 1, 0, -1))  # bottom to top
        for p in range(0, len(rows) - 1, 2):
            assert cells[(rows[p], j)] == cells[(rows[p + 1], j)] != "·"
    # the leftover top dots of even columns pair into forks on row 1
    assert cells[(1, 2)] == cells[(1, 4)] != "·"
    assert cells[(1, 6)] == cells[(1, 8)] != "·"


def test_render_highlight_leaves_unused_arcs_as_dots():
    collection = construct_collider_max(3)  # packs all but (1, 2)
    cells = _grid_cells(Diagram(3).render_ascii(highlight=collection))
    assert cells[(1, 2)] == "·"
    assert cells[(1, 3)] == cells[(2, 3)] == "0"


def test_render_rejects_mismatched_order():
    with pytest.raises(ValueError):
        Diagram(8).render_ascii(highlight=construct_collider_max(9))


def test_render_rejects_reused_arcs():
    twice = MotifCollection(4, (chain(1, 2, 3), chain(1, 2, 3)))
    with pytest.raises(ValueError):
        Diagram(4).render_ascii(highlight=twice)


def test_render_caps_order_at_99():
    assert "·" in Diagram(99).render_ascii().split("\n")[1]
    with pytest.raises(ValueError, match="JSON"):
        Diagram(100).render_ascii()
