"""Tests for the dots-in-cells grid: dot placement and the text
rendering."""

from __future__ import annotations

import pytest

from ttmotifs.constructions import MotifCollection, construct_collider_max
from ttmotifs.core import chain, iter_arcs
from ttmotifs.diagram import Diagram


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


def _dotted_cells(d: Diagram) -> list[tuple[int, int]]:
    """Every cell of the rendered grid that shows a dot, in row-major order."""
    return [cell for cell, text in _grid_cells(d.render_ascii()).items() if text == "·"]


@pytest.mark.parametrize("n", range(2, 51))
def test_dots_are_exactly_the_arcs(n):
    assert _dotted_cells(Diagram(n)) == list(iter_arcs(n))


@pytest.mark.parametrize("n", range(2, 51))
def test_row_and_column_dot_counts(n):
    dots = set(_dotted_cells(Diagram(n)))
    for i in range(1, n):
        assert sum(1 for (r, _) in dots if r == i) == n - i
    for j in range(2, n + 1):
        assert sum(1 for (_, c) in dots if c == j) == j - 1


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
