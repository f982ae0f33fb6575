"""Grid view of the arc set: the dots-in-cells diagram.

Cell (row, col) of a virtual (n-1) x (n-1) array — rows 1..n-1,
columns 2..n — carries a dot exactly when the arc row -> col exists,
i.e. when row < col, so row i holds the dots of its arcs (i, i+1..n).
Two dots in one row form a fork, two dots in one column form a
collider, and a diagonal pair (i, j), (j, k) forms a chain.  That
correspondence is what makes the grid useful: packing motifs is
pairing dots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MotifCollection, check_order, verify

_BASE62 = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
MAX_RENDER_ORDER = 99  # two-character labels and tags stop lining up beyond this


def check_render_order(n: int) -> None:
    """Reject orders too large for `Diagram.render_ascii`; cheap enough
    to call before building anything that would be rendered."""
    if n > MAX_RENDER_ORDER:
        raise ValueError(
            f"grid rendering supports n <= {MAX_RENDER_ORDER}; "
            "use the JSON output for larger orders"
        )


def _tag(index: int) -> str:
    """Two-character-max base-62 tag for motif number `index`."""
    if index < 62:
        return _BASE62[index]
    hi, lo = divmod(index, 62)  # below 62**2: at n <= 99 there are at most 2,425 motifs to tag
    return _BASE62[hi] + _BASE62[lo]


@dataclass(frozen=True)
class Diagram:
    """Dots-in-cells view of TT_n."""

    n: int

    def __post_init__(self) -> None:
        check_order(self.n)

    def render_ascii(self, highlight: MotifCollection | None = None) -> str:
        """Text rendering of the grid: column labels on top, one line per
        row, every cell two characters wide, '·' for a dot.

        With `highlight`, each dot that belongs to a motif shows that
        motif's index tag instead of '·', so the two arcs of one motif
        share a tag.  Arcs outside every motif keep their plain dot.  Only
        a collection that `verify` accepts is rendered; any other raises
        `ValueError`.  From the collection's walk this reads only the arc
        table, cell by cell: the motif of each used arc, -1 for a free one.
        """
        check_render_order(self.n)
        stride = self.n + 1
        table = None  # MotifCollection._arc_walk's arc table, keyed row * stride + col
        tags = ["· "]  # tags[user] for each cell; a free arc's -1 picks the plain dot
        if highlight is not None:
            if highlight.n != self.n:
                raise ValueError(
                    f"collection is over TT_{highlight.n}, diagram over TT_{self.n}"
                )
            if not verify(highlight).valid:
                raise ValueError(
                    f"a highlighted collection must hold canonical motifs of TT_{self.n}, "
                    "each arc in one motif only"
                )
            table = highlight._arc_walk[0]
            tags = [_tag(index).ljust(2) for index in range(len(highlight.motifs))] + tags
        lines = ["   " + "".join(str(col).ljust(2) for col in range(2, self.n + 1))]
        for row in range(1, self.n):
            # Columns 2..row are blank; the arcs (row, row+1..n) fill the rest.
            if table is None:
                cells = "· " * (self.n - row)
            else:
                cells = "".join([tags[table[row * stride + head]] for head in range(row + 1, self.n + 1)])
            lines.append(f"{row:>2} " + "  " * (row - 1) + cells)
        return "\n".join(line.rstrip() for line in lines)
