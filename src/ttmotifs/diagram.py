"""Grid view of the arc set: the dots-in-cells diagram.

Cell (row, col) of a virtual (n-1) x (n-1) array — rows 1..n-1,
columns 2..n — carries a dot exactly when the arc row -> col exists,
i.e. when row < col.  Two dots in one row form a fork, two dots in one
column form a collider, and a diagonal pair (i, j), (j, k) forms a
chain.  That correspondence is what makes the grid useful: packing
motifs is pairing dots.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import MotifCollection
from .core import check_order, motif_arcs

Cell = tuple[int, int]  # (row, col): row 1..n-1, col 2..n

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
    hi, lo = divmod(index, 62)
    if hi >= 62:
        raise ValueError(f"motif index {index} too large to tag")
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
        share a tag.  Arcs outside every motif keep their plain dot.
        """
        check_render_order(self.n)
        tag_of: dict[Cell, str] = {}
        if highlight is not None:
            if highlight.n != self.n:
                raise ValueError(
                    f"collection is over TT_{highlight.n}, diagram over TT_{self.n}"
                )
            for index, motif in enumerate(highlight.motifs):
                for arc in motif_arcs(motif):
                    tail, head = arc
                    if not (1 <= tail < head <= self.n):
                        raise ValueError(f"motif {index} uses {arc}, not an arc of TT_{self.n}")
                    if arc in tag_of:
                        raise ValueError(f"arc {arc} appears in more than one motif")
                    tag_of[arc] = _tag(index)
        lines = ["   " + "".join(str(col).ljust(2) for col in range(2, self.n + 1))]
        for row in range(1, self.n):
            cells = []
            for col in range(2, self.n + 1):
                if row < col:
                    cells.append(tag_of.get((row, col), "·"))
                else:
                    cells.append("")
            lines.append(f"{row:>2} " + "".join(cell.ljust(2) for cell in cells))
        return "\n".join(line.rstrip() for line in lines)
