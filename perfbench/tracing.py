"""Spans around the public functions of each ttmotifs layer, from outside.

The tracer wraps each layer's public functions where the CLI reaches
them: the names `ttmotifs.cli` imported (verify, the closed forms, the
document codec, the arrow-text encoder, the STRATEGIES table),
`Diagram.render_ascii`, the `MotifCollection.unused_arcs` property, and
the oracle entry points the benchmark calls itself.  Nothing under
`src/` changes; the wrappers are installed for one traced request at a
time and removed after it.  `core` has no span of its own: it is only
called from inside the other layers.

A span records (id, name, start, end, parent id, request id).  Spans
stay in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover; the interpreter's garbage
collections, seen through `gc.callbacks`, are spans of the `python`
layer nested in whatever span was open when they ran.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import json
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter
from types import SimpleNamespace

from ttmotifs import cli, oracle
from ttmotifs.analysis import packing_number, verify
from ttmotifs.constructions import MotifCollection
from ttmotifs.diagram import Diagram

CLOSED_FORMS = ("packing_number", "mixed_counts", "center_capacity", "packing_number_table")
PATCHED_CLI_NAMES = (
    *CLOSED_FORMS, "verify", "STRATEGIES", "document_to_json", "document_from_json", "motif_to_text"
)


def plain_layers() -> SimpleNamespace:
    """The entry points the benchmark calls, untraced."""
    return SimpleNamespace(
        main=cli.main,
        max_packing=oracle.max_packing,
        max_p3_packing_undirected=oracle.max_p3_packing_undirected,
        verify=verify,
        packing_number=packing_number,
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._gc_open: tuple | None = None

    def open(self) -> tuple[int, int | None, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, perf_counter()

    def close(self, token: tuple[int, int | None, float], name: str) -> None:
        end = perf_counter()
        span_id, parent, start = token
        self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.request))

    def wrap(self, name: str, fn, count=None, count_input=None):
        """fn inside a span.  count(counter, args, result) tallies the work
        of a call that returned; count_input(counter, args) tallies input
        before the call, so input that makes fn raise is counted too."""

        def traced(*args, **kwargs):
            if count_input is not None:
                count_input(self.counts, args)
            token = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token, name)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_open = self.open()
        elif self._gc_open is not None:
            self.close(self._gc_open, "python.gc")
            self._gc_open = None
            self.counts["python.gc_collections"] += 1

    @contextlib.contextmanager
    def installed(self, request: str):
        """Wrap every layer for one request; yields the traced entry points."""
        self.request = request
        saved_cli = {name: getattr(cli, name) for name in PATCHED_CLI_NAMES}
        saved_render = Diagram.render_ascii
        saved_unused = MotifCollection.__dict__["unused_arcs"]
        layers = self._layers(saved_cli, saved_render, saved_unused)
        gc.callbacks.append(self._on_gc)
        try:
            yield layers
        finally:
            gc.callbacks.remove(self._on_gc)
            for name, value in saved_cli.items():
                setattr(cli, name, value)
            Diagram.render_ascii = saved_render
            MotifCollection.unused_arcs = saved_unused

    def _layers(self, saved_cli: dict, saved_render, saved_unused) -> SimpleNamespace:
        wrap = self.wrap
        for name in CLOSED_FORMS:
            setattr(cli, name, wrap("analysis.closed_form", saved_cli[name]))
        traced_verify = wrap("analysis.verify", saved_cli["verify"], _count_verify)
        cli.verify = traced_verify
        cli.STRATEGIES = {
            strategy: wrap("constructions.construct", build, _count_motifs)
            for strategy, build in saved_cli["STRATEGIES"].items()
        }
        cli.document_to_json = wrap("cli.to_json", saved_cli["document_to_json"], _count_encoded)
        cli.document_from_json = wrap(
            "cli.from_json", saved_cli["document_from_json"], count_input=_count_decoded
        )
        cli.motif_to_text = wrap("cli.to_text", saved_cli["motif_to_text"])
        Diagram.render_ascii = wrap("diagram.render", saved_render, _count_cells)
        unused = cached_property(wrap("constructions.unused_arcs", saved_unused.func))
        unused.__set_name__(MotifCollection, "unused_arcs")
        MotifCollection.unused_arcs = unused
        return SimpleNamespace(
            main=wrap("cli.main", cli.main),
            max_packing=wrap("oracle.search", oracle.max_packing, _count_nodes),
            max_p3_packing_undirected=wrap(
                "oracle.search", oracle.max_p3_packing_undirected, _count_nodes
            ),
            verify=traced_verify,
            packing_number=cli.packing_number,
        )

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self time, total time) per span name, in seconds."""
        covered: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            own[name] += end - start - covered[span_id]
            total[name] += end - start
        return own, total

    def write(self, path) -> None:
        """All spans as JSON lines, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def _count_verify(counts: Counter, args: tuple, report) -> None:
    counts["analysis.verified_motifs"] += len(args[0].motifs)
    for violation in report.violations:
        counts[f"analysis.violations.{violation.kind}"] += 1


def _count_motifs(counts: Counter, args: tuple, collection) -> None:
    counts["constructions.motifs"] += len(collection.motifs)


def _count_encoded(counts: Counter, args: tuple, text: str) -> None:
    counts["cli.json_bytes"] += len(text.encode())


def _count_decoded(counts: Counter, args: tuple) -> None:
    counts["cli.json_bytes"] += len(args[0].encode())


def _count_cells(counts: Counter, args: tuple, text: str) -> None:
    counts["diagram.cells"] += (args[0].n - 1) ** 2


def _count_nodes(counts: Counter, args: tuple, result) -> None:
    counts["oracle.nodes"] += result.nodes
