"""The library names that the benchmark's tracer patches must stay put.

`perfbench/tracing.py` wraps library functions from outside for
`python3 perfbench/run.py --trace 1`.  It is read here with `ast`, never
imported or edited, so a deletion under `src/` that would break the
traced run fails this suite instead.
"""

from __future__ import annotations

import ast
import importlib
from functools import cached_property
from pathlib import Path

from ttmotifs import cli
from ttmotifs.constructions import MotifCollection

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_tree() -> ast.Module:
    return ast.parse(TRACING.read_text(encoding="utf-8"))


def _string_tuples(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Module-level `NAME = ("a", *OTHER, ...)` assignments, with each
    starred entry expanded from an earlier such assignment."""
    found: dict[str, tuple[str, ...]] = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)):
            continue
        names: list[str] = []
        for element in node.value.elts:
            if isinstance(element, ast.Starred):
                names.extend(found[element.value.id])
            else:
                names.append(ast.literal_eval(element))
        for target in node.targets:
            found[target.id] = tuple(names)
    return found


def _library_imports(tree: ast.Module) -> dict[str, object]:
    """Each name tracing.py imports from ttmotifs, bound to the object
    it gets; an import that no longer resolves raises here."""
    bound: dict[str, object] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ttmotifs":
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = alias.name
                bound[alias.asname or name] = (
                    getattr(module, name)
                    if hasattr(module, name)
                    else importlib.import_module(f"{node.module}.{name}")  # a submodule
                )
    return bound


def test_every_patched_cli_name_is_in_the_cli():
    names = _string_tuples(_tracing_tree())["PATCHED_CLI_NAMES"]
    assert "verify" in names and "document_from_json" in names
    missing = [name for name in names if not hasattr(cli, name)]
    assert missing == []


def test_unused_arcs_is_still_a_cached_property():
    assert isinstance(MotifCollection.__dict__["unused_arcs"], cached_property)


def test_every_library_attribute_the_tracer_reads_exists():
    tree = _tracing_tree()
    bound = _library_imports(tree)
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in bound
    }
    assert {
        ("Diagram", "render_ascii"),
        ("oracle", "max_packing"),
        ("oracle", "max_p3_packing_undirected"),
    } <= read
    missing = [(owner, attr) for owner, attr in sorted(read) if not hasattr(bound[owner], attr)]
    assert missing == []
