"""The library names that the benchmark's tracer patches must stay put.

`perfbench/tracing.py` wraps library functions from outside for
`python3 perfbench/run.py --trace 1`.  It is read here with `ast`, never
imported or edited, so a deletion under `src/` that would break the
traced run fails this suite instead.
"""

from __future__ import annotations

import ast
import importlib
import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
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


def test_patched_cli_names_reach_main_through_the_reused_parser(tmp_path, monkeypatch):
    """The tracer patches `cli`'s names after the parser exists; the next
    `main` call must still reach every patched name."""
    names = _string_tuples(_tracing_tree())["PATCHED_CLI_NAMES"]
    parser = cli.build_parser()
    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        value = getattr(cli, name)
        if isinstance(value, dict):  # STRATEGIES: wrap each builder
            value = {key: counting(name, build) for key, build in value.items()}
        else:
            value = counting(name, value)
        monkeypatch.setattr(cli, name, value)

    document = tmp_path / "doc.json"
    runs = [
        ["decompose", "--n", "9", "--format", "text"],
        ["decompose", "--n", "9", "--format", "json"],
        ["verify", "--input", str(document)],
        ["counts", "--n", "9"],
        ["oracle", "--kind", "chain", "--n", "4"],
    ]
    for argv in runs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        if argv[-1] == "json":
            document.write_text(out.getvalue(), encoding="utf-8")
    assert cli.build_parser() is parser
    assert [name for name in names if calls[name] == 0] == []
