"""Package-wide rules: the runtime imports only the standard library, the
modules import one another in layers, only `core` knows how motifs and
arcs are stored (and in `core`, only the walk and `_row_users` know the
arc table's two layouts), only `core` and the builders use the packed
motif store, no module keeps an import it does not use,
the README's library and command-line examples run as written, and a
failing property test under the repository's pytest settings reports its
falsifying example."""

from __future__ import annotations

import ast
import io
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import ttmotifs
from ttmotifs import cli

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(ttmotifs.__file__).parent.glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    outside = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside.update(
                (path.name, module)
                for module in modules
                if module.split(".")[0] not in sys.stdlib_module_names
            )
    assert outside == set()


def _sibling_imports(path: Path) -> set[str]:
    """The ttmotifs modules that one source file imports.  Only relative
    imports can name one: every absolute import is of the standard library."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_modules_import_in_layers():
    """`core` holds the model, its verdict and its JSON document and
    imports no sibling; the builders, the closed forms, the diagram and
    the oracle build on `core` alone; only the command line and the
    package root see the builders.
    So `verify`, the closed forms and the oracle check the builders with
    code that shares nothing with them."""
    imports = {path.stem: _sibling_imports(path) for path in SOURCES}
    assert imports["core"] == set()
    for name in ("constructions", "analysis", "diagram", "oracle"):
        assert imports[name] == {"core"}, name
    importers = {name for name, found in imports.items() if "constructions" in found}
    assert importers == {"cli", "__init__"}


def test_only_core_touches_how_motifs_and_arcs_are_stored():
    """The packed motif store's `kinds` and `vertices` arrays, its kind
    bytes (`MOTIF_KINDS.index`) and the walk's arc table (`_arc_walk`)
    are read and written in `core` only, which also holds the JSON
    document that packs and reads motifs; the builders go through
    `_PackedMotifs.put_runs` and the diagram through
    `MotifCollection._row_users`.  A `Motif`'s own field is also named
    `vertices`, so outside `core` a motif is unpacked, never read by
    attribute, and this needs no types to tell the two apart."""
    layout = {"kinds", "vertices", "_arc_walk"}
    found = []
    for path in SOURCES:
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in layout:
                found.append((path.name, node.lineno, node.attr))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "index":
                owner = node.func.value
                if getattr(owner, "id", getattr(owner, "attr", None)) == "MOTIF_KINDS":
                    found.append((path.name, node.lineno, "MOTIF_KINDS.index"))
    assert found == []


def test_only_core_and_the_builders_use_the_packed_store():
    """Outside `core`, only the builders name the packed motif store
    (`_PackedMotifs`), and they fill it through `put_runs` alone: no other
    module reaches a store's `put` or `rows`, and none imports an
    underscore name from `core` but the builders' `_PackedMotifs`."""
    naming, reaching, private = set(), [], set()
    for path in SOURCES:
        if path.stem == "core":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "_PackedMotifs":
                naming.add(path.stem)
            if isinstance(node, ast.Attribute) and node.attr in ("put", "rows"):
                reaching.append((path.name, node.lineno, node.attr))
            if isinstance(node, ast.ImportFrom) and node.level and node.module == "core":
                private.update((path.stem, alias.name) for alias in node.names if alias.name.startswith("_"))
    assert naming == {"constructions"}
    assert reaching == []
    assert private == {("constructions", "_PackedMotifs")}


def test_only_the_walk_and_row_users_know_the_arc_tables_two_layouts():
    """Inside `core`, only `MotifCollection._arc_walk`, which builds the
    arc table, and `_row_users`, which reads one row of it, name the
    sparse layout (`_SparseArcs`) or ask a table its type
    (`type(table)`).  Every other reader goes through those two, or
    through ``table[key]``, which reads the same on both layouts."""
    (core,) = [path for path in SOURCES if path.stem == "core"]
    owners = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "_SparseArcs":
                owners.add(owner)
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "type":
                if [getattr(arg, "id", None) for arg in child.args] == ["table"]:
                    owners.add(owner)
            visit(child, owner)

    visit(ast.parse(core.read_text(encoding="utf-8")), "<module>")
    assert owners == {"_arc_walk", "_row_users"}


def test_every_imported_name_is_used_or_exported():
    """A name a module imports is used there, sits on an import marked
    ``# re-exported``, or, in the package root only, is in `__all__`; a
    move that leaves an import behind fails here."""
    leftovers = []
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(ttmotifs.__all__) if path.stem == "__init__" else set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if "# re-exported" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in exported:
                    leftovers.append((path.name, name))
    assert leftovers == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    (snippet,) = re.findall(r"^```python\n(.*?)^```", section.split("\n## ", 1)[0], re.M | re.S)
    exec(compile(snippet, "README.md", "exec"), {})


def test_readme_command_line_examples_run(monkeypatch):
    """Each `ttmotifs …` line of the "Command line" block runs through
    `cli.main` in-process and exits 0; a pipe feeds the left command's
    stdout to the right command's stdin."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```sh\n(.*?)^```", section, re.M | re.S)
    examples = [line for line in block.splitlines() if line.startswith("ttmotifs ")]
    assert examples
    for example in examples:
        piped = ""
        for command in example.split("|"):
            program, *argv = shlex.split(command)
            assert program == "ttmotifs", example
            monkeypatch.setattr(sys, "stdin", io.StringIO(piped))
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0, command
            piped = out.getvalue()
        assert piped, example


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    # The settings make every warning an error.  One that the hypothesis
    # plugin raises while it reports a failure must not turn the report
    # into INTERNALERROR and lose the falsifying example.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n",
        encoding="utf-8",
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTEST_")}
    argv = ["-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    result = subprocess.run(
        [sys.executable, *argv, "test_fails.py"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 1
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
