"""Package-wide rules: the runtime imports only the standard library, and
the README's library example runs as written."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import ttmotifs

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


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    (snippet,) = re.findall(r"^```python\n(.*?)^```", section.split("\n## ", 1)[0], re.M | re.S)
    exec(compile(snippet, "README.md", "exec"), {})
