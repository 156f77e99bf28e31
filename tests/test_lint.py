"""A lint step from the standard library: no top-level import goes unused."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# A package __init__ imports its public names to re-export them.
FILES = sorted(p for d in (ROOT / "src" / "helmskel", ROOT / "tests")
               for p in d.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of ``source`` that the module
    never reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read and name not in exported)


def test_unused_import_is_found():
    source = "import os\nimport sys as system\nfrom math import pi, tau\n__all__ = ['tau']\nprint(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "system (line 2)"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
