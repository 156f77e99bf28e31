"""A lint step from the standard library: no top-level import goes unused,
and no top-level private name of the package goes unread."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# A package __init__ imports its public names to re-export them.  The
# demos and the benchmark scripts are read, never changed, by the lint.
FILES = sorted(p for d in (ROOT / "src" / "helmskel", ROOT / "tests", ROOT / "demos",
                           ROOT / "bench")
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


def private_definitions(source: str) -> dict:
    """Top-level private names that ``source`` binds by assignment, def or
    class, with their line numbers; dunder names are not private."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        bound.update((name, node.lineno) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return bound


def names_read(source: str) -> set:
    """Names that ``source`` loads, reads as an attribute or imports."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
    return read


def dead_private_names(source: str, read_elsewhere: set) -> list:
    """Private top-level names of ``source`` that ``source`` does not read
    and that are not in ``read_elsewhere``."""
    read = names_read(source) | read_elsewhere
    return sorted(f"{name} (line {line})"
                  for name, line in private_definitions(source).items()
                  if name not in read)


def test_dead_private_name_is_found():
    source = ("_A = 1\n_B, _C = 2, 3\n__all__ = []\n"
              "def _f():\n    return _A\n\nclass _K:\n    pass\n")
    other = "from m import _C\nprint(m._K)\n"
    assert dead_private_names(source, names_read(other)) == ["_B (line 2)", "_f (line 4)"]


@pytest.fixture(scope="module")
def reads_by_file():
    """Names read by each Python file of the source, tests, bench and demos."""
    return {p: names_read(p.read_text()) for d in ("src", "tests", "bench", "demos")
            for p in (ROOT / d).rglob("*.py")}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "helmskel").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dead_private_names(path, reads_by_file):
    elsewhere = set().union(*(r for p, r in reads_by_file.items() if p != path))
    assert dead_private_names(path.read_text(), elsewhere) == []


def splu_calls(source: str) -> list:
    """Lines of the calls of ``splu`` in ``source``, by name or as an attribute."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)
                  and getattr(n.func, "id", getattr(n.func, "attr", None)) == "splu")


def test_stray_splu_call_is_found():
    source = ("import scipy.sparse.linalg as spla\nfrom scipy.sparse.linalg import splu\n"
              "a = spla.splu(A)\nb = splu(A, permc_spec='NATURAL')\nx = spla.spsolve(A, y)\n")
    assert splu_calls(source) == [3, 4]


# Every sparse LU of the package is made by one of the two recipes in
# impedance.py: _splu_symmetric or the fixed-order _BoundaryLastFactor.
@pytest.mark.parametrize("path", sorted(p for p in (ROOT / "src" / "helmskel").glob("*.py")
                                        if p.name != "impedance.py"), ids=lambda p: p.name)
def test_splu_only_in_impedance(path):
    assert splu_calls(path.read_text()) == []


def layering_imports(source: str) -> list:
    """Lines of the imports in ``source`` of helmskel.assembly or any of its
    names, or of ``build_rect_mesh`` or ``Mesh`` from helmskel.geometry;
    relative imports are taken as from within helmskel."""
    lines = []
    for n in ast.walk(ast.parse(source)):
        names = {alias.name for alias in getattr(n, "names", ())}
        if isinstance(n, ast.Import):
            hit = "helmskel.assembly" in names
        elif isinstance(n, ast.ImportFrom):
            module = n.module or ""
            if n.level == 0 and module.partition(".")[0] != "helmskel":
                continue
            module = module.removeprefix("helmskel").lstrip(".")
            hit = (module == "assembly" or (module == "" and "assembly" in names)
                   or (module == "geometry" and bool(names & {"build_rect_mesh", "Mesh"})))
        else:
            continue
        if hit:
            lines.append(n.lineno)
    return sorted(lines)


def test_stray_layering_import_is_found():
    source = ("import numpy as np\nfrom .geometry import _offsets\n"
              "from .assembly import LocalForms\nfrom helmskel.geometry import Mesh, _offsets\n"
              "from . import assembly, traces\nimport helmskel.assembly\n"
              "from .geometry import build_rect_mesh\nfrom helmskel import traces\n")
    assert layering_imports(source) == [3, 4, 5, 6, 7]


# impedance.py reads Schur complements off the forms that assembly.py builds
# from a mesh: it builds no form and no mesh itself.
def test_impedance_imports_no_assembly_and_no_mesh():
    assert layering_imports((ROOT / "src" / "helmskel" / "impedance.py").read_text()) == []
