"""Source hygiene checks that need nothing beyond the standard library."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tspmcts"
# __init__.py imports names only to re-export them.
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` imports exempt)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def private_definitions(source: str) -> list[str]:
    """Module-level ``_``-prefixed functions, classes and constants (dunders exempt)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def references(source: str) -> set[str]:
    """Names a module reads: as a name, an attribute or an imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def dead_private_names(module_sources: list[str], other_sources: list[str]) -> list[str]:
    """Private module-level names that no module and no other source references."""
    defined = {name for source in module_sources for name in private_definitions(source)}
    used = set().union(*(references(source) for source in module_sources + other_sources))
    return sorted(defined - used)


def test_detector():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\nimport numpy as np\nfrom typing import List, Sequence\n"
        "from . import tours\n"
        "def f(x: List[int]) -> np.ndarray:\n    return tours.g(x)\n"
    )
    assert unused_imports(source) == ["Sequence", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_dead_private_detector():
    module = (
        "_LIMIT = 3\n_SCALE: float = 2.0\n__all__ = ['f']\n"
        "def _union_rows(x):\n    return x\n"
        "def _omega(x):\n    return x * _SCALE\n"
        "class _Row:\n    pass\n"
        "def f(x):\n    return _omega(x)\n"
    )
    other = "import m\nfrom m import _Row\nprint(m._LIMIT)\n"
    assert dead_private_names([module], []) == ["_LIMIT", "_Row", "_union_rows"]
    assert dead_private_names([module], [other]) == ["_union_rows"]


def test_no_dead_private_code():
    """Every private module-level name in the package is used in src, tests or bench."""
    modules = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    others = [path.read_text() for folder in ("tests", "bench") for path in sorted((ROOT / folder).glob("*.py"))]
    assert dead_private_names(modules, others) == []


def attribute_readers(source: str, attr: str) -> list[str]:
    """Names of the module-level functions and classes that read ``.attr`` (``<module>`` outside any)."""
    readers = []
    for node in ast.parse(source).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        readers.extend(owner for sub in ast.walk(node) if isinstance(sub, ast.Attribute) and sub.attr == attr)
    return sorted(set(readers))


def test_attribute_reader_detector():
    source = (
        "x = table.entries\n"
        "def exact(dm):\n    return dm.rows(0, 3)\n"
        "def two_opt(dm):\n    d = dm.entries\n    return d\n"
        "class Table:\n    def entries(self):\n        entries = 1\n        return entries\n"
    )
    assert attribute_readers(source, "entries") == ["<module>", "two_opt"]
    assert attribute_readers(source, "inverse") == []


@pytest.mark.parametrize("module", MODULES)
def test_dense_tables_stay_out_of_the_package(module):
    """Nothing reads the n x n rank inverse, and only ``tours.two_opt`` the n x n distances:
    both tables remain only because the benchmark reads them."""
    source = (SRC / module).read_text()
    assert attribute_readers(source, "inverse") == []
    assert attribute_readers(source, "entries") == (["two_opt"] if module == "tours.py" else [])
