"""Source hygiene checks. All but the CLI option count need nothing beyond the standard library."""
import argparse
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


#: Nodes that open a scope of their own, whose locals shadow module-level names.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def local_names(scope) -> set[str]:
    """Names a function or lambda binds in its own scope: parameters, assignment
    targets, imports and nested definitions (whose bodies are scopes of their own)."""
    args = scope.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (*SCOPES, ast.ClassDef)):  # a nested scope binds only its name here
            if not isinstance(node, ast.Lambda):
                names.add(node.name)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return names


def references(source: str) -> set[str]:
    """Names a module reads where they can resolve to a module-level definition: as an
    imported name, an attribute, or a name no enclosing function binds locally."""
    found = set()

    def visit(node, local: frozenset) -> None:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) and node.id not in local:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        if isinstance(node, SCOPES):
            local = local | local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(ast.parse(source), frozenset())
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


def test_no_assert_statements():
    """The package checks its input by raising, and tests check its results: an ``assert``
    in ``src`` vanishes under ``python -O`` and costs the solver time otherwise."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


#: numpy calls that run through BLAS. The CLI starts numpy with one BLAS thread, which
#: would slow any of these without notice.
BLAS_CALLS = {"dot", "matmul", "einsum", "linalg", "inner", "outer", "tensordot", "vdot"}


def blas_calls(source: str) -> list[tuple[int, str]]:
    """(line, name) of every BLAS call in a module, in line order: an attribute, import or imported module
    named in ``BLAS_CALLS``, or the ``@`` operator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in alias.name.split(".")]
            names += (node.module or "").split(".") if isinstance(node, ast.ImportFrom) else []
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            names = ["@"]
        else:
            continue
        found.extend((node.lineno, name) for name in names if name in BLAS_CALLS or name == "@")
    return sorted(found)


def test_blas_detector():
    source = (
        "import numpy as np\nimport numpy.linalg\nfrom numpy import einsum\nfrom numpy.linalg import norm\n"
        "def f(a, b):\n    c = a @ b\n    c @= b\n    return np.dot(a, b) + a.dot(b) + np.add.outer(a, b) + c\n"
        "def g(a, inner):\n    dot = np.add(a, inner)\n    return np.sum(dot) + np.linalg.norm(a)\n"
    )
    assert blas_calls(source) == [(2, "linalg"), (3, "einsum"), (4, "linalg"), (6, "@"), (7, "@"),
                                  (8, "dot"), (8, "dot"), (8, "outer"), (11, "linalg")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_blas_calls(module):
    assert blas_calls((SRC / module).read_text()) == []


#: The package's definitions that only tests read, each with the reason it stays.
READ_ONLY_BY_TESTS = {
    "visits": "a scalar accessor of the search state; the state tests read Q through it",
    "weight": "a scalar accessor of the search state; the state tests and acceptance check c09 read W through it",
    "potential": "a scalar accessor of the search state that acceptance check c09 pins",
    "weight_update": "a scalar accessor of the search state that acceptance check c09 pins",
    "Heatmap.row": "the shared reader of one CSR row, so tests need not slice indptr themselves",
}


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
    # A local of the same name, in the function or around a nested one, does not read ``_union_rows``.
    shadowed = module + "def g(x):\n    _union_rows = x\n    return lambda: _union_rows\n"
    assert dead_private_names([shadowed], [other]) == ["_union_rows"]
    assert dead_private_names([shadowed + "def h():\n    return _union_rows\n"], [other]) == []


def test_no_dead_private_code():
    """Every private module-level name in the package is used in src or bench: a writer
    or reader only tests use lives in ``tests/conftest.py``, or has a reason below."""
    modules = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    assert sorted(set(dead_private_names(modules, bench)) - set(READ_ONLY_BY_TESTS)) == []


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


def public_definitions(source: str) -> list[tuple[str, str]]:
    """Public module-level functions and classes, as (name, name), and the public methods
    and properties of those classes, as (``Class.member``, member)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found.extend((f"{node.name}.{member.name}", member.name) for member in node.body
                             if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"))
    return found


def definitions_only_tests_read(module_sources: list[str], init_source: str, other_sources: list[str]) -> list[str]:
    """Public definitions (see ``public_definitions``) that neither the package nor another
    source reads and that the package's ``__init__`` does not export. A member counts as
    read only through an attribute (``x.member``): a local variable of the same name is not a reader."""
    exported = {alias.name for node in ast.walk(ast.parse(init_source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = module_sources + other_sources
    used = set().union(*(references(source) for source in sources))
    attributes = {node.attr for source in sources for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
    defined = [definition for source in module_sources for definition in public_definitions(source)]
    return sorted(qualified for qualified, name in defined
                  if qualified not in exported and name not in (used if qualified == name else attributes))


def test_test_only_detector():
    module = (
        "def exact(d):\n    return d\ndef per_mask(d):\n    return d\n"
        "def helper(d):\n    return exact(d)\nclass Tour:\n    pass\n"
    )
    assert definitions_only_tests_read([module], "from .tours import Tour\n", []) == ["helper", "per_mask"]
    assert definitions_only_tests_read([module], "", ["from m import helper\n"]) == ["Tour", "per_mask"]
    # Only a read that resolves to the function counts: here ``per_mask`` is a parameter and
    # ``helper`` a local, and the function reading ``exact`` binds it only in a nested scope.
    shadowing = module + (
        "def attributions(per_mask):\n    helper = per_mask\n    return helper\n"
        "def outer(d):\n    def inner(exact):\n        return exact\n    return exact(inner(d))\n"
    )
    assert definitions_only_tests_read([shadowing], "", []) == ["Tour", "attributions", "helper", "outer", "per_mask"]


def test_test_only_member_detector():
    module = (
        "class Table:\n"
        "    rows: list\n"
        "    def __getitem__(self, i):\n        return self.rows[i]\n"
        "    def _cache(self):\n        return 0\n"
        "    def row(self, i):\n        return self.rows[i]\n"
        "    @property\n    def width(self):\n        return len(self.rows[0])\n"
        "    @property\n    def k(self):\n        return self.width\n"
        "    def pair(self, i, j):\n        return self.rows[i][j]\n"
        "def length(t, i):\n    row = t.pair(i, i + 1)\n    return row\n"
        "class _Cell:\n    def weight(self):\n        return 1\n"
    )
    init = "from .m import Table, length\n"
    # Dunders, private members and private classes are exempt; exporting a class exempts only
    # the class, and the local variable ``row`` does not read ``Table.row``.
    assert definitions_only_tests_read([module], init, []) == ["Table.k", "Table.row"]
    assert definitions_only_tests_read([module], init, ["def f(table):\n    return table.k\n"]) == ["Table.row"]


def test_no_test_only_code_in_the_package():
    """Oracles and references that only tests call live under tests/ (the per-mask
    Held-Karp loop in ``test_tours.py``, the dense tables in ``test_instances.py``),
    and so do readers of package classes that only tests use."""
    modules = [path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    unused = definitions_only_tests_read(modules, (SRC / "__init__.py").read_text(), bench)
    assert sorted(set(unused) - set(READ_ONLY_BY_TESTS)) == []


def test_cli_option_count():
    """Every subcommand's optional flags (``--help`` aside), counted from the parser, so that a new
    knob shows up as an edit here."""
    from tspmcts.cli import build_parser

    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    counts = {name: sum(1 for a in p._actions if a.option_strings and not isinstance(a, argparse._HelpAction))
              for name, p in subcommands.items()}
    assert counts == {"gen": 10, "solve": 14, "tune": 14, "analyze-knn": 3, "report": 1}
    assert sum(counts.values()) == 42
