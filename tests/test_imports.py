"""Static checks on the package source."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "chardeg"


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no Name node reads.

    A dotted `import a.b` binds `a`; `from __future__` imports bind nothing.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c\nb(np)\n"
    assert _unused_imports(source) == ["c", "os"]
    assert (SRC / "verify.py").is_file()


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_used(name):
    """__init__.py re-exports its imports, so it is left out."""
    assert _unused_imports((SRC / name).read_text()) == []


ROOT = SRC.parent.parent


def _defined_names(source: str) -> list[str]:
    """Top-level defs, classes and assigned names, and the methods of the
    top-level classes, leaving out dunder names."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(n.name for n in node.body if isinstance(n, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _read_names(source: str) -> set[str]:
    """The names and attributes that some expression reads."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_defined_and_read_names_are_found():
    source = "X = 1\nclass A:\n    def __init__(self): pass\n    def m(self): pass\ndef f(a): return a.b + X\n"
    assert _defined_names(source) == ["X", "A", "m", "f"]
    assert _read_names(source) == {"a", "b", "X"}


def test_every_defined_name_is_read():
    """Every top-level name and every method of the package is read somewhere in
    the package, the benchmark (perfbench/) or benchmarks/; reads in the tests
    do not count, so a name only a test reaches is dead code.

    perfbench reads JIT_ENABLED only inside the text of a script that it runs,
    so any word of a perfbench source counts as a read there; the ROADMAP drops
    the name in the next change to the benchmark."""
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]:
        read |= _read_names(path.read_text())
    for path in (ROOT / "perfbench").glob("*.py"):
        read |= set(re.findall(r"\w+", path.read_text()))
    unread = {p.name: sorted(set(_defined_names(p.read_text())) - read) for p in sorted(SRC.glob("*.py"))}
    assert {name: dead for name, dead in unread.items() if dead} == {}
