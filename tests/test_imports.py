"""Static checks on the package source."""

import ast
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
