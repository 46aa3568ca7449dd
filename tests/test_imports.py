import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "islands").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that no ``Name`` node in the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_sees_a_leftover_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom .geometry import Brick, transform_brick\n"
                     "def f(b: Brick) -> None:\n    os.sep\n")
    assert unused_imports(tree) == ["transform_brick (line 3)"]
