import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

from conftest import child_env

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "islands").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(Path(__file__).parent.glob("*.py"))
OLDEST_PYTHON = (3, 10)  # pyproject.toml: requires-python = ">=3.10"


@pytest.mark.parametrize("path", PACKAGE + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_grammar_of_the_oldest_supported_python(path):
    """Every file parses under the 3.10 grammar, whatever Python runs the suite.

    This checks syntax only (``except*``, PEP 695 ``type`` statements and the
    like); a stdlib API newer than 3.10 still passes.
    """
    ast.parse(path.read_text(), str(path), feature_version=OLDEST_PYTHON)


def test_the_grammar_guard_rejects_except_star():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=OLDEST_PYTHON)


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_sees_a_leftover_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom .geometry import Brick, transform_brick\n"
                     "def f(b: Brick) -> None:\n    os.sep\n")
    assert unused_imports(tree) == ["transform_brick (line 3)"]


def dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level functions, classes and assignments named ``_x`` (one leading
    underscore) that no ``Name`` or ``Attribute`` in any of the modules reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            dead += [f"{module}: {name} (line {node.lineno})" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


def test_every_private_name_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in PACKAGE}
    assert dead_private_names(trees) == []


def test_the_guard_sees_a_dead_private_name():
    trees = {
        "a.py": ast.parse("__all__ = []\n_used = 1\n_dead = 2\n"
                          "def _helper():\n    return _used\n"),
        "b.py": ast.parse("from .a import _helper\nclass _Gone:\n    pass\n"
                          "x = _helper()\nx._dead = 3\n"),
    }
    assert dead_private_names(trees) == ["a.py: _dead (line 3)", "b.py: _Gone (line 2)"]


def test_the_export_list_names_every_public_binding():
    # islands/__init__.py imports each public name and lists it again in __all__
    import islands
    public = {name for name, value in vars(islands).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(islands.__all__) == sorted(public)
    star = {}
    exec("from islands import *", star)
    assert set(star) - {"__builtins__"} == public


def fresh_python(code: str) -> str:
    """What ``code`` prints when run by a new interpreter."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env(), timeout=60).stdout


def test_importing_the_package_loads_no_command_line():
    loaded = fresh_python("import sys, islands\n"
                          "print(sorted({'argparse', 'islands.cli'} & set(sys.modules)))")
    assert loaded == "[]\n"


def test_importing_the_command_line_builds_no_parser():
    # the parser is built on the first main() call, so an import stays cheap
    built = fresh_python("import argparse\n"
                         "built, init = [], argparse.ArgumentParser.__init__\n"
                         "def counting(self, *args, **kwargs):\n"
                         "    built.append(kwargs.get('prog'))\n"
                         "    init(self, *args, **kwargs)\n"
                         "argparse.ArgumentParser.__init__ = counting\n"
                         "import islands.cli\n"
                         "print(built)\n")
    assert built == "[]\n"
