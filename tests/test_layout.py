"""Checks over the layout of the package source."""

import ast
from pathlib import Path

import pytest

import radiant

SOURCES = sorted(Path(radiant.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_at_module_level(path):
    """An import inside a function would hide an import cycle: io reads specs
    into the classes of fields (through octree too), so fields must stay
    free of io."""
    tree = ast.parse(path.read_text())
    nested = [f"{path.name}:{node.lineno}"
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside functions: {nested}"
