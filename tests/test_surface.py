"""Each module's __all__ is its real public surface."""

import ast
import importlib
from pathlib import Path

import pytest

import mobidelay

MODULES = ("geometry", "flight", "world", "analytics", "experiments", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_exist(name):
    mod = importlib.import_module(f"mobidelay.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_cross_module_imports_are_exported():
    # every public name one mobidelay module imports from another must be
    # in the home module's __all__; underscore names stay private helpers
    src = Path(mobidelay.__file__).parent
    unexported = []
    for name in MODULES:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            home = importlib.import_module(f"mobidelay.{node.module}")
            unexported += [f"{name} <- {node.module}.{a.name}"
                           for a in node.names
                           if not a.name.startswith("_")
                           and a.name not in home.__all__]
    assert not unexported
