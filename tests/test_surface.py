"""Each module's __all__ is its real public surface."""

import ast
import importlib
import re
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


def test_every_export_has_a_caller_in_src():
    # a public name must be mentioned in src/ beyond its own definition and
    # its __all__ entry; code that only tests call lives in tests/
    src = Path(mobidelay.__file__).parent
    exports, text = [], []
    for name in MODULES:
        source = (src / f"{name}.py").read_text(encoding="utf-8")
        exports += importlib.import_module(f"mobidelay.{name}").__all__
        listing = set()
        for node in ast.parse(source).body:
            if any(getattr(t, "id", None) == "__all__"
                   for t in getattr(node, "targets", [])):
                listing.update(range(node.lineno, node.end_lineno + 1))
        text += [line for i, line in enumerate(source.splitlines(), 1)
                 if i not in listing]
    text = "\n".join(text)
    # one mention is the definition itself
    unused = [n for n in exports if len(re.findall(rf"\b{n}\b", text)) < 2]
    assert not unused
