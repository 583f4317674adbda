"""Every public name the package advertises resolves.

A name left in an ``__all__`` after its definition is deleted imports
fine until someone writes ``from uavris.<module> import *``; these tests
make such a stale export fail at once.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import uavris

MODULES = sorted(m.name for m in pkgutil.iter_modules(uavris.__path__))


def _reexports():
    """(module, name) for every ``from .module import name`` in __init__.py."""
    tree = ast.parse(Path(uavris.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_every_module_is_listed():
    assert {"linalg", "channel", "solvers", "env", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"uavris.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"uavris.{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"uavris.{name}.__all__ names undefined {missing}"
    namespace = {}
    exec(f"from uavris.{name} import *", namespace)


@pytest.mark.parametrize("module,name", _reexports())
def test_package_reexports_resolve(module, name):
    source = importlib.import_module(f"uavris.{module}")
    assert getattr(uavris, name) is getattr(source, name)
    assert name in source.__all__, f"uavris re-exports {name}, which uavris.{module} does not"
