"""Every public name the package advertises resolves and has one owner,
and the simulator core loads without the study layer.

A name left in an ``__all__`` after its definition is deleted imports
fine until someone writes ``from uavris.<module> import *``; these tests
make such a stale export fail at once.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import uavris

MODULES = sorted(m.name for m in pkgutil.iter_modules(uavris.__path__))


def _exported_definitions():
    """(module, name) for every function or class of this package in a
    module's __all__.  A constant bound to an outside type
    (``agent.NET_DTYPE = np.float32``) is not a definition."""
    pairs = []
    for name in MODULES:
        module = importlib.import_module(f"uavris.{name}")
        for export in getattr(module, "__all__", ()):
            value = getattr(module, export, None)
            defined = inspect.isfunction(value) or inspect.isclass(value)
            if defined and value.__module__.startswith("uavris."):
                pairs.append((name, export))
    return pairs


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


@pytest.mark.parametrize("module,name", _exported_definitions())
def test_exports_are_defined_where_listed(module, name):
    """Each public name has one owner: the module that defines it."""
    owner = getattr(importlib.import_module(f"uavris.{module}"), name).__module__
    assert owner == f"uavris.{module}", f"uavris.{module} lists {name}, defined in {owner}"


def test_core_loads_without_the_study_layer():
    """The env and the agent import neither the training loop, the study
    harness nor YAML.  A fresh interpreter: this one has loaded them all."""
    src = str(Path(uavris.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = (
        "import sys, uavris.env, uavris.agent\n"
        "print(*[m for m in ('uavris.training', 'uavris.experiments', 'yaml') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert loaded == "", f"importing uavris.env and uavris.agent loaded {loaded}"
