"""Every exported name of the package and of its modules resolves.

A name left in an ``__all__`` after its definition was removed breaks
``from ipdg.<module> import *`` and misleads readers of the API.
"""

import importlib
import pkgutil

import pytest

import ipdg

MODULES = sorted(
    f"ipdg.{info.name}" for info in pkgutil.iter_modules(ipdg.__path__)
)


@pytest.mark.parametrize("name", ["ipdg"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
