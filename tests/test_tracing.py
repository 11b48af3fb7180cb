"""The benchmark's layer tracer (bench/tracing.py) against the package as it is.

The tracer wraps functions and methods of ipdg by name. A rename in the
package that drops a name it wraps as a module-level function would break
the traced benchmark, and one that drops a method name would silently drop
out of the traced metrics, so both fail here first.
"""

import importlib
import inspect
import os
import sys

import pytest

import ipdg
from ipdg import operators

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def tracing(monkeypatch):
    # the import leaves no bytecode under bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("tracing")


def test_traced_functions_exist(tracing):
    for name, modname, clsname, attrs in tracing.LAYERS:
        module = importlib.import_module(modname)
        if clsname is not None:
            assert isinstance(getattr(module, clsname, None), type), (name, clsname)
            continue
        for attr in attrs:
            assert callable(getattr(module, attr, None)), (name, f"{modname}.{attr}")


# Listed by the tracer for hooks the package no longer has.
DELETED_METHODS = {"auxiliary_source_extra", "linearized_auxiliary_source_extra"}


def test_traced_methods_exist(tracing):
    # the tracer wraps a method on its class and on every subclass in the
    # same module that defines it, and skips a name none of them defines
    for name, modname, clsname, attrs in tracing.LAYERS:
        if clsname is None:
            continue
        module = importlib.import_module(modname)
        base = getattr(module, clsname)
        classes = [c for c in vars(module).values()
                   if inspect.isclass(c) and issubclass(c, base)
                   and c.__module__ == module.__name__]
        for attr in set(attrs) - DELETED_METHODS:
            assert any(attr in vars(c) for c in classes), (name, f"{clsname}.{attr}")


def test_tracer_installs_and_uninstalls(tracing):
    originals = {
        name: getattr(operators, name)
        for name in ("auxiliary_numerical_flux", "primal_numerical_flux", "exterior_ghost_data")
    }
    apply = operators.OperatorHandle.apply
    mesh = ipdg.split_element(
        ipdg.build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (1, 1), (2, 2)), 0
    )
    handle = ipdg.OperatorHandle(
        mesh, ipdg.make_system("poisson-flat", dim=2), ipdg.FlatBackground(),
        ipdg.BoundaryMap({"x-lower": ipdg.NeumannBC(0.0), "all": ipdg.DirichletBC(1.0)}),
    )
    n_groups = len(handle._cache.mortar_groups)
    assert n_groups > 0
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYERS)
    try:
        assert all(getattr(operators, n) is not f for n, f in originals.items())
        handle.apply(handle.zero_primal())
        names = [tracer.names[s[0]] for s in tracer.spans]
    finally:
        tracer.uninstall()
    assert all(getattr(operators, n) is f for n, f in originals.items())
    assert operators.OperatorHandle.apply is apply
    # per phase: one numerical flux over the face buffer and one per mortar
    # group with a non-identity side; one ghost expression over every
    # external point, whatever the conditions
    assert names.count("operators.apply") == 1
    assert names.count("operators.face_flux") == 2 * (1 + n_groups)
    assert names.count("operators.ghost") == 2
