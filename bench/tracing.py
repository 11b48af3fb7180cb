"""Spans recorded by wrappers around the public functions of each ipdg module.

The wrappers are installed where callers look the names up: a module-level
function is replaced in every `ipdg` module that binds it (so
`ipdg.cli.solve_linear` and `ipdg.solver.solve_linear` both record), and a
method is replaced on its class and on every subclass in the same module
that overrides it. Nothing inside `src/` changes.

A span is (name id, start, end, parent index), kept in memory and written
out at the end of a run. A span's self time is its duration minus the
durations of its child spans; the program is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
from time import perf_counter

# (span name, module, class or None, attributes). A class entry also covers
# every subclass defined in the same module that overrides the attribute.
SETUP = (
    ("config.load_config", "ipdg.config", None, ("load_config",)),
    ("config.build_problem", "ipdg.config", None, ("build_problem",)),
    ("mesh.build", "ipdg.mesh", None, (
        "build_rectilinear_mesh", "build_annulus_mesh", "refine_uniform",
        "split_element", "with_degrees")),
    ("operators.setup", "ipdg.operators", "OperatorHandle", ("__init__",)),
)
SOLVER = (
    ("solver.solve_linear", "ipdg.solver", None, ("solve_linear",)),
    ("solver.solve_newton", "ipdg.solver", None, ("solve_newton",)),
    ("solver.assemble_explicit", "ipdg.solver", None, ("assemble_explicit",)),
    ("solver.schur_eliminate", "ipdg.solver", None, ("schur_eliminate",)),
)
# Operator applications, a few ms to tens of ms apart, give the speed clock of
# the untraced run (speed.py) frequent chances to calibrate.
CHECKPOINTS = (
    ("operators.apply", "ipdg.operators", "OperatorHandle", ("apply", "apply_full")),
)
# The untraced run installs only these wrappers.
TOP = SETUP + SOLVER + CHECKPOINTS
LAYERS = TOP + (
    ("cli.main", "ipdg.cli", None, ("main",)),
    ("mesh.topology", "ipdg.mesh", None, ("mortar_topology",)),
    ("mesh.jacobian", "ipdg.mesh", None, ("jacobian_at",)),
    ("mortars.fit", "ipdg.mortars", None, ("face_restriction_family",)),
    ("mortars.prolongation", "ipdg.mortars", None, ("prolongation_matrix",)),
    ("systems.flux", "ipdg.systems", "EllipticSystem",
     ("auxiliary_flux", "primal_flux")),
    ("systems.source", "ipdg.systems", "EllipticSystem", (
        "primal_source", "linearized_primal_source", "auxiliary_source_extra",
        "linearized_auxiliary_source_extra")),
    ("systems.background_fields", "ipdg.systems", "Puncture", ("background_fields",)),
    ("boundaries.values", "ipdg.boundaries", "BoundaryCondition",
     ("values", "linearized_values")),
    ("operators.matvec", "ipdg.operators", "OperatorHandle", ("matvec",)),
    ("operators.layout", "ipdg.operators", "FieldVector", ("from_flat", "to_flat")),
    ("operators.face_flux", "ipdg.operators", None,
     ("auxiliary_numerical_flux", "primal_numerical_flux")),
    ("operators.ghost", "ipdg.operators", None, ("exterior_ghost_data",)),
    ("operators.mass", "ipdg.operators", None, ("lumped_mass_diag",)),
    ("solver.write", "ipdg.solver", "ExplicitMatrix", ("write",)),
    ("analysis.l2_error", "ipdg.analysis", None, ("l2_error",)),
)

SETUP_NAMES = frozenset(s[0] for s in SETUP)
SOLVER_NAMES = frozenset(s[0] for s in SOLVER)


def _observe_report(args, kwargs, result):
    report = result[1]
    return {"iterations": int(report.iterations), "converged": bool(report.converged)}


def _observe_matrix(args, kwargs, result):
    return {"nnz": int(result.matrix.nnz), "rows": int(result.n_rows)}


def _observe_write(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _observe_apply(args, kwargs, result):
    handle = args[0]
    full = len(args) == 3  # apply_full(v, u)
    return {"dofs": handle.n_primal_dofs + (handle.n_auxiliary_dofs if full else 0)}


OBSERVERS = {
    "solver.solve_linear": _observe_report,
    "solver.solve_newton": _observe_report,
    "solver.assemble_explicit": _observe_matrix,
    "solver.write": _observe_write,
    "operators.apply": _observe_apply,
}


class Tracer:
    """Records spans from installed wrappers; `reset` starts a new pass."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name id, start, end, parent index or -1)
        self.extra = {}  # span index -> values an observer took from the call
        self.current = -1
        self.hook = None  # called on entry to and exit from every wrapper
        self._installed = []  # (owner, attribute, original)

    def reset(self):
        self.spans = []
        self.extra = {}
        self.current = -1

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.hook is not None:
                tracer.hook()
            spans = tracer.spans
            i = len(spans)
            spans.append(None)
            parent = tracer.current
            tracer.current = i
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.current = parent
                spans[i] = (nid, t0, t1, parent)
                if tracer.hook is not None:
                    tracer.hook()
            if observe is not None:
                tracer.extra[i] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, table):
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "ipdg" or n.startswith("ipdg.")]
        for name, modname, clsname, attrs in table:
            module = importlib.import_module(modname)
            for attr in attrs:
                if clsname is None:
                    self._install_function(loaded, module, attr, name)
                else:
                    self._install_method(module, clsname, attr, name)

    def _install_function(self, loaded, module, attr, name):
        original = getattr(module, attr)
        wrapper = self._wrap(original, name)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._installed.append((mod, key, original))

    def _install_method(self, module, clsname, attr, name):
        base = getattr(module, clsname)
        classes = [c for c in vars(module).values()
                   if inspect.isclass(c) and issubclass(c, base)
                   and c.__module__ == module.__name__ and attr in vars(c)]
        for cls in classes:
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            setattr(cls, attr, new)
            self._installed.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    def write(self, path, origin):
        """Write the current pass's spans as gzipped CSV, times from `origin`."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,start_s,end_s,parent\n")
            for i, (nid, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i},{self.names[nid]},{t0 - origin:.9f},{t1 - origin:.9f},{parent}\n")


class Summary:
    """Per-name calls, inclusive and self time of one pass's spans."""

    def __init__(self, tracer):
        spans, names = tracer.spans, tracer.names
        n = len(spans)
        child = [0.0] * n
        for nid, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self.calls, self.incl, self.self_s = {}, {}, {}
        for i, (nid, t0, t1, parent) in enumerate(spans):
            name = names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.incl[name] = self.incl.get(name, 0.0) + (t1 - t0)
            self.self_s[name] = self.self_s.get(name, 0.0) + (t1 - t0 - child[i])
        self.n_spans = n
        self.spans = spans
        self.names = names
        self.extra = tracer.extra

    def named(self, name):
        nids = {i for i, n in enumerate(self.names) if n == name}
        return [i for i, s in enumerate(self.spans) if s[0] in nids]

    def outermost(self, group, clock=None):
        """Summed duration of spans in `group` with no ancestor in `group`,
        on `clock` (a function of perf_counter time) if one is given."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (nid, t0, t1, parent) in enumerate(self.spans):
            member = self.names[nid] in group
            enclosed = parent >= 0 and inside[parent]
            if member and not enclosed:
                total += clock(t1) - clock(t0) if clock else t1 - t0
            inside[i] = member or enclosed
        return total

    def under(self, child_name, parent_name):
        """For each `parent_name` span, the number of `child_name` spans below it."""
        owner = [-1] * len(self.spans)
        counts = {}
        for i, (nid, t0, t1, parent) in enumerate(self.spans):
            name = self.names[nid]
            owner[i] = i if name == parent_name else (owner[parent] if parent >= 0 else -1)
            if name == parent_name:
                counts.setdefault(i, 0)
            elif name == child_name and owner[i] >= 0:
                counts[owner[i]] = counts.get(owner[i], 0) + 1
        return counts

    def observed(self, name):
        return [self.extra[i] for i in self.named(name) if i in self.extra]
