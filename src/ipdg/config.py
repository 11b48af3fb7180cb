"""Run configuration: the YAML schema, object construction.

`parse_config` checks the shape of a configuration against one table,
`_SCHEMA`: mappings, unknown and missing keys, types, finite numbers, and
the key sets of each system, domain, background, solution and boundary
kind; it fills in every default. Every other rule belongs to the library
code that needs it, which raises ConfigurationError with the config key as
its path, so `build_problem` reports those failures. Either way the CLI can
print the dotted path of the offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import yaml

from .background import make_background
from .boundaries import (
    BoundaryMap,
    DirichletBC,
    FalloffDirichletBC,
    NeumannBC,
    RobinBC,
)
from .errors import ConfigurationError, config_section
from .mesh import build_annulus_mesh, build_rectilinear_mesh
from .operators import OperatorHandle
from .solutions import make_solution
from .solver import check_iteration, check_solver
from .systems import make_system

__all__ = ["RunConfig", "Problem", "load_config", "build_problem"]


def _fail(path, message):
    raise ConfigurationError(path, message)


class _Section(NamedTuple):
    """A mapping's keys, {key: (type, default)}, and with `kinds` the extra
    keys {value: keys} that the value of its first key picks.

    A type is float (any finite number), int, bool, str, dict (any mapping),
    a frozenset of allowed strings, a `_Section`, or a one-tuple (T,) for a
    list of T. A default of _REQUIRED makes the key required; None leaves it
    out.
    """

    keys: dict
    kinds: Optional[dict] = None


_REQUIRED = object()
_NAMES = {
    float: "a number", int: "an integer", bool: "a boolean", str: "a string", dict: "a mapping",
}

_PUNCTURE = _Section({
    "mass": (float, _REQUIRED),
    "position": ((float,), _REQUIRED),
    "momentum": ((float,), (0.0, 0.0, 0.0)),
    "spin": ((float,), (0.0, 0.0, 0.0)),
})

_SCHEMA = _Section({
    "system": (_Section({"name": (str, _REQUIRED)}, {
        "poisson-flat": {},
        "poisson-curved": {},
        "elasticity": {"lame_lambda": (float, 1.0), "shear_modulus": (float, 1.0)},
        "puncture": {"punctures": ((_PUNCTURE,), _REQUIRED)},
    }), _REQUIRED),
    "domain": (_Section({"kind": (str, _REQUIRED)}, {
        "rectilinear": {"bounds": (((float,),), _REQUIRED)},
        "annulus": {
            "r_inner": (float, _REQUIRED),
            "r_outer": (float, _REQUIRED),
            "n_wedges": (int, _REQUIRED),
        },
    }), _REQUIRED),
    "refinement": (_Section({
        "levels": ((int,), _REQUIRED), "degrees": ((int,), _REQUIRED),
    }), _REQUIRED),
    "background": (_Section({"kind": (str, "flat")}, {
        "flat": {},
        "conformally-flat": {
            "profile": (frozenset({"linear"}), "linear"),
            "scale": (float, 0.0),
            "axis": (int, 0),
        },
    }), {}),
    "solution": (_Section({"name": (str, _REQUIRED)}, {
        "sin-product": {"params": (_Section({
            "amplitude": (float, 1.0), "wavenumber": (float, 1.0),
        }), {})},
        "sin-product-vector": {"params": (_Section({
            "amplitudes": ((float,), None), "wavenumber": (float, 1.0),
        }), {})},
        "gaussian": {"params": (_Section({
            "center": ((float,), _REQUIRED), "width": (float, 1.0), "amplitude": (float, 1.0),
        }), {})},
        "zero": {"params": (_Section({}), {})},
    }), None),
    # tag -> `_CONDITION`, read by `parse_config`
    "boundary_conditions": (dict, _REQUIRED),
    "operator": (_Section({
        "form": (str, "strong"), "penalty_parameter": (float, 1.0), "massive": (bool, True),
    }), {}),
    "solver": (_Section({
        "method": (str, "gmres"),
        "tolerance": (float, 1e-10),
        "max_iterations": (int, 10000),
        "restart": (int, 50),
    }), {}),
    "newton": (_Section({"tolerance": (float, 1e-10), "max_iterations": (int, 30)}), {}),
    "output": (_Section({"directory": (str, "."), "prefix": (str, "ipdg")}), {}),
})

# `parse_config` fills in the value of a condition that is not analytic, and
# the falloff centre, the origin of the domain's dimension
_CONDITION = _Section({"type": (str, _REQUIRED)}, {
    "dirichlet": {"value": (float, None), "analytic": (bool, False)},
    "neumann": {"value": (float, None), "analytic": (bool, False)},
    "robin": {
        "a": (float, 0.0), "b": (float, 0.0), "value": (float, None), "analytic": (bool, False),
    },
    "falloff": {"amplitude": (float, 0.0), "center": ((float,), None)},
})


def _float_hint(raw):
    """How to write a string holding a finite number so that YAML 1.1 reads
    a float: it reads 1e-10 as a string and wants a dot and a signed
    exponent, 1.0e-10."""
    try:
        val = float(raw)
    except (TypeError, ValueError):
        return ""
    if not isinstance(raw, str) or not math.isfinite(val):
        return ""
    return f" (write {np.format_float_scientific(val, trim='0', exp_digits=1)})"


def _read(raw, path, kind):
    """`raw` checked to be of type `kind`, in the form the builders read."""
    if isinstance(kind, _Section):
        return _walk(raw, path, kind)
    if isinstance(kind, tuple):
        if not isinstance(raw, (list, tuple)):
            _fail(path, "expected a list")
        vals = [_read(v, f"{path}[{i}]", kind[0]) for i, v in enumerate(raw)]
        return vals if isinstance(kind[0], _Section) else tuple(vals)
    if isinstance(kind, frozenset):
        if _read(raw, path, str) not in kind:
            _fail(path, f"must be one of {sorted(kind)}, got {raw!r}")
        return raw
    if not isinstance(raw, (int, float) if kind is float else kind) or (
        kind is not bool and isinstance(raw, bool)
    ):
        hint = _float_hint(raw) if kind is float else ""
        _fail(path, f"expected {_NAMES[kind]}, got {type(raw).__name__}{hint}")
    if kind is float:
        raw = float(raw)
        if not math.isfinite(raw):
            _fail(path, f"must be finite, got {raw}")
    return raw


def _walk(raw, path, section):
    """The mapping `raw` checked against `section`, with its defaults filled
    in; `path` is "" at the top level."""
    sec = {} if raw is None else raw
    if not isinstance(sec, dict):
        _fail(path or "config", "expected a mapping")
    prefix = f"{path}." if path else ""
    keys, kinds, out = section.keys, section.kinds, {}
    if kinds:
        name = next(iter(keys))
        out[name] = kind = _get(sec, prefix, name, (frozenset(kinds), keys[name][1]))
        keys = {**keys, **kinds[kind]}
    for key in sec:
        if key not in keys:
            other = kinds and any(key in k for k in kinds.values())
            _fail(f"{prefix}{key}", f"not valid for {name} {kind!r}" if other else "unknown key")
    for key, spec in keys.items():
        if key not in out:
            val = _get(sec, prefix, key, spec)
            if val is not None:
                out[key] = val
    return out


def _get(sec, prefix, key, spec):
    kind, default = spec
    if key in sec:
        return _read(sec[key], f"{prefix}{key}", kind)
    if default is _REQUIRED:
        _fail(f"{prefix}{key}", "missing required key")
    return None if default is None else _read(default, f"{prefix}{key}", kind)


@dataclass
class RunConfig:
    """Configuration checked against the schema, still in plain-data form."""

    system: dict
    domain: dict
    refinement: dict
    background: dict
    solution: Optional[dict]
    boundary_conditions: dict
    operator: dict
    solver: dict
    newton: dict
    output: dict


def parse_config(raw) -> RunConfig:
    """Check an already-loaded mapping against the schema into a RunConfig."""
    top = _walk(raw, "", _SCHEMA)
    domain = top["domain"]
    dim = 2 if domain["kind"] == "annulus" else len(domain["bounds"])
    bcs = {}
    for tag, spec in top.pop("boundary_conditions").items():
        path = f"boundary_conditions.{tag}"
        bc = bcs[tag] = _walk(spec, path, _CONDITION)
        if bc.setdefault("analytic", False):
            if "solution" not in top:
                _fail(f"{path}.analytic", "needs a configured analytic solution")
            if "value" in bc:
                _fail(f"{path}.value", "give either value or analytic, not both")
        elif bc["type"] == "falloff":
            bc.setdefault("center", (0.0,) * dim)
        else:
            bc.setdefault("value", 0.0)
    # the library accepts C >= 0, which analysis needs (a zero penalty shows
    # the near null space); a run from a file keeps C >= 1
    penalty = top["operator"]["penalty_parameter"]
    if penalty < 1.0:
        _fail("operator.penalty_parameter", f"must be at least 1.0 in a run file, got {penalty}")
    return RunConfig(solution=top.pop("solution", None), boundary_conditions=bcs, **top)


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            # libyaml's safe loader where PyYAML was built with it: the same
            # resolver and constructors, several times faster
            raw = yaml.load(f, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:  # missing, a directory, unreadable
        _fail("config", f"cannot read {path}: {exc.strerror}")
    except yaml.YAMLError as exc:
        _fail("config", f"not parseable: {exc}")
    return parse_config(raw)


@dataclass
class Problem:
    """Everything a command needs, constructed from one RunConfig."""

    config: RunConfig
    mesh: object
    system: object
    background: object
    boundary_map: BoundaryMap
    handle: OperatorHandle
    solution: object  # AnalyticSolution or None
    solver: dict  # the solver section as keywords of `solve_linear`


def _build_system(cfg, dim):
    # the section holds exactly the system's parameters
    params = dict(cfg.system)
    return make_system(params.pop("name"), dim=dim, **params)


def _build_background(cfg, dim):
    sec = cfg.background
    if sec["kind"] == "flat":
        return make_background("flat")
    scale, axis = sec["scale"], sec["axis"]
    if not 0 <= axis < dim:
        _fail("background.axis", f"axis {axis} out of range for dimension {dim}")

    def phi(x):
        return scale * np.asarray(x)[axis]

    def grad_phi(x):
        x = np.asarray(x)
        g = np.zeros_like(x)
        g[axis] = scale
        return g

    return make_background("conformally-flat", phi=phi, grad_phi=grad_phi)


def _build_mesh(cfg):
    dom = cfg.domain
    levels = tuple(cfg.refinement["levels"])
    degrees = tuple(cfg.refinement["degrees"])
    if dom["kind"] == "rectilinear":
        return build_rectilinear_mesh(dom["bounds"], levels, degrees)
    return build_annulus_mesh(
        dom["r_inner"], dom["r_outer"], dom["n_wedges"], levels, degrees
    )


def _build_bc(sec, solution):
    kind, analytic = sec["type"], sec["analytic"]
    if kind == "falloff":
        return FalloffDirichletBC(sec["amplitude"], sec["center"])
    if kind == "robin":
        a, b = sec["a"], sec["b"]
        return RobinBC(a, b, solution.robin_data(a, b) if analytic else sec["value"])
    if kind == "dirichlet":
        return DirichletBC(solution.field.value if analytic else sec["value"])
    return NeumannBC(solution.neumann_data if analytic else sec["value"])


def build_problem(cfg: RunConfig, mesh=None) -> Problem:
    """Construct the mesh, system, operator handle, and data for one run.

    Pass `mesh` to rebuild the same problem on a refined mesh during
    convergence studies.
    """
    if mesh is None:
        mesh = _build_mesh(cfg)
    dim = mesh.dim
    system = _build_system(cfg, dim)
    background = _build_background(cfg, dim)
    solution = (
        make_solution(
            cfg.solution["name"], system, background, cfg.solution["params"]
        )
        if cfg.solution
        else None
    )
    conditions = {}
    for tag, sec in cfg.boundary_conditions.items():
        with config_section(f"boundary_conditions.{tag}"):
            conditions[tag] = _build_bc(sec, solution)
    bmap = BoundaryMap(conditions)
    handle = OperatorHandle(
        mesh,
        system,
        background,
        bmap,
        form=cfg.operator["form"],
        massive=cfg.operator["massive"],
        penalty_parameter=cfg.operator["penalty_parameter"],
    )
    sp = cfg.solver
    solver = dict(
        method=sp["method"],
        tol=sp["tolerance"],
        max_iter=sp["max_iterations"],
        restart=sp["restart"],
    )
    check_solver(handle, **solver)
    check_iteration("newton", cfg.newton["tolerance"], cfg.newton["max_iterations"])
    return Problem(cfg, mesh, system, background, bmap, handle, solution, solver)
