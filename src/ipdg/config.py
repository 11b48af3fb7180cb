"""Run configuration: YAML schema, strict validation, object construction.

Every validation failure raises ConfigurationError carrying the dotted path
of the offending field, so the CLI can print actionable diagnostics. Unknown
keys are rejected everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .background import make_background
from .boundaries import (
    AnalyticDirichletBC,
    AnalyticNeumannBC,
    AnalyticRobinBC,
    BoundaryMap,
    DirichletBC,
    FalloffDirichletBC,
    NeumannBC,
    RobinBC,
)
from .errors import ConfigurationError
from .mesh import build_annulus_mesh, build_rectilinear_mesh
from .operators import OperatorHandle
from .solutions import make_solution
from .systems import make_system

__all__ = ["RunConfig", "Problem", "load_config", "build_problem"]


def _fail(path, message):
    raise ConfigurationError(path, message)


def _section(raw, path, required=(), optional=()):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        _fail(path, "expected a mapping")
    for key in raw:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in raw:
            _fail(f"{path}.{key}", "missing required key")
    return raw


def _number(raw, path, minimum=None):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        _fail(path, f"expected a number, got {type(raw).__name__}")
    val = float(raw)
    if minimum is not None and val < minimum:
        _fail(path, f"must be at least {minimum}, got {val}")
    return val


def _integer(raw, path, minimum=None):
    if isinstance(raw, bool) or not isinstance(raw, int):
        _fail(path, f"expected an integer, got {type(raw).__name__}")
    if minimum is not None and raw < minimum:
        _fail(path, f"must be at least {minimum}, got {raw}")
    return raw


def _boolean(raw, path):
    if not isinstance(raw, bool):
        _fail(path, f"expected a boolean, got {type(raw).__name__}")
    return raw


def _string(raw, path, choices=None):
    if not isinstance(raw, str):
        _fail(path, f"expected a string, got {type(raw).__name__}")
    if choices is not None and raw not in choices:
        _fail(path, f"must be one of {sorted(choices)}, got {raw!r}")
    return raw


def _number_list(raw, path, length=None):
    if not isinstance(raw, (list, tuple)):
        _fail(path, "expected a list of numbers")
    vals = [_number(v, f"{path}[{i}]") for i, v in enumerate(raw)]
    if length is not None and len(vals) != length:
        _fail(path, f"expected {length} entries, got {len(vals)}")
    return vals


@dataclass
class RunConfig:
    """Validated configuration, still in plain-data form."""

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


_SOLUTION_PARAMS = {
    "sin-product": {"amplitude", "wavenumber"},
    "sin-product-vector": {"amplitudes", "wavenumber"},
    "gaussian": {"center", "width", "amplitude"},
    "zero": set(),
}

_BC_KEYS = {
    "dirichlet": {"value", "analytic"},
    "neumann": {"value", "analytic"},
    "robin": {"a", "b", "value", "analytic"},
    "falloff": {"amplitude", "center"},
}


def _validate_system(raw):
    sec = _section(
        raw, "system",
        required=("name",),
        optional=("lame_lambda", "shear_modulus", "punctures"),
    )
    name = _string(
        sec["name"], "system.name",
        {"poisson-flat", "poisson-curved", "elasticity", "puncture"},
    )
    if name != "elasticity":
        for key in ("lame_lambda", "shear_modulus"):
            if key in sec:
                _fail(f"system.{key}", f"only valid for elasticity, not {name}")
    if name == "puncture":
        punctures = sec.get("punctures")
        if not isinstance(punctures, list) or not punctures:
            _fail("system.punctures", "expected a non-empty list")
        for i, p in enumerate(punctures):
            psec = _section(
                p, f"system.punctures[{i}]",
                required=("mass", "position"),
                optional=("momentum", "spin"),
            )
            _number(psec["mass"], f"system.punctures[{i}].mass")
            _number_list(psec["position"], f"system.punctures[{i}].position", 3)
            for key in ("momentum", "spin"):
                if key in psec:
                    _number_list(psec[key], f"system.punctures[{i}].{key}", 3)
    elif "punctures" in sec:
        _fail("system.punctures", f"only valid for puncture, not {name}")
    return sec


def _validate_domain(raw):
    sec = _section(
        raw, "domain",
        required=("kind",),
        optional=("bounds", "r_inner", "r_outer", "n_wedges"),
    )
    kind = _string(sec["kind"], "domain.kind", {"rectilinear", "annulus"})
    if kind == "rectilinear":
        if "bounds" not in sec:
            _fail("domain.bounds", "missing required key")
        for key in ("r_inner", "r_outer", "n_wedges"):
            if key in sec:
                _fail(f"domain.{key}", "only valid for annulus domains")
        bounds = sec["bounds"]
        if not isinstance(bounds, list) or not 1 <= len(bounds) <= 3:
            _fail("domain.bounds", "expected 1 to 3 [lower, upper] pairs")
        for i, b in enumerate(bounds):
            lo, hi = _number_list(b, f"domain.bounds[{i}]", 2)
            if hi <= lo:
                _fail(f"domain.bounds[{i}]", "upper bound must exceed lower")
    else:
        for key in ("r_inner", "r_outer", "n_wedges"):
            if key not in sec:
                _fail(f"domain.{key}", "missing required key")
        if "bounds" in sec:
            _fail("domain.bounds", "only valid for rectilinear domains")
        ri = _number(sec["r_inner"], "domain.r_inner", minimum=0.0)
        ro = _number(sec["r_outer"], "domain.r_outer")
        if ro <= ri:
            _fail("domain.r_outer", "must exceed r_inner")
        _integer(sec["n_wedges"], "domain.n_wedges", minimum=2)
    return sec


def _validate_refinement(raw, dim):
    sec = _section(raw, "refinement", required=("levels", "degrees"))
    for key, minimum in (("levels", 0), ("degrees", 1)):
        vals = sec[key]
        if not isinstance(vals, list) or len(vals) != dim:
            _fail(f"refinement.{key}", f"expected {dim} entries")
        for i, v in enumerate(vals):
            _integer(v, f"refinement.{key}[{i}]", minimum=minimum)
    return sec


def _validate_background(raw):
    sec = _section(
        raw, "background", required=(), optional=("kind", "profile", "scale", "axis")
    )
    kind = _string(
        sec.get("kind", "flat"), "background.kind", {"flat", "conformally-flat"}
    )
    if kind == "conformally-flat":
        _string(sec.get("profile", "linear"), "background.profile", {"linear"})
        _number(sec.get("scale", 0.0), "background.scale")
        _integer(sec.get("axis", 0), "background.axis", minimum=0)
    else:
        for key in ("profile", "scale", "axis"):
            if key in sec:
                _fail(f"background.{key}", "only valid for conformally-flat")
    return {**sec, "kind": kind}


def _validate_solution(raw):
    if raw is None:
        return None
    sec = _section(raw, "solution", required=("name",), optional=("params",))
    name = _string(sec["name"], "solution.name", set(_SOLUTION_PARAMS))
    params = _section(
        sec.get("params"), "solution.params", optional=tuple(_SOLUTION_PARAMS[name])
    )
    return {"name": name, "params": params}


def _validate_bcs(raw, has_solution):
    if not isinstance(raw, dict) or not raw:
        _fail("boundary_conditions", "expected a non-empty mapping of tags")
    out = {}
    for tag, spec in raw.items():
        path = f"boundary_conditions.{tag}"
        sec = _section(spec, path, required=("type",), optional=tuple(
            set().union(*_BC_KEYS.values())
        ))
        kind = _string(sec["type"], f"{path}.type", set(_BC_KEYS))
        for key in sec:
            if key != "type" and key not in _BC_KEYS[kind]:
                _fail(f"{path}.{key}", f"not valid for type {kind!r}")
        analytic = sec.get("analytic", False)
        if analytic is not False:
            _boolean(analytic, f"{path}.analytic")
        if analytic and not has_solution:
            _fail(f"{path}.analytic", "needs a configured analytic solution")
        if kind in ("dirichlet", "neumann"):
            if analytic and "value" in sec:
                _fail(f"{path}.value", "give either value or analytic, not both")
            if not analytic:
                _number(sec.get("value", 0.0), f"{path}.value")
        elif kind == "robin":
            a = _number(sec.get("a", 0.0), f"{path}.a")
            b = _number(sec.get("b", 0.0), f"{path}.b")
            if a == 0.0 and b == 0.0:
                _fail(f"{path}.a", "robin needs a nonzero coefficient")
            if not analytic:
                _number(sec.get("value", 0.0), f"{path}.value")
        else:  # falloff
            _number(sec.get("amplitude", 0.0), f"{path}.amplitude")
            if "center" in sec:
                _number_list(sec["center"], f"{path}.center", 3)
        out[tag] = sec
    return out


def _validate_operator(raw):
    sec = _section(
        raw, "operator", optional=("form", "penalty_parameter", "massive")
    )
    return {
        "form": _string(
            sec.get("form", "strong"), "operator.form", {"strong", "strong-weak"}
        ),
        "penalty_parameter": _number(
            sec.get("penalty_parameter", 1.0),
            "operator.penalty_parameter",
            minimum=1.0,
        ),
        "massive": _boolean(sec.get("massive", True), "operator.massive"),
    }


def _validate_solver(raw):
    sec = _section(
        raw, "solver", optional=("method", "tolerance", "max_iterations", "restart")
    )
    return {
        "method": _string(
            sec.get("method", "gmres"), "solver.method", {"gmres", "cg"}
        ),
        "tolerance": _number(sec.get("tolerance", 1e-10), "solver.tolerance", 0.0),
        "max_iterations": _integer(
            sec.get("max_iterations", 10000), "solver.max_iterations", 1
        ),
        "restart": _integer(sec.get("restart", 50), "solver.restart", 1),
    }


def _validate_newton(raw):
    sec = _section(raw, "newton", optional=("tolerance", "max_iterations"))
    return {
        "tolerance": _number(sec.get("tolerance", 1e-10), "newton.tolerance", 0.0),
        "max_iterations": _integer(
            sec.get("max_iterations", 30), "newton.max_iterations", 1
        ),
    }


def _validate_output(raw):
    sec = _section(raw, "output", optional=("directory", "prefix"))
    return {
        "directory": _string(sec.get("directory", "."), "output.directory"),
        "prefix": _string(sec.get("prefix", "ipdg"), "output.prefix"),
    }


_TOP_KEYS = (
    "system", "domain", "refinement", "background", "solution",
    "boundary_conditions", "operator", "solver", "newton", "output",
)


def parse_config(raw) -> RunConfig:
    """Validate an already-loaded mapping into a RunConfig."""
    top = _section(
        raw, "config",
        required=("system", "domain", "refinement", "boundary_conditions"),
        optional=tuple(k for k in _TOP_KEYS if k not in (
            "system", "domain", "refinement", "boundary_conditions"
        )),
    )
    system = _validate_system(top["system"])
    domain = _validate_domain(top["domain"])
    dim = 2 if domain["kind"] == "annulus" else len(domain["bounds"])
    if system["name"] == "puncture" and dim != 3:
        _fail("domain", "the puncture system needs a 3D domain")
    refinement = _validate_refinement(top["refinement"], dim)
    solution = _validate_solution(top.get("solution"))
    operator = _validate_operator(top.get("operator"))
    solver = _validate_solver(top.get("solver"))
    if solver["method"] == "cg" and not operator["massive"]:
        _fail(
            "solver.method",
            "cg needs operator.massive: true; the massless operator is not symmetric",
        )
    return RunConfig(
        system=system,
        domain=domain,
        refinement=refinement,
        background=_validate_background(top.get("background")),
        solution=solution,
        boundary_conditions=_validate_bcs(
            top["boundary_conditions"], solution is not None
        ),
        operator=operator,
        solver=solver,
        newton=_validate_newton(top.get("newton")),
        output=_validate_output(top.get("output")),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except FileNotFoundError:
        _fail("config", f"file not found: {path}")
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


def _build_system(cfg, dim):
    sec = cfg.system
    name = sec["name"]
    params = {}
    if name == "elasticity":
        params["lame_lambda"] = float(sec.get("lame_lambda", 1.0))
        params["shear_modulus"] = float(sec.get("shear_modulus", 1.0))
    if name == "puncture":
        params["punctures"] = [
            {
                "mass": p["mass"],
                "position": tuple(p["position"]),
                "momentum": tuple(p.get("momentum", (0.0, 0.0, 0.0))),
                "spin": tuple(p.get("spin", (0.0, 0.0, 0.0))),
            }
            for p in sec["punctures"]
        ]
    return make_system(name, dim=dim, **params)


def _build_background(cfg, dim):
    sec = cfg.background
    if sec["kind"] == "flat":
        return make_background("flat")
    scale = float(sec.get("scale", 0.0))
    axis = int(sec.get("axis", 0))
    if axis >= dim:
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


def _build_bc(tag, sec, system, background, solution):
    kind = sec["type"]
    analytic = sec.get("analytic", False)
    if kind == "dirichlet":
        if analytic:
            return AnalyticDirichletBC(solution)
        return DirichletBC(float(sec.get("value", 0.0)))
    if kind == "neumann":
        if analytic:
            return AnalyticNeumannBC(solution, system, background)
        return NeumannBC(float(sec.get("value", 0.0)))
    if kind == "robin":
        a = float(sec.get("a", 0.0))
        b = float(sec.get("b", 0.0))
        if analytic:
            return AnalyticRobinBC(solution, system, background, a, b)
        return RobinBC(a, b, float(sec.get("value", 0.0)))
    return FalloffDirichletBC(
        float(sec.get("amplitude", 0.0)),
        tuple(sec.get("center", (0.0, 0.0, 0.0))),
    )


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
    bmap = BoundaryMap(
        {
            tag: _build_bc(tag, sec, system, background, solution)
            for tag, sec in cfg.boundary_conditions.items()
        }
    )
    handle = OperatorHandle(
        mesh,
        system,
        background,
        bmap,
        form=cfg.operator["form"],
        massive=cfg.operator["massive"],
        penalty_parameter=cfg.operator["penalty_parameter"],
    )
    return Problem(cfg, mesh, system, background, bmap, handle, solution)
