"""Configuration schema validation and problem construction."""

import numpy as np
import pytest

from ipdg.background import ConformallyFlatBackground, FlatBackground
from ipdg.boundaries import BoundaryMap, DirichletBC, NeumannBC, RobinBC
from ipdg.config import build_problem, load_config, parse_config
from ipdg.errors import ConfigurationError
from ipdg.operators import OperatorHandle
from ipdg.solutions import gaussian, manufactured_problem


def base_config():
    return {
        "system": {"name": "poisson-flat"},
        "domain": {"kind": "rectilinear", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        "refinement": {"levels": [1, 1], "degrees": [3, 3]},
        "boundary_conditions": {"all": {"type": "dirichlet", "value": 0.0}},
    }


def expect_error(cfg, path_fragment):
    with pytest.raises(ConfigurationError) as err:
        parse_config(cfg)
    assert path_fragment in err.value.path


def rejected_path(cfg):
    """The path of the error that parsing `cfg` or building its problem raises."""
    with pytest.raises(ConfigurationError) as err:
        build_problem(parse_config(cfg))
    return err.value.path


def expect_build_error(cfg, path):
    # the schema accepts it; the library code that owns the rule rejects it
    parse_config(cfg)
    assert rejected_path(cfg) == path


def test_minimal_config_defaults():
    cfg = parse_config(base_config())
    assert cfg.operator == {
        "form": "strong",
        "penalty_parameter": 1.0,
        "massive": True,
    }
    assert cfg.solver["method"] == "gmres"
    assert cfg.solver["restart"] == 50
    assert cfg.newton["max_iterations"] == 30
    assert cfg.output == {"directory": ".", "prefix": "ipdg"}
    assert cfg.solution is None
    assert cfg.background == {"kind": "flat"}


def test_section_defaults_filled_once():
    # validation returns every default; the builders read keys directly
    raw = base_config()
    raw["system"] = {"name": "elasticity"}
    raw["background"] = {"kind": "conformally-flat"}
    raw["boundary_conditions"] = {
        "x-lower": {"type": "robin", "a": 1.0},
        "all": {"type": "dirichlet"},
    }
    cfg = parse_config(raw)
    assert cfg.system == {"name": "elasticity", "lame_lambda": 1.0, "shear_modulus": 1.0}
    assert cfg.background == {"kind": "conformally-flat", "profile": "linear",
                              "scale": 0.0, "axis": 0}
    assert cfg.boundary_conditions == {
        "x-lower": {"type": "robin", "analytic": False, "a": 1.0, "b": 0.0, "value": 0.0},
        "all": {"type": "dirichlet", "analytic": False, "value": 0.0},
    }
    problem = build_problem(cfg)
    assert (problem.system.lame_lambda, problem.system.shear_modulus) == (1.0, 1.0)
    assert isinstance(problem.boundary_map.for_tag("x-lower"), RobinBC)
    raw = base_config()
    raw["system"] = {"name": "puncture", "punctures": [{"mass": 1, "position": [0, 0, 0.5]}]}
    raw["domain"]["bounds"] = [[-1.0, 1.0]] * 3
    raw["refinement"] = {"levels": [0, 0, 0], "degrees": [2, 2, 2]}
    raw["boundary_conditions"] = {"all": {"type": "falloff"}}
    cfg = parse_config(raw)
    assert cfg.system["punctures"] == [{
        "mass": 1.0, "position": (0.0, 0.0, 0.5),
        "momentum": (0.0, 0.0, 0.0), "spin": (0.0, 0.0, 0.0),
    }]
    assert cfg.boundary_conditions["all"] == {
        "type": "falloff", "analytic": False, "amplitude": 0.0, "center": (0.0, 0.0, 0.0),
    }
    problem = build_problem(cfg)
    assert problem.system.punctures[0].position == (0.0, 0.0, 0.5)
    np.testing.assert_array_equal(problem.boundary_map.for_tag("x-lower").center, 0.0)


def test_cg_with_massless_operator_rejected():
    raw = base_config()
    raw["operator"] = {"form": "strong-weak", "massive": False}
    raw["solver"] = {"method": "cg"}
    expect_build_error(raw, "solver.method")
    raw["operator"]["massive"] = True
    assert build_problem(parse_config(raw)).solver["method"] == "cg"
    raw["operator"]["form"] = "strong"
    expect_build_error(raw, "solver.method")


def test_unknown_top_level_key():
    raw = base_config()
    raw["sytsem"] = {}
    expect_error(raw, "sytsem")


def test_unknown_nested_key_path():
    raw = base_config()
    raw["solver"] = {"tolerancee": 1e-8}
    expect_error(raw, "solver.tolerancee")


def test_missing_required_key():
    raw = base_config()
    del raw["refinement"]
    expect_error(raw, "refinement")


def test_type_errors():
    raw = base_config()
    raw["solver"] = {"tolerance": "tight"}
    with pytest.raises(ConfigurationError, match=r"solver.tolerance: expected a number, got str$"):
        parse_config(raw)
    # YAML 1.1 reads 1e-10 as a string; the message says what it reads as a number
    raw["solver"] = {"tolerance": "1e-10"}
    with pytest.raises(ConfigurationError, match=r"got str \(write 1\.0e-10\)$"):
        parse_config(raw)
    raw = base_config()
    raw["operator"] = {"massive": 1}
    expect_error(raw, "operator.massive")
    raw = base_config()
    raw["solver"] = {"max_iterations": True}  # bools are not integers here
    expect_error(raw, "solver.max_iterations")
    for section, key, value in (
        ("solver", "tolerance", float("nan")),
        ("newton", "tolerance", float("inf")),
        ("background", "scale", float("-inf")),
    ):
        raw = base_config()
        raw[section] = {key: value}
        if section == "background":
            raw[section]["kind"] = "conformally-flat"
        with pytest.raises(ConfigurationError, match="must be finite") as err:
            parse_config(raw)
        assert err.value.path == f"{section}.{key}"


def test_bounds_validation():
    raw = base_config()
    raw["domain"]["bounds"] = [[0.0, 1.0], [1.0, 0.5]]
    expect_build_error(raw, "domain.bounds[1]")
    raw["domain"]["bounds"] = [[0.0, 1.0], [0.0, float("inf")]]
    expect_error(raw, "domain.bounds[1][1]")


def test_refinement_length_must_match_dimension():
    raw = base_config()
    raw["refinement"]["degrees"] = [3]
    expect_build_error(raw, "refinement.degrees")


def test_degree_minimum():
    raw = base_config()
    raw["refinement"]["degrees"] = [3, 0]
    expect_build_error(raw, "refinement.degrees[1]")


def test_penalty_below_one_rejected():
    for value in (0.5, float("nan"), float("inf")):
        raw = base_config()
        raw["operator"] = {"penalty_parameter": value}
        expect_error(raw, "operator.penalty_parameter")


def test_robin_needs_coefficient():
    raw = base_config()
    raw["boundary_conditions"]["all"] = {"type": "robin", "value": 1.0}
    expect_build_error(raw, "boundary_conditions.all.a")


def test_analytic_bc_needs_solution():
    raw = base_config()
    raw["boundary_conditions"]["all"] = {"type": "dirichlet", "analytic": True}
    expect_error(raw, "boundary_conditions.all.analytic")
    raw["solution"] = {"name": "sin-product"}
    assert parse_config(raw).boundary_conditions["all"]["analytic"] is True


def test_value_and_analytic_conflict():
    raw = base_config()
    raw["solution"] = {"name": "sin-product"}
    raw["boundary_conditions"]["all"] = {
        "type": "neumann",
        "analytic": True,
        "value": 1.0,
    }
    expect_error(raw, "boundary_conditions.all.value")


def test_robin_value_and_analytic_conflict():
    # the analytic Robin data replace g, so a given value would be dropped
    raw = base_config()
    raw["solution"] = {"name": "sin-product"}
    raw["boundary_conditions"]["all"] = {
        "type": "robin", "a": 1.0, "b": 1.0, "value": 2.0, "analytic": True,
    }
    expect_error(raw, "boundary_conditions.all.value")
    del raw["boundary_conditions"]["all"]["value"]
    assert parse_config(raw).boundary_conditions["all"]["analytic"] is True


def test_solution_params_validated():
    raw = base_config()
    raw["solution"] = {"name": "sin-product", "params": {"sigma": 2.0}}
    expect_error(raw, "solution.params.sigma")


@pytest.mark.parametrize("solution, system, path", [
    ({"name": "gaussian", "params": {"center": "abc"}}, "poisson-flat", "solution.params.center"),
    ({"name": "gaussian"}, "poisson-flat", "solution.params.center"),
    ({"name": "gaussian", "params": {"center": [0.5]}}, "poisson-flat", "solution.params.center"),
    ({"name": "gaussian", "params": {"center": [0.5, float("nan")]}}, "poisson-flat",
     "solution.params.center[1]"),
    ({"name": "gaussian", "params": {"center": [0.5, 0.5], "amplitude": "x"}}, "poisson-flat",
     "solution.params.amplitude"),
    ({"name": "gaussian", "params": {"center": [0.5, 0.5], "width": 0.0}}, "poisson-flat",
     "solution.params.width"),
    ({"name": "sin-product", "params": {"wavenumber": float("inf")}}, "poisson-flat",
     "solution.params.wavenumber"),
    ({"name": "sin-product-vector", "params": {"amplitudes": [1.0]}}, "elasticity",
     "solution.params.amplitudes"),
    ({"name": "sin-product-vector"}, "poisson-flat", "solution.name"),
    ({"name": "sin-product"}, "elasticity", "solution.name"),
])
def test_solution_param_values_validated(solution, system, path):
    raw = base_config()
    raw["system"] = {"name": system}
    raw["solution"] = solution
    assert path in rejected_path(raw)


def test_falloff_center_has_one_entry_per_dimension():
    # a 3-entry centre on a 2D domain failed in numpy broadcasting, exit 1
    raw = base_config()
    raw["boundary_conditions"] = {"all": {"type": "falloff", "amplitude": 1.0}}
    assert parse_config(raw).boundary_conditions["all"]["center"] == (0.0, 0.0)
    raw["boundary_conditions"]["all"]["center"] = [0.0, 0.0, 0.0]
    expect_build_error(raw, "boundary_conditions.all.center")


def test_solution_param_defaults_filled_once():
    raw = base_config()
    raw["solution"] = {"name": "gaussian", "params": {"center": [0.3, 0.4]}}
    assert parse_config(raw).solution == {
        "name": "gaussian",
        "params": {"center": (0.3, 0.4), "width": 1.0, "amplitude": 1.0},
    }
    raw["system"] = {"name": "elasticity"}
    raw["solution"] = {"name": "sin-product-vector"}
    assert parse_config(raw).solution["params"] == {"wavenumber": 1.0}
    raw["solution"] = {"name": "zero"}
    assert parse_config(raw).solution == {"name": "zero", "params": {}}


def test_annulus_validation():
    raw = base_config()
    raw["domain"] = {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0}
    expect_error(raw, "domain.n_wedges")
    raw["domain"]["n_wedges"] = 4
    raw["boundary_conditions"] = {"all": {"type": "dirichlet"}}
    cfg = parse_config(raw)
    assert cfg.domain["kind"] == "annulus"
    raw["domain"]["r_outer"] = 0.5
    expect_build_error(raw, "domain.r_outer")
    raw["domain"]["r_inner"] = 0.0
    expect_build_error(raw, "domain.r_inner")


def test_rectilinear_rejects_annulus_keys():
    raw = base_config()
    raw["domain"]["r_inner"] = 1.0
    expect_error(raw, "domain.r_inner")


def test_puncture_needs_three_dimensions():
    raw = base_config()
    raw["system"] = {
        "name": "puncture",
        "punctures": [{"mass": 1.0, "position": [0.0, 0.0, 0.0]}],
    }
    expect_build_error(raw, "domain")


def test_puncture_spec_validation():
    raw = base_config()
    raw["system"] = {"name": "puncture", "punctures": []}
    raw["domain"]["bounds"] = [[-1.0, 1.0]] * 3
    raw["refinement"] = {"levels": [0, 0, 0], "degrees": [2, 2, 2]}
    expect_build_error(raw, "system.punctures")
    raw["system"]["punctures"] = [{"mass": 1.0, "position": [0.0, 0.5]}]
    expect_build_error(raw, "system.punctures[0].position")
    raw["system"]["punctures"] = [{"mass": 1.0}]
    expect_error(raw, "system.punctures[0].position")


def test_elasticity_params_only_for_elasticity():
    raw = base_config()
    raw["system"]["lame_lambda"] = 2.0
    expect_error(raw, "system.lame_lambda")


def test_build_problem_poisson():
    cfg = parse_config(base_config())
    problem = build_problem(cfg)
    assert problem.system.name == "poisson-flat"
    assert isinstance(problem.background, FlatBackground)
    assert problem.mesh.n_elements == 4
    assert problem.handle.form == "strong"
    assert problem.solution is None


def test_build_problem_curved_background():
    raw = base_config()
    raw["system"] = {"name": "poisson-curved"}
    raw["background"] = {
        "kind": "conformally-flat",
        "profile": "linear",
        "scale": 0.1,
        "axis": 0,
    }
    problem = build_problem(parse_config(raw))
    assert isinstance(problem.background, ConformallyFlatBackground)
    x = np.array([[2.0], [5.0]])
    np.testing.assert_allclose(problem.background.phi(x), [0.2])
    np.testing.assert_allclose(problem.background.grad_phi(x), [[0.1], [0.0]])


def test_build_problem_bcs_wired():
    raw = base_config()
    raw["solution"] = {"name": "sin-product", "params": {"amplitude": 2.0}}
    raw["boundary_conditions"] = {
        "x-lower": {"type": "robin", "a": 1.0, "b": 1.0, "analytic": True},
        "all": {"type": "dirichlet", "analytic": True},
    }
    problem = build_problem(parse_config(raw))
    assert isinstance(problem.boundary_map.for_tag("x-lower"), RobinBC)
    dirichlet = problem.boundary_map.for_tag("y-upper")
    assert isinstance(dirichlet, DirichletBC)
    assert dirichlet.value == problem.solution.field.value


def test_analytic_conditions_match_explicit_ones_on_a_curved_background():
    raw = base_config()
    raw["system"] = {"name": "poisson-curved"}
    raw["background"] = {"kind": "conformally-flat", "scale": 0.3, "axis": 1}
    raw["solution"] = {"name": "gaussian", "params": {"center": [0.3, 0.6], "width": 0.7}}
    raw["boundary_conditions"] = {
        "x-lower": {"type": "robin", "a": 1.0, "b": 2.0, "analytic": True},
        "y-upper": {"type": "neumann", "analytic": True},
        "all": {"type": "dirichlet", "analytic": True},
    }
    problem = build_problem(parse_config(raw))
    sol = manufactured_problem(
        problem.system, gaussian(2, (0.3, 0.6), width=0.7), problem.background
    )
    explicit = OperatorHandle(
        problem.mesh, problem.system, problem.background,
        BoundaryMap({
            "x-lower": RobinBC(1.0, 2.0, sol.robin_data(1.0, 2.0)),
            "y-upper": NeumannBC(sol.neumann_data),
            "all": DirichletBC(sol.field.value),
        }),
    )
    zero = problem.handle.zero_primal()
    assert np.array_equal(problem.handle.apply(zero).data, explicit.apply(zero).data)
    u = np.random.default_rng(5).standard_normal(explicit.n_primal_dofs)
    assert np.array_equal(problem.handle.matvec(u), explicit.matvec(u))


def test_build_problem_elasticity():
    raw = base_config()
    raw["system"] = {
        "name": "elasticity",
        "lame_lambda": 2.0,
        "shear_modulus": 3.0,
    }
    problem = build_problem(parse_config(raw))
    assert problem.system.n_primal == 2


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "nope.yaml")


def test_load_config_bad_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("system: [unclosed\n")
    with pytest.raises(ConfigurationError):
        load_config(p)


def test_load_config_directory(tmp_path):
    # reading a directory raised IsADirectoryError, exit code 1 with a traceback
    with pytest.raises(ConfigurationError, match="Is a directory") as err:
        load_config(tmp_path)
    assert err.value.path == "config"
