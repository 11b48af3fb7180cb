"""Configuration schema validation and problem construction."""

import numpy as np
import pytest

from ipdg.background import ConformallyFlatBackground, FlatBackground
from ipdg.boundaries import AnalyticDirichletBC, RobinBC
from ipdg.config import build_problem, load_config, parse_config
from ipdg.errors import ConfigurationError


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


def test_cg_with_massless_operator_rejected():
    raw = base_config()
    raw["operator"] = {"form": "strong-weak", "massive": False}
    raw["solver"] = {"method": "cg"}
    expect_error(raw, "solver.method")
    raw["operator"]["massive"] = True
    assert parse_config(raw).solver["method"] == "cg"


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
    expect_error(raw, "solver.tolerance")
    raw = base_config()
    raw["operator"] = {"massive": 1}
    expect_error(raw, "operator.massive")
    raw = base_config()
    raw["solver"] = {"max_iterations": True}  # bools are not integers here
    expect_error(raw, "solver.max_iterations")


def test_bounds_validation():
    raw = base_config()
    raw["domain"]["bounds"] = [[0.0, 1.0], [1.0, 0.5]]
    expect_error(raw, "domain.bounds[1]")


def test_refinement_length_must_match_dimension():
    raw = base_config()
    raw["refinement"]["degrees"] = [3]
    expect_error(raw, "refinement.degrees")


def test_degree_minimum():
    raw = base_config()
    raw["refinement"]["degrees"] = [3, 0]
    expect_error(raw, "refinement.degrees[1]")


def test_penalty_below_one_rejected():
    raw = base_config()
    raw["operator"] = {"penalty_parameter": 0.5}
    expect_error(raw, "operator.penalty_parameter")


def test_robin_needs_coefficient():
    raw = base_config()
    raw["boundary_conditions"]["all"] = {"type": "robin", "value": 1.0}
    expect_error(raw, "boundary_conditions.all.a")


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


def test_solution_params_validated():
    raw = base_config()
    raw["solution"] = {"name": "sin-product", "params": {"sigma": 2.0}}
    expect_error(raw, "solution.params.sigma")


def test_annulus_validation():
    raw = base_config()
    raw["domain"] = {"kind": "annulus", "r_inner": 1.0, "r_outer": 2.0}
    expect_error(raw, "domain.n_wedges")
    raw["domain"]["n_wedges"] = 4
    raw["boundary_conditions"] = {"all": {"type": "dirichlet"}}
    cfg = parse_config(raw)
    assert cfg.domain["kind"] == "annulus"
    raw["domain"]["r_outer"] = 0.5
    expect_error(raw, "domain.r_outer")


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
    expect_error(raw, "domain")


def test_puncture_spec_validation():
    raw = base_config()
    raw["system"] = {"name": "puncture", "punctures": []}
    expect_error(raw, "system.punctures")
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
    assert isinstance(problem.boundary_map.for_tag("y-upper"), AnalyticDirichletBC)
    assert problem.solution is not None


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
