"""Boundary condition data and trace linearizations."""

import numpy as np
import pytest

from ipdg.background import FlatBackground
from ipdg.boundaries import (
    BoundaryMap,
    DirichletBC,
    FalloffDirichletBC,
    NeumannBC,
    RobinBC,
)
from ipdg.config import build_problem, parse_config
from ipdg.errors import ConfigurationError
from ipdg.solutions import manufactured_problem, sin_product
from ipdg.systems import PoissonFlat

FLAT2 = FlatBackground()
X = np.array([[0.25, 1.0], [0.5, 0.75]])
N = np.array([[0.0, 1.0], [-1.0, 0.0]])
U = np.array([[0.3, -0.2]])


def test_dirichlet_constant_and_callable():
    bc = DirichletBC(2.5)
    np.testing.assert_allclose(bc.values(X, N, U), 2.5)
    bc2 = DirichletBC(lambda x: x[0] + x[1])
    np.testing.assert_allclose(bc2.values(X, N, U), [[0.75, 1.75]])
    assert bc.kind == "dirichlet"
    np.testing.assert_allclose(
        bc.linearized_values(X, N, U, np.ones_like(U)), 0.0
    )


def test_neumann_kind_and_zero_linearization():
    bc = NeumannBC(lambda x, normal: 3.0 * x[1] + normal[0])
    assert bc.kind == "neumann"
    np.testing.assert_allclose(bc.values(X, N, U), [[1.5, 3.25]])
    np.testing.assert_allclose(
        bc.linearized_values(X, N, U, np.ones_like(U)), 0.0
    )


def test_robin_folds_interior_trace():
    bc = RobinBC(2.0, 4.0, 1.0)
    assert bc.kind == "neumann"
    np.testing.assert_allclose(bc.values(X, N, U), (1.0 - 2.0 * U) / 4.0)
    du = np.array([[1.0, -2.0]])
    np.testing.assert_allclose(
        bc.linearized_values(X, N, U, du), -(2.0 / 4.0) * du
    )


def test_robin_b_zero_degrades_to_dirichlet():
    bc = RobinBC(2.0, 0.0, 3.0)
    assert bc.kind == "dirichlet"
    np.testing.assert_allclose(bc.values(X, N, U), 1.5)
    np.testing.assert_allclose(
        bc.linearized_values(X, N, U, np.ones_like(U)), 0.0
    )
    with pytest.raises(ValueError):
        RobinBC(0.0, 0.0, 1.0)


ROBIN_RUN = {
    "system": {"name": "poisson-flat"},
    "domain": {"kind": "rectilinear", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
    "refinement": {"levels": [0, 0], "degrees": [2, 2]},
    "boundary_conditions": {
        "x-lower": {"type": "robin", "a": 1.0, "b": 1.0, "value": 0.0},
        "all": {"type": "dirichlet", "value": 0.0},
    },
}


@pytest.mark.parametrize("a, b, g, key", [
    (1.0, 1.0, np.nan, "value"), (np.nan, 1.0, 0.0, "a"), (1.0, -np.inf, 0.0, "b"),
    (np.inf, 0.0, 1.0, "a"),
])
def test_robin_rejects_non_finite_numbers(a, b, g, key):
    # a non-finite coefficient or value is named by its key, not left to
    # surface as a non-finite residual (or, for a = inf, as zero data)
    with pytest.raises(ConfigurationError, match="must be finite") as err:
        RobinBC(a, b, g)
    assert err.value.path == key
    # a configuration's condition is built under its tag; the schema already
    # refuses non-finite numbers in a file, so they are set after parsing
    cfg = parse_config(ROBIN_RUN)
    cfg.boundary_conditions["x-lower"].update(a=a, b=b, value=g)
    with pytest.raises(ConfigurationError) as err:
        build_problem(cfg)
    assert err.value.path == f"boundary_conditions.x-lower.{key}"


def test_robin_linearization_matches_fd_fallback():
    bc = RobinBC(1.5, 2.0, 0.7)
    du = np.array([[0.4, -1.1]])
    analytic = bc.linearized_values(X, N, U, du)
    fd = super(RobinBC, bc).linearized_values(X, N, U, du)
    np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)


def _solution():
    return manufactured_problem(PoissonFlat(2), sin_product(2), FLAT2)


def test_analytic_dirichlet_and_neumann():
    sol = _solution()
    bc = DirichletBC(sol.field.value)
    np.testing.assert_allclose(bc.values(X, N, U), sol.field.value(X))
    bcn = NeumannBC(sol.neumann_data)
    np.testing.assert_allclose(bcn.values(X, N, U), sol.neumann_data(X, N))


def test_analytic_robin_consistency():
    # data manufactured so the analytic solution satisfies the condition:
    # values() at the analytic trace equals the analytic normal flux
    sol = _solution()
    bc = RobinBC(1.0, 1.0, sol.robin_data(1.0, 1.0))
    u_an = sol.field.value(X)
    flux_an = sol.neumann_data(X, N)
    np.testing.assert_allclose(bc.values(X, N, u_an), flux_an, atol=1e-14)


def test_falloff_dirichlet():
    bc = FalloffDirichletBC(amplitude=2.0, center=(1.0, 0.0, 0.0))
    x = np.array([[3.0], [0.0], [0.0]])
    np.testing.assert_allclose(bc.values(x, None, np.zeros((1, 1))), 1.0)
    zero = FalloffDirichletBC()
    np.testing.assert_allclose(zero.values(x, None, np.zeros((1, 1))), 0.0)


def test_boundary_map_wildcard_and_validation():
    inner = DirichletBC(0.0)
    outer = NeumannBC(1.0)
    table = BoundaryMap({"x-lower": inner, "all": outer})
    assert table.for_tag("x-lower") is inner
    assert table.for_tag("y-upper") is outer
    table.validate_tags(["x-lower", "x-upper", "y-lower", "y-upper"])

    bare = BoundaryMap({"x-lower": inner})
    with pytest.raises(ConfigurationError):
        bare.for_tag("y-upper")
    with pytest.raises(ConfigurationError):
        bare.validate_tags(["x-lower", "y-upper"])
    with pytest.raises(ConfigurationError):
        table.validate_tags(["x-upper"])  # x-lower entry has no such tag
    with pytest.raises(ConfigurationError):
        BoundaryMap({})
