"""Analytic fields: derivative consistency and manufactured sources."""

import numpy as np
import pytest

from ipdg.background import ConformallyFlatBackground, FlatBackground
from ipdg.solutions import (
    gaussian,
    make_solution,
    manufactured_problem,
    sin_product,
    sin_product_vector,
    zero_field,
)
from ipdg.systems import Elasticity, PoissonCurved, PoissonFlat

FLAT2 = FlatBackground()
FLAT3 = FlatBackground()


def fd_gradient(field, x, h=1e-5):
    dim = x.shape[0]
    cols = []
    for i in range(dim):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((field.value(x + e) - field.value(x - e)) / (2 * h))
    return np.stack(cols, axis=1)


def fd_hessian(field, x, h=1e-5):
    dim = x.shape[0]
    cols = []
    for i in range(dim):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((field.gradient(x + e) - field.gradient(x - e)) / (2 * h))
    # cols[i][c, j] = d_i d_j u_c; reorder to hess[c, i, j]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize(
    "field,dim",
    [
        (sin_product(2, amplitude=1.3, wavenumber=2.0), 2),
        (sin_product(3), 3),
        (sin_product_vector(2, amplitudes=(1.0, 0.5)), 2),
        (gaussian(3, center=(0.2, -0.1, 0.4), width=0.8, amplitude=2.0), 3),
    ],
)
def test_derivatives_match_finite_differences(field, dim):
    rng = np.random.default_rng(11)
    x = rng.random((dim, 7))
    np.testing.assert_allclose(
        field.gradient(x), fd_gradient(field, x), rtol=1e-7, atol=1e-7
    )
    np.testing.assert_allclose(
        field.hessian(x), fd_hessian(field, x), rtol=1e-7, atol=1e-7
    )


def test_sin_product_values():
    field = sin_product(2)
    x = np.array([[0.5], [0.5]])
    np.testing.assert_allclose(field.value(x), 1.0)
    x0 = np.array([[0.0], [0.7]])
    np.testing.assert_allclose(field.value(x0), 0.0, atol=1e-16)


def test_gaussian_peak():
    field = gaussian(2, center=(0.3, 0.4), amplitude=2.5)
    x = np.array([[0.3], [0.4]])
    np.testing.assert_allclose(field.value(x), 2.5)
    np.testing.assert_allclose(field.gradient(x), 0.0, atol=1e-16)


def test_vector_amplitude_count_guard():
    with pytest.raises(ValueError):
        sin_product_vector(2, amplitudes=(1.0, 2.0, 3.0))


def test_manufactured_poisson_sin_source():
    # -lap(sin pi x sin pi y) = 2 pi^2 sin pi x sin pi y
    sol = manufactured_problem(PoissonFlat(2), sin_product(2), FLAT2)
    rng = np.random.default_rng(5)
    x = rng.random((2, 9))
    np.testing.assert_allclose(
        sol.fixed_source(x), 2.0 * np.pi**2 * sol.field.value(x), rtol=1e-13
    )


def test_manufactured_component_mismatch():
    with pytest.raises(ValueError):
        manufactured_problem(Elasticity(2), sin_product(2), FLAT2)


def test_zero_solution_zero_source():
    sol = manufactured_problem(PoissonFlat(3), zero_field(3), FLAT3)
    x = np.zeros((3, 4))
    assert not sol.fixed_source(x).any()


def test_neumann_data_is_normal_gradient_for_poisson():
    sol = manufactured_problem(PoissonFlat(2), sin_product(2), FLAT2)
    x = np.array([[1.0], [0.5]])
    n = np.array([[1.0], [0.0]])
    data = sol.neumann_data(x, n)
    np.testing.assert_allclose(data, np.pi * np.cos(np.pi) * 1.0)


def test_neumann_data_on_a_conformally_flat_background():
    # poisson-curved: n_i F^i = n_i g^ij d_j u with g^ij = exp(-2 phi) delta^ij
    system = PoissonCurved(2)
    bg = ConformallyFlatBackground(
        lambda x: 0.3 * x[1],
        lambda x: np.stack([np.zeros_like(x[0]), 0.3 * np.ones_like(x[0])]),
    )
    sol = manufactured_problem(system, sin_product(2), bg)
    x = np.array([[0.25, 0.5, 1.0], [0.5, 1.0 / 3.0, 0.75]])
    n = np.array([[0.6, 0.0, 1.0], [0.8, -1.0, 0.0]])
    s, c = np.sin(np.pi * x), np.cos(np.pi * x)
    grad = np.pi * np.stack([c[0] * s[1], s[0] * c[1]])
    g_inv = np.exp(-0.6 * x[1])
    expected = g_inv * np.einsum("in,in->n", n, grad)
    np.testing.assert_allclose(sol.neumann_data(x, n), expected[None], rtol=1e-14)


def test_robin_data_combines_value_and_flux():
    sol = manufactured_problem(PoissonFlat(2), sin_product(2), FLAT2)
    x = np.array([[0.25], [0.25]])
    n = np.array([[0.0], [-1.0]])
    expected = 2.0 * sol.field.value(x) + 3.0 * sol.neumann_data(x, n)
    np.testing.assert_allclose(sol.robin_data(2.0, 3.0)(x, n), expected)


def test_registry_names_and_params():
    system = PoissonFlat(2)
    sol = make_solution("sin-product", system, FLAT2, {"wavenumber": 2.0})
    x = np.array([[0.25], [0.25]])
    np.testing.assert_allclose(sol.field.value(x), 1.0)

    esys = Elasticity(2)
    vec = make_solution("sin-product-vector", esys, FLAT2)
    assert vec.field.n_components == 2

    g = make_solution("gaussian", system, FLAT2, {"center": (0.0, 0.0)})
    np.testing.assert_allclose(g.field.value(np.zeros((2, 1))), 1.0)

    z = make_solution("zero", system, FLAT2)
    assert not z.fixed_source(np.zeros((2, 3))).any()

    with pytest.raises(ValueError):
        make_solution("heat-kernel", system, FLAT2)
