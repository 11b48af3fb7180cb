"""Unit tests for the 1D spectral basis utilities.

Expected values are either hand-derivable closed forms (frozen below) or
checked against an independent oracle: direct monomial integration for
quadrature exactness.
"""

import numpy as np
import pytest

from ipdg.basis import (
    NodeSet1D,
    barycentric_weights,
    differentiation_matrix,
    gauss_lobatto_nodes_weights,
    interpolation_matrix,
)


def monomial_integral(k):
    """Exact integral of x^k over [-1, 1]."""
    return 0.0 if k % 2 else 2.0 / (k + 1)


class TestGaussLobatto:
    def test_two_points_is_trapezoid(self):
        ns = gauss_lobatto_nodes_weights(2)
        np.testing.assert_array_equal(ns.nodes, [-1.0, 1.0])
        np.testing.assert_array_equal(ns.weights, [1.0, 1.0])

    def test_three_points(self):
        ns = gauss_lobatto_nodes_weights(3)
        np.testing.assert_allclose(ns.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            ns.weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], rtol=1e-15
        )

    def test_four_points(self):
        ns = gauss_lobatto_nodes_weights(4)
        r = 1.0 / np.sqrt(5.0)
        np.testing.assert_allclose(ns.nodes, [-1.0, -r, r, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            ns.weights, [1.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0, 1.0 / 6.0], rtol=1e-14
        )

    @pytest.mark.parametrize("n", range(2, 13))
    def test_symmetry_and_total_weight(self, n):
        ns = gauss_lobatto_nodes_weights(n)
        np.testing.assert_array_equal(ns.nodes, -ns.nodes[::-1])
        np.testing.assert_array_equal(ns.weights, ns.weights[::-1])
        assert abs(ns.weights.sum() - 2.0) < 1e-14
        assert np.all(np.diff(ns.nodes) > 0)
        assert ns.nodes[0] == -1.0 and ns.nodes[-1] == 1.0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_quadrature_exact_to_degree_2n_minus_3(self, n):
        ns = gauss_lobatto_nodes_weights(n)
        for k in range(0, max(2 * n - 2, 1)):
            q = np.dot(ns.weights, ns.nodes**k)
            assert abs(q - monomial_integral(k)) < 1e-14, (n, k)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_quadrature_not_exact_beyond(self, n):
        ns = gauss_lobatto_nodes_weights(n)
        k = 2 * n - 2  # even, one past the exactness degree
        q = np.dot(ns.weights, ns.nodes**k)
        assert abs(q - monomial_integral(k)) > 1e-6

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            gauss_lobatto_nodes_weights(1)

    def test_memoized_and_immutable(self):
        a = gauss_lobatto_nodes_weights(6)
        b = gauss_lobatto_nodes_weights(6)
        assert a.nodes is b.nodes
        with pytest.raises(ValueError):
            a.nodes[0] = 0.0


class TestInterpolation:
    def test_quadratic_at_half(self):
        ns = gauss_lobatto_nodes_weights(3)
        mat = interpolation_matrix(ns, [0.5])
        value = mat @ ns.nodes**2
        np.testing.assert_allclose(value, [0.25], rtol=1e-15)

    def test_target_on_node_gives_kronecker_row(self):
        ns = gauss_lobatto_nodes_weights(5)
        mat = interpolation_matrix(ns, ns.nodes[2:3])
        expected = np.zeros(5)
        expected[2] = 1.0
        np.testing.assert_array_equal(mat[0], expected)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_reproduces_polynomials(self, n):
        ns = gauss_lobatto_nodes_weights(n)
        rng = np.random.default_rng(17)
        targets = rng.uniform(-1, 1, size=11)
        mat = interpolation_matrix(ns, targets)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, rtol=1e-13)
        coeffs = rng.standard_normal(n)
        poly = np.polynomial.Polynomial(coeffs)
        np.testing.assert_allclose(
            mat @ poly(ns.nodes), poly(targets), rtol=1e-12, atol=1e-13
        )

    def test_accepts_plain_arrays(self):
        mat = interpolation_matrix([-1.0, 1.0], [0.0])
        np.testing.assert_allclose(mat, [[0.5, 0.5]])


class TestDifferentiation:
    def test_two_point_matrix(self):
        mat = differentiation_matrix(gauss_lobatto_nodes_weights(2))
        np.testing.assert_allclose(mat, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)

    def test_three_point_matrix(self):
        mat = differentiation_matrix(gauss_lobatto_nodes_weights(3))
        expected = [[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]]
        np.testing.assert_allclose(mat, expected, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 6, 9])
    def test_exact_on_polynomials(self, n):
        ns = gauss_lobatto_nodes_weights(n)
        mat = differentiation_matrix(ns)
        rng = np.random.default_rng(3)
        poly = np.polynomial.Polynomial(rng.standard_normal(n))
        np.testing.assert_allclose(
            mat @ poly(ns.nodes), poly.deriv()(ns.nodes), rtol=1e-11, atol=1e-12
        )

    def test_annihilates_constants(self):
        # Negative-sum diagonal: row sums vanish to accumulation roundoff.
        mat = differentiation_matrix(gauss_lobatto_nodes_weights(7))
        np.testing.assert_allclose(mat @ np.ones(7), np.zeros(7), atol=2e-14)

    def test_memoized(self):
        a = differentiation_matrix(gauss_lobatto_nodes_weights(5))
        b = differentiation_matrix(gauss_lobatto_nodes_weights(5))
        assert a is b


def test_barycentric_weights_equispaced():
    # lambda for {-1, 0, 1}: 1/((x0-x1)(x0-x2)) etc.
    lam = barycentric_weights(np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(lam, [0.5, -1.0, 0.5])


def test_nodeset_is_frozen():
    ns = gauss_lobatto_nodes_weights(4)
    assert isinstance(ns, NodeSet1D)
    with pytest.raises(AttributeError):
        ns.nodes = np.zeros(4)
