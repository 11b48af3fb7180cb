"""Background geometry tests.

Christoffel symbols of the conformally-flat metric are checked against a
4th-order finite-difference oracle built from the metric alone.
"""

import numpy as np
import pytest

from ipdg.background import (
    ConformallyFlatBackground,
    FlatBackground,
    face_geometry,
    make_background,
)
from ipdg.mesh import build_annulus_mesh, build_rectilinear_mesh


def linear_phi(c):
    c = np.asarray(c, dtype=float)

    def phi(x):
        return np.einsum("i,i...->...", c, x)

    def grad(x):
        x = np.asarray(x)
        out = np.zeros_like(x)
        for i in range(c.size):
            out[i] = c[i]
        return out

    return phi, grad


def quadratic_phi():
    def phi(x):
        return 0.1 * x[0] ** 2 + 0.05 * x[0] * x[1]

    def grad(x):
        return np.stack([0.2 * x[0] + 0.05 * x[1], 0.05 * x[0]])

    return phi, grad


def fd_christoffel(bg, x0, eps=1e-3):
    """Gamma^i_jk = 1/2 g^il (d_j g_kl + d_k g_jl - d_l g_jk), 4th order FD."""
    d = x0.size

    def metric(x):
        return bg.metric(x.reshape(d, 1))[..., 0]

    dg = np.zeros((d, d, d))  # dg[l, j, k] = d_l g_jk
    for l in range(d):
        h = np.zeros(d)
        h[l] = eps
        dg[l] = (
            -metric(x0 + 2 * h)
            + 8 * metric(x0 + h)
            - 8 * metric(x0 - h)
            + metric(x0 - 2 * h)
        ) / (12 * eps)
    ginv = bg.inverse_metric(x0.reshape(d, 1))[..., 0]
    gamma = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    gamma[i, j, k] += (
                        0.5 * ginv[i, l] * (dg[j, k, l] + dg[k, j, l] - dg[l, j, k])
                    )
    return gamma


class TestFlat:
    def test_metric_identity(self):
        bg = FlatBackground()
        x = np.random.default_rng(0).standard_normal((3, 4))
        g = bg.metric(x)
        assert g.shape == (3, 3, 4)
        np.testing.assert_array_equal(g[:, :, 0], np.eye(3))
        np.testing.assert_array_equal(bg.sqrt_det(x), np.ones(4))
        np.testing.assert_array_equal(bg.christoffel(x), np.zeros((3, 3, 3, 4)))


class TestConformallyFlat:
    def test_metric_and_inverse(self):
        phi, grad = linear_phi([0.1, 0.0])
        bg = ConformallyFlatBackground(phi, grad)
        x = np.array([[2.0], [5.0]])
        g = bg.metric(x)
        np.testing.assert_allclose(g[0, 0], np.exp(0.4))
        np.testing.assert_allclose(g[1, 1], np.exp(0.4))
        np.testing.assert_allclose(g[0, 1], 0.0)
        gginv = np.einsum("ij...,jk...->ik...", g, bg.inverse_metric(x))
        np.testing.assert_allclose(gginv[..., 0], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(bg.sqrt_det(x), np.exp(0.4))

    def test_christoffel_closed_form_linear_phi(self):
        # phi = 0.1 x: Gamma^x_xx = 0.1, Gamma^x_yy = -0.1, Gamma^y_xy = 0.1
        phi, grad = linear_phi([0.1, 0.0])
        bg = ConformallyFlatBackground(phi, grad)
        x = np.array([[0.3], [0.7]])
        gamma = bg.christoffel(x)[..., 0]
        np.testing.assert_allclose(gamma[0, 0, 0], 0.1)
        np.testing.assert_allclose(gamma[0, 1, 1], -0.1)
        np.testing.assert_allclose(gamma[1, 0, 1], 0.1)
        np.testing.assert_allclose(gamma[1, 1, 0], 0.1)
        np.testing.assert_allclose(gamma[1, 1, 1], 0.0, atol=1e-15)

    @pytest.mark.parametrize("maker", [lambda: linear_phi([0.1, -0.2]), quadratic_phi])
    def test_christoffel_against_fd_oracle(self, maker):
        phi, grad = maker()
        bg = ConformallyFlatBackground(phi, grad)
        rng = np.random.default_rng(11)
        for _ in range(3):
            x0 = rng.uniform(-0.5, 0.5, size=2)
            gamma = bg.christoffel(x0.reshape(2, 1))[..., 0]
            oracle = fd_christoffel(bg, x0)
            np.testing.assert_allclose(gamma, oracle, atol=5e-11)

    def test_contraction_is_d_times_grad_phi(self):
        phi, grad = quadratic_phi()
        bg = ConformallyFlatBackground(phi, grad)
        x = np.random.default_rng(2).uniform(-1, 1, size=(2, 5))
        np.testing.assert_allclose(
            bg.christoffel_contraction(x), 2 * grad(x), atol=1e-15
        )

    def test_contraction_matches_trace_of_christoffel(self):
        phi, grad = linear_phi([0.05, 0.3])
        bg = ConformallyFlatBackground(phi, grad)
        x = np.random.default_rng(3).uniform(-1, 1, size=(2, 4))
        gamma = bg.christoffel(x)
        trace = np.einsum("jji...->i...", gamma)
        np.testing.assert_allclose(bg.christoffel_contraction(x), trace, atol=1e-14)


class TestFaceGeometry:
    def test_flat_quarter_square(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (4, 4))
        fg = face_geometry(FlatBackground(), mesh.elements[0], 0, 1)
        np.testing.assert_allclose(fg.normal[0], 1.0)
        np.testing.assert_allclose(fg.normal[1], 0.0, atol=1e-15)
        np.testing.assert_allclose(fg.normal_magnitude, 4.0)
        # quarter element: J = 1/16, |n~| = 4 -> measure 1/4 per unit logical
        np.testing.assert_allclose(fg.surface_measure, 0.25)

    def test_face_element_size(self):
        # h = 2 / |n~| recovers the physical extent normal to the face
        mesh = build_rectilinear_mesh([(0, 1), (0, 2)], (1, 0), (3, 3))
        fg = face_geometry(FlatBackground(), mesh.elements[0], 0, 1)
        np.testing.assert_allclose(2.0 / fg.normal_magnitude, 0.5)
        fg = face_geometry(FlatBackground(), mesh.elements[0], 1, 1)
        np.testing.assert_allclose(2.0 / fg.normal_magnitude, 2.0)

    def test_annulus_outer_measure_integrates_to_circumference(self):
        mesh = build_annulus_mesh(1.0, 3.0, 4, (0, 0), (5, 5))
        bg = FlatBackground()
        total = 0.0
        for e in mesh.elements:
            fg = face_geometry(bg, e, 0, 1)
            w = e.node_sets()[1].weights
            total += float((fg.surface_measure * w).sum())
        np.testing.assert_allclose(total, 2 * np.pi * 3.0, rtol=1e-12)

    def test_normal_is_unit_in_curved_metric(self):
        phi, grad = linear_phi([0.1, 0.0])
        bg = ConformallyFlatBackground(phi, grad)
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (0, 0), (3, 3))
        fg = face_geometry(bg, mesh.elements[0], 0, 1)
        ginv = bg.inverse_metric(fg.coords)
        norm = np.einsum("i...,ij...,j...->...", fg.normal, ginv, fg.normal)
        np.testing.assert_allclose(norm, 1.0, rtol=1e-13)


def test_make_background_dispatch():
    assert type(make_background("flat")) is FlatBackground
    phi, grad = linear_phi([0.1, 0.0])
    assert type(make_background("conformally-flat", phi, grad)) is ConformallyFlatBackground
    with pytest.raises(ValueError):
        make_background("spherical")
    with pytest.raises(ValueError):
        make_background("conformally-flat")
