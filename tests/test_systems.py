"""System evaluators: fluxes, sources, linearizations, continuum residuals."""

import numpy as np
import pytest

from ipdg.background import ConformallyFlatBackground, FlatBackground
from ipdg.boundaries import BoundaryMap, DirichletBC
from ipdg.errors import ConfigurationError, SingularPointError
from ipdg.mesh import build_rectilinear_mesh
from ipdg.operators import OperatorHandle, _normal_auxiliary
from ipdg.solver import assemble_explicit
from ipdg.systems import (
    Elasticity,
    EllipticSystem,
    PoissonCurved,
    PoissonFlat,
    Puncture,
    PunctureSpec,
    make_system,
    sym_index_pairs,
)

FLAT2 = FlatBackground()
FLAT3 = FlatBackground()


def test_sym_index_pairs():
    assert sym_index_pairs(2) == ((0, 0), (0, 1), (1, 1))
    assert sym_index_pairs(3) == (
        (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2),
    )


@pytest.mark.parametrize("name, dim", [
    ("poisson-flat", 2), ("poisson-curved", 2), ("poisson-curved", 3), ("elasticity", 3),
    ("puncture", 3),
])
def test_background_fields_are_pointwise(name, dim):
    # the operator takes the fields of face and external points from those
    # of the volume points, so the fields of a subset of the points must be
    # that subset of the fields, each ending in the points' own axes
    bg = ConformallyFlatBackground(
        lambda x: 0.1 * np.sin(x).sum(axis=0), lambda x: 0.1 * np.cos(x)
    )
    spec = PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3), spin=(0.0, 0.1, 0.0))
    system = make_system(name, dim, **({"punctures": [spec]} if name == "puncture" else {}))
    x = 1.0 + np.random.default_rng(8).random((dim, 4, 3, 5))
    fields = system.background_fields(x, bg)
    assert len(fields) == {"poisson-curved": 2, "puncture": 2}.get(name, 0)
    for pick in ((slice(1, 3), [2, 0], slice(None, None, 2)), (1, slice(None), slice(4, 0, -3))):
        sub = x[(slice(None),) + pick]
        parts = system.background_fields(sub, bg)
        assert len(parts) == len(fields)
        for whole, part in zip(fields, parts):
            lead = whole.ndim - x.ndim + 1
            assert whole.shape[lead:] == x.shape[1:]
            assert part.shape == whole.shape[:lead] + sub.shape[1:]
            assert np.array_equal(whole[(slice(None),) * lead + pick], part)


def _poisson_auxiliary_flux(system, u):
    """F^i_{v_j} = u delta^i_j, as the Poisson-like systems wrote it by hand."""
    u = np.asarray(u)
    out = np.zeros((system.dim, system.dim) + u.shape[1:])
    for j in range(system.dim):
        out[j, j] = u[0]
    return out


def _elasticity_auxiliary_flux(system, u):
    """F^i_{S_jk} = (u_k delta^i_j + u_j delta^i_k) / 2, as elasticity wrote it by hand."""
    u = np.asarray(u)
    out = np.zeros((len(system.pairs), system.dim) + u.shape[1:])
    for a, (j, k) in enumerate(system.pairs):
        out[a, j] += 0.5 * u[k]
        out[a, k] += 0.5 * u[j]
    return out


@pytest.mark.parametrize("name, dim", [
    ("poisson-flat", 1), ("poisson-flat", 2), ("poisson-flat", 3), ("poisson-curved", 1),
    ("poisson-curved", 2), ("poisson-curved", 3), ("elasticity", 2), ("elasticity", 3),
    ("puncture", 3),
])
def test_auxiliary_flux_and_its_normal_projection_derive_from_g(name, dim):
    # every system defines G only: the flux derived from it, and the operator's
    # n_i F^i_v = G(u (x) n), give the bits of the hand-written fluxes, for one
    # vector and a batch
    params = {"punctures": [PunctureSpec(1.0, (0.1, 0.2, 0.3))]} if name == "puncture" else {}
    system = make_system(name, dim, **params)
    reference = (_elasticity_auxiliary_flux if isinstance(system, Elasticity)
                 else _poisson_auxiliary_flux)
    rng = np.random.default_rng(9)
    normal = rng.standard_normal((dim, 7))
    for lead in ((), (3,)):
        u = rng.standard_normal((system.n_primal,) + lead + (7,))
        flux = reference(system, u)
        assert flux.shape == (system.n_auxiliary, dim) + lead + (7,)
        assert system.auxiliary_flux(u).tobytes() == flux.tobytes()
        projected = np.einsum("i...,ci...->c...", normal, flux)
        assert _normal_auxiliary(system, u, normal).tobytes() == projected.tobytes()


def test_an_auxiliary_flux_override_is_refused(monkeypatch):
    # the operator reads G only, so an override would be ignored without a
    # word; a wrapper on the base class itself, as a tracer installs, is none
    class Doubled(PoissonFlat):
        def auxiliary_flux(self, u):
            return 2.0 * super().auxiliary_flux(u)

    mesh = build_rectilinear_mesh([(0.0, 1.0)] * 2, (1, 1), (2, 2))
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    with pytest.raises(ConfigurationError, match="^system: Doubled overrides auxiliary_flux: "
                       "define auxiliary_from_gradient; auxiliary_flux is derived from it$"):
        OperatorHandle(mesh, Doubled(2), FLAT2, bcs)
    derived = EllipticSystem.auxiliary_flux
    monkeypatch.setattr(EllipticSystem, "auxiliary_flux", lambda self, u: derived(self, u))
    OperatorHandle(mesh, PoissonFlat(2), FLAT2, bcs)


class TestPoissonFlat:
    def test_auxiliary_flux_is_diagonal_embedding(self):
        sys2 = PoissonFlat(2)
        u = np.full((1, 3), 2.0)
        flux = sys2.auxiliary_flux(u)
        assert flux.shape == (2, 2, 3)
        np.testing.assert_allclose(flux[0, 0], 2.0)
        np.testing.assert_allclose(flux[1, 1], 2.0)
        np.testing.assert_allclose(flux[0, 1], 0.0)
        np.testing.assert_allclose(flux[1, 0], 0.0)

    def test_primal_flux_is_identity_on_auxiliary(self):
        sys2 = PoissonFlat(2)
        v = np.array([[1.0], [2.0]])
        flux = sys2.primal_flux(v, ())
        np.testing.assert_array_equal(flux, v[None])

    def test_continuum_residual_of_sin_product(self):
        # -Laplacian of sin(pi x) sin(pi y) is 2 pi^2 times the field
        sys2 = PoissonFlat(2)
        x = np.array([[0.25], [0.5]])
        u_val = np.sin(np.pi * 0.25) * np.sin(np.pi * 0.5)
        u = np.array([[u_val]])
        grad = np.zeros((1, 2, 1))
        hess = np.zeros((1, 2, 2, 1))
        hess[0, 0, 0] = -np.pi**2 * u_val
        hess[0, 1, 1] = -np.pi**2 * u_val
        res = sys2.continuum_residual(u, grad, hess, x, FLAT2)
        np.testing.assert_allclose(res, 2.0 * np.pi**2 * u_val)

    def test_sources_default_to_zero(self):
        sys2 = PoissonFlat(2)
        u = np.ones((1, 4))
        v = np.ones((2, 4))
        x = np.zeros((2, 4))
        assert sys2.background_fields(x, FLAT2) == ()
        assert not sys2.primal_source(u, v, ()).any()
        assert sys2.linear and sys2.symmetric_eligible


def _curved_bg():
    return ConformallyFlatBackground(
        phi=lambda x: 0.1 * x[0],
        grad_phi=lambda x: np.stack([0.1 * np.ones_like(x[0]), np.zeros_like(x[0])]),
    )


class TestPoissonCurved:
    def test_primal_flux_raises_index_with_inverse_metric(self):
        bg = _curved_bg()
        x = np.array([[1.0], [2.0]])
        v = np.array([[3.0], [4.0]])
        system = PoissonCurved(2)
        flux = system.primal_flux(v, system.background_fields(x, bg))
        np.testing.assert_allclose(flux[0], np.exp(-0.2) * v)

    def test_source_contracts_christoffel(self):
        # Gamma^i_{ij} = dim * d_j phi, so the source is -0.2 e^{-2 phi} v_x
        bg = _curved_bg()
        x = np.array([[1.0], [0.0]])
        v = np.array([[3.0], [4.0]])
        system = PoissonCurved(2)
        src = system.primal_source(None, v, system.background_fields(x, bg))
        np.testing.assert_allclose(src[0], -0.2 * np.exp(-0.2) * 3.0)

    def test_linearized_source_is_the_source_of_the_perturbation(self):
        # a linear system's linearization at any point is its own source;
        # a nonlinear system that does not override it is refused
        bg = _curved_bg()
        rng = np.random.default_rng(2)
        x, du, dv = rng.random((2, 5)), rng.standard_normal((1, 5)), rng.standard_normal((2, 5))
        system = PoissonCurved(2)
        fields = system.background_fields(x, bg)
        lin = system.linearized_primal_source(rng.standard_normal((1, 5)), fields)
        np.testing.assert_array_equal(lin(du, dv), system.primal_source(du, dv, fields))

        class Cubic(PoissonCurved):
            linear = False

        with pytest.raises(NotImplementedError, match="Cubic is nonlinear and must override"):
            Cubic(2).linearized_primal_source(du, fields)

    def test_reduces_to_flat_for_zero_phi(self):
        bg = ConformallyFlatBackground(
            phi=lambda x: np.zeros_like(x[0]),
            grad_phi=lambda x: np.zeros_like(x),
        )
        rng = np.random.default_rng(7)
        u = rng.standard_normal((1, 5))
        grad = rng.standard_normal((1, 2, 5))
        hess = rng.standard_normal((1, 2, 2, 5))
        hess = hess + np.swapaxes(hess, 1, 2)
        x = rng.standard_normal((2, 5))
        curved = PoissonCurved(2).continuum_residual(u, grad, hess, x, bg)
        flat = PoissonFlat(2).continuum_residual(u, grad, hess, x, FLAT2)
        np.testing.assert_allclose(curved, flat, atol=1e-14)

    def test_residual_matches_flux_divergence_oracle(self):
        # Oracle: finite-difference divergence of F^i = g^ij d_j u plus the
        # Christoffel source, for u = sin(x) cos(y).
        bg = _curved_bg()
        sys2 = PoissonCurved(2)

        def u_of(x):
            return np.sin(x[0]) * np.cos(x[1])

        def grad_of(x):
            return np.stack([np.cos(x[0]) * np.cos(x[1]),
                             -np.sin(x[0]) * np.sin(x[1])])

        def flux_of(x):
            return sys2.primal_flux(grad_of(x), sys2.background_fields(x, bg))[0]

        x0 = np.array([[0.3], [0.7]])
        h = 1e-6
        div = np.zeros(1)
        for i in range(2):
            e = np.zeros((2, 1))
            e[i] = h
            div += (flux_of(x0 + e)[i] - flux_of(x0 - e)[i]) / (2 * h)
        src = sys2.primal_source(None, grad_of(x0), sys2.background_fields(x0, bg))[0]
        oracle = -div + src

        u0 = u_of(x0)[None]
        grad = grad_of(x0)[None]
        hess = np.zeros((1, 2, 2, 1))
        hess[0, 0, 0] = -np.sin(0.3) * np.cos(0.7)
        hess[0, 0, 1] = hess[0, 1, 0] = -np.cos(0.3) * np.sin(0.7)
        hess[0, 1, 1] = -np.sin(0.3) * np.cos(0.7)
        res = sys2.continuum_residual(u0, grad, hess, x0, bg)
        np.testing.assert_allclose(res[0], oracle, rtol=1e-8)


class TestElasticity:
    def test_strain_flux_of_unit_x_displacement(self):
        sys2 = Elasticity(2)
        u = np.array([[1.0], [0.0]])
        flux = sys2.auxiliary_flux(u)
        # components ordered S_xx, S_xy, S_yy
        np.testing.assert_allclose(flux[0, 0], 1.0)   # F^x_{S_xx}
        np.testing.assert_allclose(flux[0, 1], 0.0)
        np.testing.assert_allclose(flux[1, 0], 0.0)   # F^x_{S_xy}
        np.testing.assert_allclose(flux[1, 1], 0.5)   # F^y_{S_xy}
        np.testing.assert_allclose(flux[2, 0], 0.0)
        np.testing.assert_allclose(flux[2, 1], 0.0)

    def test_stress_flux_lame(self):
        sys2 = Elasticity(2, lame_lambda=1.0, shear_modulus=1.0)
        v = np.array([[1.0], [0.5], [2.0]])  # S_xx, S_xy, S_yy
        stress = sys2.primal_flux(v, ())
        np.testing.assert_allclose(stress[0, 0], 2.0 * 1.0 + 3.0)
        np.testing.assert_allclose(stress[1, 1], 2.0 * 2.0 + 3.0)
        np.testing.assert_allclose(stress[0, 1], 1.0)
        np.testing.assert_allclose(stress[1, 0], 1.0)

    def test_auxiliary_from_gradient_symmetrizes(self):
        sys2 = Elasticity(2)
        grad = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])  # grad[c, i]
        s = sys2.auxiliary_from_gradient(grad)
        np.testing.assert_allclose(s[:, 0], [1.0, 2.5, 4.0])

    def test_continuum_residual_polynomial(self):
        # xi = (x^2 y, x y^2), lambda = mu = 1:
        # -(lam+mu) grad(div xi) - mu lap xi = (-8y - 2y, -8x - 2x)
        sys2 = Elasticity(2, 1.0, 1.0)
        x0, y0 = 1.5, 0.5
        hess = np.zeros((2, 2, 2, 1))
        hess[0, 0, 0] = 2 * y0
        hess[0, 0, 1] = hess[0, 1, 0] = 2 * x0
        hess[1, 0, 1] = hess[1, 1, 0] = 2 * y0
        hess[1, 1, 1] = 2 * x0
        res = sys2.continuum_residual(None, None, hess, None, FLAT2)
        np.testing.assert_allclose(res[:, 0], [-10 * y0, -10 * x0])

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            Elasticity(1)


class TestPuncture:
    def test_alpha_single_mass(self):
        sys3 = Puncture([PunctureSpec(1.0, (0.0, 0.0, 0.0))])
        x = np.array([[2.0], [0.0], [0.0]])
        alpha, beta = sys3.background_fields(x, FLAT3)
        np.testing.assert_allclose(alpha, 2.0)
        np.testing.assert_allclose(beta, 0.0)

    def test_beta_with_momentum(self):
        # P = (0,0,1/2), evaluation at (2,0,0): the only Bowen-York
        # components are Abar_{xz} = Abar_{zx} = (3/2)/r^2 * P_z n_x = 3/16,
        # so Abar:Abar = 2 (3/16)^2 and beta = alpha^7/8 * that = 9/128.
        sys3 = Puncture(
            [PunctureSpec(1.0, (0.0, 0.0, 0.0), momentum=(0.0, 0.0, 0.5))]
        )
        x = np.array([[2.0], [0.0], [0.0]])
        alpha, beta = sys3.background_fields(x, FLAT3)
        np.testing.assert_allclose(alpha, 2.0)
        np.testing.assert_allclose(beta, 2.0**7 / 8.0 * 2.0 * (3.0 / 16.0) ** 2)

    def test_beta_with_spin(self):
        # S = (0,0,1) at (2,0,0): S x n = (0,1,0) and the (2/r) spin term
        # gives Abar_{xy} = (3/2)/4 * (2/2) * 1 = 3/8.
        sys3 = Puncture(
            [PunctureSpec(1.0, (0.0, 0.0, 0.0), spin=(0.0, 0.0, 1.0))]
        )
        x = np.array([[2.0], [0.0], [0.0]])
        _, beta = sys3.background_fields(x, FLAT3)
        np.testing.assert_allclose(beta, 2.0**7 / 8.0 * 2.0 * (3.0 / 8.0) ** 2)

    def test_two_punctures_superpose_inverse_alpha(self):
        sys3 = Puncture(
            [
                PunctureSpec(1.0, (-1.0, 0.0, 0.0)),
                PunctureSpec(2.0, (1.0, 0.0, 0.0)),
            ]
        )
        x = np.array([[0.0], [0.0], [0.0]])
        alpha, _ = sys3.background_fields(x, FLAT3)
        np.testing.assert_allclose(alpha, 1.0 / 3.0)

    def test_linearized_source_matches_difference_quotient(self):
        sys3 = Puncture(
            [PunctureSpec(1.0, (0.0, 0.0, 0.0), momentum=(0.1, 0.2, 0.3))]
        )
        rng = np.random.default_rng(3)
        x = 2.0 + rng.random((3, 6))
        u0 = 0.1 * rng.standard_normal((1, 6))
        du = rng.standard_normal((1, 6))
        eps = 1e-6
        fields = sys3.background_fields(x, FLAT3)
        plus = sys3.primal_source(u0 + eps * du, None, fields)
        minus = sys3.primal_source(u0 - eps * du, None, fields)
        oracle = (plus - minus) / (2 * eps)
        lin = sys3.linearized_primal_source(u0, fields)
        np.testing.assert_allclose(lin(du, None), oracle, rtol=1e-7, atol=1e-12)
        # the map is linear in du and reads nothing else
        np.testing.assert_array_equal(lin(2.0 * du, None), 2.0 * lin(du, None))

    def test_continuum_residual_includes_source(self):
        sys3 = Puncture([PunctureSpec(1.0, (0.0, 0.0, 0.0))])
        x = np.array([[2.0], [0.0], [0.0]])
        u = np.array([[0.3]])
        hess = np.zeros((1, 3, 3, 1))
        hess[0, 0, 0] = 1.0
        hess[0, 1, 1] = 2.0
        res = sys3.continuum_residual(u, None, hess, x, FLAT3)
        # beta = 0 for an unboosted, unspun puncture, so only -lap survives
        np.testing.assert_allclose(res, -3.0)

    def test_collocated_puncture_rejected(self):
        sys3 = Puncture([PunctureSpec(1.0, (0.5, 0.5, 0.5))])
        x = np.array([[0.5], [0.5], [0.5]])
        with pytest.raises(SingularPointError):
            sys3.background_fields(x, FLAT3)

    def test_min_puncture_distance(self):
        sys3 = Puncture([PunctureSpec(1.0, (1.0, 0.0, 0.0))])
        x = np.array([[3.0, 1.5], [0.0, 0.0], [0.0, 0.0]])
        assert sys3.min_puncture_distance(x) == pytest.approx(0.5)

    def test_not_linear_not_fallthrough(self):
        sys3 = Puncture([PunctureSpec(1.0, (0.0, 0.0, 0.0))])
        assert not sys3.linear
        assert sys3.symmetric_eligible

    def test_mass_and_vectors_checked(self):
        # a massless puncture made alpha infinite and failed the first
        # solve with a non-finite residual
        for mass in (0.0, -1.0):
            specs = [PunctureSpec(1.0, (0.0, 0.0, 0.0)), PunctureSpec(mass, (1.0, 0.0, 0.0))]
            with pytest.raises(ConfigurationError) as err:
                Puncture(specs)
            assert err.value.path == "system.punctures[1].mass"
        with pytest.raises(ConfigurationError) as err:
            Puncture([PunctureSpec(1.0, (0.0, 0.0, 0.0), spin=(0.0, 1.0))])
        assert err.value.path == "system.punctures[0].spin"


@pytest.mark.parametrize("dim, lam, mu, path", [
    (2, 1.0, 0.0, "system.shear_modulus"),
    (2, 1.0, -1.0, "system.shear_modulus"),
    (2, -2.0, 1.0, "system.lame_lambda"),
    (2, -1.0, 1.0, "system.lame_lambda"),
    (3, -0.7, 1.0, "system.lame_lambda"),
    (2, -0.9, 1.0, None),
    (3, -0.6, 1.0, None),
    (2, 5.0, 0.1, None),
])
def test_elasticity_moduli_keep_the_operator_positive_definite(dim, lam, mu, path):
    # the isotropic elasticity tensor is positive definite exactly when
    # mu > 0 and d lambda + 2 mu > 0; outside, the strong-weak operator was
    # singular or indefinite, yet eligible for CG
    if path is not None:
        with pytest.raises(ConfigurationError) as err:
            Elasticity(dim, lame_lambda=lam, shear_modulus=mu)
        assert err.value.path == path
        return
    mesh = build_rectilinear_mesh([(0.0, 1.0)] * dim, (1,) * dim, (1,) * dim)
    handle = OperatorHandle(
        mesh, Elasticity(dim, lame_lambda=lam, shear_modulus=mu), FlatBackground(),
        BoundaryMap.everywhere(DirichletBC(0.0)), form="strong-weak",
    )
    a = assemble_explicit(handle).toarray()
    assert np.linalg.eigvalsh(0.5 * (a + a.T)).min() > 0.0


class TestRegistry:
    def test_round_trip_names(self):
        assert make_system("poisson-flat", 2).name == "poisson-flat"
        assert make_system("poisson-curved", 3).dim == 3
        sys2 = make_system("elasticity", 2, lame_lambda=2.0, shear_modulus=3.0)
        assert sys2.lame_lambda == 2.0 and sys2.shear_modulus == 3.0
        sys3 = make_system(
            "puncture", 3, punctures=[{"mass": 1.0, "position": (0, 0, 0)}]
        )
        assert sys3.punctures[0].mass == 1.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_system("heat", 2)

    def test_puncture_requires_3d(self):
        with pytest.raises(ValueError):
            make_system("puncture", 2, punctures=[])

    def test_puncture_requires_punctures(self):
        with pytest.raises(ValueError):
            make_system("puncture", 3, punctures=[])
