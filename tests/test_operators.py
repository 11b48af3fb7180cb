"""Element building blocks, flux exchange, and whole-operator properties."""

import numpy as np
import pytest

from ipdg.background import ConformallyFlatBackground, FlatBackground, face_geometry
from ipdg.basis import gauss_lobatto_nodes_weights, gauss_nodes_weights
from ipdg.boundaries import (
    BoundaryMap,
    DirichletBC,
    NeumannBC,
    RobinBC,
)
from ipdg.errors import (
    ConfigurationError,
    DegenerateGeometryError,
    TopologyError,
    UnsupportedFeatureError,
)
from ipdg.mesh import (
    build_annulus_mesh,
    build_rectilinear_mesh,
    face_slices,
    split_element,
    with_degrees,
)
from ipdg.operators import (
    BoundaryData,
    FieldVector,
    OperatorHandle,
    apply_lifting,
    apply_stiffness,
    auxiliary_numerical_flux,
    exterior_ghost_data,
    lumped_mass_diag,
    penalty_sigma,
    primal_numerical_flux,
)
from ipdg.systems import make_system

BG = FlatBackground()
POISSON_1D = make_system("poisson-flat", dim=1)
POISSON_2D = make_system("poisson-flat", dim=2)


def unit_mesh_1d(degree, level=0, lo=0.0, hi=1.0):
    return build_rectilinear_mesh([(lo, hi)], levels=(level,), degrees=(degree,))


def unit_mesh_2d(degree, level):
    return build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(level, level), degrees=(degree, degree)
    )


def assemble(handle):
    n = handle.n_primal_dofs
    a = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        a[:, j] = handle.matvec(e)
        e[j] = 0.0
    return a


# -- lumped mass -------------------------------------------------------


def test_lumped_mass_unit_interval():
    el = unit_mesh_1d(2).elements[0]
    np.testing.assert_allclose(
        lumped_mass_diag(el, BG), [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], atol=1e-15
    )


def test_lumped_mass_reference_equals_weight_product():
    mesh = build_rectilinear_mesh(
        [(-1.0, 1.0), (-1.0, 1.0)], levels=(0, 0), degrees=(3, 4)
    )
    el = mesh.elements[0]
    wx = gauss_lobatto_nodes_weights(4).weights
    wy = gauss_lobatto_nodes_weights(5).weights
    np.testing.assert_allclose(
        lumped_mass_diag(el, BG), np.outer(wx, wy), atol=1e-15
    )


def test_lumped_mass_sums_to_volume():
    mesh = build_rectilinear_mesh(
        [(0.0, 0.5), (0.0, 2.0)], levels=(0, 0), degrees=(4, 2)
    )
    total = lumped_mass_diag(mesh.elements[0], BG).sum()
    assert abs(total - 1.0) < 1e-14


def test_lumped_mass_rejects_degenerate_background():
    class Collapsed(FlatBackground):
        def sqrt_det(self, x):
            return np.zeros(np.asarray(x).shape[1:])

    el = unit_mesh_1d(2).elements[0]
    with pytest.raises(DegenerateGeometryError):
        lumped_mass_diag(el, Collapsed())


# -- stiffness ---------------------------------------------------------


def test_stiffness_constant_flux_is_zero():
    el = unit_mesh_2d(3, 0).elements[0]
    f = np.ones((1, 2) + el.grid_shape)
    out = apply_stiffness(el, BG, f, "strong")
    assert np.max(np.abs(out)) < 1e-13


def test_stiffness_1d_quadratic():
    # F = xi^2 on [-1,1], n=4: exact polynomial differentiation gives M * 2xi
    el = build_rectilinear_mesh([(-1.0, 1.0)], levels=(0,), degrees=(3,)).elements[0]
    x = el.coords()
    f = (x[0] ** 2)[None, None]
    out = apply_stiffness(el, BG, f, "strong")
    expect = lumped_mass_diag(el, BG) * 2.0 * x[0]
    np.testing.assert_allclose(out[0], expect, atol=1e-13)


def test_stiffness_2d_polynomial_divergence():
    el = unit_mesh_2d(4, 0).elements[0]
    x, y = el.coords()
    f = np.stack([x**2 * y, x * y])[None]
    out = apply_stiffness(el, BG, f, "strong")
    expect = lumped_mass_diag(el, BG) * (2 * x * y + x)
    np.testing.assert_allclose(out[0], expect, atol=1e-12)


def test_stiffness_strong_plus_weak_is_boundary_flux():
    # discrete Gauss identity: summing both forms leaves the face quadrature
    # of n_i F^i
    el = unit_mesh_2d(8, 0).elements[0]
    x, y = el.coords()
    f = np.stack([np.sin(x + y), np.cos(x - y)])[None]
    total = (
        apply_stiffness(el, BG, f, "strong") + apply_stiffness(el, BG, f, "weak")
    ).sum()
    boundary = 0.0
    for dim in range(2):
        for side in (-1, 1):
            sl = face_slices(2, dim, side)
            nf = float(side) * f[0, dim][sl[1:]]
            boundary += apply_lifting(el, BG, dim, side, nf[None]).sum()
    assert abs(total - boundary) < 1e-10


def test_stiffness_rejects_unknown_form():
    el = unit_mesh_1d(2).elements[0]
    with pytest.raises(ValueError):
        apply_stiffness(el, BG, np.zeros((1, 1, 3)), "flux")


# -- lifting -----------------------------------------------------------


def test_lifting_1d_reference_values():
    el = build_rectilinear_mesh([(-1.0, 1.0)], levels=(0,), degrees=(2,)).elements[0]
    massless = apply_lifting(el, BG, 0, +1, np.array([[1.0]]), massive=False)
    np.testing.assert_allclose(massless, [[0.0, 0.0, 3.0]], atol=1e-14)
    massive = apply_lifting(el, BG, 0, +1, np.array([[1.0]]))
    np.testing.assert_allclose(massive, [[0.0, 0.0, 1.0]], atol=1e-14)


def test_lifting_zero_data():
    el = unit_mesh_2d(3, 0).elements[0]
    out = apply_lifting(el, BG, 1, -1, np.zeros((2, 4)))
    assert not out.any()


def test_lifting_interior_points_exactly_zero():
    el = unit_mesh_2d(4, 0).elements[0]
    out = apply_lifting(el, BG, 0, +1, np.random.default_rng(3).normal(size=(1, 5)))
    assert not out[0, :-1, :].any()
    assert out[0, -1, :].all()


def test_lifting_rejects_gauss_grids():
    class GaussElement:
        def node_sets(self):
            return (gauss_nodes_weights(3),)

    with pytest.raises(UnsupportedFeatureError):
        apply_lifting(GaussElement(), BG, 0, +1, np.array([[1.0]]))


# -- penalty -----------------------------------------------------------


def test_penalty_values():
    assert penalty_sigma(5, 5, 0.5, 0.5, 1.0) == pytest.approx(72.0)
    assert penalty_sigma(4, 5, 0.5, 0.25, 1.0) == pytest.approx(144.0)


def test_penalty_scales_with_c():
    base = penalty_sigma(3, 3, 0.2, 0.3, 1.0)
    assert penalty_sigma(3, 3, 0.2, 0.3, 2.0) == pytest.approx(2.0 * base)


def test_penalty_pointwise_min():
    h_int = np.array([0.5, 0.1])
    h_ext = np.array([0.2, 0.4])
    np.testing.assert_allclose(
        penalty_sigma(2, 2, h_int, h_ext, 1.0), [9.0 / 0.2, 9.0 / 0.1]
    )


def test_penalty_rejects_nonpositive_h():
    with pytest.raises(DegenerateGeometryError):
        penalty_sigma(2, 2, 0.5, 0.0, 1.0)


# -- numerical fluxes --------------------------------------------------


def sip_sides(u_int, u_ext, g_int, g_ext, normal=1.0):
    """Flat 1D Poisson data for both sides of a conforming face."""
    n = np.array([normal])
    interior = BoundaryData(
        aux_flux=n * u_int, deriv_flux=n * g_int, penalty_flux=np.array([u_int])
    )
    exterior = BoundaryData(
        aux_flux=-n * u_ext, deriv_flux=-n * g_ext, penalty_flux=np.array([u_ext])
    )
    return interior, exterior


def test_auxiliary_flux_reduces_to_sip_average():
    interior, exterior = sip_sides(2.0, 3.0, 0.0, 0.0)
    np.testing.assert_allclose(
        auxiliary_numerical_flux(interior, exterior), [2.5]
    )


def test_auxiliary_flux_cancellation():
    interior, exterior = sip_sides(1.0, -1.0, 0.0, 0.0)
    np.testing.assert_allclose(
        auxiliary_numerical_flux(interior, exterior), [0.0], atol=1e-15
    )


def test_primal_flux_continuous_data():
    interior, exterior = sip_sides(2.0, 2.0, 0.7, 0.7)
    np.testing.assert_allclose(
        primal_numerical_flux(interior, exterior, 10.0), [0.7]
    )


def test_primal_flux_canonical_sip():
    interior, exterior = sip_sides(2.0, 1.0, 0.5, 0.3)
    sigma = 4.0
    expect = 0.5 * (0.5 + 0.3) - sigma * (2.0 - 1.0)
    np.testing.assert_allclose(
        primal_numerical_flux(interior, exterior, sigma), [expect]
    )


def test_primal_flux_pure_jump_gives_minus_sigma():
    interior, exterior = sip_sides(1.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(
        primal_numerical_flux(interior, exterior, 7.0), [-7.0]
    )


def test_flux_guards():
    interior, _ = sip_sides(1.0, 0.0, 0.0, 0.0)
    bad = BoundaryData(aux_flux=np.zeros((1, 2)))
    with pytest.raises(TopologyError):
        auxiliary_numerical_flux(interior, bad)
    with pytest.raises(TopologyError):
        primal_numerical_flux(interior, BoundaryData(), 1.0)


# -- ghost data --------------------------------------------------------


def ghost_setup(n_points=3):
    rng = np.random.default_rng(11)
    x = np.stack([np.full(n_points, 1.0), np.linspace(0.2, 0.8, n_points)])
    normal = np.stack([np.ones(n_points), np.zeros(n_points)])
    u = rng.normal(size=(1, n_points))
    aux = normal * u  # rows n_j u for flat Poisson
    deriv = rng.normal(size=(1, n_points))
    pen = u.copy()
    data = BoundaryData(aux_flux=aux, deriv_flux=deriv, penalty_flux=pen, trace=u)
    return x, normal, data


def test_ghost_homogeneous_dirichlet_keeps_aux():
    x, normal, data = ghost_setup()
    ghost = exterior_ghost_data(data, DirichletBC(0.0), POISSON_2D, BG, x, normal)
    np.testing.assert_allclose(ghost.aux_flux, data.aux_flux, atol=1e-15)
    # derivative data mirrors: exterior = interior - 2*interior
    np.testing.assert_allclose(ghost.deriv_flux, -data.deriv_flux, atol=1e-15)
    # penalty combines to -2 sigma u_int against the interior value
    np.testing.assert_allclose(
        ghost.penalty_flux, -data.penalty_flux, atol=1e-15
    )


def test_ghost_inhomogeneous_dirichlet_penalty():
    x, normal, data = ghost_setup()
    c = 0.37
    ghost = exterior_ghost_data(data, DirichletBC(c), POISSON_2D, BG, x, normal)
    np.testing.assert_allclose(
        ghost.aux_flux, data.aux_flux - 2.0 * c * normal, atol=1e-14
    )
    np.testing.assert_allclose(
        ghost.penalty_flux, -data.penalty_flux + 2.0 * c, atol=1e-14
    )


def test_ghost_neumann():
    x, normal, data = ghost_setup()
    g = 1.2
    ghost = exterior_ghost_data(data, NeumannBC(g), POISSON_2D, BG, x, normal)
    np.testing.assert_allclose(
        ghost.deriv_flux, data.deriv_flux - 2.0 * g, atol=1e-14
    )
    # boundary aux value defaults to the interior flux, so exterior flips sign
    np.testing.assert_allclose(ghost.aux_flux, -data.aux_flux, atol=1e-15)
    np.testing.assert_allclose(ghost.penalty_flux, data.penalty_flux, atol=1e-14)


def test_ghost_robin_b0_degrades_to_dirichlet():
    x, normal, data = ghost_setup()
    robin = exterior_ghost_data(
        data, RobinBC(2.0, 0.0, 0.8), POISSON_2D, BG, x, normal
    )
    dirichlet = exterior_ghost_data(
        data, DirichletBC(0.4), POISSON_2D, BG, x, normal
    )
    np.testing.assert_allclose(robin.aux_flux, dirichlet.aux_flux, atol=1e-15)
    np.testing.assert_allclose(robin.deriv_flux, dirichlet.deriv_flux, atol=1e-15)


# -- auxiliary reconstruction ------------------------------------------


def test_reconstruct_linear_1d():
    mesh = unit_mesh_1d(3, lo=-1.0, hi=1.0)
    bcs = BoundaryMap.everywhere(DirichletBC(lambda x: x[0][None]))
    handle = OperatorHandle(mesh, POISSON_1D, BG, bcs)
    u = FieldVector(mesh, 1, [mesh.elements[0].coords()[0][None].copy()])
    v = handle.reconstruct_auxiliary(u)
    np.testing.assert_allclose(v.arrays[0], np.ones((1, 4)), atol=1e-13)


def test_reconstruct_constant_is_zero():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap.everywhere(DirichletBC(4.5))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    u = FieldVector(
        mesh, 1, [np.full((1,) + e.grid_shape, 4.5) for e in mesh.elements]
    )
    v = handle.reconstruct_auxiliary(u)
    assert max(np.max(np.abs(a)) for a in v.arrays) < 1e-13


def test_reconstruct_polynomial_across_elements():
    # jump terms of a globally polynomial field vanish identically
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(1, 0), degrees=(4, 4)
    )
    poly = lambda x: (x[0] ** 3 * x[1] ** 2)[None]
    bcs = BoundaryMap.everywhere(DirichletBC(poly))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    u = FieldVector(mesh, 1, [poly(e.coords()).copy() for e in mesh.elements])
    v = handle.reconstruct_auxiliary(u)
    for vk, el in zip(v.arrays, mesh.elements):
        x, y = el.coords()
        np.testing.assert_allclose(vk[0], 3 * x**2 * y**2, atol=1e-11)
        np.testing.assert_allclose(vk[1], 2 * x**3 * y, atol=1e-11)


# -- operator application ----------------------------------------------


def test_linearized_zero_is_zero():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap(
        {"x-lower": RobinBC(1.0, 1.0, 0.3), "all": DirichletBC(1.0)}
    )
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs).linearized_at()
    res = handle.apply(handle.zero_primal())
    assert all(not a.any() for a in res.arrays)


def test_polynomial_consistency_poisson():
    mesh = unit_mesh_2d(4, 1)
    poly = lambda x: (x[0] ** 3 * x[1] - 2 * x[0] * x[1] + 5)[None]
    bcs = BoundaryMap.everywhere(DirichletBC(poly))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    u = FieldVector(mesh, 1, [poly(e.coords()).copy() for e in mesh.elements])
    res = handle.apply(u)
    for rk, el in zip(res.arrays, mesh.elements):
        x, y = el.coords()
        expect = lumped_mass_diag(el, BG) * (-6 * x * y)
        np.testing.assert_allclose(rk[0], expect, atol=1e-10)


def test_polynomial_consistency_elasticity():
    sys_ = make_system("elasticity", dim=2, lame_lambda=1.0, shear_modulus=1.0)
    mesh = unit_mesh_2d(3, 1)
    poly = lambda x: np.stack([x[0] ** 2 * x[1], x[0] * x[1] ** 2])
    bcs = BoundaryMap.everywhere(DirichletBC(poly))
    handle = OperatorHandle(mesh, sys_, BG, bcs)
    u = FieldVector(mesh, 2, [poly(e.coords()).copy() for e in mesh.elements])
    res = handle.apply(u)
    # stress of u = (x^2 y, x y^2) with lambda = mu = 1:
    # T00 = T11 = 8xy, T01 = x^2 + y^2, so -div T = (-10y, -10x)
    for rk, el in zip(res.arrays, mesh.elements):
        x, y = el.coords()
        m = lumped_mass_diag(el, BG)
        np.testing.assert_allclose(rk[0], m * (-10 * y), atol=1e-10)
        np.testing.assert_allclose(rk[1], m * (-10 * x), atol=1e-10)


def test_constant_with_homogeneous_neumann_is_zero():
    mesh = unit_mesh_2d(3, 0)
    bcs = BoundaryMap.everywhere(NeumannBC(0.0))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs, form="strong")
    u = FieldVector(mesh, 1, [np.full((1, 4, 4), 2.2)])
    res = handle.apply(u)
    assert np.max(np.abs(res.arrays[0])) < 1e-13


def test_compact_stencil_exact_zeros():
    mesh = unit_mesh_2d(2, 2)  # 4x4 elements
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs).linearized_at()
    u = handle.zero_primal()
    u.arrays[15][:] = 1.0  # far corner element
    res = handle.apply(u)
    # element 0 shares no face with element 15; arithmetic stays exactly zero
    assert not res.arrays[0].any()
    assert res.arrays[15].any()


def test_high_resolution_residual_matches_source():
    from ipdg.solutions import make_solution

    sol = make_solution("sin-product", POISSON_2D, BG, {})
    errs = []
    for level in (2, 3):
        mesh = unit_mesh_2d(6, level)
        bcs = BoundaryMap.everywhere(DirichletBC(0.0))
        handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
        u = FieldVector(
            mesh, 1, [sol.field.value(e.coords()).copy() for e in mesh.elements]
        )
        res = handle.apply(u)
        err, scale = 0.0, 0.0
        for rk, el in zip(res.arrays, mesh.elements):
            mf = lumped_mass_diag(el, BG) * sol.fixed_source(el.coords())[0]
            err = max(err, np.max(np.abs(rk[0] - mf)))
            scale = max(scale, np.max(np.abs(mf)))
        errs.append(err / scale)
    assert errs[0] < 1e-4
    assert errs[1] < errs[0] / 2**5  # roughly order P+1 decrease


def test_massless_divides_by_mass():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    massive = OperatorHandle(mesh, POISSON_2D, BG, bcs).linearized_at()
    massless = OperatorHandle(
        mesh, POISSON_2D, BG, bcs, massive=False
    ).linearized_at()
    rng = np.random.default_rng(5)
    u = FieldVector(
        mesh, 1, [rng.normal(size=(1,) + e.grid_shape) for e in mesh.elements]
    )
    ra = massive.apply(u)
    rb = massless.apply(u)
    for a, b, el in zip(ra.arrays, rb.arrays, mesh.elements):
        np.testing.assert_allclose(b, a / lumped_mass_diag(el, BG), atol=1e-12)


def test_symmetry_strong_vs_strong_weak():
    # normal-direction degree differs across the conforming internal face
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(1, 0), degrees=(3, 3)
    )
    mesh = with_degrees(mesh, 0, (5, 3))
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    defects = {}
    for form in ("strong", "strong-weak"):
        a = assemble(
            OperatorHandle(mesh, POISSON_2D, BG, bcs, form=form).linearized_at()
        )
        defects[form] = np.max(np.abs(a - a.T)) / np.max(np.abs(a))
    assert defects["strong-weak"] <= 1e-12
    assert defects["strong"] >= 1e-3


# -- field vectors -----------------------------------------------------


def test_fieldvector_layout():
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(1, 0), degrees=(1, 2)
    )
    fv = FieldVector.zeros(mesh, 2)
    # component 0, element 0: mark grid point (i=1, j=0); first dim fastest
    fv.arrays[0][0, 1, 0] = 3.0
    fv.arrays[1][1, 0, 2] = 4.0  # component 1, element 1, point (0, 2)
    flat = fv.to_flat()
    assert flat[1] == 3.0
    assert flat[2 * 6 + 6 + 4] == 4.0
    back = FieldVector.from_flat(mesh, 2, flat)
    for a, b in zip(back.arrays, fv.arrays):
        np.testing.assert_array_equal(a, b)


def test_fieldvector_flat_round_trip_mixed_grid_shapes():
    # three grid shapes, the (2, 3) elements not consecutive in mesh order
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(1, 1), degrees=(1, 2)
    )
    mesh = with_degrees(with_degrees(mesh, 1, (3, 1)), 2, (2, 2))
    sizes = [el.n_points for el in mesh.elements]
    assert len({el.grid_shape for el in mesh.elements}) == 3
    flat = np.arange(2.0 * sum(sizes))
    fv = FieldVector.from_flat(mesh, 2, flat)
    np.testing.assert_array_equal(fv.to_flat(), flat)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    for k, (arr, el) in enumerate(zip(fv.arrays, mesh.elements)):
        assert arr.shape == (2,) + el.grid_shape
        for c in range(2):
            start = c * sum(sizes) + offsets[k]
            np.testing.assert_array_equal(
                arr[c].ravel(order="F"), flat[start:start + sizes[k]]
            )
    # writes through an element view reach the flat buffer
    fv.arrays[2][1, 2, 0] = -7.0
    pos = sum(sizes) + offsets[2] + 2
    assert fv.to_flat()[pos] == -7.0
    # building from element arrays gives the same flat vector
    again = FieldVector(mesh, 2, [a.copy() for a in fv.arrays])
    np.testing.assert_array_equal(again.to_flat(), fv.to_flat())
    # to_flat hands out a copy, from_flat takes one
    out = fv.to_flat()
    out[0] = 99.0
    assert fv.arrays[0][0, 0, 0] == 0.0
    flat[0] = 99.0
    assert fv.to_flat()[0] == 0.0


def test_fieldvector_size_guard():
    mesh = unit_mesh_1d(2)
    with pytest.raises(ValueError):
        FieldVector.from_flat(mesh, 1, np.zeros(4))


# -- full operator and rhs ---------------------------------------------


def test_full_operator_consistent_with_compact():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap.everywhere(DirichletBC(lambda x: x[0][None]))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    rng = np.random.default_rng(9)
    u = FieldVector(
        mesh, 1, [rng.normal(size=(1,) + e.grid_shape) for e in mesh.elements]
    )
    v = handle.reconstruct_auxiliary(u)
    res_v, res_u = handle.apply_full(v, u)
    assert max(np.max(np.abs(a)) for a in res_v.arrays) < 1e-11
    compact = handle.apply(u)
    for a, b in zip(res_u.arrays, compact.arrays):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_full_operator_mass_block():
    # the auxiliary-auxiliary block is exactly the lumped mass
    mesh = unit_mesh_1d(2, level=1)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, POISSON_1D, BG, bcs).linearized_at()
    na = handle.n_auxiliary_dofs
    masses = np.concatenate(
        [lumped_mass_diag(e, BG).ravel(order="F") for e in mesh.elements]
    )
    for j in range(na):
        e = np.zeros(na + handle.n_primal_dofs)
        e[j] = 1.0
        col = handle.matvec_full(e)
        assert col[j] == pytest.approx(masses[j], rel=1e-14)


def test_batch_matches_single_vectors():
    # point-dependent data for every condition kind, no linearization, two
    # grid shapes and p-nonconforming mortars: each vector of a batch gets
    # exactly the residual it gets alone
    mesh = with_degrees(unit_mesh_2d(3, 1), 3, (4, 2))
    bcs = BoundaryMap({
        "x-lower": RobinBC(1.0, 2.0, lambda x: x[1]),
        "y-upper": NeumannBC(lambda x: np.cos(2.0 * x[0])),
        "all": DirichletBC(lambda x: np.sin(3.0 * x[0]) * x[1]),
    })
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs, form="strong-weak")
    rng = np.random.default_rng(4)
    us = rng.standard_normal((3, handle.n_primal_dofs))
    vs = rng.standard_normal((3, handle.n_auxiliary_dofs))
    res = handle.apply(FieldVector.batch(mesh, 1, us)).data
    assert res.shape == us.shape
    for u, r in zip(us, res):
        np.testing.assert_array_equal(r, handle.matvec(u))
    rv, ru = handle.apply_full(FieldVector.batch(mesh, 2, vs), FieldVector.batch(mesh, 1, us))
    for v, u, a, b in zip(vs, us, rv.data, ru.data):
        np.testing.assert_array_equal(
            np.concatenate([a, b]), handle.matvec_full(np.concatenate([v, u]))
        )


def test_batch_guards():
    mesh = unit_mesh_1d(2)
    handle = OperatorHandle(mesh, POISSON_1D, BG, BoundaryMap.everywhere(DirichletBC(0.0)))
    for rows in (np.zeros((2, 4)), np.zeros(3)):
        with pytest.raises(ValueError):
            FieldVector.batch(mesh, 1, rows)
    batch = FieldVector.batch(mesh, 1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        batch.arrays
    with pytest.raises(ValueError):
        handle.apply_full(FieldVector.batch(mesh, 1, np.zeros((3, 3))), batch)


def test_build_rhs_homogeneous_dirichlet():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    f = lambda x: np.ones((1,) + x.shape[1:])
    rhs = handle.build_rhs(f)
    for rk, el in zip(rhs.arrays, mesh.elements):
        np.testing.assert_array_equal(rk[0], lumped_mass_diag(el, BG))


@pytest.mark.parametrize("massive", [True, False])
def test_build_rhs_given_field_on_mixed_grids(massive):
    # a callable and a FieldVector give the same M f (f when massless), with
    # the groups of a mixed-degree mesh interleaved in the flat order
    mesh = with_degrees(with_degrees(unit_mesh_2d(3, 1), 1, (2, 4)), 3, (2, 4))
    handle = OperatorHandle(
        mesh, POISSON_2D, BG, BoundaryMap.everywhere(DirichletBC(1.0)), massive=massive
    )
    f = lambda x: np.sin(x[:1] + 2.0 * x[1:])
    given = FieldVector(mesh, 1, [f(el.coords()) for el in mesh.elements])
    rhs = handle.build_rhs(given)
    np.testing.assert_array_equal(rhs.data, handle.build_rhs(f).data)
    for rk, gk, el in zip(rhs.arrays, given.arrays, mesh.elements):
        np.testing.assert_array_equal(rk, lumped_mass_diag(el, BG) * gk if massive else gk)
    assert not np.shares_memory(rhs.data, given.data)


def test_build_rhs_inhomogeneous_confined_to_boundary_elements():
    mesh = unit_mesh_2d(3, 1)
    inhom = BoundaryMap({"x-lower": DirichletBC(2.0), "all": DirichletBC(0.0)})
    hom = BoundaryMap.everywhere(DirichletBC(0.0))
    # build_rhs is M f alone; the boundary term lives in the residual A(0)
    zero_residual = [
        OperatorHandle(mesh, POISSON_2D, BG, bcs).apply(FieldVector.zeros(mesh, 1)).arrays
        for bcs in (inhom, hom)
    ]
    delta = [a - b for a, b in zip(*zero_residual)]
    touched = {k for k, d in enumerate(delta) if d.any()}
    boundary = {
        k
        for k, el in enumerate(mesh.elements)
        if abs(el.coords()[0].min()) < 1e-12
    }
    assert touched == boundary


def point_ordered(arr, k):
    """Flatten the last k (face grid) axes, the first of them fastest."""
    lead = arr.ndim - k
    order = (*range(lead), *range(arr.ndim - 1, lead - 1, -1))
    return arr.transpose(order).reshape(arr.shape[:lead] + (-1,))


def split_annulus():
    return split_element(build_annulus_mesh(0.5, 1.0, 3, (0, 0), (3, 4)), 1), BG


def split_box_3d():
    mesh = build_rectilinear_mesh([(0.0, 1.0), (0.0, 2.0), (0.0, 0.5)], (1, 0, 0), (2, 3, 2))
    return split_element(mesh, 0), BG


def raised_curved():
    curved = ConformallyFlatBackground(
        lambda x: 0.1 * x[0] - 0.05 * x[1],
        lambda x: np.stack([0.1 * np.ones_like(x[0]), -0.05 * np.ones_like(x[0])]),
    )
    return with_degrees(with_degrees(unit_mesh_2d(3, 1), 1, (2, 5)), 2, (4, 4)), curved


@pytest.mark.parametrize("case", [split_annulus, split_box_3d, raised_curved])
def test_face_buffer_geometry_matches_face_geometry(case):
    # the stacked per-group geometry against the public per-face evaluation
    mesh, bg = case()
    system = make_system("poisson-flat", dim=mesh.dim)
    cache = OperatorHandle(mesh, system, bg, BoundaryMap.everywhere(DirichletBC(0.0)))._cache
    assert len(cache.face_spans) == 2 * mesh.dim * mesh.n_elements
    k = mesh.dim - 1
    for (element, dim, side), span in cache.face_spans.items():
        fg = face_geometry(bg, mesh.elements[element], dim, side)
        pairs = [
            (cache.face_coords[:, span], fg.coords),
            (cache.face_normal[:, span], fg.normal),
            (cache.face_h[span], 2.0 / fg.normal_magnitude),
            (cache.face_measure[span], fg.surface_measure),
        ]
        for got, want in pairs:
            want = point_ordered(want, k)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_full_rhs_confined_to_face_points():
    # in the first-order system, boundary data enters only through lifted
    # face terms
    mesh = unit_mesh_2d(3, 0)
    bcs = BoundaryMap({"x-upper": DirichletBC(1.0), "all": DirichletBC(0.0)})
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    rv, ru = handle.apply_full(
        FieldVector.zeros(mesh, 2), FieldVector.zeros(mesh, 1)
    )
    for arr in (rv.arrays[0], ru.arrays[0]):
        assert not arr[..., :-1, :].any()


def test_nan_guard_names_element():
    mesh = unit_mesh_1d(2)
    bcs = BoundaryMap.everywhere(DirichletBC(lambda x: np.full_like(x, np.nan)))
    handle = OperatorHandle(mesh, POISSON_1D, BG, bcs)
    u = FieldVector.zeros(mesh, 1)
    with pytest.raises(FloatingPointError, match="B0"):
        handle.apply(u)


def test_nan_guard_names_element_in_batch():
    # a NaN in the last element of the second of two vectors: the batch names
    # the element that this vector alone names, whatever else the batch holds
    mesh = unit_mesh_1d(2, level=2)
    handle = OperatorHandle(mesh, POISSON_1D, BG, BoundaryMap.everywhere(DirichletBC(0.0)))
    rows = np.zeros((2, mesh.total_points))
    rows[1, -2] = np.nan
    with pytest.raises(FloatingPointError) as alone:
        handle.apply(FieldVector.from_flat(mesh, 1, rows[1]))
    named = alone.value.args[0]
    assert mesh.elements[0].id_string() not in named
    with pytest.raises(FloatingPointError) as batch:
        handle.apply(FieldVector.batch(mesh, 1, rows))
    assert batch.value.args[0] == named


def test_handle_validation():
    mesh = unit_mesh_2d(2, 0)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    with pytest.raises(ConfigurationError):
        OperatorHandle(mesh, POISSON_1D, BG, bcs)
    with pytest.raises(ConfigurationError):
        OperatorHandle(mesh, POISSON_2D, BG, bcs, form="weak-weak")
    with pytest.raises(ConfigurationError):
        OperatorHandle(mesh, POISSON_2D, BG, bcs, penalty_parameter=-1.0)
    with pytest.raises(ConfigurationError):
        OperatorHandle(
            mesh, POISSON_2D, BG, BoundaryMap({"x-lower": DirichletBC(0.0)})
        )


def test_puncture_collocation_guard():
    from ipdg.errors import SingularPointError
    from ipdg.systems import PunctureSpec

    sys_ = make_system(
        "puncture", dim=3, punctures=[PunctureSpec(1.0, (0.0, 0.0, 0.0))]
    )
    mesh = build_rectilinear_mesh(
        [(-1.0, 1.0)] * 3, levels=(0, 0, 0), degrees=(2, 2, 2)
    )
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    with pytest.raises(SingularPointError):
        OperatorHandle(mesh, sys_, BG, bcs)
