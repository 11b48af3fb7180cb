"""Element building blocks, flux exchange, and whole-operator properties."""

import itertools

import numpy as np
import pytest

from ipdg.background import ConformallyFlatBackground, FlatBackground, sampled_face_geometry
from ipdg.basis import gauss_lobatto_nodes_weights
from ipdg.boundaries import (
    BoundaryCondition,
    BoundaryMap,
    DirichletBC,
    FalloffDirichletBC,
    NeumannBC,
    RobinBC,
)
from ipdg.errors import (
    ConfigurationError,
    DegenerateGeometryError,
    TopologyError,
)
from ipdg.mesh import (
    Mesh,
    MeshTopology,
    build_annulus_mesh,
    build_rectilinear_mesh,
    jacobian_at,
    mortar_topology,
    split_element,
    with_degrees,
)
from ipdg import operators
from ipdg.mortars import mortar_logical_weights, prolongation_matrix
from ipdg.operators import (
    FieldVector,
    OperatorHandle,
    _Group,
    _apply_1d,
    _element_groups,
    _boundary_values,
    auxiliary_numerical_flux,
    exterior_ghost_data,
    lumped_mass_diag,
    penalty_sigma,
    primal_numerical_flux,
)
from ipdg.systems import Puncture, PunctureSpec, make_system

BG = FlatBackground()
POISSON_1D = make_system("poisson-flat", dim=1)
POISSON_2D = make_system("poisson-flat", dim=2)


def unit_mesh_1d(degree, level=0, lo=0.0, hi=1.0):
    return build_rectilinear_mesh([(lo, hi)], levels=(level,), degrees=(degree,))


def unit_mesh_2d(degree, level):
    return build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(level, level), degrees=(degree, degree)
    )


def flat_points(mesh):
    """The collocation points (d, points) in the flat DoF order."""
    return np.concatenate(
        [el.coords().reshape(mesh.dim, -1, order="F") for el in mesh.elements], axis=1
    )


def interpolant(mesh, fn, n_components=1):
    """The values of `fn` (points (d, n) to (n_components, n)) at every DoF."""
    return FieldVector.from_flat(mesh, n_components, fn(flat_points(mesh)))


def flat_mass(mesh, background=BG):
    """The lumped mass of every element in the flat DoF order, from `lumped_mass_diag`."""
    return np.concatenate(
        [lumped_mass_diag(el, background).ravel(order="F") for el in mesh.elements]
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
#
# on one element alone as the operator's `_Group`, whose arrays are stacked in
# point order, (..., 1 element, n_{d-1}, ..., n_0)


def test_stiffness_constant_flux_is_zero():
    group = _Group(unit_mesh_2d(3, 0).elements, [0], [0], BG, 0)
    out = group.stiffness(np.ones((1, 2) + group.shape), "strong")
    assert np.max(np.abs(out)) < 1e-13


def test_stiffness_1d_quadratic():
    # F = xi^2 on [-1,1], n=4: exact polynomial differentiation gives M * 2xi
    el = build_rectilinear_mesh([(-1.0, 1.0)], levels=(0,), degrees=(3,)).elements[0]
    group = _Group([el], [0], [0], BG, 0)
    (x,) = group.coords
    out = group.stiffness((x**2)[None, None], "strong")
    expect = lumped_mass_diag(el, BG) * 2.0 * x
    np.testing.assert_allclose(out[0], expect, atol=1e-13)


def test_stiffness_2d_polynomial_divergence():
    el = unit_mesh_2d(4, 0).elements[0]
    group = _Group([el], [0], [0], BG, 0)
    x, y = group.coords
    out = group.stiffness(np.stack([x**2 * y, x * y])[None], "strong")
    expect = lumped_mass_diag(el, BG).T * (2 * x * y + x)
    np.testing.assert_allclose(out[0], expect, atol=1e-12)


def test_stiffness_strong_plus_weak_is_boundary_flux():
    # discrete Gauss identity: summing both forms leaves the face quadrature
    # of n_i F^i, the massive lift of the outward normal flux
    group = _Group(unit_mesh_2d(8, 0).elements, [0], [0], BG, 0)
    x, y = group.coords
    f = np.stack([np.sin(x + y), np.cos(x - y)])[None]
    total = (group.stiffness(f, "strong") + group.stiffness(f, "weak")).sum()
    traces = group.traces(f)
    boundary = 0.0
    for face in group.faces:
        dim, side = face.key
        boundary += lift_face(group, dim, side, side * traces[:, dim, face.span]).sum()
    assert abs(total - boundary) < 1e-10


def test_stiffness_rejects_unknown_form():
    with pytest.raises(ConfigurationError, match="operator.form"):
        OperatorHandle(unit_mesh_1d(2), POISSON_1D, BG,
                       BoundaryMap.everywhere(DirichletBC(0.0)), form="flux")


# -- lifting -----------------------------------------------------------


def lift_face(group, dim, side, face_values, massive=True):
    """(components, face points) data on face (dim, side) of a one-element
    group, lifted into a new (components, *group.shape) volume array."""
    face = next(f for f in group.faces if f.key == (dim, side))
    buf = np.zeros((len(face_values), group.face_end))
    buf[:, face.span] = face_values
    out = np.zeros((len(face_values),) + group.shape)
    group.lift(out, buf, massive)
    return out


def test_lifting_1d_reference_values():
    el = build_rectilinear_mesh([(-1.0, 1.0)], levels=(0,), degrees=(2,)).elements[0]
    group = _Group([el], [0], [0], BG, 0)
    massless = lift_face(group, 0, +1, np.array([[1.0]]), massive=False)
    np.testing.assert_allclose(massless[:, 0], [[0.0, 0.0, 3.0]], atol=1e-14)
    massive = lift_face(group, 0, +1, np.array([[1.0]]))
    np.testing.assert_allclose(massive[:, 0], [[0.0, 0.0, 1.0]], atol=1e-14)


def test_lifting_zero_data():
    group = _Group(unit_mesh_2d(3, 0).elements, [0], [0], BG, 0)
    assert not lift_face(group, 1, -1, np.zeros((2, 4))).any()


def test_lifting_interior_points_exactly_zero():
    # the face dim 0, side +1 is the last point along the fastest axis
    group = _Group(unit_mesh_2d(4, 0).elements, [0], [0], BG, 0)
    out = lift_face(group, 0, +1, np.random.default_rng(3).normal(size=(1, 5)))
    assert not out[0, 0, :, :-1].any()
    assert out[0, 0, :, -1].all()


def _face_index(face):
    """The face of `face.key` as an index into a point-ordered volume array."""
    dim, side = face.key
    return (Ellipsis, 0 if side < 0 else -1) + (slice(None),) * dim


def per_face_traces(group, volume, buf):
    """Reference for `_Group.traces`: one strided copy per face key."""
    for face in group.faces:
        buf[..., face.span] = volume[_face_index(face)].reshape(buf.shape[:-1] + (-1,))


def per_face_lift(group, volume, buf, massive):
    """Reference for `_Group.lift`: one strided update per face key, in
    face-key order, with the group's lifting weights of that face."""
    for face in group.faces:
        span = slice(face.span.start - group.face_start, face.span.stop - group.face_start)
        weight = group._lift_weights[massive][span].reshape(face.shape)
        values = buf[..., face.span].reshape(buf.shape[:-1] + face.shape)
        volume[_face_index(face)] += values * weight


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_gather_and_scatter_match_the_per_face_loop(dim, seed):
    # one gather and one scatter-add per group give bit for bit what one
    # strided copy or update per face key gives, on meshes with split and
    # raised elements (several groups), for one vector and a batch of 3,
    # massive and massless; a point on several faces (an edge or corner)
    # gets their terms in the same order
    rng = np.random.default_rng(seed)
    mesh = build_rectilinear_mesh([(0.0, 1.0)] * dim, (1,) * dim, tuple(rng.integers(1, 4, dim)))
    mesh = split_element(mesh, int(rng.integers(mesh.n_elements)))
    for _ in range(2):
        k = int(rng.integers(mesh.n_elements))
        mesh = with_degrees(mesh, k, tuple(int(p) for p in rng.integers(1, 5, dim)))
    groups = _element_groups(mesh, BG)
    assert len(groups) > 1
    n_face_points = groups[-1].face_end
    for lead in ((2,), (2, 3)):
        buf = rng.standard_normal(lead + (n_face_points,))
        traces, expected = buf.copy(), buf.copy()
        for g in groups:
            volume = rng.standard_normal(lead + g.shape)
            traces[..., g.face_start:g.face_end] = g.traces(volume)
            per_face_traces(g, volume, expected)
            for massive in (False, True):
                lifted, reference = volume.copy(), volume.copy()
                g.lift(lifted, buf, massive)
                per_face_lift(g, reference, buf, massive)
                assert np.array_equal(lifted, reference)
                assert not np.array_equal(lifted, volume)
        assert np.array_equal(traces, expected)
        assert not np.array_equal(traces, buf)


def test_lift_rejects_a_non_contiguous_volume():
    # its flat view would be a copy, and the lifted terms would be lost
    group = _Group(unit_mesh_2d(3, 0).elements, [0], [0], BG, 0)
    volume = np.zeros((4,) + group.shape)[::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        group.lift(volume, np.ones((2, group.face_end)), True)
    assert not volume.any()


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
    # a degree per point (or per row) gives what each scalar call gives
    p_int, p_ext = np.array([[2], [4]]), np.array([[3], [1]])
    h = np.array([[0.5, 0.1], [0.2, 0.4]])
    got = penalty_sigma(p_int, p_ext, h, h, 1.5)
    for i in range(2):
        np.testing.assert_array_equal(
            got[i], penalty_sigma(int(p_int[i, 0]), int(p_ext[i, 0]), h[i], h[i], 1.5)
        )


def test_penalty_rejects_nonpositive_h():
    with pytest.raises(DegenerateGeometryError):
        penalty_sigma(2, 2, 0.5, 0.0, 1.0)


# -- numerical fluxes --------------------------------------------------


def sip_sides(u_int, u_ext, g_int, g_ext, normal=1.0):
    """Flat 1D Poisson (aux, deriv, pen) arrays of both sides of a conforming face."""
    n = np.array([normal])
    interior = (n * u_int, n * g_int, np.array([u_int]))
    exterior = (-n * u_ext, -n * g_ext, np.array([u_ext]))
    return interior, exterior


def aux_star(interior, exterior):
    return auxiliary_numerical_flux(interior[0], exterior[0])


def primal_star(interior, exterior, sigma):
    return primal_numerical_flux(*interior[1:], *exterior[1:], sigma)


def test_auxiliary_flux_reduces_to_sip_average():
    np.testing.assert_allclose(aux_star(*sip_sides(2.0, 3.0, 0.0, 0.0)), [2.5])


def test_auxiliary_flux_cancellation():
    np.testing.assert_allclose(
        aux_star(*sip_sides(1.0, -1.0, 0.0, 0.0)), [0.0], atol=1e-15
    )


def test_primal_flux_continuous_data():
    np.testing.assert_allclose(
        primal_star(*sip_sides(2.0, 2.0, 0.7, 0.7), 10.0), [0.7]
    )


def test_primal_flux_canonical_sip():
    sigma = 4.0
    expect = 0.5 * (0.5 + 0.3) - sigma * (2.0 - 1.0)
    np.testing.assert_allclose(
        primal_star(*sip_sides(2.0, 1.0, 0.5, 0.3), sigma), [expect]
    )


def test_primal_flux_pure_jump_gives_minus_sigma():
    np.testing.assert_allclose(
        primal_star(*sip_sides(1.0, 0.0, 0.0, 0.0), 7.0), [-7.0]
    )


# -- ghost data --------------------------------------------------------


class QuadraticFluxBC(BoundaryCondition):
    """Neumann-kind flux -u/2 - u^2/10, linearized by the base class's
    finite differences."""

    kind = "neumann"

    def values(self, x, normal, u_trace):
        u = np.asarray(u_trace)
        return -0.5 * u - 0.1 * u**2


def ghost_setup(n_points=3, seed=11):
    """Points, normals and the interior (trace, aux, deriv, pen) of a face."""
    rng = np.random.default_rng(seed)
    x = np.stack([np.full(n_points, 1.0), np.linspace(0.2, 0.8, n_points)])
    normal = np.stack([np.ones(n_points), np.zeros(n_points)])
    u = rng.normal(size=(1, n_points))
    aux = normal * u  # rows n_j u for flat Poisson
    deriv = rng.normal(size=(1, n_points))
    return x, normal, (u, aux, deriv, u.copy())


def ghost(bc, x, normal, data, point=None):
    """The ghost (aux, deriv, pen) the operator forms from the condition's
    boundary-array entry: the interior's own value stands in for the one
    the condition's kind does not give, and the penalty ghost is
    2 n F_u(aux*) - pen with aux* the auxiliary numerical flux."""
    u, aux, deriv, pen = data
    boundary = _boundary_values(bc, POISSON_2D, x, normal, u, point)
    dirichlet = bc.kind == "dirichlet"
    g_aux = exterior_ghost_data(aux, boundary if dirichlet else aux)
    g_deriv = exterior_ghost_data(deriv, deriv if dirichlet else boundary)
    star = auxiliary_numerical_flux(aux, g_aux)
    flux = POISSON_2D.primal_flux(star, POISSON_2D.background_fields(x, BG))
    return g_aux, g_deriv, 2.0 * np.einsum("i...,ci...->c...", normal, flux) - pen


def test_ghost_homogeneous_dirichlet_keeps_aux():
    x, normal, data = ghost_setup()
    u, aux, deriv, pen = data
    g_aux, g_deriv, g_pen = ghost(DirichletBC(0.0), x, normal, data)
    np.testing.assert_allclose(g_aux, aux, atol=1e-15)
    # derivative data mirrors: exterior = interior - 2*interior
    np.testing.assert_allclose(g_deriv, -deriv, atol=1e-15)
    # penalty combines to -2 sigma u_int against the interior value
    np.testing.assert_allclose(g_pen, -pen, atol=1e-15)


def test_ghost_inhomogeneous_dirichlet_penalty():
    x, normal, data = ghost_setup()
    u, aux, deriv, pen = data
    c = 0.37
    g_aux, _, g_pen = ghost(DirichletBC(c), x, normal, data)
    np.testing.assert_allclose(g_aux, aux - 2.0 * c * normal, atol=1e-14)
    np.testing.assert_allclose(g_pen, -pen + 2.0 * c, atol=1e-14)


def test_ghost_neumann():
    x, normal, data = ghost_setup()
    u, aux, deriv, pen = data
    g = 1.2
    g_aux, g_deriv, g_pen = ghost(NeumannBC(g), x, normal, data)
    np.testing.assert_allclose(g_deriv, deriv - 2.0 * g, atol=1e-14)
    # boundary aux value defaults to the interior flux, so exterior flips sign
    np.testing.assert_allclose(g_aux, -aux, atol=1e-15)
    np.testing.assert_allclose(g_pen, pen, atol=1e-14)


def test_ghost_robin_b0_degrades_to_dirichlet():
    x, normal, data = ghost_setup()
    robin = ghost(RobinBC(2.0, 0.0, 0.8), x, normal, data)
    dirichlet = ghost(DirichletBC(0.4), x, normal, data)
    for r, d in zip(robin, dirichlet):
        np.testing.assert_allclose(r, d, atol=1e-15)


@pytest.mark.parametrize(
    "bc",
    [RobinBC(2.0, 0.5, 0.8), DirichletBC(0.37), FalloffDirichletBC(0.7, center=(0.0, 0.0))],
    ids=["robin", "dirichlet", "falloff"],
)
def test_linearized_ghost_is_derivative_of_ghost(bc):
    # the ghost map at u0 perturbed both ways, against the linearized map
    # on the perturbation; the data differ from the linearized ones, so a
    # map that ignored the linearization point would not match
    x, normal, point = ghost_setup()
    _, _, pert = ghost_setup(seed=12)
    step = 1e-6
    plus, minus = (
        ghost(bc, x, normal, [p + s * step * d for p, d in zip(point, pert)])
        for s in (1.0, -1.0)
    )
    lin = ghost(bc, x, normal, pert, point=point[0])
    for got, a, b in zip(lin, plus, minus):
        fd = (a - b) / (2.0 * step)
        np.testing.assert_allclose(got, fd, rtol=1e-8, atol=1e-8 * np.abs(fd).max())


# -- auxiliary reconstruction ------------------------------------------


def test_reconstruct_linear_1d():
    mesh = unit_mesh_1d(3, lo=-1.0, hi=1.0)
    bcs = BoundaryMap.everywhere(DirichletBC(lambda x: x[0][None]))
    handle = OperatorHandle(mesh, POISSON_1D, BG, bcs)
    v = handle.reconstruct_auxiliary(interpolant(mesh, lambda x: x))
    np.testing.assert_allclose(v.data, np.ones(4), atol=1e-13)


def test_reconstruct_constant_is_zero():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap.everywhere(DirichletBC(4.5))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    u = FieldVector.from_flat(mesh, 1, np.full(mesh.total_points, 4.5))
    v = handle.reconstruct_auxiliary(u)
    assert np.max(np.abs(v.data)) < 1e-13


def test_reconstruct_polynomial_across_elements():
    # jump terms of a globally polynomial field vanish identically
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(1, 0), degrees=(4, 4)
    )
    poly = lambda x: (x[0] ** 3 * x[1] ** 2)[None]
    bcs = BoundaryMap.everywhere(DirichletBC(poly))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    v = handle.reconstruct_auxiliary(interpolant(mesh, poly)).data.reshape(2, -1)
    x, y = flat_points(mesh)
    np.testing.assert_allclose(v[0], 3 * x**2 * y**2, atol=1e-11)
    np.testing.assert_allclose(v[1], 2 * x**3 * y, atol=1e-11)


# -- operator application ----------------------------------------------


def test_linearized_zero_is_zero():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap(
        {"x-lower": RobinBC(1.0, 1.0, 0.3), "all": DirichletBC(1.0)}
    )
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs).linearized_at()
    res = handle.apply(handle.zero_primal())
    assert not res.data.any()


def split_square_with_every_condition():
    mesh = split_element(with_degrees(unit_mesh_2d(3, 1), 3, (4, 3)), 0)
    bcs = BoundaryMap({
        "x-lower": QuadraticFluxBC(),
        "y-upper": RobinBC(1.0, 2.0, lambda x, normal: x[0] + 0.5),
        "all": DirichletBC(lambda x: np.sin(3.0 * x[0]) * x[1]),
    })
    return OperatorHandle(mesh, POISSON_2D, BG, bcs, form="strong-weak"), 1.0


def puncture_cube():
    mesh = build_rectilinear_mesh([(1.0, 2.0)] * 3, (1, 0, 0), (2, 2, 2))
    system = make_system("puncture", dim=3, punctures=[
        PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3), spin=(0.0, 0.1, 0.0)),
    ])
    bcs = BoundaryMap({"all": FalloffDirichletBC(0.2)})
    return OperatorHandle(mesh, system, BG, bcs, form="strong-weak"), 0.1


@pytest.mark.parametrize("case", [split_square_with_every_condition, puncture_cube])
def test_linearized_apply_is_derivative_of_apply(case):
    # the whole operator, boundary data and nonlinear source included: the
    # handle linearized at u0 on du against the central difference of the
    # nonlinear residual at u0 +- step du
    handle, scale = case()
    rng = np.random.default_rng(21)
    n = handle.n_primal_dofs
    u0 = FieldVector.from_flat(handle.mesh, 1, scale * rng.standard_normal(n))
    du = rng.standard_normal(n)
    step = 1e-6
    plus, minus = (handle.matvec(u0.to_flat() + s * step * du) for s in (1.0, -1.0))
    fd = (plus - minus) / (2.0 * step)
    lin = handle.linearized_at(u0).matvec(du)
    np.testing.assert_allclose(lin, fd, rtol=0, atol=1e-8 * np.abs(fd).max())


def test_polynomial_consistency_poisson():
    mesh = unit_mesh_2d(4, 1)
    poly = lambda x: (x[0] ** 3 * x[1] - 2 * x[0] * x[1] + 5)[None]
    bcs = BoundaryMap.everywhere(DirichletBC(poly))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    res = handle.apply(interpolant(mesh, poly))
    x, y = flat_points(mesh)
    np.testing.assert_allclose(res.data, flat_mass(mesh) * (-6 * x * y), atol=1e-10)


def test_polynomial_consistency_elasticity():
    sys_ = make_system("elasticity", dim=2, lame_lambda=1.0, shear_modulus=1.0)
    mesh = unit_mesh_2d(3, 1)
    poly = lambda x: np.stack([x[0] ** 2 * x[1], x[0] * x[1] ** 2])
    bcs = BoundaryMap.everywhere(DirichletBC(poly))
    handle = OperatorHandle(mesh, sys_, BG, bcs)
    res = handle.apply(interpolant(mesh, poly, 2)).data.reshape(2, -1)
    # stress of u = (x^2 y, x y^2) with lambda = mu = 1:
    # T00 = T11 = 8xy, T01 = x^2 + y^2, so -div T = (-10y, -10x)
    x, y = flat_points(mesh)
    m = flat_mass(mesh)
    np.testing.assert_allclose(res[0], m * (-10 * y), atol=1e-10)
    np.testing.assert_allclose(res[1], m * (-10 * x), atol=1e-10)


def test_constant_with_homogeneous_neumann_is_zero():
    mesh = unit_mesh_2d(3, 0)
    bcs = BoundaryMap.everywhere(NeumannBC(0.0))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs, form="strong")
    res = handle.apply(FieldVector.from_flat(mesh, 1, np.full(16, 2.2)))
    assert np.max(np.abs(res.data)) < 1e-13


def test_compact_stencil_exact_zeros():
    mesh = unit_mesh_2d(2, 2)  # 4x4 elements
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs).linearized_at()
    u = handle.zero_primal()
    offsets = mesh.point_offsets
    u.data[offsets[15]:] = 1.0  # far corner element
    res = handle.apply(u).data
    # element 0 shares no face with element 15; arithmetic stays exactly zero
    assert not res[:offsets[1]].any()
    assert res[offsets[15]:].any()


def test_high_resolution_residual_matches_source():
    from ipdg.solutions import make_solution

    sol = make_solution("sin-product", POISSON_2D, BG, {})
    errs = []
    for level in (2, 3):
        mesh = unit_mesh_2d(6, level)
        bcs = BoundaryMap.everywhere(DirichletBC(0.0))
        handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
        res = handle.apply(interpolant(mesh, sol.field.value))
        mf = flat_mass(mesh) * sol.fixed_source(flat_points(mesh))[0]
        errs.append(np.max(np.abs(res.data - mf)) / np.max(np.abs(mf)))
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
    u = FieldVector.from_flat(mesh, 1, rng.normal(size=mesh.total_points))
    ra = massive.apply(u)
    rb = massless.apply(u)
    np.testing.assert_allclose(rb.data, ra.data / flat_mass(mesh), atol=1e-12)


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
    # the element groups read a flat vector component-major, then by
    # element, then grid point with the first dimension fastest
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(1, 0), degrees=(1, 2)
    )
    fv = FieldVector.zeros(mesh, 2)
    fv.data[1] = 3.0  # component 0, element 0, grid point (i=1, j=0)
    fv.data[2 * 6 + 6 + 4] = 4.0  # component 1, element 1, point (0, 2)
    (group,) = _element_groups(mesh, BG)
    # (components, elements, n_1, n_0): grid dimension j on axis -1-j
    stacked = group.take(fv.data.reshape(2, -1))
    assert stacked.shape == (2, 2, 3, 2)
    assert stacked[0, 0, 0, 1] == 3.0
    assert stacked[1, 1, 2, 0] == 4.0
    assert np.count_nonzero(stacked) == 2


def test_fieldvector_flat_round_trip_mixed_grid_shapes():
    # three grid shapes, the (2, 3) elements not consecutive in mesh order
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(1, 1), degrees=(1, 2)
    )
    mesh = with_degrees(with_degrees(mesh, 1, (3, 1)), 2, (2, 2))
    sizes = [el.n_points for el in mesh.elements]
    groups = _element_groups(mesh, BG)
    assert len(groups) == 3
    flat = np.arange(2.0 * sum(sizes))
    fv = FieldVector.from_flat(mesh, 2, flat)
    np.testing.assert_array_equal(fv.to_flat(), flat)
    rows = fv.data.reshape(2, -1)
    offsets = mesh.point_offsets
    back = np.full_like(rows, np.nan)
    for g in groups:
        stacked = g.take(rows)
        for e, k in enumerate(g.members):
            el = mesh.elements[k]
            # each member's points, and its coordinates, in point order
            np.testing.assert_array_equal(
                stacked[:, e].reshape(2, -1), rows[:, offsets[k]:offsets[k + 1]]
            )
            np.testing.assert_array_equal(
                g.coords[:, e].reshape(2, -1), el.coords().reshape(2, -1, order="F")
            )
        g.put(back, stacked)
    np.testing.assert_array_equal(back, rows)
    # the constructor wraps its buffer; to_flat hands out a copy, from_flat takes one
    assert FieldVector(mesh, 2, flat).data is flat
    out = fv.to_flat()
    out[0] = 99.0
    assert fv.data[0] == 0.0
    flat[0] = 99.0
    assert fv.to_flat()[0] == 0.0


def test_fieldvector_size_guard():
    mesh = unit_mesh_1d(2)
    with pytest.raises(ValueError):
        FieldVector.from_flat(mesh, 1, np.zeros(4))
    # flat data only: one vector or a batch of rows, never one array per element
    for data in (np.zeros(4), np.zeros((2, 4)), [np.zeros((1, 3))], np.zeros((1, 1, 3))):
        with pytest.raises(ValueError, match="expected"):
            FieldVector(mesh, 1, data)


def test_fieldvector_arithmetic_needs_the_same_mesh_components_and_shape():
    # `twin` has the same DoF count as `mesh`; meshes are compared by identity
    mesh, twin = unit_mesh_2d(2, 1), unit_mesh_2d(2, 1)
    n = mesh.total_points
    u = FieldVector(mesh, 1, np.arange(n, dtype=float))
    assert np.array_equal((u + u).data, 2.0 * u.data) and (u - u).mesh is mesh
    others = [
        (FieldVector(twin, 1, np.ones(n)), r"1 of shape \(36,\) on another mesh"),
        (FieldVector(mesh, 2, np.ones(2 * n)), r"2 of shape \(72,\) on the same mesh"),
        (FieldVector.batch(mesh, 1, np.ones((2, n))), r"1 of shape \(2, 36\) on the same"),
    ]
    for other, message in others:
        for left, right in ((u, other), (other, u)):
            for combine in (left.__add__, left.__sub__):
                with pytest.raises(ValueError, match="vectors differ"):
                    combine(right)
        with pytest.raises(ValueError, match=r"1 component\(s\) of shape \(36,\) and " + message):
            u + other
    # anything that is not a vector is refused by both operands
    for other in (1.0, np.ones(n), [1.0] * n):
        for combine in (lambda a, b: a + b, lambda a, b: a - b):
            for left, right in ((u, other), (other, u)):
                with pytest.raises(TypeError):
                    combine(left, right)


def test_fieldvector_times_only_a_scalar():
    # an array would broadcast the vector into a batch of its rows
    mesh = unit_mesh_2d(2, 1)
    u = FieldVector(mesh, 1, np.arange(mesh.total_points, dtype=float))
    for scaled in (u * 2.0, 2.0 * u, u * np.float64(2.0), np.array(2.0) * u):
        assert isinstance(scaled, FieldVector) and scaled.mesh is mesh
        assert np.array_equal(scaled.data, 2.0 * u.data)
    for array in (np.ones((2, mesh.total_points)), np.ones(mesh.total_points), [2.0]):
        with pytest.raises(TypeError):
            u * array
        with pytest.raises(TypeError):
            array * u


# -- full operator and rhs ---------------------------------------------


def test_full_operator_consistent_with_compact():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap.everywhere(DirichletBC(lambda x: x[0][None]))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    rng = np.random.default_rng(9)
    u = FieldVector.from_flat(mesh, 1, rng.normal(size=mesh.total_points))
    v = handle.reconstruct_auxiliary(u)
    res_v, res_u = handle.apply_full(v, u)
    assert np.max(np.abs(res_v.data)) < 1e-11
    np.testing.assert_allclose(res_u.data, handle.apply(u).data, atol=1e-12)


def test_full_operator_mass_block():
    # the auxiliary-auxiliary block is exactly the lumped mass
    mesh = unit_mesh_1d(2, level=1)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, POISSON_1D, BG, bcs).linearized_at()
    na = handle.n_auxiliary_dofs
    masses = flat_mass(mesh)
    for j in range(na):
        e = np.zeros(na + handle.n_primal_dofs)
        e[j] = 1.0
        col = handle.matvec_full(e)
        assert col[j] == pytest.approx(masses[j], rel=1e-14)


def test_batch_matches_single_vectors():
    # each vector of a batch gets exactly the residual it gets alone, in 2D
    # and 3D only. 2D: point-dependent data for every condition kind, no
    # linearization, two grid shapes and p-nonconforming mortars, then one
    # grid shape, massless. 3D: the puncture system linearized about a
    # nonzero state, with falloff conditions, paired and non-identity
    # mortars. Not 1D: there a lone vector on a one-element group is a
    # one-row dimension-0 product in `_apply_1d`, which BLAS rounds
    # differently from a block, by up to about 1e-13 relative; the
    # random-mesh oracle compares 1D to 1e-14 of the largest entry
    mesh = with_degrees(unit_mesh_2d(3, 1), 3, (4, 2))
    bcs = BoundaryMap({
        "x-lower": RobinBC(1.0, 2.0, lambda x, normal: x[1]),
        "y-upper": NeumannBC(lambda x, normal: np.cos(2.0 * x[0])),
        "all": DirichletBC(lambda x: np.sin(3.0 * x[0]) * x[1]),
    })
    handles = [OperatorHandle(mesh, POISSON_2D, BG, bcs, form="strong-weak")]
    # one grid shape: a lone vector's residual is its group's array itself
    handles.append(OperatorHandle(unit_mesh_2d(3, 1), POISSON_2D, BG, bcs, massive=False))
    cube = with_degrees(
        build_rectilinear_mesh([(1.0, 2.0)] * 3, (1, 1, 0), (2, 2, 2)), 3, (2, 3, 2)
    )
    puncture = make_system("puncture", dim=3, punctures=[
        PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3), spin=(0.0, 0.1, 0.0)),
    ])
    point = interpolant(cube, lambda x: 0.1 * np.sin(x[0] + 2.0 * x[1] - x[2])[None])
    handles.append(OperatorHandle(
        cube, puncture, BG, BoundaryMap({"all": FalloffDirichletBC(0.2)}), form="strong-weak",
    ).linearized_at(point))
    counts = check_face_partition(handles[2])
    assert counts["paired"] and counts["restricted"]
    rng = np.random.default_rng(4)
    for handle in handles:
        mesh = handle.mesh
        us = rng.standard_normal((3, handle.n_primal_dofs))
        vs = rng.standard_normal((3, handle.n_auxiliary_dofs))
        before = us.copy()
        res = handle.apply(FieldVector.batch(mesh, 1, us)).data
        assert res.shape == us.shape
        for u, r in zip(us, res):
            np.testing.assert_array_equal(r, handle.matvec(u))
        rv, ru = handle.apply_full(
            FieldVector.batch(mesh, handle.system.n_auxiliary, vs), FieldVector.batch(mesh, 1, us)
        )
        for v, u, a, b in zip(vs, us, rv.data, ru.data):
            np.testing.assert_array_equal(
                np.concatenate([a, b]), handle.matvec_full(np.concatenate([v, u]))
            )
        # the operator reads its input in place and never writes to it
        np.testing.assert_array_equal(us, before)
        assert not np.shares_memory(handle.matvec(us[0]), us)


def _kept_bytes(handle):
    """Bytes of the distinct arrays a handle, its mesh cache and its groups
    keep, through lists, tuples and dicts."""
    seen, total = set(), 0
    todo = [vars(handle), vars(handle._cache)] + [vars(g) for g in handle._cache.groups]
    while todo:
        item = todo.pop()
        if isinstance(item, np.ndarray):
            if id(item) not in seen:
                seen.add(id(item))
                total += item.nbytes
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
    return total


@pytest.mark.parametrize("case", ["one-group", "one-group-massless", "two-groups"])
def test_applies_leave_nothing_behind(case):
    # a result is new memory, an apply changes nothing a later one reads,
    # and no kept state grows with the batch size
    mesh = unit_mesh_2d(3, 1)
    if case == "two-groups":
        mesh = with_degrees(mesh, 2, (4, 2))
    bcs = BoundaryMap({
        "y-upper": NeumannBC(lambda x, normal: np.cos(2.0 * x[0])),
        "all": DirichletBC(lambda x: np.sin(3.0 * x[0]) * x[1]),
    })
    handle = OperatorHandle(
        mesh, POISSON_2D, BG, bcs, form="strong-weak", massive=case != "one-group-massless"
    )
    assert (len(handle._cache.groups) == 1) == case.startswith("one-group")
    rng = np.random.default_rng(5)
    x = rng.standard_normal(handle.n_primal_dofs)
    before = x.copy()
    u = FieldVector(mesh, 1, x)
    aux = handle.reconstruct_auxiliary(u).data.copy()
    first = handle.matvec(x)
    assert not np.shares_memory(first, x)
    kept = first.copy()
    second = handle.matvec(x)
    np.testing.assert_array_equal(second, kept)
    np.testing.assert_array_equal(first, kept)
    assert not np.shares_memory(first, second)
    again = handle.reconstruct_auxiliary(u).data
    np.testing.assert_array_equal(again, aux)
    assert not np.shares_memory(again, x)
    np.testing.assert_array_equal(x, before)
    size = _kept_bytes(handle)
    for n in (1, 3, 7):
        rows = rng.standard_normal((n, handle.n_primal_dofs))
        handle.apply(FieldVector.batch(mesh, 1, rows))
        assert _kept_bytes(handle) == size, n
    np.testing.assert_array_equal(handle.matvec(x), kept)


CONFORMAL = ConformallyFlatBackground(
    lambda x: 0.1 * x[0] - 0.05 * x[1],
    lambda x: np.stack([0.1 * np.ones_like(x[0]), -0.05 * np.ones_like(x[0])]),
)


def _puncture_family():
    """A 3D puncture handle family's mesh, system, background, conditions,
    linearization point, and the background-field evaluators to count."""
    cube = with_degrees(
        build_rectilinear_mesh([(1.0, 2.0)] * 3, (1, 0, 0), (2, 2, 2)), 1, (3, 2, 2)
    )
    spec = PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3), spin=(0.0, 0.1, 0.0))
    point = interpolant(cube, lambda x: 0.1 * np.sin(x[0] + 2.0 * x[1] - x[2])[None])
    system = make_system("puncture", dim=3, punctures=[spec])
    bcs = BoundaryMap({"all": FalloffDirichletBC(0.2)})
    return cube, system, BG, bcs, point, (Puncture, ("background_fields",))


def _curved_family():
    """The same for poisson-curved on a conformally flat background, with a
    condition that reads the trace (Robin) next to a trace-free one."""
    square = with_degrees(build_rectilinear_mesh([(1.0, 2.0)] * 2, (1, 0), (2, 3)), 1, (3, 2))
    point = interpolant(square, lambda x: 0.1 * np.sin(x[0] + 2.0 * x[1])[None])
    bcs = BoundaryMap({"x-lower": RobinBC(1.0, 2.0, 0.3), "all": DirichletBC(0.1)})
    return (square, make_system("poisson-curved", dim=2), CONFORMAL, bcs, point,
            (ConformallyFlatBackground, ("inverse_metric", "christoffel_contraction")))


@pytest.mark.parametrize("family", [_puncture_family, _curved_family],
                         ids=["puncture", "poisson-curved"])
def test_linearized_sources_built_once_per_point(monkeypatch, family):
    # a handle family (a handle and the handles `linearized_at` makes of it)
    # evaluates the background fields once per element group, on its first
    # application, not in `linearized_at` and not again in later
    # applications, nonlinear or linearized, of any of its handles: the
    # face and external-point values are gathered from the groups'. And
    # each applies bit for bit as a handle built from scratch
    mesh, system, background, bcs, point, (owner, names) = family()

    def build():
        return OperatorHandle(mesh, system, background, bcs, form="strong-weak")

    handle = build()
    calls = []
    for name in names:
        def counted(self, x, *args, method=getattr(owner, name), name=name):
            calls.append((name, x.shape))
            return method(self, x, *args)

        monkeypatch.setattr(owner, name, counted)
    lin = handle.linearized_at(point)
    assert calls == []
    rng = np.random.default_rng(6)
    us = rng.standard_normal((3, lin.n_primal_dofs))
    batch = FieldVector.batch(mesh, 1, us)
    singles = [lin.matvec(u) for u in us]
    batches = [lin.apply(batch).data for _ in range(8)]
    shapes = sorted((n, g.coords.shape) for n in names for g in lin._cache.groups)
    assert len(lin._cache.groups) == 2 and sorted(calls) == shapes
    # the parent's nonlinear applies, a second linearization and its applies
    residuals = [handle.matvec(u) for u in us] + [handle.apply(batch).data]
    second = FieldVector(mesh, 1, 0.1 * us[0])
    other = handle.linearized_at(second)
    others = [other.matvec(u) for u in us] + [other.apply(batch).data]
    assert sorted(calls) == shapes
    monkeypatch.undo()
    fresh = build().linearized_at(point)
    for u, single in zip(us, singles):
        assert np.array_equal(single, fresh.matvec(u))
    for batched in batches:
        assert np.array_equal(batched, fresh.apply(batch).data)
    for fresh, outs in ((build(), residuals), (build().linearized_at(second), others)):
        assert all(np.array_equal(out, fresh.matvec(u)) for out, u in zip(outs, us))
        assert np.array_equal(outs[-1], fresh.apply(batch).data)


@pytest.mark.parametrize("name, background, linearize, per_apply", [
    ("poisson-flat", BG, True, False),
    ("poisson-flat", BG, False, False),
    ("elasticity", BG, True, False),
    ("poisson-curved", BG, True, False),  # zero Christoffel symbols
    ("poisson-curved", CONFORMAL, True, True),
    ("poisson-curved", CONFORMAL, False, True),
    ("puncture", BG, True, True),
    ("puncture", BG, False, True),  # nonlinear: never probed
])
def test_provably_zero_sources_are_not_evaluated_per_apply(
    monkeypatch, name, background, linearize, per_apply
):
    # a source linear in (u, v), as a linear system's and every linearized
    # one is, that is exactly zero on every unit field is zero on every
    # field: the handle probes it once, on its first application, and then
    # drops it. A source that is not zero, or not linear, is evaluated in
    # every application
    dim = 3 if name == "puncture" else 2
    mesh = build_rectilinear_mesh([(1.0, 2.0)] * dim, (1,) + (0,) * (dim - 1), (2,) * dim)
    spec = PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3))
    params = {"punctures": [spec]} if name == "puncture" else {}
    system = make_system(name, dim=dim, **params)
    handle = OperatorHandle(
        mesh, system, background, BoundaryMap.everywhere(DirichletBC(0.0)), form="strong-weak"
    )
    calls = []
    cls = type(system)
    if linearize:  # count the linearized map's calls
        build = cls.linearized_primal_source

        def counted(self, u0, fields):
            source = build(self, u0, fields)
            return lambda du, dv: calls.append(1) or source(du, dv)

        monkeypatch.setattr(cls, "linearized_primal_source", counted)
        n = system.n_primal
        handle = handle.linearized_at(interpolant(mesh, lambda x: 0.1 * x[:n], n))
    else:
        source = cls.primal_source

        def counted(self, u, v, fields):
            calls.append(1)
            return source(self, u, v, fields)

        monkeypatch.setattr(cls, "primal_source", counted)
    u = FieldVector.batch(mesh, system.n_primal, np.ones((2, handle.n_primal_dofs)))
    handle.apply(u)
    probed = linearize or system.linear
    assert len(calls) == probed + per_apply
    for _ in range(3):
        handle.apply(u)
    assert len(calls) == probed + 4 * per_apply
    assert (handle._sources == [None]) == (not per_apply)


def _dense_gradient(group, u):
    """The nodal gradient over every (reference, physical) direction pair,
    zero inverse-Jacobian terms too."""
    grad = 0.0
    for j in range(group.dim):
        du = _apply_1d(group.diffs[j], u, j)
        grad = grad + np.einsum("i...,c...->ci...", group.jinv[j], du)
    return grad


def _dense_volume_kernels(group, fluxes):
    """The strong divergence and both stiffness forms, contracting every
    (reference, physical) direction pair, zero inverse-Jacobian terms too."""
    div = 0.0
    for j in range(group.dim):
        df = _apply_1d(group.diffs[j], fluxes, j)
        div = div + np.einsum("i...,ci...->c...", group.jinv[j], df)
    weak = 0.0
    for j in range(group.dim):
        pre = group.mass * np.einsum("i...,ci...->c...", group.jinv[j], fluxes)
        weak = weak - _apply_1d(group.diffs[j].T, pre, j)
    return div, group.mass * div, weak


@pytest.mark.parametrize("case", ["square", "box", "annulus", "elasticity"])
def test_volume_kernels_skip_only_zero_inverse_jacobian_terms(case):
    # rectilinear groups keep, per reference direction, only its own
    # physical direction; curved groups keep every one. Either way the
    # gradient and the kernels equal the dense contraction byte for byte,
    # single and batched, and G of the gradient is the divergence of the
    # auxiliary flux derived from G
    if case == "annulus":
        mesh = build_annulus_mesh(0.5, 1.0, 3, (0, 1), (3, 4))
    else:
        dim = 3 if case == "box" else 2
        mesh = with_degrees(
            build_rectilinear_mesh([(0.0, 1.0), (0.0, 2.0), (0.0, 0.5)][:dim],
                                   (1,) * dim, (2, 3, 4)[:dim]), 1, (3, 2, 2)[:dim],
        )
    dim = mesh.dim
    system = make_system("elasticity" if case == "elasticity" else "poisson-flat", dim=dim)
    handle = OperatorHandle(mesh, system, BG, BoundaryMap.everywhere(DirichletBC(0.0)))
    rng = np.random.default_rng(21)
    assert len(handle._cache.groups) == (1 if case == "annulus" else 2)
    for g in handle._cache.groups:
        if case == "annulus":
            assert g.directions == [[0, 1], [0, 1]]
        else:
            assert g.directions == [[0], [1], [2]][:dim]
        for lead in ((), (3,)):
            u = rng.standard_normal((system.n_primal,) + lead + g.shape)
            grad = g.gradient(u)
            assert grad.shape == (system.n_primal, dim) + lead + g.shape
            assert grad.tobytes() == _dense_gradient(g, u).tobytes()
            div = g.divergence(system.auxiliary_flux(u))
            assert system.auxiliary_from_gradient(grad).tobytes() == div.tobytes()
            fluxes = rng.standard_normal((2, dim) + lead + g.shape)
            div, strong, weak = _dense_volume_kernels(g, fluxes)
            assert g.divergence(fluxes).tobytes() == div.tobytes()
            assert g.stiffness(fluxes, "strong").tobytes() == strong.tobytes()
            assert g.stiffness(fluxes, "weak").tobytes() == weak.tobytes()


class _Counting:
    """Counts the calls of `values`, the condition's own data."""

    def __init__(self, value):
        super().__init__(value)
        self.calls = 0

    def values(self, x, normal, u_trace):
        self.calls += 1
        return super().values(x, normal, u_trace)


class CountingDirichletBC(_Counting, DirichletBC):
    pass


class CountingNeumannBC(_Counting, NeumannBC):
    pass


class Opaque(BoundaryCondition):
    """A condition's data served through the base class, with no trace-free
    promise: the operator asks for them in every application."""

    def __init__(self, bc):
        self.bc, self.kind = bc, bc.kind

    def values(self, x, normal, u_trace):
        return self.bc.values(x, normal, u_trace)

    def linearized_values(self, x, normal, u_trace, du_trace):
        return self.bc.linearized_values(x, normal, u_trace, du_trace)


def _fixed_data_cases():
    # 2D elasticity (two components) with dirichlet- and neumann-kind
    # conditions on two grid shapes; 3D puncture with falloff data
    square = with_degrees(unit_mesh_2d(3, 1), 3, (4, 2))
    elasticity = make_system("elasticity", dim=2, lame_lambda=1.3, shear_modulus=0.6)
    yield square, elasticity, {
        "y-upper": CountingNeumannBC(lambda x, normal: np.stack([np.cos(2.0 * x[0]), x[1]])),
        "all": CountingDirichletBC(lambda x: np.stack([np.sin(3.0 * x[0]) * x[1], x[0]])),
    }
    cube = build_rectilinear_mesh([(1.0, 2.0)] * 3, (1, 0, 0), (2, 2, 2))
    puncture = make_system("puncture", dim=3, punctures=[
        PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3)),
    ])
    yield cube, puncture, {"all": FalloffDirichletBC(0.2)}


def test_trace_free_boundary_data_evaluated_once_per_handle():
    square, elasticity, table = next(_fixed_data_cases())
    handle = OperatorHandle(square, elasticity, BG, BoundaryMap(table), form="strong-weak")
    counts = [bc.calls for bc in table.values()]
    assert counts == [1, 1]
    rng = np.random.default_rng(22)
    n, na = handle.n_primal_dofs, handle.n_auxiliary_dofs
    us = rng.standard_normal((3, n))
    for h in (handle, handle.linearized_at(FieldVector.from_flat(square, 2, us[0]))):
        h.matvec(us[1])
        h.apply(FieldVector.batch(square, 2, us))
        h.matvec_full(rng.standard_normal(na + n))
    assert [bc.calls for bc in table.values()] == counts


def test_trace_free_boundary_data_match_per_apply_evaluation():
    rng = np.random.default_rng(23)
    for mesh, system, table in _fixed_data_cases():
        n_u, n_v = system.n_primal, system.n_auxiliary
        fixed, opaque = (
            OperatorHandle(mesh, system, BG, BoundaryMap(t), form="strong-weak")
            for t in (table, {tag: Opaque(bc) for tag, bc in table.items()})
        )
        point = FieldVector.from_flat(mesh, n_u, 0.1 * rng.standard_normal(fixed.n_primal_dofs))
        us = rng.standard_normal((3, fixed.n_primal_dofs))
        vs = rng.standard_normal((3, fixed.n_auxiliary_dofs))
        for a, b in ((fixed, opaque), (fixed.linearized_at(point), opaque.linearized_at(point))):
            for u, v in ((us[0], vs[0]), (us, vs)):
                if u.ndim == 1:
                    args = (FieldVector.from_flat(mesh, n_u, u),), (
                        FieldVector.from_flat(mesh, n_v, v), FieldVector.from_flat(mesh, n_u, u))
                else:
                    args = (FieldVector.batch(mesh, n_u, u),), (
                        FieldVector.batch(mesh, n_v, v), FieldVector.batch(mesh, n_u, u))
                np.testing.assert_array_equal(a.apply(*args[0]).data, b.apply(*args[0]).data)
                for x, y in zip(a.apply_full(*args[1]), b.apply_full(*args[1])):
                    np.testing.assert_array_equal(x.data, y.data)


def test_live_dirichlet_kind_condition_matches_trace_free_one():
    # Robin with b = 0 is dirichlet-kind with data g/a, but it is not
    # trace-free: the handle asks it on every application and writes its
    # values over the fixed boundary array; the bits equal Dirichlet's
    mesh = split_element(with_degrees(unit_mesh_2d(3, 1), 3, (4, 3)), 0)
    elasticity = make_system("elasticity", dim=2, lame_lambda=1.3, shear_modulus=0.6)
    neumann = NeumannBC(lambda x, normal: np.stack([np.cos(2.0 * x[0]), x[1]]))
    live, fixed = (
        OperatorHandle(mesh, elasticity, BG, BoundaryMap({"y-upper": neumann, "all": bc}),
                       form="strong-weak")
        for bc in (RobinBC(2.0, 0.0, 0.8), DirichletBC(0.4))
    )
    assert len(live._live) == 1 and not fixed._live
    rng = np.random.default_rng(24)
    us = rng.standard_normal((3, live.n_primal_dofs))
    np.testing.assert_array_equal(live.matvec(us[0]), fixed.matvec(us[0]))
    point = FieldVector.from_flat(mesh, 2, 0.1 * us[0])
    batch = FieldVector.batch(mesh, 2, us)
    for a, b in ((live, fixed), (live.linearized_at(point), fixed.linearized_at(point))):
        np.testing.assert_array_equal(a.apply(batch).data, b.apply(batch).data)


def test_linearized_at_builds_only_what_depends_on_the_point():
    # a linearized handle shares the mesh cache, the penalty and the boundary
    # layout of the handle it linearizes, evaluates no trace-free condition,
    # and gives the bits of a handle built from scratch at the same point
    mesh = split_element(with_degrees(unit_mesh_2d(3, 1), 3, (4, 3)), 0)
    elasticity = make_system("elasticity", dim=2, lame_lambda=1.3, shear_modulus=0.6)
    table = {
        "x-lower": RobinBC(1.0, 2.0, lambda x, normal: np.stack([x[1], normal[0]])),
        "y-upper": CountingNeumannBC(lambda x, normal: np.stack([np.cos(2.0 * x[0]), x[1]])),
        "all": CountingDirichletBC(lambda x: np.stack([np.sin(3.0 * x[0]) * x[1], x[0]])),
    }
    handle = OperatorHandle(mesh, elasticity, BG, BoundaryMap(table), form="strong-weak")
    rng = np.random.default_rng(25)
    n, na = handle.n_primal_dofs, handle.n_auxiliary_dofs
    point = FieldVector.from_flat(mesh, 2, 0.1 * rng.standard_normal(n))
    fresh = OperatorHandle(
        mesh, elasticity, BG, BoundaryMap(table), form="strong-weak"
    ).linearized_at(point)
    counts = [bc.calls for bc in table.values() if isinstance(bc, _Counting)]
    linearized = [handle.linearized_at(point), handle.linearized_at().linearized_at(point)]
    assert [bc.calls for bc in table.values() if isinstance(bc, _Counting)] == counts
    batch = FieldVector.batch(mesh, 2, rng.standard_normal((3, n)))
    full = rng.standard_normal(na + n)
    assert not handle.is_linearized and handle._lin_groups is None
    assert any(a.any() for a in handle._fixed)
    for lin in linearized:
        for name in ("_cache", "_sigma_args", "_external", "_normal",
                     "_fields", "_live_layout"):
            assert getattr(lin, name) is getattr(handle, name)
        assert lin.linearization_point is not point and not any(a.any() for a in lin._fixed)
        np.testing.assert_array_equal(lin.linearization_point.data, point.data)
        assert len(lin._live) == 1
        np.testing.assert_array_equal(lin.apply(batch).data, fresh.apply(batch).data)
        np.testing.assert_array_equal(lin.matvec_full(full), fresh.matvec_full(full))


@pytest.mark.parametrize("bc_type", [DirichletBC, NeumannBC])
def test_non_finite_trace_free_data_rejected_at_construction(bc_type):
    # Dirichlet data take x, Neumann data (x, normal)
    bad = bc_type(lambda x, *normal: np.where(x[1] > 0.5, np.nan, x[0]))
    bcs = BoundaryMap({"x-lower": bad, "all": DirichletBC(0.0)})
    with pytest.raises(ConfigurationError, match="boundary_conditions.x-lower: non-finite"):
        OperatorHandle(unit_mesh_2d(2, 1), POISSON_2D, BG, bcs)


def test_batch_guards():
    mesh = unit_mesh_1d(2)
    handle = OperatorHandle(mesh, POISSON_1D, BG, BoundaryMap.everywhere(DirichletBC(0.0)))
    for rows in (np.zeros((2, 4)), np.zeros(3)):
        with pytest.raises(ValueError):
            FieldVector.batch(mesh, 1, rows)
    batch = FieldVector.batch(mesh, 1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        handle.apply_full(FieldVector.batch(mesh, 1, np.zeros((3, 3))), batch)


def test_empty_batch_rejected():
    # a batch of no vectors would reach the operator and fail in its layout
    mesh = unit_mesh_2d(2, 2)
    for make in (FieldVector.batch, FieldVector):
        with pytest.raises(ValueError, match="at least one vector, got 0 rows"):
            make(mesh, 1, np.zeros((0, mesh.total_points)))


def test_build_rhs_homogeneous_dirichlet():
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    f = lambda x: np.ones((1,) + x.shape[1:])
    np.testing.assert_array_equal(handle.build_rhs(f).data, flat_mass(mesh))


@pytest.mark.parametrize("massive", [True, False])
def test_build_rhs_given_field_on_mixed_grids(massive):
    # a callable and a FieldVector give the same M f (f when massless), with
    # the groups of a mixed-degree mesh interleaved in the flat order
    mesh = with_degrees(with_degrees(unit_mesh_2d(3, 1), 1, (2, 4)), 3, (2, 4))
    handle = OperatorHandle(
        mesh, POISSON_2D, BG, BoundaryMap.everywhere(DirichletBC(1.0)), massive=massive
    )
    f = lambda x: np.sin(x[:1] + 2.0 * x[1:])
    given = interpolant(mesh, f)
    rhs = handle.build_rhs(given)
    np.testing.assert_array_equal(rhs.data, handle.build_rhs(f).data)
    np.testing.assert_array_equal(
        rhs.data, flat_mass(mesh) * given.data if massive else given.data
    )
    assert not np.shares_memory(rhs.data, given.data)


def test_build_rhs_inhomogeneous_confined_to_boundary_elements():
    mesh = unit_mesh_2d(3, 1)
    inhom = BoundaryMap({"x-lower": DirichletBC(2.0), "all": DirichletBC(0.0)})
    hom = BoundaryMap.everywhere(DirichletBC(0.0))
    # build_rhs is M f alone; the boundary term lives in the residual A(0)
    a, b = (
        OperatorHandle(mesh, POISSON_2D, BG, bcs).apply(FieldVector.zeros(mesh, 1)).data
        for bcs in (inhom, hom)
    )
    offsets = mesh.point_offsets
    touched = {k for k in range(mesh.n_elements) if (a - b)[offsets[k]:offsets[k + 1]].any()}
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


def face_shape(grid_shape, dim):
    """A per-dimension tuple without dimension `dim`: a face's grid shape, or
    its transverse segments."""
    return grid_shape[:dim] + grid_shape[dim + 1:]


def face_slices(ndim_grid, dim, side):
    """Index tuple selecting one face of a grid-shaped array's last ndim axes."""
    idx = [slice(None)] * ndim_grid
    idx[dim] = 0 if side < 0 else -1
    return (Ellipsis, *idx)


def face_span(cache, element, dim, side):
    """One face's points in the face buffer, from `_MeshCache.face_start` and
    `face_size` at its face number (`MeshTopology`)."""
    number = (element * cache.groups[0].dim + dim) * 2 + (side > 0)
    return slice(cache.face_start[number], cache.face_start[number] + cache.face_size[number])


def face_geometry(background, element, dim, side):
    """One face's geometry on its own, from a one-element `jacobian_at`."""
    xi = element.logical_grid()[face_slices(element.dim, dim, side)]
    x, _, det, inv = jacobian_at([element], xi)
    return sampled_face_geometry(background, x[:, 0], det[0], inv[dim][:, 0], side)


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


def mortar_grids(mesh, mortar):
    """The face grids of a mortar's two sides and its mortar grid, their
    per-dimension maximum."""
    grids = [face_shape(mesh.elements[s.element].grid_shape, s.dim) for s in mortar.sides]
    return grids, tuple(map(max, *grids))


def check_face_partition(handle):
    """Every face-buffer point is exactly one of: paired, external, or on a
    mortar with a non-identity side, each set as the topology gives it.
    `partner` is an involution that fixes exactly the unpaired points, and
    both points of a pair carry the same penalty.

    The penalty at paired and external points and each mortar group's
    weights and penalty are, to the last bit, what the rule per mortar and
    per external face gives: p the larger normal degree of the two sides, h
    the smaller, and the weights the coarse side's surface measure (the
    partially covered side, else the one with fewer points, else side 0)
    times the logical mortar weights, with one P @ v per mortar. Returns
    the set sizes."""
    cache, mesh = handle._cache, handle.mesh
    n = cache.n_face_points
    want = {name: np.zeros(n, dtype=int) for name in ("paired", "external", "restricted")}
    partner, sigma, on_mortars = np.arange(n), np.zeros(n), {}
    for m in mesh.topology.mortars:
        spans = [face_span(cache, s.element, s.dim, s.side) for s in m.sides]
        grids, counts = mortar_grids(mesh, m)
        prolongs = [prolongation_matrix(g, counts, s.coverage) for g, s in zip(grids, m.sides)]
        p = max(mesh.elements[s.element].degrees[s.dim] for s in m.sides)
        if all(np.array_equal(P, np.eye(len(P))) for P in prolongs):
            a, b = (np.arange(sp.start, sp.stop) for sp in spans)
            partner[a], partner[b] = b, a
            want["paired"][a] += 1
            want["paired"][b] += 1
            sigma[a] = sigma[b] = penalty_sigma(p, p, cache.face_h[a], cache.face_h[b], 1.0)
        else:
            for sp in spans:
                want["restricted"][sp] = 1
            partial = [any(c != "full" for c in s.coverage) for s in m.sides]
            sizes = [sp.stop - sp.start for sp in spans]
            if partial[0] != partial[1]:
                coarse = 0 if partial[0] else 1
            else:
                coarse = 0 if sizes[0] <= sizes[1] else 1
            weights = mortar_logical_weights(counts, m.sides[coarse].coverage) * (
                prolongs[coarse] @ cache.face_measure[spans[coarse]]
            )
            hs = [P @ cache.face_h[sp] for P, sp in zip(prolongs, spans)]
            key = tuple(sp.start for sp in spans)
            on_mortars[key] = weights, penalty_sigma(p, p, hs[0], hs[1], 1.0)
    for ef in mesh.topology.external_faces:
        sp = face_span(cache, ef.element, ef.dim, ef.side)
        want["external"][sp] += 1
        p = mesh.elements[ef.element].degrees[ef.dim]
        sigma[sp] = penalty_sigma(p, p, cache.face_h[sp], cache.face_h[sp], 1.0)
    for mg in cache.mortar_groups:
        for row, key in enumerate(zip(*(i[:, 0].tolist() for i in mg.index))):
            weights, mortar_sigma = on_mortars.pop(key)
            assert np.array_equal(mg.weights[row], weights)
            assert np.array_equal(mg.sigma[row], mortar_sigma)
    assert not on_mortars
    assert ((want["paired"] + want["external"] + want["restricted"]) == 1).all()

    np.testing.assert_array_equal(cache.partner, partner)
    paired = cache.partner != np.arange(n)
    np.testing.assert_array_equal(paired, want["paired"] == 1)
    np.testing.assert_array_equal(cache.partner[cache.partner], np.arange(n))
    np.testing.assert_array_equal(cache.face_sigma[cache.partner], cache.face_sigma)
    external = np.zeros(n, dtype=bool)
    for index in cache.external.values():
        external[index] = True
    np.testing.assert_array_equal(external, want["external"] == 1)
    restricted = np.zeros(n, dtype=bool)
    restricted[cache.restricted] = True
    np.testing.assert_array_equal(restricted, want["restricted"] == 1)
    assert (cache.face_sigma[paired | external] > 0.0).all()
    assert np.array_equal(cache.face_sigma[paired | external], sigma[paired | external])
    return {name: int((w > 0).sum()) for name, w in want.items()}


def conforming_square():
    return unit_mesh_2d(3, 1), BG


def split_square():
    return split_element(unit_mesh_2d(3, 1), 0), BG


def raised_square():
    return with_degrees(unit_mesh_2d(3, 1), 3, (4, 2)), BG


# (mesh case, has paired points, has points on non-identity mortars)
@pytest.mark.parametrize("case, paired, restricted", [
    (conforming_square, True, False), (split_square, True, True),
    (raised_square, True, True), (split_box_3d, True, True),
    (split_annulus, True, True), (raised_curved, False, True),
])
def test_face_buffer_partition(case, paired, restricted):
    mesh, bg = case()
    system = make_system("poisson-flat", dim=mesh.dim)
    handle = OperatorHandle(mesh, system, bg, BoundaryMap.everywhere(DirichletBC(0.0)))
    counts = check_face_partition(handle)
    assert counts["external"] > 0
    assert (counts["paired"] > 0) == paired
    assert (counts["restricted"] > 0) == restricted
    assert (len(handle._cache.mortar_groups) > 0) == restricted


def test_face_buffer_partition_rejects_uncovered_or_doubled_points(monkeypatch):
    # a topology that leaves a face out or lists it twice would leave its
    # points without a flux or give them two: set-up refuses it. A new mesh
    # of the same elements computes its topology afresh, through the module's
    # name, which the broken one replaces
    mesh = unit_mesh_2d(2, 1)
    t = mortar_topology(mesh)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    mortars, external = range(len(t.faces)), range(len(t.external))
    # the positions of the mortars and external faces that each one keeps
    for m, e in (
        (mortars, external[1:]),
        (mortars[1:], external),
        (mortars, [*external, 0]),
        ([*mortars, 0], external),
    ):
        m, e = list(m), list(e)
        broken = MeshTopology(t.dim, t.faces[m], t.coverage[m], t.external[e], t.tags[e])
        monkeypatch.setattr("ipdg.mesh.mortar_topology", lambda mesh: broken)
        fresh = Mesh(mesh.dim, mesh.blocks, mesh.elements)
        with pytest.raises(TopologyError, match="not covered exactly once"):
            OperatorHandle(fresh, POISSON_2D, BG, bcs)
        assert fresh.topology is broken


@pytest.mark.parametrize(
    "case", [split_square, raised_square, split_box_3d, split_annulus, raised_curved]
)
def test_mortar_restriction_is_the_adjoint_of_prolongation(case):
    # the restriction as the operator applies it per kind (`restrict`), against
    # P built from the topology and W_f read from the face buffer: W_f R =
    # P^T W_m on every non-identity side, and P is stored as None exactly
    # where it is the identity. Summed over a face's mortars, R 1 = 1: to
    # round-off under a flat background; under the curved one only to the
    # error of the face's LGL rule on I(measure) times a face polynomial,
    # which the lumped W_f applies and the finer mortar rule does not
    # (1.3e-4 on this mesh)
    mesh, bg = case()
    handle = OperatorHandle(mesh, make_system("poisson-flat", dim=mesh.dim), bg,
                            BoundaryMap.everywhere(DirichletBC(0.0)))
    cache = handle._cache
    by_starts = {
        tuple(face_span(cache, s.element, s.dim, s.side).start for s in m.sides): m
        for m in mesh.topology.mortars
    }
    constants = np.zeros(cache.n_face_points)
    n_checked = 0
    for mg in cache.mortar_groups:
        n_m, q = mg.weights.shape
        mortars = [by_starts[(a[0], b[0])] for a, b in zip(*mg.index)]
        for side in (0, 1):
            constants[mg.index[side]] += mg.restrict(side, np.ones((n_m, q)))
            # R's columns: the restriction of every unit mortar vector
            columns = np.zeros((n_m * q, cache.n_face_points))
            unit = np.eye(n_m * q).reshape(n_m * q, n_m, q)
            columns[:, mg.index[side]] += mg.restrict(side, unit)
            for i, m in enumerate(mortars):
                grids, counts = mortar_grids(mesh, m)
                p = prolongation_matrix(grids[side], counts, m.sides[side].coverage)
                identity = p.shape[0] == p.shape[1] and np.array_equal(p, np.eye(len(p)))
                assert (mg.prolong[side] is None) == identity
                if identity:
                    continue
                index = mg.index[side][i]
                r = columns[i * q:(i + 1) * q, index].T
                want = p.T * mg.weights[i]
                got = cache.face_mass[index][:, None] * r
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
                n_checked += 1
    assert n_checked > 0
    tol = 1e-3 if case is raised_curved else 1e-14
    np.testing.assert_allclose(constants[cache.restricted], 1.0, rtol=0, atol=tol)


@pytest.mark.parametrize("case", [split_annulus, split_box_3d, raised_curved])
def test_face_buffer_geometry_matches_face_geometry(case):
    # the stacked per-group geometry against each face evaluated on its own
    mesh, bg = case()
    system = make_system("poisson-flat", dim=mesh.dim)
    cache = OperatorHandle(mesh, system, bg, BoundaryMap.everywhere(DirichletBC(0.0)))._cache
    # one span per face, end to end over the whole face buffer
    assert cache.face_start.shape == cache.face_size.shape == (2 * mesh.dim * mesh.n_elements,)
    order = np.argsort(cache.face_start)
    ends = np.cumsum(cache.face_size[order])
    assert np.array_equal(cache.face_start[order], ends - cache.face_size[order])
    assert ends[-1] == cache.n_face_points
    k = mesh.dim - 1
    for element, dim, side in itertools.product(range(mesh.n_elements), range(mesh.dim), (-1, 1)):
        span = face_span(cache, element, dim, side)
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


def test_geometry_is_one_jacobian_call_per_group(monkeypatch):
    # set-up evaluates each element group's geometry in one batched call, so
    # a loop over the elements cannot come back unnoticed
    calls = []

    def counted(elements, xi):
        calls.append(len(elements))
        return jacobian_at(elements, xi)

    monkeypatch.setattr(operators, "jacobian_at", counted)
    mesh = with_degrees(split_element(unit_mesh_2d(2, 1), 0), 4, (3, 3))
    handle = OperatorHandle(mesh, POISSON_2D, BG, BoundaryMap.everywhere(DirichletBC(0.0)))
    assert len(handle._cache.groups) == 2
    assert calls == [len(g.members) for g in handle._cache.groups]


def test_handle_settings_are_read_only():
    # a setting changed after construction would no longer describe the
    # operator the handle applies (the penalty is formed once, the solver
    # checks read form and massive), so none can be assigned
    mesh = unit_mesh_2d(3, 1)
    bcs = BoundaryMap({"x-upper": QuadraticFluxBC(), "all": DirichletBC(0.0)})
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs, form="strong-weak")
    rng = np.random.default_rng(26)
    point = FieldVector.from_flat(mesh, 1, rng.standard_normal(handle.n_primal_dofs))
    lin = handle.linearized_at(point)
    settings = {
        "mesh": mesh, "system": POISSON_2D, "background": BG, "bcs": bcs, "form": "strong",
        "massive": False, "penalty_parameter": 5.0, "linearization_point": point,
    }
    for h in (handle, lin):
        for name, value in settings.items():
            with pytest.raises(AttributeError):
                setattr(h, name, value)
    # the linearized handle keeps its own read-only copy of the point
    u = FieldVector.from_flat(mesh, 1, rng.standard_normal(handle.n_primal_dofs))
    kept, applied = point.data.copy(), lin.apply(u).data
    assert not np.array_equal(applied, handle.linearized_at().apply(u).data)
    point.data[:] = 0.0
    np.testing.assert_array_equal(lin.linearization_point.data, kept)
    np.testing.assert_array_equal(lin.apply(u).data, applied)
    with pytest.raises(ValueError, match="read-only"):
        lin.linearization_point.data[0] = 1.0


def test_full_rhs_confined_to_face_points():
    # in the first-order system, boundary data enters only through lifted
    # face terms
    mesh = unit_mesh_2d(3, 0)
    bcs = BoundaryMap({"x-upper": DirichletBC(1.0), "all": DirichletBC(0.0)})
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    rv, ru = handle.apply_full(
        FieldVector.zeros(mesh, 2), FieldVector.zeros(mesh, 1)
    )
    # one element: per component, its 4 x 4 grid in point order (y, x)
    for data in (rv.data, ru.data):
        assert not data.reshape(-1, 4, 4)[..., :-1].any()


def test_nan_guard_names_element():
    # NaN data of a trace-free condition are rejected when the handle is
    # built; those of a condition that reads the trace (Robin with b = 0,
    # dirichlet-kind) reach the residual, whose guard names the element
    mesh = unit_mesh_1d(2)
    nan = lambda x, *normal: np.full_like(x, np.nan)
    with pytest.raises(ConfigurationError, match="non-finite boundary data"):
        OperatorHandle(mesh, POISSON_1D, BG, BoundaryMap.everywhere(DirichletBC(nan)))
    bcs = BoundaryMap.everywhere(RobinBC(1.0, 0.0, nan))
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


def test_penalty_parameter_must_be_a_real_number():
    # float() used to read True as C = 1 and "2" as C = 2.0
    mesh = unit_mesh_2d(2, 0)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    for penalty in (True, False, np.bool_(True), "2", None, 1j):
        with pytest.raises(ConfigurationError,
                           match="operator.penalty_parameter: must be a real number, got"):
            OperatorHandle(mesh, POISSON_2D, BG, bcs, penalty_parameter=penalty)
    for penalty in (2, np.int64(2), np.float32(2.0), 2.0):
        handle = OperatorHandle(mesh, POISSON_2D, BG, bcs, penalty_parameter=penalty)
        assert type(handle.penalty_parameter) is float and handle.penalty_parameter == 2.0


def test_handle_validation():
    mesh = unit_mesh_2d(2, 0)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    with pytest.raises(ConfigurationError):
        OperatorHandle(mesh, POISSON_1D, BG, bcs)
    with pytest.raises(ConfigurationError):
        OperatorHandle(mesh, POISSON_2D, BG, bcs, form="weak-weak")
    for penalty in (-1.0, np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="penalty_parameter"):
            OperatorHandle(mesh, POISSON_2D, BG, bcs, penalty_parameter=penalty)
    with pytest.raises(ConfigurationError):
        OperatorHandle(
            mesh, POISSON_2D, BG, BoundaryMap({"x-lower": DirichletBC(0.0)})
        )
    # bool("false") is True: the string used to build a massive operator
    for massive in ("false", "true", 0, 1, None, np.float64(0.0)):
        with pytest.raises(ConfigurationError, match="operator.massive: must be a bool, got"):
            OperatorHandle(mesh, POISSON_2D, BG, bcs, massive=massive)
    for flag in (False, True, np.False_, np.True_):
        assert OperatorHandle(mesh, POISSON_2D, BG, bcs, massive=flag).massive is bool(flag)
    handle = OperatorHandle(mesh, POISSON_2D, BG, bcs)
    with pytest.raises(ValueError, match="primal vector"):
        handle.linearized_at(FieldVector.zeros(mesh, 2))
    # a batch used to fail deep in build_rhs, in a numpy broadcast
    batch = FieldVector.batch(mesh, 1, np.zeros((2, handle.n_primal_dofs)))
    for call, what in ((handle.linearized_at, "the linearization point"),
                       (handle.build_rhs, "the fixed source")):
        with pytest.raises(ValueError, match=f"{what} must be a single vector, not a batch"):
            call(batch)


def test_vectors_of_another_mesh_or_component_count_rejected():
    # `twin` has the same DoF count as `mesh`; meshes are compared by identity
    mesh, twin = unit_mesh_2d(2, 1), unit_mesh_2d(2, 1)
    handle = OperatorHandle(mesh, POISSON_2D, BG, BoundaryMap.everywhere(DirichletBC(0.0)))
    u, v = handle.zero_primal(), FieldVector.zeros(mesh, 2)
    foreign_u, foreign_v = FieldVector.zeros(twin, 1), FieldVector.zeros(twin, 2)
    primal = r"primal vector: 1 component\(s\) on the handle's mesh of 4 elements"
    auxiliary = r"an auxiliary vector: 2 component\(s\) on the handle's mesh of 4 elements"
    cases = [
        (lambda: handle.apply(foreign_u), primal + ", not 1 on another mesh"),
        (lambda: handle.apply(v), primal + ", not 2 on that mesh"),
        (lambda: handle.apply_full(foreign_v, u), auxiliary),
        (lambda: handle.apply_full(u, u), auxiliary),
        (lambda: handle.apply_full(v, foreign_u), primal),
        (lambda: handle.apply_full(v, v), primal),
        (lambda: handle.build_rhs(foreign_u), primal),
        (lambda: handle.build_rhs(v), primal),
        (lambda: handle.linearized_at(foreign_u), primal),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=message):
            call()


def test_puncture_collocation_guard():
    from ipdg.errors import SingularPointError

    sys_ = make_system(
        "puncture", dim=3, punctures=[PunctureSpec(1.0, (0.0, 0.0, 0.0))]
    )
    mesh = build_rectilinear_mesh(
        [(-1.0, 1.0)] * 3, levels=(0, 0, 0), degrees=(2, 2, 2)
    )
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    with pytest.raises(SingularPointError):
        OperatorHandle(mesh, sys_, BG, bcs)


def test_linearized_handle_does_not_repeat_the_puncture_check(monkeypatch):
    # a linearized handle shares its parent's points, which the parent's
    # construction already checked
    sys_ = make_system("puncture", dim=3, punctures=[PunctureSpec(1.0, (0.1, 0.2, 0.3))])
    mesh = build_rectilinear_mesh([(-1.0, 1.0)] * 3, levels=(1, 0, 0), degrees=(2, 3, 2))
    calls = []
    check = type(sys_).min_puncture_distance
    monkeypatch.setattr(
        type(sys_), "min_puncture_distance", lambda self, x: calls.append(x) or check(self, x)
    )
    handle = OperatorHandle(mesh, sys_, BG, BoundaryMap.everywhere(DirichletBC(0.0)))
    assert len(calls) == len(handle._cache.groups) == 1
    handle.linearized_at().linearized_at(FieldVector.zeros(mesh, 1))
    assert len(calls) == 1
