"""End-to-end acceptance checks.

Every test here exercises the discretization through its public interface and
checks a documented numerical property at quantitative tolerance: convergence
rates of manufactured solutions, equivalence of the first-order and compact
operators, matrix symmetry and sparsity structure, and the nonlinear puncture
solves.

Convergence studies invert the assembled compact matrix directly so measured
errors reflect the discretization alone, not an iterative solver tolerance.

Known limitation, demonstrated rather than hidden: bilinear elements (degree 1)
converge at the optimal second order. The odd-degree superconvergence that
degrees 3 and 5 show (about two orders above the degree) needs the leading
error term to cancel, which the degree-1 collocation quadrature cannot do in
two dimensions, so the superconvergent-rate check for degree 1 fails. See
test_h_convergence_superconvergent_odd_degrees[1].
"""

import numpy as np
import pytest
import scipy.sparse.linalg

from ipdg import (
    BoundaryMap,
    ConformallyFlatBackground,
    DirichletBC,
    FalloffDirichletBC,
    FieldVector,
    FlatBackground,
    NeumannBC,
    OperatorHandle,
    PunctureSpec,
    RobinBC,
    assemble_explicit,
    build_annulus_mesh,
    build_rectilinear_mesh,
    l2_error,
    lumped_mass_diag,
    make_solution,
    make_system,
    manufactured_problem,
    refine_uniform,
    schur_eliminate,
    solve_newton,
    split_element,
    symmetry_defect,
    with_degrees,
)
from ipdg.basis import gauss_lobatto_nodes_weights
from ipdg.mesh import jacobian_at
from test_operators import face_shape

BG = FlatBackground()
POISSON = make_system("poisson-flat", dim=2)
ZERO_DIRICHLET = BoundaryMap({"all": DirichletBC(0.0)})


def unit_square(levels, degree):
    return build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], (levels, levels), (degree, degree)
    )


def sin_sin_problem():
    sol = make_solution("sin-product", POISSON, BG, {"wavenumber": 1})
    return manufactured_problem(POISSON, sol.field, BG)


def direct_solve(handle, source):
    """Invert the assembled compact operator for the collocated source.

    As solve_linear does, a non-linearized handle's boundary term A(0) is
    moved to the right-hand side.
    """
    linear = handle if handle.is_linearized else handle.linearized_at()
    rhs = handle.build_rhs(source)
    if not handle.is_linearized:
        rhs = rhs - handle.apply(handle.zero_primal())
    matrix = assemble_explicit(linear).matrix.tocsc()
    flat = scipy.sparse.linalg.spsolve(matrix, rhs.to_flat())
    return FieldVector.from_flat(handle.mesh, handle.system.n_primal, flat)


def h_refinement_errors(mesh, system, background, bcs, problem, n_levels, **kwargs):
    errors = []
    for level in range(n_levels):
        handle = OperatorHandle(mesh, system, background, bcs, **kwargs)
        u = direct_solve(handle, problem.fixed_source)
        errors.append(l2_error(mesh, u, problem.field.value, background))
        if level + 1 < n_levels:
            mesh = refine_uniform(mesh, "h")
    return errors


def finest_rate(errors):
    return np.log2(errors[-2] / errors[-1])


# --- Poisson convergence on the unit square -------------------------------

@pytest.mark.parametrize("degree", [2, 4])
def test_h_convergence_optimal_even_degrees(degree):
    # even degrees converge at degree + 1; the window tolerates the slightly
    # elevated pre-asymptotic rates of the coarser pairs
    base = 1 if degree <= 3 else 0
    mesh = unit_square(base, degree)
    errors = h_refinement_errors(
        mesh, POISSON, BG, ZERO_DIRICHLET, sin_sin_problem(), 4,
        form="strong", penalty_parameter=1.0,
    )
    rate = finest_rate(errors)
    assert degree + 0.7 <= rate <= degree + 1.5


@pytest.mark.parametrize("degree", [1, 3, 5])
def test_h_convergence_superconvergent_odd_degrees(degree):
    base = 1 if degree <= 3 else 0
    mesh = unit_square(base, degree)
    errors = h_refinement_errors(
        mesh, POISSON, BG, ZERO_DIRICHLET, sin_sin_problem(), 4,
        form="strong", penalty_parameter=1.0,
    )
    assert finest_rate(errors) >= degree + 1.5


def test_p_convergence_is_exponential():
    problem = sin_sin_problem()
    errors = []
    for degree in range(2, 9):
        mesh = unit_square(1, degree)
        handle = OperatorHandle(
            mesh, POISSON, BG, ZERO_DIRICHLET, form="strong", penalty_parameter=1.0
        )
        u = direct_solve(handle, problem.fixed_source)
        errors.append(l2_error(mesh, u, problem.field.value, BG))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-8
    # per-degree decades gained, averaged over the degree >= 4 pairs
    taus = [np.log10(a / b) for a, b in zip(errors, errors[1:])]
    assert np.mean(taus[2:]) >= 1.0


# --- first-order operator vs compact operator -----------------------------

def five_by_five_handle():
    mesh = unit_square(1, 5)
    return OperatorHandle(mesh, POISSON, BG, ZERO_DIRICHLET, form="strong")


def test_schur_complement_reproduces_compact_matrix():
    handle = five_by_five_handle()
    full = assemble_explicit(handle, include_auxiliary=True)
    compact = assemble_explicit(handle)
    assert full.n_rows == 432
    assert compact.n_rows == 144
    reduced = schur_eliminate(full, handle.n_auxiliary_dofs)
    a = compact.matrix.toarray()
    diff = np.abs(reduced.matrix.toarray() - a).max()
    assert diff <= 1e-10 * np.abs(a).max()


def element_dof_ranges(mesh, n_vars):
    """Per-element flat index ranges for each of n_vars variable blocks."""
    sizes = [el.n_points for el in mesh.elements]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = offsets[-1]
    return [
        [range(v * total + offsets[k], v * total + offsets[k + 1]) for v in range(n_vars)]
        for k in range(len(sizes))
    ]


def diagonal_element_pairs(mesh):
    centers = jacobian_at(mesh.elements, np.zeros(mesh.dim))[0].T
    pairs = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            offset = np.abs(centers[i] - centers[j])
            if np.all(offset > 1e-12):
                pairs.append((i, j))
    return pairs


def test_elements_sharing_no_boundary_never_couple():
    handle = five_by_five_handle()
    pairs = diagonal_element_pairs(handle.mesh)
    assert len(pairs) == 2
    for matrix, n_vars in (
        (assemble_explicit(handle), 1),
        (assemble_explicit(handle, include_auxiliary=True), 3),
    ):
        dense = matrix.matrix.toarray()
        ranges = element_dof_ranges(handle.mesh, n_vars)
        for i, j in pairs:
            rows = np.concatenate([np.asarray(r) for r in ranges[i]])
            cols = np.concatenate([np.asarray(r) for r in ranges[j]])
            assert np.all(dense[np.ix_(rows, cols)] == 0.0)
            assert np.all(dense[np.ix_(cols, rows)] == 0.0)


# --- symmetry of the massive operator -------------------------------------

def degree_mismatch_mesh():
    # two elements whose degrees differ only along the normal of the face
    # they share: both sides have 4 points across it, so its mortar is
    # conforming. The strong form is visibly asymmetric even so, while the
    # strong-weak form is symmetric.
    mesh = build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (1, 0), (3, 3))
    return with_degrees(mesh, 0, (5, 3))


def test_massive_strong_weak_matrix_is_symmetric():
    handle = OperatorHandle(
        degree_mismatch_mesh(), POISSON, BG, ZERO_DIRICHLET,
        form="strong-weak", massive=True,
    )
    defect = symmetry_defect(assemble_explicit(handle).matrix.toarray())
    assert defect <= 1e-12


def nonconforming_mesh(kind):
    # two elements, one of them split (h) or raised across the shared face (p)
    dim = int(kind[-2])
    mesh = build_rectilinear_mesh([(0.0, 1.0)] * dim, (1,) + (0,) * (dim - 1), (2,) * dim)
    if kind.startswith("h"):
        return split_element(mesh, 0)
    return with_degrees(mesh, 0, tuple(range(2, 2 + dim)))


@pytest.mark.parametrize("system", ["poisson-flat", "elasticity"])
@pytest.mark.parametrize("kind", ["h-2d", "p-2d", "h-3d", "p-3d"])
def test_massive_strong_weak_matrix_is_symmetric_on_nonconforming_meshes(kind, system):
    mesh = nonconforming_mesh(kind)
    # every mesh has a mortar with a non-identity side: one partly covered,
    # or face grids that differ, so that one is not the mortar grid
    assert any(
        any(c != "full" for s in m.sides for c in s.coverage)
        or len({face_shape(mesh.elements[s.element].grid_shape, s.dim) for s in m.sides}) == 2
        for m in mesh.topology.mortars
    )
    handle = OperatorHandle(
        mesh, make_system(system, dim=mesh.dim), BG, ZERO_DIRICHLET,
        form="strong-weak", massive=True,
    )
    defect = symmetry_defect(assemble_explicit(handle.linearized_at()).matrix.toarray())
    assert defect <= 1e-12


def test_massive_strong_matrix_is_not_symmetric():
    handle = OperatorHandle(
        degree_mismatch_mesh(), POISSON, BG, ZERO_DIRICHLET,
        form="strong", massive=True,
    )
    defect = symmetry_defect(assemble_explicit(handle).matrix.toarray())
    assert defect >= 1e-3


def test_nonconforming_mesh_converges_at_high_order():
    # one element split in both dimensions plus one raised degree, so faces
    # carry two-mortar and degree-mismatch couplings at every level
    mesh = unit_square(1, 3)
    mesh = with_degrees(mesh, 3, (4, 4))
    mesh = split_element(mesh, 0)
    errors = h_refinement_errors(
        mesh, POISSON, BG, ZERO_DIRICHLET, sin_sin_problem(), 4,
        form="strong-weak", penalty_parameter=1.0,
    )
    assert finest_rate(errors) >= 3.7


# --- boundary conditions ---------------------------------------------------

def test_robin_boundary_h_convergence():
    problem = sin_sin_problem()
    bcs = BoundaryMap({
        "x-lower": RobinBC(1.0, 1.0, problem.robin_data(1.0, 1.0)),
        "all": DirichletBC(0.0),
    })
    errors = h_refinement_errors(
        unit_square(1, 3), POISSON, BG, bcs, problem, 3,
        form="strong", penalty_parameter=1.0,
    )
    assert finest_rate(errors) >= 3.7


# --- curved backgrounds and curved meshes ---------------------------------

def test_conformally_flat_background_h_convergence():
    system = make_system("poisson-curved", dim=2)
    background = ConformallyFlatBackground(
        lambda x: 0.1 * x[0],
        lambda x: np.stack([0.1 * np.ones_like(x[0]), np.zeros_like(x[0])]),
    )
    sol = make_solution("sin-product", system, background, {"wavenumber": 1})
    problem = manufactured_problem(system, sol.field, background)
    errors = h_refinement_errors(
        unit_square(1, 3), system, background, ZERO_DIRICHLET, problem, 3,
        form="strong", penalty_parameter=1.0,
    )
    assert finest_rate(errors) >= 3.7


def test_annulus_h_convergence():
    # curved element maps with the flat metric; the lumped quadrature of the
    # geometry tolerates a mild loss against the conforming-rate floor
    sol = make_solution(
        "gaussian", POISSON, BG,
        {"center": [0.5, 0.3], "width": 1.0, "amplitude": 1.0},
    )
    problem = manufactured_problem(POISSON, sol.field, BG)
    bcs = BoundaryMap({"all": DirichletBC(problem.field.value)})
    mesh = build_annulus_mesh(1.0, 2.0, 4, (0, 0), (3, 3))
    errors = h_refinement_errors(
        mesh, POISSON, BG, bcs, problem, 4, form="strong", penalty_parameter=1.0
    )
    assert finest_rate(errors) >= 3 - 0.5


# --- elasticity ------------------------------------------------------------

def elasticity_setup():
    system = make_system("elasticity", dim=2, lame_lambda=1.0, shear_modulus=1.0)
    sol = make_solution("sin-product-vector", system, BG, {"wavenumber": 1})
    problem = manufactured_problem(system, sol.field, BG)
    bcs = BoundaryMap({
        "x-upper": NeumannBC(problem.neumann_data),
        "all": DirichletBC(0.0),
    })
    return system, problem, bcs


def test_elasticity_h_convergence_with_traction_edge():
    system, problem, bcs = elasticity_setup()
    errors = h_refinement_errors(
        unit_square(1, 3), system, BG, bcs, problem, 3,
        form="strong", penalty_parameter=1.0,
    )
    assert finest_rate(errors) >= 3.7


def test_elasticity_compact_operator_size():
    system, _, bcs = elasticity_setup()
    handle = OperatorHandle(unit_square(1, 5), system, BG, bcs, form="strong")
    matrix = assemble_explicit(handle)
    assert (matrix.n_rows, matrix.n_cols) == (288, 288)


# --- nonlinear puncture solves ---------------------------------------------

def test_puncture_without_momentum_solves_immediately():
    system = make_system(
        "puncture", dim=3, punctures=[PunctureSpec(1.0, (0.3, 0.2, 0.6))]
    )
    mesh = build_rectilinear_mesh([(-1.0, 1.0)] * 3, (0, 0, 0), (2, 2, 2))
    handle = OperatorHandle(
        mesh, system, BG, ZERO_DIRICHLET, form="strong-weak", penalty_parameter=1.0
    )
    u, report = solve_newton(handle, FieldVector.zeros(mesh, 1), tol=1e-12)
    assert report.converged
    assert report.iterations <= 2
    assert not u.data.any()


def test_boosted_puncture_newton_convergence():
    # single unit-mass puncture carrying linear momentum; the cube is offset
    # so no collocation point coincides with the puncture
    system = make_system(
        "puncture", dim=3,
        punctures=[PunctureSpec(1.0, (0.0, 0.0, 0.0), momentum=(0.0, 0.0, 0.5))],
    )
    shift = 0.39
    mesh = build_rectilinear_mesh(
        [(-8.0 + shift, 8.0 + shift)] * 3, (1, 1, 1), (4, 4, 4)
    )
    bcs = BoundaryMap({"all": FalloffDirichletBC(0.1, (0.0, 0.0, 0.0))})
    handle = OperatorHandle(mesh, system, BG, bcs, form="strong-weak")
    zero = FieldVector.zeros(mesh, 1)
    scale = np.linalg.norm(handle.apply(zero).to_flat())
    u, report = solve_newton(
        handle, zero, tol=1e-9 * scale,
        inner={"method": "cg", "tol": 1e-12, "max_iter": 20000},
    )
    assert report.converged
    assert report.iterations <= 10
    assert report.residual_history[-1] / report.residual_history[0] < 1e-8
    # the correction to the background conformal factor is small and positive
    assert 0.0 < u.data.min()
    assert u.data.max() < 0.1


def test_puncture_manufactured_h_convergence():
    # same nonlinear source, posed away from the puncture so the manufactured
    # solution stays smooth
    system = make_system(
        "puncture", dim=3,
        punctures=[PunctureSpec(1.0, (0.0, 0.0, 0.0), momentum=(0.2, 0.0, 0.3))],
    )
    sol = make_solution(
        "gaussian", system, BG,
        {"center": [1.5, 1.5, 1.5], "width": 0.6, "amplitude": 0.4},
    )
    problem = manufactured_problem(system, sol.field, BG)
    bcs = BoundaryMap({"all": DirichletBC(problem.field.value)})
    mesh = build_rectilinear_mesh([(1.0, 2.0)] * 3, (0, 0, 0), (2, 2, 2))
    errors = []
    for level in range(3):
        handle = OperatorHandle(mesh, system, BG, bcs, form="strong-weak")
        u, report = solve_newton(
            handle, handle.build_rhs(problem.fixed_source), tol=1e-11,
            inner={"method": "cg", "tol": 1e-13, "max_iter": 40000},
        )
        assert report.converged
        errors.append(l2_error(mesh, u, problem.field.value, BG))
        if level < 2:
            mesh = refine_uniform(mesh, "h")
    assert finest_rate(errors) >= 2.7


# --- matrix-free application matches assembly ------------------------------

def small_configurations():
    robin_problem = sin_sin_problem()
    curved_bg = ConformallyFlatBackground(
        lambda x: 0.1 * x[0],
        lambda x: np.stack([0.1 * np.ones_like(x[0]), np.zeros_like(x[0])]),
    )
    curved = make_system("poisson-curved", dim=2)
    ela_system, ela_problem, ela_bcs = elasticity_setup()
    punc = make_system(
        "puncture", dim=3,
        punctures=[PunctureSpec(1.0, (0.0, 0.0, 0.0), momentum=(0.2, 0.0, 0.3))],
    )
    punc_mesh = build_rectilinear_mesh([(1.0, 2.0)] * 3, (0, 0, 0), (3, 3, 3))
    configs = [
        ("poisson-strong", five_by_five_handle()),
        ("poisson-fine", OperatorHandle(unit_square(2, 3), POISSON, BG, ZERO_DIRICHLET)),
        ("degree-mismatch", OperatorHandle(
            degree_mismatch_mesh(), POISSON, BG, ZERO_DIRICHLET,
            form="strong-weak", massive=True)),
        ("nonconforming", OperatorHandle(
            split_element(with_degrees(unit_square(1, 3), 3, (4, 4)), 0),
            POISSON, BG, ZERO_DIRICHLET, form="strong-weak")),
        ("robin-edge", OperatorHandle(
            unit_square(1, 3), POISSON, BG,
            BoundaryMap({
                "x-lower": RobinBC(1.0, 1.0, robin_problem.robin_data(1.0, 1.0)),
                "all": DirichletBC(0.0),
            }))),
        ("curved", OperatorHandle(
            unit_square(1, 3), curved, curved_bg, ZERO_DIRICHLET)),
        ("annulus", OperatorHandle(
            build_annulus_mesh(1.0, 2.0, 4, (0, 0), (3, 3)),
            POISSON, BG, ZERO_DIRICHLET)),
        ("elasticity", OperatorHandle(
            unit_square(1, 3), ela_system, BG, ela_bcs)),
        ("puncture", OperatorHandle(
            punc_mesh, punc, BG, ZERO_DIRICHLET, form="strong-weak"
        ).linearized_at()),
    ]
    return configs


def test_matrix_free_application_matches_assembled_matrix():
    rng = np.random.default_rng(20240817)
    for label, handle in small_configurations():
        assert handle.n_primal_dofs <= 5000, label
        linear = handle if handle.is_linearized else handle.linearized_at()
        matrix = assemble_explicit(linear).matrix
        for _ in range(10):
            x = rng.standard_normal(linear.n_primal_dofs)
            via_matrix = matrix @ x
            direct = linear.matvec(x)
            scale = max(1.0, np.abs(via_matrix).max())
            assert np.abs(via_matrix - direct).max() <= 1e-12 * scale, label


# --- worked quadrature examples --------------------------------------------

def test_quadrature_and_penalty_reference_values():
    nodes = gauss_lobatto_nodes_weights(3)
    np.testing.assert_allclose(nodes.nodes, [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(nodes.weights, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)

    # mass weights of a degree-2 element spanning the unit interval
    mesh = build_rectilinear_mesh([(0.0, 1.0)], (0,), (2,))
    np.testing.assert_allclose(
        lumped_mass_diag(mesh.elements[0], BG), [1 / 6, 2 / 3, 1 / 6], atol=1e-15
    )

    from ipdg.operators import penalty_sigma

    assert penalty_sigma(5, 5, 0.5, 0.5, 1.0) == pytest.approx(72.0)
    assert penalty_sigma(5, 5, 0.25, 0.25, 1.0) == pytest.approx(144.0)

    background = ConformallyFlatBackground(
        lambda x: 0.1 * x[0],
        lambda x: np.stack([0.1 * np.ones_like(x[0]), np.zeros_like(x[0])]),
    )
    x = np.zeros((2, 1))
    np.testing.assert_allclose(
        background.christoffel_contraction(x)[:, 0], [0.2, 0.0], atol=1e-15
    )
