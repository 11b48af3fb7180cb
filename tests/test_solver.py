"""Krylov drivers, explicit assembly, Schur elimination, Newton iteration."""

import numpy as np
import pytest
import scipy.sparse

from ipdg.background import FlatBackground
from ipdg.boundaries import BoundaryMap, DirichletBC
from ipdg.errors import ConfigurationError, ResourceCapError
from ipdg.mesh import build_rectilinear_mesh, with_degrees
from ipdg.operators import FieldVector, OperatorHandle, lumped_mass_diag
from ipdg.solver import (
    ExplicitMatrix,
    assemble_explicit,
    schur_eliminate,
    solve_linear,
    solve_newton,
)
from ipdg.systems import PunctureSpec, make_system

BG = FlatBackground()


def poisson_handle(levels, degree, dim=2, form="strong", lin=True):
    system = make_system("poisson-flat", dim=dim)
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0)] * dim, levels=(levels,) * dim, degrees=(degree,) * dim
    )
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, system, BG, bcs, form=form)
    return handle.linearized_at() if lin else handle


def dense_oracle(handle, full=False):
    mv = handle.matvec_full if full else handle.matvec
    n = handle.n_primal_dofs + (handle.n_auxiliary_dofs if full else 0)
    a = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        a[:, j] = mv(e)
        e[j] = 0.0
    return a


# -- assembly ----------------------------------------------------------


def test_assembly_matches_unit_vector_oracle_1d():
    # five elements exercise the coloring; mixed degrees exercise offsets
    system = make_system("poisson-flat", dim=1)
    mesh = build_rectilinear_mesh([(0.0, 1.0)], levels=(2,), degrees=(2,))
    mesh = with_degrees(mesh, 1, (4,))
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, system, BG, bcs).linearized_at()
    mat = assemble_explicit(handle)
    np.testing.assert_allclose(mat.toarray(), dense_oracle(handle), atol=0.0)


def test_assembly_matches_unit_vector_oracle_2d():
    handle = poisson_handle(1, 2)
    mat = assemble_explicit(handle)
    np.testing.assert_allclose(mat.toarray(), dense_oracle(handle), atol=0.0)


def test_assembly_full_first_order():
    handle = poisson_handle(1, 2)
    mat = assemble_explicit(handle, include_auxiliary=True)
    n = handle.n_auxiliary_dofs + handle.n_primal_dofs
    assert mat.n_rows == mat.n_cols == n
    np.testing.assert_allclose(
        mat.toarray(), dense_oracle(handle, full=True), atol=0.0
    )
    assert "auxiliary block" in mat.ordering


def test_assembly_matrix_free_agreement():
    handle = poisson_handle(1, 3, form="strong-weak")
    mat = assemble_explicit(handle)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.normal(size=handle.n_primal_dofs)
        np.testing.assert_allclose(
            mat.matrix @ x,
            handle.matvec(x),
            atol=1e-12 * np.max(np.abs(mat.matrix @ x)),
        )


def test_assembly_cap():
    handle = poisson_handle(1, 3)
    with pytest.raises(ResourceCapError):
        assemble_explicit(handle, cap=10)


def test_assembly_rejects_unlinearized_nonlinear():
    system = make_system(
        "puncture", dim=3, punctures=[PunctureSpec(1.0, (0.3, 0.1, 0.2), (0.0, 0.0, 0.5))]
    )
    mesh = build_rectilinear_mesh(
        [(1.0, 2.0)] * 3, levels=(0, 0, 0), degrees=(2, 2, 2)
    )
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, system, BG, bcs)
    with pytest.raises(ConfigurationError):
        assemble_explicit(handle)
    assert assemble_explicit(handle.linearized_at()).n_rows == 27


# -- schur elimination -------------------------------------------------


def test_schur_two_by_two_by_hand():
    full = ExplicitMatrix(
        scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]])), "test"
    )
    s = schur_eliminate(full, 1)
    np.testing.assert_allclose(s.toarray(), [[2.5]])


def test_schur_equals_compact_poisson():
    handle = poisson_handle(1, 3, dim=1)
    full = assemble_explicit(handle, include_auxiliary=True)
    compact = assemble_explicit(handle)
    s = schur_eliminate(full, handle.n_auxiliary_dofs)
    scale = np.max(np.abs(compact.toarray()))
    assert np.max(np.abs(s.toarray() - compact.toarray())) < 1e-12 * scale


def test_schur_single_element():
    system = make_system("poisson-flat", dim=1)
    mesh = build_rectilinear_mesh([(0.0, 1.0)], levels=(0,), degrees=(4,))
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    handle = OperatorHandle(mesh, system, BG, bcs).linearized_at()
    full = assemble_explicit(handle, include_auxiliary=True)
    s = schur_eliminate(full, handle.n_auxiliary_dofs)
    scale = np.max(np.abs(s.toarray()))
    assert (
        np.max(np.abs(s.toarray() - assemble_explicit(handle).toarray()))
        < 1e-12 * scale
    )


def test_schur_singular_block():
    full = ExplicitMatrix(
        scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 3.0]])), "test"
    )
    with pytest.raises(FloatingPointError):
        schur_eliminate(full, 1)


# -- matrix export -----------------------------------------------------


def test_coordinate_export(tmp_path):
    mat = ExplicitMatrix(
        scipy.sparse.csr_matrix(
            np.array([[1.5, 0.0], [-2.0 / 3.0, 4.0e-13]])
        ),
        "test",
    )
    path = tmp_path / "mat.txt"
    mat.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "2 2 3"
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("1", "1"), ("2", "1"), ("2", "2")]
    assert float(rows[1][2]) == -2.0 / 3.0  # full precision round trip
    assert "e" in rows[0][2]


def test_export_deterministic(tmp_path):
    handle = poisson_handle(1, 2)
    mat = assemble_explicit(handle)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    mat.write(a)
    assemble_explicit(handle).write(b)
    assert a.read_bytes() == b.read_bytes()


# -- linear solves -----------------------------------------------------


def test_gmres_round_trip_affine():
    # non-linearized handle with inhomogeneous Dirichlet data
    system = make_system("poisson-flat", dim=2)
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(0, 0), degrees=(4, 4)
    )
    bcs = BoundaryMap.everywhere(DirichletBC(1.0))
    handle = OperatorHandle(mesh, system, BG, bcs)
    rng = np.random.default_rng(2)
    u_star = FieldVector(mesh, 1, [rng.normal(size=(1, 5, 5))])
    rhs = handle.apply(u_star)
    u, report = solve_linear(handle, rhs, tol=1e-12)
    assert report.converged
    np.testing.assert_allclose(
        u.arrays[0], u_star.arrays[0], atol=1e-8
    )


def test_build_rhs_solve_inhomogeneous_dirichlet():
    # build_rhs gives M f, and solve_linear alone moves the boundary term
    # A(0) of a non-linearized handle: the solution satisfies A(u) = M f
    system = make_system("poisson-flat", dim=2)
    mesh = build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(1, 1), degrees=(4, 4)
    )
    bcs = BoundaryMap({"x-lower": DirichletBC(2.0), "all": DirichletBC(0.0)})
    handle = OperatorHandle(mesh, system, BG, bcs, form="strong-weak")
    f = lambda x: np.sin(3.0 * x[:1]) * x[1:]
    mf = FieldVector(
        mesh, 1, [lumped_mass_diag(el, BG) * f(el.coords()) for el in mesh.elements]
    ).data
    tol = 1e-11
    u, report = solve_linear(handle, handle.build_rhs(f), tol=tol)
    assert report.converged
    b = mf - handle.apply(handle.zero_primal()).data
    assert np.linalg.norm(handle.apply(u).data - mf) <= tol * np.linalg.norm(b)


def test_gmres_against_direct_solve():
    handle = poisson_handle(1, 3)
    rng = np.random.default_rng(4)
    b = rng.normal(size=handle.n_primal_dofs)
    u, report = solve_linear(handle, b, tol=1e-10)
    assert report.converged
    assert report.residual_norm <= 1e-10
    exact = np.linalg.solve(assemble_explicit(handle).toarray(), b)
    assert np.max(np.abs(u.to_flat() - exact)) < 1e-8 * np.max(np.abs(exact))


def test_gmres_history_monotone():
    handle = poisson_handle(2, 3)
    b = np.sin(np.arange(handle.n_primal_dofs, dtype=float))
    _, report = solve_linear(handle, b, tol=1e-11, restart=20)
    h = report.residual_history
    assert all(h[i + 1] <= h[i] * (1.0 + 1e-9) for i in range(len(h) - 1))
    assert report.converged


def test_zero_rhs_short_circuit():
    handle = poisson_handle(1, 3)
    u, report = solve_linear(handle, handle.zero_primal())
    assert report.iterations == 0
    assert report.converged
    assert report.residual_norm == 0.0
    assert not any(a.any() for a in u.arrays)


def test_cg_requires_symmetric_configuration():
    with pytest.raises(ConfigurationError):
        solve_linear(
            poisson_handle(1, 2, form="strong"),
            np.ones(poisson_handle(1, 2).n_primal_dofs),
            method="cg",
        )


def test_cg_rejects_massless_operator():
    # without the mass matrix the operator M^-1 A is not symmetric, and CG
    # would return a plausible wrong answer after many iterations
    mesh = build_rectilinear_mesh([(0.0, 1.0)] * 2, levels=(1, 1), degrees=(3, 3))
    handle = OperatorHandle(
        mesh, make_system("poisson-flat", dim=2), BG,
        BoundaryMap.everywhere(DirichletBC(0.0)), form="strong-weak", massive=False,
    ).linearized_at()
    with pytest.raises(ConfigurationError, match="massive"):
        solve_linear(handle, np.ones(handle.n_primal_dofs), method="cg")


def test_cg_rejects_preconditioner():
    handle = poisson_handle(1, 2, form="strong-weak")
    with pytest.raises(ConfigurationError, match="preconditioner"):
        solve_linear(
            handle, np.ones(handle.n_primal_dofs), method="cg",
            preconditioner=lambda x: x,
        )


def test_cg_matches_gmres():
    handle = poisson_handle(1, 3, form="strong-weak")
    rng = np.random.default_rng(6)
    b = rng.normal(size=handle.n_primal_dofs)
    ug, _ = solve_linear(handle, b, method="gmres", tol=1e-12)
    uc, report = solve_linear(handle, b, method="cg", tol=1e-12)
    assert report.converged
    scale = np.max(np.abs(ug.to_flat()))
    assert np.max(np.abs(ug.to_flat() - uc.to_flat())) < 1e-8 * scale


def test_unknown_method_rejected():
    handle = poisson_handle(1, 2)
    with pytest.raises(ConfigurationError):
        solve_linear(handle, np.ones(handle.n_primal_dofs), method="lu")


def test_nonconvergence_is_reported_not_raised():
    handle = poisson_handle(2, 4)
    b = np.ones(handle.n_primal_dofs)
    _, report = solve_linear(handle, b, tol=1e-14, max_iter=3)
    assert not report.converged
    assert report.iterations == 3
    assert report.residual_norm > 1e-14


# -- newton ------------------------------------------------------------


def test_newton_linear_single_iteration():
    handle = poisson_handle(1, 3, lin=False)
    rng = np.random.default_rng(8)
    u_star = FieldVector(
        handle.mesh,
        1,
        [rng.normal(size=(1,) + e.grid_shape) for e in handle.mesh.elements],
    )
    rhs = handle.apply(u_star)
    u, report = solve_newton(handle, rhs, tol=1e-10)
    assert report.converged
    assert report.iterations == 1
    assert np.max(np.abs(u.to_flat() - u_star.to_flat())) < 1e-7


def puncture_handle(momentum):
    system = make_system(
        "puncture", dim=3, punctures=[PunctureSpec(1.0, (0.0, 0.0, 0.0), momentum)]
    )
    mesh = build_rectilinear_mesh(
        [(1.0, 2.0)] * 3, levels=(0, 0, 0), degrees=(3, 3, 3)
    )
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    return OperatorHandle(mesh, system, BG, bcs, form="strong-weak")


def test_newton_trivial_puncture():
    # momentum-free puncture has zero source, so zero data solves exactly
    handle = puncture_handle((0.0, 0.0, 0.0))
    u, report = solve_newton(handle, handle.zero_primal())
    assert report.converged
    assert report.iterations == 0
    assert report.residual_norm == 0.0
    assert not any(a.any() for a in u.arrays)


def test_newton_nonlinear_quadratic_phase():
    handle = puncture_handle((0.0, 0.0, 0.5))
    mesh = handle.mesh

    def smooth(x):
        return (0.1 * np.sin(x[0]) * np.sin(x[1] + x[2]))[None]

    u_star = FieldVector(mesh, 1, [smooth(e.coords()) for e in mesh.elements])
    rhs = handle.apply(u_star)
    u, report = solve_newton(handle, rhs, tol=1e-12, max_iter=12)
    assert report.converged
    assert np.max(np.abs(u.to_flat() - u_star.to_flat())) < 1e-8
    h = report.residual_history
    idx = [i for i in range(len(h) - 1) if 0.0 < h[i] < 1e-3]
    assert idx, "no quadratic-phase sample recorded"
    assert all(h[i + 1] <= h[i] ** 1.5 for i in idx)


def test_newton_divergence_reported():
    # an operator whose apply grows the residual: wrong-sign update via a
    # handle linearized far from the truth is hard to rig; instead shrink the
    # inner solve so the correction is useless
    handle = puncture_handle((0.0, 0.0, 0.5))
    rng = np.random.default_rng(12)
    u_star = FieldVector(
        handle.mesh, 1, [rng.normal(size=(1, 4, 4, 4))]
    )
    rhs = handle.apply(u_star)
    _, report = solve_newton(
        handle, rhs, tol=1e-12, max_iter=10, inner={"max_iter": 1, "tol": 1e-30}
    )
    assert not report.converged
    assert report.iterations <= 10
    # every step's one-iteration inner solve failed, and the report says so
    assert len(report.inner) == report.iterations > 0
    assert all(not r.converged and r.iterations == 1 for r in report.inner)


def test_penalty_removes_near_null_space():
    # without the penalty the operator keeps spurious zero-eigenmodes
    base = poisson_handle(1, 2)
    mesh = base.mesh
    system = make_system("poisson-flat", dim=2)
    bcs = BoundaryMap.everywhere(DirichletBC(0.0))
    penalized = assemble_explicit(
        OperatorHandle(mesh, system, BG, bcs, penalty_parameter=1.0).linearized_at()
    )
    unpenalized = assemble_explicit(
        OperatorHandle(mesh, system, BG, bcs, penalty_parameter=0.0).linearized_at()
    )
    s_pen = np.linalg.svd(penalized.toarray(), compute_uv=False)
    s_off = np.linalg.svd(unpenalized.toarray(), compute_uv=False)
    assert s_off[-1] < 1e-6 * s_pen[-1]
