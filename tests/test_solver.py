"""Krylov drivers, explicit assembly, Schur elimination, Newton iteration."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from ipdg.background import ConformallyFlatBackground, FlatBackground
from ipdg.boundaries import BoundaryMap, DirichletBC, FalloffDirichletBC
from ipdg.errors import ConfigurationError, ResourceCapError
from ipdg.mesh import build_rectilinear_mesh, with_degrees
from ipdg.operators import FieldVector, OperatorHandle
import ipdg.solver
from ipdg.solver import (
    ExplicitMatrix,
    _cg,
    _gmres,
    assemble_explicit,
    schur_eliminate,
    solve_linear,
    solve_newton,
)
from ipdg.systems import PunctureSpec, make_system
from test_operators import flat_mass, flat_points, interpolant

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


def test_schur_zero_diagonal_with_empty_coupling_row():
    # the zero pivot's row of A_vu is empty, so only the diagonal shows it
    full = ExplicitMatrix(
        scipy.sparse.csr_matrix(
            np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]])
        ),
        "test",
    )
    with pytest.raises(FloatingPointError, match="singular"):
        schur_eliminate(full, 2)


def test_schur_rejects_non_diagonal_auxiliary_block():
    # invertible, so a general solve would accept it; elimination by
    # scaling must not
    full = ExplicitMatrix(
        scipy.sparse.csr_matrix(
            np.array([[2.0, 0.5, 1.0], [0.5, 2.0, 1.0], [1.0, 1.0, 3.0]])
        ),
        "test",
    )
    with pytest.raises(ValueError, match="not diagonal"):
        schur_eliminate(full, 2)


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


def test_export_matches_per_line_format(tmp_path):
    # negative, subnormal, integer-valued, huge and tiny entries
    values = [-2.0 / 3.0, 5e-324, -2.2250738585072014e-309, 3.0, -7.0, 1.7976931348623157e308,
              1e-300, 0.1, 123456789.0]
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 40, size=len(values))
    cols = rng.permutation(60)[: len(values)]
    mat = ExplicitMatrix(
        scipy.sparse.csr_matrix((values, (rows, cols)), shape=(40, 60)), "test"
    )
    path = tmp_path / "mat.txt"
    mat.write(path)
    coo = mat.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    expected = f"{mat.n_rows} {mat.n_cols} {coo.nnz}\n" + "".join(
        f"{r + 1} {c + 1} {v:.17e}\n"
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order])
    )
    assert coo.nnz == len(values)
    assert path.read_bytes() == expected.encode()
    assert "4.94065645841246544e-324" in expected and "3.00000000000000000e+00" in expected


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
    u_star = FieldVector.from_flat(mesh, 1, rng.normal(size=25))
    rhs = handle.apply(u_star)
    u, report = solve_linear(handle, rhs, tol=1e-12)
    assert report.converged
    np.testing.assert_allclose(u.data, u_star.data, atol=1e-8)


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
    mf = flat_mass(mesh) * f(flat_points(mesh))[0]
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
    assert not u.data.any()


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


# Each bad value is tried on a zero right-hand side, which returns at once
# without the check, so a missing check fails instead of hanging.


def _bad_solver_argument(key, value, match):
    linear = poisson_handle(1, 2, lin=False)
    zero = linear.zero_primal()
    with pytest.raises(ConfigurationError, match=match):
        solve_linear(linear, zero, **{key: value})
    with pytest.raises(ConfigurationError, match=match):
        solve_newton(linear, zero, inner={key: value})


def test_restart_below_one_rejected():
    # restart=0 made GMRES loop forever without counting an iteration
    for restart in (0, -2):
        _bad_solver_argument("restart", restart, "solver.restart")


def test_negative_max_iterations_rejected():
    _bad_solver_argument("max_iter", -3, "solver.max_iterations")
    with pytest.raises(ConfigurationError, match="newton.max_iterations"):
        solve_newton(poisson_handle(1, 2, lin=False), np.zeros(36), max_iter=-1)


def test_negative_or_non_finite_tolerance_rejected():
    for tol in (-1e-10, np.nan, np.inf):
        _bad_solver_argument("tol", tol, "solver.tolerance")
        with pytest.raises(ConfigurationError, match="newton.tolerance"):
            solve_newton(poisson_handle(1, 2, lin=False), np.zeros(36), tol=tol)


def test_gmres_with_preconditioners():
    # a non-symmetric operator: the strong form on a conformally flat
    # background, two grid shapes
    bg = ConformallyFlatBackground(
        lambda x: 0.3 * x[0] - 0.2 * x[1],
        lambda x: np.stack([0.3 * np.ones_like(x[0]), -0.2 * np.ones_like(x[0])]),
    )
    mesh = with_degrees(
        build_rectilinear_mesh([(0.0, 1.0)] * 2, levels=(1, 1), degrees=(3, 3)), 2, (4, 2)
    )
    handle = OperatorHandle(
        mesh, make_system("poisson-curved", dim=2), bg,
        BoundaryMap.everywhere(DirichletBC(0.0)), form="strong",
    ).linearized_at()
    a = assemble_explicit(handle).matrix.tocsc()
    assert abs(a - a.T).max() > 1e-3 * abs(a).max()
    b = np.random.default_rng(3).standard_normal(handle.n_primal_dofs)
    tol = 1e-10
    plain, _ = solve_linear(handle, b, tol=tol)
    diagonal = a.diagonal()
    jacobi, report = solve_linear(handle, b, tol=tol, preconditioner=lambda x: x / diagonal)
    assert report.converged
    assert np.linalg.norm(b - handle.matvec(jacobi.data)) <= tol * np.linalg.norm(b)
    assert np.linalg.norm(jacobi.data - plain.data) <= tol * np.linalg.norm(plain.data)
    # the exact inverse leaves the identity to solve
    inverse = scipy.sparse.linalg.splu(a).solve
    exact, report = solve_linear(handle, b, tol=tol, preconditioner=inverse)
    assert report.converged and report.iterations <= 2
    assert np.linalg.norm(b - handle.matvec(exact.data)) <= tol * np.linalg.norm(b)


def test_nonconvergence_is_reported_not_raised():
    handle = poisson_handle(2, 4)
    b = np.ones(handle.n_primal_dofs)
    _, report = solve_linear(handle, b, tol=1e-14, max_iter=3)
    assert not report.converged
    assert report.iterations == 3
    assert report.residual_norm > 1e-14


def test_cg_stops_when_positive_definiteness_is_lost():
    # p = b = (1, 1) gives p.Ap = 0 on diag(1, -1) before any step is taken
    a = np.diag([1.0, -1.0])
    x, its, history, ok, true_rel = _cg(lambda v: a @ v, np.ones(2), 1e-10, 10)
    assert not x.any()
    assert its == 0 and not ok and true_rel is None
    assert history == [1.0]


def test_cg_stops_at_max_iter_without_the_true_residual():
    a = np.diag([1.0, 2.0, 3.0])
    x, its, history, ok, true_rel = _cg(lambda v: a @ v, np.ones(3), 1e-10, 1)
    assert its == 1 and not ok and true_rel is None
    assert len(history) == 2 and history[1] > 1e-10


def test_solve_linear_recomputes_the_residual_after_cg_max_iter():
    handle = poisson_handle(1, 3, form="strong-weak")
    b = np.sin(np.arange(handle.n_primal_dofs, dtype=float))
    u, report = solve_linear(handle, b, method="cg", tol=1e-10, max_iter=1)
    assert not report.converged and report.iterations == 1
    # _cg handed back no true residual: solve_linear applied the operator once more
    assert report.residual_norm == (
        np.linalg.norm(b - handle.matvec(u.to_flat())) / np.linalg.norm(b)
    )
    assert report.residual_norm > 1e-10


def _gmres_reference(matvec, b, tol, max_iter, restart, precond):
    """An earlier `_gmres`, kept verbatim as an oracle: its Hessenberg matrix,
    rotations and right-hand side are numpy arrays and scalars."""
    bnorm = np.linalg.norm(b)
    x = np.zeros_like(b)
    history = [1.0]  # zero initial guess
    total = 0
    rel = 1.0
    while total < max_iter:
        r = b - matvec(x)
        beta = np.linalg.norm(r)
        rel = beta / bnorm
        if rel <= tol:
            return x, total, history, True
        m = min(restart, max_iter - total)
        v = np.empty((m + 1, b.size))
        v[0] = r / beta
        h = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        j_done = 0
        for j in range(m):
            w = matvec(precond(v[j]))
            for i in range(j + 1):
                h[i, j] = v[i] @ w
                w -= h[i, j] * v[i]
            h[j + 1, j] = np.linalg.norm(w)
            if h[j + 1, j] > 0.0:
                v[j + 1] = w / h[j + 1, j]
            for i in range(j):
                t = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = t
            denom = np.hypot(h[j, j], h[j + 1, j])
            cs[j], sn[j] = h[j, j] / denom, h[j + 1, j] / denom
            h[j, j] = denom
            h[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            j_done = j + 1
            rel = abs(g[j + 1]) / bnorm
            history.append(rel)
            if rel <= tol:
                break
        y = scipy.linalg.solve_triangular(
            h[:j_done, :j_done], g[:j_done], lower=False
        )
        x = x + precond(v[:j_done].T @ y)
        if rel <= tol:
            true_rel = np.linalg.norm(b - matvec(x)) / bnorm
            if true_rel <= tol:
                return x, total, history, True
    return x, total, history, False


def _nonsymmetric_matvecs():
    # a random dense matrix, and the strong-form DG operator on two grid shapes
    rng = np.random.default_rng(12)
    a = 3.0 * np.eye(80) + rng.standard_normal((80, 80)) / np.sqrt(80.0)
    system = make_system("poisson-flat", dim=2)
    mesh = with_degrees(
        build_rectilinear_mesh([(0.0, 1.0)] * 2, levels=(1, 1), degrees=(3, 3)), 2, (4, 2)
    )
    handle = OperatorHandle(
        mesh, system, BG, BoundaryMap.everywhere(DirichletBC(0.0)), form="strong"
    ).linearized_at()
    return [(lambda x: a @ x, 80), (handle.matvec, handle.n_primal_dofs)]


@pytest.mark.parametrize("case", [
    # (restart, max_iter, tol, preconditioned, converges)
    pytest.param((6, 4000, 1e-11, False, True), id="restarts"),
    pytest.param((6, 4000, 1e-11, True, True), id="restarts-preconditioned"),
    pytest.param((7, 25, 1e-14, False, False), id="max-iter-mid-cycle"),
])
def test_gmres_matches_reference_bit_for_bit(case):
    restart, max_iter, tol, preconditioned, converges = case
    rng = np.random.default_rng(13)
    for matvec, n in _nonsymmetric_matvecs():
        b = rng.standard_normal(n)
        scale = 1.0 + rng.random(n)
        precond = (lambda x: scale * x) if preconditioned else (lambda x: x)
        want = _gmres_reference(matvec, b, tol, max_iter, restart, precond)
        x, its, history, ok, true_rel = _gmres(matvec, b, tol, max_iter, restart, precond)
        np.testing.assert_array_equal(x, want[0])
        assert (its, ok) == (want[1], want[3]) and ok == converges
        np.testing.assert_array_equal(history, want[2])
        assert its > restart and (converges or its % restart != 0)
        if ok:  # the true residual, as solve_linear would compute it
            assert true_rel == np.linalg.norm(b - matvec(x)) / np.linalg.norm(b)


@pytest.mark.parametrize("method", ["gmres", "cg"])
def test_solve_linear_reuses_the_drivers_true_residual(method):
    # on convergence the driver has applied the operator to x already: the
    # report's residual is that value, not the result of one more application
    handle = poisson_handle(1, 3, form="strong-weak")
    b = np.sin(np.arange(handle.n_primal_dofs, dtype=float))
    calls = []
    matvec = handle.matvec
    handle.matvec = lambda x: calls.append(1) or matvec(x)
    u, report = solve_linear(handle, b, method=method, tol=1e-10, restart=200)
    assert report.converged
    # gmres: the initial residual, one per iteration and the true residual;
    # cg: one per iteration and the true residual
    assert len(calls) == report.iterations + (2 if method == "gmres" else 1)
    assert report.residual_norm == (
        np.linalg.norm(b - matvec(u.to_flat())) / np.linalg.norm(b)
    )


# -- newton ------------------------------------------------------------


def test_newton_linear_single_iteration():
    handle = poisson_handle(1, 3, lin=False)
    rng = np.random.default_rng(8)
    u_star = FieldVector.from_flat(handle.mesh, 1, rng.normal(size=handle.n_primal_dofs))
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
    assert not u.data.any()


def test_newton_nonlinear_quadratic_phase():
    handle = puncture_handle((0.0, 0.0, 0.5))
    mesh = handle.mesh

    def smooth(x):
        return (0.1 * np.sin(x[0]) * np.sin(x[1] + x[2]))[None]

    u_star = interpolant(mesh, smooth)
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
    u_star = FieldVector.from_flat(handle.mesh, 1, rng.normal(size=64))
    rhs = handle.apply(u_star)
    _, report = solve_newton(
        handle, rhs, tol=1e-12, max_iter=10, inner={"max_iter": 1, "tol": 1e-30}
    )
    assert not report.converged
    assert report.iterations <= 10
    # every step's one-iteration inner solve failed, and the report says so
    assert len(report.inner) == report.iterations > 0
    assert all(not r.converged and r.iterations == 1 for r in report.inner)


def test_newton_aborts_after_three_residual_increases(monkeypatch):
    # every correction is negated, so each step doubles the residual: the
    # third increase in a row ends the iteration well before max_iter
    system = make_system(
        "puncture", dim=3,
        punctures=[PunctureSpec(1.0, (0.3, 0.2, 0.1), (0.0, 0.2, 0.0))],
    )
    mesh = build_rectilinear_mesh(
        [(-10.0, 10.0)] * 3, levels=(1, 1, 1), degrees=(3, 3, 3)
    )
    bcs = BoundaryMap.everywhere(FalloffDirichletBC(0.5))
    handle = OperatorHandle(mesh, system, BG, bcs, form="strong-weak")
    inner = ipdg.solver.solve_linear

    def negated(*args, **kwargs):
        du, report = inner(*args, **kwargs)
        return -1.0 * du, report

    monkeypatch.setattr(ipdg.solver, "solve_linear", negated)
    _, report = solve_newton(handle, handle.zero_primal(), max_iter=30)
    assert not report.converged
    assert report.iterations == 3
    assert len(report.inner) == 3
    h = np.array(report.residual_history)
    assert len(h) == 4
    np.testing.assert_allclose(h[1:] / h[:-1], 2.0, rtol=0.02)
    assert report.residual_norm == h[-1]


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
