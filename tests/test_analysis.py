"""Error norm, rate extraction, and matrix diagnostics."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from ipdg.analysis import (
    ConvergenceSeries,
    _natural,
    _pairwise_sum,
    convergence_rates,
    l2_error,
    symmetry_defect,
    write_convergence_csv,
)
from ipdg.background import ConformallyFlatBackground, FlatBackground
from ipdg.boundaries import BoundaryMap, DirichletBC
from ipdg.mesh import (
    Mesh,
    build_annulus_mesh,
    build_rectilinear_mesh,
    split_element,
    with_degrees,
)
from ipdg.operators import FieldVector, OperatorHandle, lumped_mass_diag
from ipdg.solutions import gaussian, sin_product, sin_product_vector
from ipdg.systems import make_system
from test_operators import interpolant

BG = FlatBackground()


def mesh_2d(level=1, degree=3):
    return build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], levels=(level, level), degrees=(degree, degree)
    )


# -- l2 error ----------------------------------------------------------


def test_error_of_exact_interpolant_vanishes():
    mesh = mesh_2d(degree=4)
    poly = lambda x: (x[0] ** 3 * x[1] - x[1] ** 2)[None]
    u = interpolant(mesh, poly)
    assert l2_error(mesh, u, poly, BG) < 1e-12


def test_constant_offset_on_unit_volume():
    mesh = mesh_2d()
    base = lambda x: np.sin(x[0] * x[1])[None]
    u = interpolant(mesh, lambda x: base(x) + 0.25)
    assert l2_error(mesh, u, base, BG) == pytest.approx(0.25, rel=1e-13)


def test_error_pools_components():
    mesh = mesh_2d()
    exact = lambda x: np.stack([x[0], x[1]])
    off = lambda x: np.stack([x[0] + 0.3, x[1] + 0.4])
    u = interpolant(mesh, off, n_components=2)
    assert l2_error(mesh, u, exact, BG) == pytest.approx(0.5, rel=1e-13)


def handle_cases():
    """(handle, analytic field) on mixed grid shapes in 1D, 2D and 3D, and on
    a curved annulus with a conformally flat background."""
    curved = ConformallyFlatBackground(
        lambda x: 0.1 * x[0] - 0.05 * x[1],
        lambda x: np.stack([0.1 * np.ones_like(x[0]), -0.05 * np.ones_like(x[0])]),
    )
    dirichlet = BoundaryMap.everywhere(DirichletBC(0.0))
    square = with_degrees(with_degrees(mesh_2d(level=2), 1, (2, 4)), 9, (5, 3))
    cube = build_rectilinear_mesh([(0.0, 1.0)] * 3, (1, 0, 0), (2, 2, 2))
    cube = with_degrees(cube, 0, (3, 2, 1))
    line = with_degrees(build_rectilinear_mesh([(0.0, 1.0)], (2,), (3,)), 2, (5,))
    annulus = split_element(build_annulus_mesh(0.5, 1.0, 3, (0, 0), (3, 4)), 1)
    # grids long enough that summing in point order instead of natural grid
    # order changes the last bit
    fine = build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (1, 1), (12, 9))
    return [
        (OperatorHandle(fine, make_system("poisson-flat", dim=2), BG, dirichlet),
         gaussian(2, (0.3, 0.3), width=0.3)),
        (OperatorHandle(square, make_system("poisson-flat", dim=2), BG, dirichlet),
         gaussian(2, (0.35, 0.6), width=0.3)),
        (OperatorHandle(square, make_system("elasticity", dim=2), BG, dirichlet),
         sin_product_vector(2)),
        (OperatorHandle(cube, make_system("poisson-flat", dim=3), BG, dirichlet),
         gaussian(3, (0.4, 0.5, 0.6), width=0.5)),
        (OperatorHandle(line, make_system("poisson-flat", dim=1), BG, dirichlet),
         sin_product(1, wavenumber=2.0)),
        (OperatorHandle(annulus, make_system("poisson-curved", dim=2), curved, dirichlet),
         gaussian(2, (0.3, 0.7), width=0.4)),
    ]


def element_by_element_error(mesh, u, analytic_value, background):
    """The error from each element's own `lumped_mass_diag` and points, each
    element's sums in natural grid order, pooled by `_pairwise_sum`."""
    rows = u.data.reshape(u.n_components, -1)
    offsets = mesh.point_offsets
    num, den = [], []
    for k, el in enumerate(mesh.elements):
        w = lumped_mass_diag(el, background)
        own = rows[:, offsets[k]:offsets[k + 1]].reshape((-1,) + el.grid_shape[::-1])
        diff = _natural(own, el.dim) - np.asarray(analytic_value(el.coords()), float)
        num.append(float(np.sum(w * diff**2)))
        den.append(float(np.sum(w)))
    return math.sqrt(_pairwise_sum(num) / _pairwise_sum(den))


def test_error_with_handle_is_bit_identical():
    # the element groups, the handle's or new ones, give the error of the
    # element-by-element geometry to the last bit
    for handle, field in handle_cases():
        mesh, bg = handle.mesh, handle.background
        u = interpolant(
            mesh, lambda x: field.value(x) + 0.01 * np.cos(7.0 * x[:1]), field.n_components
        )
        want = element_by_element_error(mesh, u, field.value, bg)
        assert want > 0.0
        assert l2_error(mesh, u, field.value, bg) == want
        assert l2_error(mesh, u, field.value, bg, handle=handle) == want


def test_error_rejects_handle_of_another_mesh():
    handle, field = handle_cases()[0]
    other = mesh_2d(level=2)
    u = interpolant(other, field.value)
    with pytest.raises(ValueError, match="another mesh"):
        l2_error(other, u, field.value, BG, handle=handle)
    with pytest.raises(ValueError, match="another mesh"):
        l2_error(handle.mesh, interpolant(handle.mesh, field.value), field.value,
                 FlatBackground(), handle=handle)


def test_error_rejects_field_of_another_mesh_or_component_count():
    # `twin` has the same DoF count as `mesh`; meshes are compared by identity.
    # Without a handle the analytic value gives the component count
    mesh, twin = mesh_2d(), mesh_2d()
    scalar, vector = lambda x: np.sin(x[:1]), lambda x: np.stack([x[0], x[1]])
    handle = OperatorHandle(
        mesh, make_system("poisson-flat", dim=2), BG, BoundaryMap.everywhere(DirichletBC(0.0))
    )
    primal = r"u must be a primal vector: 1 component\(s\) on the mesh of 4 elements, not "
    shape = r"analytic value has shape \({}, 4, 4, 4\), expected {} component\(s\) first"
    cases = [
        (FieldVector.zeros(twin, 1), scalar, primal + "1 on another mesh", None),
        (FieldVector.zeros(mesh, 2), scalar, primal + "2 on that mesh", shape.format(1, 2)),
        (FieldVector.zeros(mesh, 1), vector, shape.format(2, 1), None),
        (FieldVector.batch(mesh, 1, np.zeros((2, mesh.total_points))), scalar,
         primal + "1 on that mesh, and not a batch", None),
    ]
    # values that only broadcast against the stacked grids (1, 4, 4, 4) used
    # to give a plausible error: 1.0 for each of these
    for value_shape in ((1,), (1, 4), (1, 1, 4, 4)):
        cases.append((
            FieldVector.zeros(mesh, 1), lambda x, s=value_shape: np.ones(s),
            rf"analytic value has shape {re.escape(str(value_shape))}, expected 1 component\(s\) "
            r"first and the stacked element grids \(1, 4, 4, 4\)", None,
        ))
    for u, exact, with_handle, without in cases:
        with pytest.raises(ValueError, match=with_handle):
            l2_error(mesh, u, exact, BG, handle=handle)
        with pytest.raises(ValueError, match=without or with_handle):
            l2_error(mesh, u, exact, BG)


def test_error_invariant_under_relabeling():
    mesh = mesh_2d(level=2)
    fn = lambda x: np.cos(3 * x[0] + x[1])[None]
    u = interpolant(mesh, lambda x: fn(x) + 0.1 * x[0][None])
    e1 = l2_error(mesh, u, fn, BG)
    perm = list(reversed(range(len(mesh.elements))))
    shuffled = Mesh(mesh.dim, mesh.blocks, [mesh.elements[k] for k in perm])
    u2 = interpolant(shuffled, lambda x: fn(x) + 0.1 * x[0][None])
    e2 = l2_error(shuffled, u2, fn, BG)
    assert e2 == pytest.approx(e1, rel=1e-14)


# -- rates -------------------------------------------------------------


def series_from(mode, entries):
    s = ConvergenceSeries(mode)
    for i, (n, res, err) in enumerate(entries):
        s.add(i, n, res, err)
    return s


def test_h_rate_log2():
    s = series_from("h", [(16, 0.5, 1e-2), (64, 0.25, 1.25e-3)])
    assert convergence_rates(s) == [pytest.approx(3.0, abs=1e-13)]


def test_p_rate_digits_per_degree():
    s = series_from("p", [(16, 3, 1e-3), (25, 4, 1e-4)])
    assert convergence_rates(s) == [pytest.approx(1.0, abs=1e-13)]


def test_constant_errors_rate_zero():
    s = series_from("h", [(4, 1.0, 0.5), (16, 0.5, 0.5)])
    assert convergence_rates(s) == [0.0]


def test_zero_error_infinite_sentinel():
    s = series_from("h", [(4, 1.0, 1e-3), (16, 0.5, 0.0)])
    assert convergence_rates(s) == [math.inf]


def test_synthetic_power_law_recovered():
    q = 2.5
    entries = [(4**k, 2.0**-k, 3.7 * (2.0**-k) ** q) for k in range(5)]
    rates = convergence_rates(series_from("h", entries))
    assert all(r == pytest.approx(q, abs=1e-12) for r in rates)


def test_levels_must_refine():
    s = series_from("h", [(16, 0.5, 1.0)])
    with pytest.raises(ValueError):
        s.add(1, 16, 0.25, 0.5)
    # in p-mode a level must raise the degree, or the rate divides by zero
    # (an h-refined level at the same degree used to pass here)
    p = series_from("p", [(16, 3, 1e-3)])
    for degree in (3, 2):
        with pytest.raises(ValueError, match=f"must raise the degree: {degree} after 3"):
            p.add(1, 64, degree, 1e-4)
    assert len(p.levels) == 1
    with pytest.raises(ValueError):
        convergence_rates(s)
    with pytest.raises(ValueError):
        ConvergenceSeries("hp")


# -- matrix diagnostics ------------------------------------------------


def test_symmetry_defect_identity():
    assert symmetry_defect(np.eye(5)) == 0.0


def test_symmetry_defect_nilpotent():
    assert symmetry_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0


def test_symmetry_defect_sparse_input():
    a = scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert symmetry_defect(a) == 0.0
    with pytest.raises(ValueError):
        symmetry_defect(np.ones((2, 3)))
    with pytest.raises(ValueError):
        symmetry_defect(scipy.sparse.csr_matrix((2, 3)))


def random_sparse(rng, n, nnz, symmetric):
    """An n x n CSR matrix of about nnz entries, a tenth of them explicit
    zeros; nearly symmetric, off by round-off, when `symmetric`."""
    rows, cols = rng.integers(0, n, (2, nnz))
    values = rng.standard_normal(nnz) * (rng.random(nnz) > 0.1)
    a = scipy.sparse.csr_matrix((values, (rows, cols)), shape=(n, n))
    if symmetric:
        a = a + a.T * (1.0 + 1e-15 * rng.standard_normal())
    return a.tocsr()


def test_symmetry_defect_sparse_equals_dense():
    # a sparse matrix is not densified, and gives the dense path's float
    rng = np.random.default_rng(7)
    cases = [random_sparse(rng, n, nnz, sym) for n, nnz in ((1, 1), (7, 20), (40, 300))
             for sym in (False, True)]
    cases += [scipy.sparse.csr_matrix((5, 5)),
              scipy.sparse.csr_matrix((np.zeros(3), ([0, 1, 2], [1, 2, 0])), shape=(3, 3)),
              scipy.sparse.coo_matrix(np.array([[1, 2], [3, 4]]))]
    for a in cases:
        assert symmetry_defect(a) == symmetry_defect(a.toarray())
    assert symmetry_defect(cases[-2]) == 0.0


def test_symmetry_defect_of_a_large_sparse_matrix_stays_sparse():
    # 50,000^2 dense would be 20 GB per array; the sparse path holds a few
    # copies of the 200,000 entries
    a = random_sparse(np.random.default_rng(3), 50_000, 200_000, symmetric=True)
    tracemalloc.start()
    try:
        defect = symmetry_defect(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < defect < 1e-14
    assert peak < 50e6


# -- csv ---------------------------------------------------------------


def test_convergence_csv(tmp_path):
    s = series_from("h", [(16, 0.5, 1e-2), (64, 0.25, 1.25e-3)])
    path = tmp_path / "conv.csv"
    write_convergence_csv(s, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mode,level,n_points,h_or_P,error,rate"
    first = lines[1].split(",")
    assert first[0] == "h"
    assert first[2] == "16"
    assert float(first[4]) == 1e-2
    assert first[5] == ""
    second = lines[2].split(",")
    assert float(second[5]) == pytest.approx(3.0, abs=1e-13)
