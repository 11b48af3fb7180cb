"""Assembly invariants on randomized 1D, 2D and 3D meshes.

Meshes come from random `split_element` sequences (kept two-to-one
balanced) and random per-element degrees from `with_degrees`, applied to a
unit interval, square or cube, or to an annulus. On the interval, square and
cube, for poisson-flat or elasticity (not in 1D), either form, massive or
not, and boundary conditions that include a Robin face and a custom
condition linearized by the default finite differences; on the annulus,
whose curved maps give every point its own Jacobian, for poisson-curved on a
conformally flat background; on a cube away from the origin, for the puncture
system linearized about a nonzero state:

- batched colored assembly equals probing the operator one unit column at a
  time, entry by entry;
- every auxiliary column of the full first-order matrix has nonzeros only
  in its own element's rows, which lets assembly probe all elements'
  auxiliary columns at once;
- the assembled matrix times a vector equals the matrix-free application;
- the Schur complement of the full first-order matrix equals the compact
  matrix;
- the massive strong-weak matrix of a symmetry-eligible system is symmetric
  to round-off, nonconforming faces included;
- every face-buffer point is exactly one of: paired across a mortar whose
  prolongations are both the identity, external, or on a mortar with a
  non-identity side.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ipdg import (
    BoundaryMap,
    ConformallyFlatBackground,
    DirichletBC,
    FalloffDirichletBC,
    FlatBackground,
    OperatorHandle,
    PunctureSpec,
    RobinBC,
    assemble_explicit,
    build_annulus_mesh,
    build_rectilinear_mesh,
    make_system,
    schur_eliminate,
    split_element,
    symmetry_defect,
    with_degrees,
)
from ipdg.errors import TopologyError
from ipdg.mesh import mortar_topology
from test_operators import QuadraticFluxBC, check_face_partition, interpolant

BG = FlatBackground()
CURVED = ConformallyFlatBackground(
    lambda x: 0.1 * x[0] - 0.05 * x[1],
    lambda x: np.stack([0.1 * np.ones_like(x[0]), -0.05 * np.ones_like(x[0])]),
)


def refined(draw, mesh, max_splits=2, max_degree=6):
    """`mesh` after a few random balanced splits and degree changes."""
    for _ in range(draw(st.integers(0, max_splits))):
        split = split_element(mesh, draw(st.integers(0, mesh.n_elements - 1)))
        try:
            mortar_topology(split)
        except TopologyError:  # split would break two-to-one balance
            continue
        mesh = split
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, mesh.n_elements - 1))
        degrees = tuple(draw(st.integers(1, max_degree)) for _ in range(mesh.dim))
        mesh = with_degrees(mesh, k, degrees)
    return mesh


@st.composite
def meshes(draw):
    base = draw(st.integers(1, 3))
    return refined(draw, build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (1, 1), (base, base)))


@st.composite
def interval_meshes(draw):
    base = draw(st.integers(1, 4))
    return refined(draw, build_rectilinear_mesh([(0.0, 1.0)], (2,), (base,)))


@st.composite
def cube_meshes(draw, lower=0.0):
    """Two elements of degree 1 or 2, at most one split: 3D probing column
    by column stays under a thousand applications."""
    base = draw(st.integers(1, 2))
    mesh = build_rectilinear_mesh([(lower, lower + 1.0)] * 3, (1, 0, 0), (base,) * 3)
    return refined(draw, mesh, max_splits=1, max_degree=2)


@st.composite
def annulus_meshes(draw):
    base, wedges = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    return refined(draw, build_annulus_mesh(0.5, 1.0, wedges, (0, 0), (base, base)))


def probe_columns(matvec, n):
    """The matrix of a linear map, one unit column at a time."""
    eye = np.eye(n)
    return np.column_stack([matvec(eye[:, j]) for j in range(n)])


@settings(max_examples=12, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=meshes(),
    system=st.sampled_from(["poisson-flat", "elasticity"]),
    form=st.sampled_from(["strong", "strong-weak"]),
    massive=st.booleans(),
)
def test_batched_assembly_invariants(mesh, system, form, massive):
    bcs = BoundaryMap({
        "x-lower": RobinBC(1.0, 2.0, 0.0),
        "y-upper": QuadraticFluxBC(),
        "all": DirichletBC(0.0),
    })
    check_invariants(OperatorHandle(
        mesh, make_system(system, dim=2), BG, bcs, form=form, massive=massive,
    ).linearized_at())


@settings(max_examples=5, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=annulus_meshes(),
    form=st.sampled_from(["strong", "strong-weak"]),
    massive=st.booleans(),
)
def test_curved_annulus_invariants(mesh, form, massive):
    bcs = BoundaryMap({"inner": DirichletBC(0.0), "outer": RobinBC(1.0, 2.0, 0.0)})
    check_invariants(OperatorHandle(
        mesh, make_system("poisson-curved", dim=2), CURVED, bcs, form=form, massive=massive,
    ).linearized_at())


@settings(max_examples=6, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=interval_meshes(),
    form=st.sampled_from(["strong", "strong-weak"]),
    massive=st.booleans(),
)
def test_interval_invariants(mesh, form, massive):
    bcs = BoundaryMap({"x-lower": RobinBC(1.0, 2.0, 0.0), "x-upper": QuadraticFluxBC()})
    # In 1D a single vector meets each grid dimension's derivative matrix as
    # one row, which BLAS treats apart from a block of rows: the last bits
    # of an entry may differ between batched and one-column probing.
    check_invariants(OperatorHandle(
        mesh, make_system("poisson-flat", dim=1), BG, bcs, form=form, massive=massive,
    ).linearized_at(), rtol=1e-14)


@settings(max_examples=3, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=cube_meshes(),
    system=st.sampled_from(["poisson-flat", "elasticity"]),
    form=st.sampled_from(["strong", "strong-weak"]),
    massive=st.booleans(),
)
def test_cube_invariants(mesh, system, form, massive):
    bcs = BoundaryMap({
        "x-lower": RobinBC(1.0, 2.0, 0.0),
        "z-upper": QuadraticFluxBC(),
        "all": DirichletBC(0.0),
    })
    check_invariants(OperatorHandle(
        mesh, make_system(system, dim=3), BG, bcs, form=form, massive=massive,
    ).linearized_at())


@settings(max_examples=2, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    mesh=cube_meshes(lower=1.0),
    form=st.sampled_from(["strong", "strong-weak"]),
    massive=st.booleans(),
)
def test_linearized_puncture_invariants(mesh, form, massive):
    system = make_system("puncture", dim=3, punctures=[
        PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3), spin=(0.0, 0.1, 0.0)),
    ])
    handle = OperatorHandle(
        mesh, system, BG, BoundaryMap({"all": FalloffDirichletBC(0.2)}),
        form=form, massive=massive,
    )
    # a nonzero state, so the linearized source matters
    point = interpolant(mesh, lambda x: 0.1 * np.sin(x[0] + 2.0 * x[1] - x[2])[None])
    check_invariants(handle.linearized_at(point))


def check_invariants(handle, rtol=0.0):
    """The invariants listed above, on a linearized handle. Batched and
    one-column probing agree to `rtol` times the largest entry; zero asks
    for equality."""
    mesh = handle.mesh
    n_aux = handle.n_auxiliary_dofs
    check_face_partition(handle)

    compact = assemble_explicit(handle)
    full = assemble_explicit(handle, include_auxiliary=True)
    for assembled, columns in (
        (compact, probe_columns(handle.matvec, handle.n_primal_dofs)),
        (full, probe_columns(handle.matvec_full, n_aux + handle.n_primal_dofs)),
    ):
        np.testing.assert_allclose(
            assembled.toarray(), columns, rtol=0.0, atol=rtol * np.abs(columns).max()
        )
    offsets = mesh.point_offsets
    point_element = np.repeat(np.arange(mesh.n_elements), np.diff(offsets))
    entries = full.matrix.tocoo()
    aux = entries.col < n_aux
    total = int(offsets[-1])
    np.testing.assert_array_equal(
        point_element[entries.row[aux] % total], point_element[entries.col[aux] % total]
    )

    a = compact.matrix
    scale = abs(a).max()
    x = np.random.default_rng(mesh.n_elements).standard_normal(handle.n_primal_dofs)
    assert np.abs(a @ x - handle.matvec(x)).max() <= 1e-12 * scale * np.abs(x).max()
    schur = schur_eliminate(full, n_aux)
    assert abs(schur.matrix - a).max() <= 1e-12 * scale
    if handle.form == "strong-weak" and handle.massive and handle.system.symmetric_eligible:
        assert symmetry_defect(a) <= 1e-12
