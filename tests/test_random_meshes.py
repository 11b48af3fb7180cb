"""Assembly invariants on randomized 2D meshes.

Meshes come from random `split_element` sequences (kept two-to-one
balanced) and random per-element degrees 1-6 from `with_degrees`, applied
to a unit square or to an annulus. On the square, for poisson-flat or
elasticity, either form, massive or not, and boundary conditions that
include a Robin edge and a custom condition linearized by the default
finite differences; on the annulus, whose curved maps give every point its
own Jacobian, for poisson-curved on a conformally flat background:

- batched colored assembly equals probing the operator one unit column at a
  time, entry by entry;
- the assembled matrix times a vector equals the matrix-free application;
- the Schur complement of the full first-order matrix equals the compact
  matrix.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ipdg import (
    BoundaryMap,
    ConformallyFlatBackground,
    DirichletBC,
    FlatBackground,
    OperatorHandle,
    RobinBC,
    assemble_explicit,
    build_annulus_mesh,
    build_rectilinear_mesh,
    make_system,
    schur_eliminate,
    split_element,
    with_degrees,
)
from ipdg.boundaries import BoundaryCondition
from ipdg.errors import TopologyError
from ipdg.mesh import mortar_topology

BG = FlatBackground()
CURVED = ConformallyFlatBackground(
    lambda x: 0.1 * x[0] - 0.05 * x[1],
    lambda x: np.stack([0.1 * np.ones_like(x[0]), -0.05 * np.ones_like(x[0])]),
)


class QuadraticFluxBC(BoundaryCondition):
    """Neumann-kind flux -u/2 - u^2/10, linearized by the base class's
    finite differences."""

    kind = "neumann"

    def values(self, x, normal, u_trace, v_trace):
        u = np.asarray(u_trace)
        return -0.5 * u - 0.1 * u**2


def refined(draw, mesh):
    """`mesh` after a few random balanced splits and degree changes."""
    for _ in range(draw(st.integers(0, 2))):
        split = split_element(mesh, draw(st.integers(0, mesh.n_elements - 1)))
        try:
            mortar_topology(split)
        except TopologyError:  # split would break two-to-one balance
            continue
        mesh = split
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, mesh.n_elements - 1))
        mesh = with_degrees(mesh, k, (draw(st.integers(1, 6)), draw(st.integers(1, 6))))
    return mesh


@st.composite
def meshes(draw):
    base = draw(st.integers(1, 3))
    return refined(draw, build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (1, 1), (base, base)))


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


def check_invariants(handle):
    """The invariants listed above, on a linearized handle."""
    mesh = handle.mesh
    n_aux = handle.n_auxiliary_dofs

    compact = assemble_explicit(handle)
    full = assemble_explicit(handle, include_auxiliary=True)
    np.testing.assert_array_equal(
        compact.toarray(), probe_columns(handle.matvec, handle.n_primal_dofs)
    )
    np.testing.assert_array_equal(
        full.toarray(), probe_columns(handle.matvec_full, n_aux + handle.n_primal_dofs)
    )

    a = compact.matrix
    scale = abs(a).max()
    x = np.random.default_rng(mesh.n_elements).standard_normal(handle.n_primal_dofs)
    assert np.abs(a @ x - handle.matvec(x)).max() <= 1e-12 * scale * np.abs(x).max()
    schur = schur_eliminate(full, n_aux)
    assert abs(schur.matrix - a).max() <= 1e-12 * scale
