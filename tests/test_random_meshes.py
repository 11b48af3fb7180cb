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
  time, entry by entry, also in batches so small that they cross from one
  pass into the next and split passes;
- the passes of the colouring hold elements with disjoint closed
  neighbourhoods and need no more probe columns than the mesh-order greedy
  colouring; 2D rectilinear boxes get the lower bound, 5 colours wherever
  an element has four face neighbours;
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
  non-identity side;
- each element group's geometry, from one batched `jacobian_at` call, is
  bit for bit the one from a call per member;
- the mortar grid and the identity sides that the mesh cache derives from
  face grids are those of the mortar's degrees, as the topology once carried
  them.
"""

import dataclasses
import itertools
from unittest import mock

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
from ipdg import solver
from ipdg.background import sampled_face_geometry
from ipdg.errors import TopologyError
from ipdg.mesh import Mesh, jacobian_at, mortar_topology
from ipdg.operators import _element_groups, _point_order, lumped_mass_diag
from ipdg.solver import _element_color_groups
from test_mesh import assert_mortar_grids
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


@st.composite
def raised_cube_meshes(draw):
    base = draw(st.integers(1, 3))
    mesh = build_rectilinear_mesh([(0.0, 1.0)] * 3, (1, 1, 0), (base,) * 3)
    return refined(draw, mesh, max_degree=4)


class Flipped:
    """`base` with both logical axes reversed, so det J keeps its sign: a map
    of a type the mesh builders do not make."""

    def __init__(self, base):
        self.base = base

    def apply(self, xi):
        return self.base.apply(-np.asarray(xi))

    def jacobian(self, xi):
        return -self.base.jacobian(-np.asarray(xi))


def flipped_meshes():
    """A split 2x2 square with two elements' block maps wrapped in `Flipped`:
    one group holds three block maps, their two beside the others' one."""
    mesh = split_element(build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (1, 1), (3, 3)), 0)
    elements = [
        dataclasses.replace(e, block_map=Flipped(e.block_map)) if k in (1, 4) else e
        for k, e in enumerate(mesh.elements)
    ]
    return Mesh(mesh.dim, mesh.blocks, elements)


def check_group_geometry(mesh, background):
    """Every group's coordinates, mass, J^-1 and face geometry equal, with
    np.array_equal, those stacked from one `jacobian_at` call per member on
    the logical grid in natural order; coordinates and J^-1 are C-contiguous."""
    dim = mesh.dim
    for group in _element_groups(mesh, background):
        elements = [mesh.elements[k] for k in group.members]
        x, _, det, inv = zip(*(jacobian_at([e], e.logical_grid()) for e in elements))
        coords = np.stack([_point_order(a[:, 0], dim) for a in x], axis=1)
        det = np.stack([_point_order(a[0], dim) for a in det])
        jinv = np.stack([_point_order(a[:, :, 0], dim) for a in inv], axis=2)
        mass = np.stack([_point_order(lumped_mass_diag(e, background), dim) for e in elements])
        for got, want in ((group.coords, coords), (group.jinv, jinv), (group.mass, mass)):
            assert np.array_equal(got, want)
        assert group.coords.flags.c_contiguous and group.jinv.flags.c_contiguous
        keys = [(fdim, side) for fdim in range(dim) for side in (-1, 1)]
        for (fdim, side), stored in zip(keys, group.face_geometry):
            index = (Ellipsis, 0 if side < 0 else -1) + (slice(None),) * fdim
            fg = sampled_face_geometry(
                background, coords[index], det[index], jinv[fdim][index], side
            )
            want = (fg.coords.reshape(dim, -1), fg.normal.reshape(dim, -1),
                    (2.0 / fg.normal_magnitude).ravel(), fg.surface_measure.ravel())
            for got, w in zip(stored, want):
                assert np.array_equal(got, w)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    case=st.one_of(
        interval_meshes().map(lambda m: (m, BG)),
        meshes().map(lambda m: (m, CURVED)),
        raised_cube_meshes().map(lambda m: (m, BG)),
        annulus_meshes().map(lambda m: (m, CURVED)),
    )
)
def test_batched_geometry_equals_per_element(case):
    check_group_geometry(*case)


def test_batched_geometry_mixes_map_kinds():
    # whole-wedge elements beside a split wedge's children, so three block
    # maps and boxes of two levels, and block maps of another type beside
    # the builder's, in one group each
    annulus = split_element(build_annulus_mesh(0.5, 1.0, 3, (0, 0), (3, 4)), 1)
    for mesh, background in ((annulus, CURVED), (flipped_meshes(), BG)):
        assert len(_element_groups(mesh, background)) == 1
        check_group_geometry(mesh, background)


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
    # batches of 7 probe rows, which cross from one pass into the next and
    # split the passes with more rows
    rows = mock.patch.object(solver, "_PROBE_BATCH_ENTRIES", 7 * (n_aux + handle.n_primal_dofs))
    with rows:
        small = [assemble_explicit(handle), assemble_explicit(handle, include_auxiliary=True)]
    for assembled, batched, columns in (
        (compact, small[0], probe_columns(handle.matvec, handle.n_primal_dofs)),
        (full, small[1], probe_columns(handle.matvec_full, n_aux + handle.n_primal_dofs)),
    ):
        for matrix in (assembled, batched):
            np.testing.assert_allclose(
                matrix.toarray(), columns, rtol=0.0, atol=rtol * np.abs(columns).max()
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


def face_neighbours(mesh):
    nbrs = [set() for _ in range(mesh.n_elements)]
    for mortar in mortar_topology(mesh).mortars:
        a, b = (side.element for side in mortar.sides)
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return nbrs


def greedy_columns(mesh):
    """Probe columns of the distance-3 colouring greedy in mesh order, each
    element taking the least colour of no element within distance 2 before
    it: the colouring assembly had before it chose among several."""
    nbrs, colors = face_neighbours(mesh), []
    for k in range(mesh.n_elements):
        ball = nbrs[k].union(*(nbrs[m] for m in nbrs[k])) - {k}
        used = {colors[m] for m in ball if m < k}
        colors.append(min(set(range(len(used) + 1)) - used))
    size = np.diff(mesh.point_offsets)
    return sum(size[np.equal(colors, c)].max() for c in set(colors))


def check_coloring(mesh):
    """The passes of `_element_color_groups`: each element in one, members'
    closed neighbourhoods disjoint, no more probe columns than the greedy.
    Returns the number of passes and the largest closed neighbourhood."""
    groups, _ = _element_color_groups(mesh)
    assert sorted(k for g in groups for k in g) == list(range(mesh.n_elements))
    closed = [near | {k} for k, near in enumerate(face_neighbours(mesh))]
    for group in groups:
        assert sum(len(closed[k]) for k in group) == len(set().union(*(closed[k] for k in group)))
    size = np.diff(mesh.point_offsets)
    assert sum(size[g].max() for g in groups) <= greedy_columns(mesh)
    return len(groups), max(map(len, closed))


@st.composite
def coloring_meshes(draw):
    """Balanced boxes and annuli of up to 16 elements a side, split and
    raised at random."""
    kind = draw(st.sampled_from(["interval", "square", "cube", "annulus"]))
    if kind == "annulus":
        wedges, levels = draw(st.integers(2, 5)), draw(st.tuples(*[st.integers(0, 2)] * 2))
        mesh = build_annulus_mesh(0.5, 1.0, wedges, levels, (2, 2))
    else:
        dim = {"interval": 1, "square": 2, "cube": 3}[kind]
        levels = draw(st.tuples(*[st.integers(0, 4 if dim < 3 else 2)] * dim))
        mesh = build_rectilinear_mesh([(0.0, 1.0)] * dim, levels, (2,) * dim)
    return refined(draw, mesh, max_splits=3, max_degree=4)


# 100 examples, well within a budget of about 3 s
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mesh=coloring_meshes())
def test_coloring_passes(mesh):
    check_coloring(mesh)


def test_rectilinear_boxes_reach_the_lower_bound():
    # the lattice colouring (i + 2j) mod 5 shows that 5 suffice
    for levels in itertools.product(range(5), repeat=2):
        mesh = build_rectilinear_mesh([(0.0, 1.0), (0.0, 2.0)], levels, (3, 2))
        passes, bound = check_coloring(mesh)
        assert passes == bound == 5 if min(levels) >= 2 else passes <= 4


# 60 examples in about 1 s
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mesh=coloring_meshes())
def test_mortar_grids_from_face_grids(mesh):
    assert_mortar_grids(mesh)
