"""DG building blocks and the internal-penalty operator.

The element-local pieces (lumped mass, stiffness, lifting) combine with
mortar exchange of boundary fluxes into a compact nearest-neighbor operator
over the primal variables; the auxiliary variables are reconstructed
internally each application. An OperatorHandle bundles mesh, system,
background, boundary conditions and the discretization switches, and can
also apply the full first-order operator over (auxiliary, primal) blocks
for Schur-complement checks.

Application runs in two phases. Phase one forms auxiliary fluxes of the
primal field, exchanges their normal projections across mortars (ghosts on
external faces) and reconstructs the auxiliary field with mass-lumped
lifting of the flux jumps. Phase two forms primal fluxes, exchanges
derivative-based and penalty-term data, and assembles the residual in
strong or strong-weak form.

Flat DoF layout everywhere: variables-major, then elements in mesh order,
then grid points with the first dimension fastest. A FieldVector is one
buffer in that order and nothing else; the element groups read and write it
through their point selections (`_Group.take` and `put`).

Each phase works in batches, so its cost in Python calls does not grow with
the element count:
- elements with the same grid shape form a group whose fields are stacked
  as (components, elements, n_{d-1}, ..., n_0), grid dimension j on axis
  -1-j, so flattening the grid axes gives the point order. The system
  evaluators see the element axis as one more point axis; the tensor-product
  differentiation is one matrix product per dimension over the whole group
  (sum factorization, as in Kronbichler & Kormann 2012);
- face traces of all elements live in one face buffer of shape
  (components, face points); the face fluxes are evaluated on it in one
  call per phase;
- the numerical fluxes are pointwise, so each phase exchanges in one pass
  over the face buffer: one gather through `partner` gives every point of a
  mortar whose prolongations are both the identity the matching point
  across, one ghost expression gives every external point its ghost, and
  one flux call gives the flux and jump everywhere. The flux and ghost
  functions take and return plain arrays. The penalty
  sigma = C (p+1)^2 / h is computed once per handle in one expression over
  the face buffer, with the larger normal degree and the smaller h of each
  point and its partner (an external point is its own);
- mortars with a non-identity side replace the jump at their points: those
  with the same face grids, mortar grid and coverages form a group that
  gathers its sides from the face buffer with one index array each, prolongs
  with one matrix product P and restricts with its mass-weighted adjoint
  W_f^-1 P^T W_m (both skipped on a side where P is the identity). Each
  group computes its quadrature weights and penalty on the mortar points
  once, from face data gathered through the same index arrays.

A batch of vectors (FieldVector.batch) rides through the same code as one
more leading point axis: volume arrays are (components, batch, elements,
*grid) and the face buffer is (components, batch, face points). Geometry,
the linearization point, the penalty and the fixed boundary arrays
broadcast over it. A single vector simply has no batch axis. Boundary
conditions never see the batch axis: it is folded into their point axis,
with the face geometry repeated once per vector. In 2D and 3D each vector
of a batch gets bit for bit the residual it gets alone. In 1D it may not:
there a lone vector on a one-element group is a one-row dimension-0
product in `_apply_1d`, which BLAS rounds differently from a block of
rows, by up to about 1e-13 relative.

Boundary conditions fill two arrays over the external points, split by
kind: n F_v(u_b) at dirichlet-kind points, the flux value at neumann-kind
ones. A ghost is the interior minus twice its boundary value (the
interior's own where the kind gives none), the penalty ghost 2 n F_u(aux*)
minus the interior: the numerical flux on an external face is the boundary
value.

Work that is fixed for a handle or provably zero is not redone per
application:
- trace-free boundary conditions (`_TraceFree`) fill their part of the
  boundary arrays once, when the handle is built;
- the volume kernels contract only the (reference, physical) direction
  pairs whose inverse-Jacobian entry is not zero everywhere in the group,
  one per reference direction on rectilinear meshes;
- phase one's divergence differentiates, per reference direction, only the
  auxiliary-flux components that are not zero for its physical directions
  (`_Group.flux_rows`), found once per handle by evaluating the flux, which
  is linear in u, on unit primal fields: on a rectilinear Poisson-like
  group that is one of d components;
- the system's background fields (`background_fields`, the puncture's
  alpha and beta) are evaluated once per group, on the first application of
  any handle that shares the set-up, and handed to the sources;
- a linearized handle builds its linearized sources, the maps
  (du, dv) -> S'(u0)[du, dv], once per group on its first application, so
  whatever depends only on the point, the coordinates and the fields (the
  puncture's power of u0) is evaluated once per linearization.
Nor is it redone per linearization: `linearized_at`, the only way to build
a linearized handle, takes a shallow copy of the handle it linearizes, so
the copy shares the mesh cache, the penalty, the flux rows, the background
fields and the boundary layout, and sets only what the point gives.
Gathers from the face buffer through an index array use `np.take`, several
times faster than `[..., index]` at these sizes; scatters keep the indexed
assignment.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from typing import Optional

import numpy as np

from .background import sampled_face_geometry
from .basis import differentiation_matrix
from .boundaries import _TraceFree
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    SingularPointError,
    TopologyError,
    config_section,
)
from .mesh import face_shape, jacobian_at, mortar_topology
from .mortars import mortar_logical_weights, prolongation_matrix

__all__ = [
    "FieldVector",
    "OperatorHandle",
    "lumped_mass_diag",
    "penalty_sigma",
    "auxiliary_numerical_flux",
    "primal_numerical_flux",
    "exterior_ghost_data",
]


def _point_order(arr, k):
    """Reverse the last k axes: natural grid order <-> point order (a view)."""
    arr = np.asarray(arr)
    lead = arr.ndim - k
    return arr.transpose(tuple(range(lead)) + tuple(range(arr.ndim - 1, lead - 1, -1)))


def _apply_1d(mat, arr, dim):
    """Apply a 1D nodal matrix along grid dimension `dim` of a point-ordered array."""
    if dim == 0:
        # one matrix product over all rows, not one per stacked matrix
        rows = arr.reshape(-1, arr.shape[-1]) @ mat.T
        return rows.reshape(arr.shape[:-1] + (mat.shape[0],))
    shape = arr.shape
    axis = arr.ndim - 1 - dim
    trail = shape[axis + 1:]
    out = mat @ arr.reshape(shape[:axis] + (shape[axis], -1))
    return out.reshape(shape[:axis] + (mat.shape[0],) + trail)


def _fold(buf, index):
    """Face-buffer values at `index`, a batch folded into the point axis.

    (c, ..., face points) -> (c, points), the selected points of one vector
    after those of the previous one; boundary conditions see only this form,
    with the face geometry tiled once per vector.
    """
    return np.take(buf, index, axis=-1).reshape(buf.shape[0], -1)


def _index(items):
    """A slice for consecutive nonempty `items`, else the list itself."""
    if items and items[-1] - items[0] + 1 == len(items):
        return slice(items[0], items[-1] + 1)
    return items


def _contract_normal(normal, fluxes):
    """n_i F^i... over the flux direction axis: (c, d, n) -> (c, n)."""
    return np.einsum("i...,ci...->c...", normal, fluxes)


class FieldVector:
    """Mesh-wide nodal data: one flat buffer in the flat DoF order.

    `data` is (n_dofs,) for one vector, or (batch, n_dofs) for a batch
    (`FieldVector.batch`) whose rows the operator applies in one pass and
    returns as a batch. The constructor wraps `data` without copying it;
    `from_flat` takes a copy.
    """

    __slots__ = ("mesh", "n_components", "data")
    # numpy arrays defer to the vector's operators, which take only scalars
    __array_ufunc__ = None

    def __init__(self, mesh, n_components: int, data):
        data = np.asarray(data, dtype=float)
        expected = n_components * mesh.total_points
        if data.ndim not in (1, 2) or data.shape[-1] != expected:
            raise ValueError(
                f"data has shape {data.shape}, expected ({expected},) or (batch, {expected})"
            )
        self.mesh, self.n_components, self.data = mesh, n_components, data

    @classmethod
    def zeros(cls, mesh, n_components: int) -> "FieldVector":
        return cls(mesh, n_components, np.zeros(n_components * mesh.total_points))

    @classmethod
    def from_flat(cls, mesh, n_components: int, flat) -> "FieldVector":
        """One vector holding a copy of `flat`, whatever its shape."""
        return cls(mesh, n_components, np.array(flat, dtype=float).reshape(-1))

    @classmethod
    def batch(cls, mesh, n_components: int, rows) -> "FieldVector":
        """A batch of vectors, one per row of `rows` in the flat DoF order."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"batch has shape {rows.shape}, expected (batch, n_dofs)")
        return cls(mesh, n_components, rows)

    def to_flat(self) -> np.ndarray:
        return self.data.copy()

    def copy(self) -> "FieldVector":
        return FieldVector(self.mesh, self.n_components, self.data.copy())

    def _like(self, other):
        """`other`'s data; it must have this vector's mesh (object), components and shape."""
        if not (other.mesh is self.mesh and other.n_components == self.n_components
                and other.data.shape == self.data.shape):
            raise ValueError(
                f"vectors differ: {self.n_components} component(s) of shape {self.data.shape} "
                f"and {other.n_components} of shape {other.data.shape} on "
                f"{'the same' if other.mesh is self.mesh else 'another'} mesh"
            )
        return other.data

    def __add__(self, other):
        return FieldVector(self.mesh, self.n_components, self.data + self._like(other))

    def __sub__(self, other):
        return FieldVector(self.mesh, self.n_components, self.data - self._like(other))

    def __mul__(self, scalar):
        """The vector times a scalar; an array would broadcast it into a batch."""
        if np.ndim(scalar) != 0:
            return NotImplemented
        return FieldVector(self.mesh, self.n_components, self.data * scalar)

    __rmul__ = __mul__


def auxiliary_numerical_flux(aux, ext_aux):
    """Average of the two sides' auxiliary boundary fluxes n_i F^i_v.

    Both sides project with their own outward normal, so the average is a
    difference of the stored values.
    """
    return 0.5 * (aux - ext_aux)


def primal_numerical_flux(deriv, pen, ext_deriv, ext_pen, sigma):
    """Averaged derivative-based flux minus the sigma-weighted penalty.

    Per side, with its own outward normal: `deriv` is n_i F^i_u of the strong
    derivative of the auxiliary fluxes, `pen` n_i F^i_u of the auxiliary flux.
    """
    return 0.5 * (deriv - ext_deriv) - sigma * (pen - ext_pen)


def _boundary_values(bc, system, background, x, normal, trace, point):
    """A condition's boundary-array entries at points x: n F_v(u_b) if
    dirichlet-kind, else its flux value; linearized about `point`, the
    linearization point's primal trace, unless that is None.
    """
    if point is None:
        data = bc.values(x, normal, trace)
    else:
        data = bc.linearized_values(x, normal, point, trace)
    if bc.kind == "dirichlet":
        data = _contract_normal(normal, system.auxiliary_flux(data, x, background))
    return data


def exterior_ghost_data(interior, boundary):
    """The ghost exterior of normal-projected face data: interior - 2 boundary."""
    return interior - 2.0 * boundary


def _join(a, b):
    """a and b side by side on the last axis, broadcast over the others; no
    copy when either is empty."""
    if not (a.shape[-1] and b.shape[-1]):
        return a if a.shape[-1] else b
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    return np.concatenate([np.broadcast_to(c, lead + c.shape[-1:]) for c in (a, b)], axis=-1)


def penalty_sigma(p_int, p_ext, h_int, h_ext, c):
    """sigma = C (max(p)+1)^2 / min(h), both taken pointwise (degrees may be arrays)."""
    h = np.minimum(np.asarray(h_int, dtype=float), np.asarray(h_ext, dtype=float))
    if np.any(h <= 0.0):
        raise DegenerateGeometryError("nonpositive element size h in penalty")
    p = np.maximum(np.asarray(p_int, dtype=int), np.asarray(p_ext, dtype=int))
    return c * (p + 1) ** 2 / h


def _weight_product(weights):
    """Tensor product of 1D quadrature weights, in natural grid order."""
    out = np.ones(tuple(w.size for w in weights))
    for i, w in enumerate(weights):
        out = out * w.reshape([-1 if j == i else 1 for j in range(len(weights))])
    return out


def _lumped_mass(elements, background, coords, det, weights):
    """sqrt(g) J prod(w) at every point of stacked elements; raises unless positive.

    The element axis of `det` leads; `weights` broadcasts against it.
    """
    sqrt_g = np.asarray(background.sqrt_det(coords), dtype=float)
    mass = sqrt_g * det * weights
    good = np.isfinite(mass) & (mass > 0.0)
    if not good.all():
        bad = int(np.argmin(good.reshape(len(elements), -1).all(axis=1)))
        raise DegenerateGeometryError(
            f"nonpositive lumped mass in element {elements[bad].id_string()}"
        )
    return mass


# one face key (dim, side) of a group: `index` selects the face from a
# point-ordered volume array, `span` its points in the face buffer, `shape`
# is (elements, *face grid in point order)
_GroupFace = namedtuple("_GroupFace", "key index span shape massless massive")


class _Group:
    """Elements of one grid shape, stacked in point order, with their geometry.

    Volume arrays are (..., elements, n_{d-1}, ..., n_0). `sel` picks the
    group's points from a (components, points) array: a slice when the
    members are consecutive in the mesh, else an index array. The group's
    face points fill [face_start, face_end) of the face buffer, face key by
    face key, element by element within a key; `face_geometry` holds per key
    their coordinates, normals, h = 2/|n~|, surface measure, lumped mass and
    the degree normal to the face.

    Each member's map and Jacobian are evaluated once on the shared logical
    grid; everything else is derived from the stack.
    """

    def __init__(self, elements, members, offsets, background, face_start):
        first = elements[0]
        node_sets = first.node_sets()
        n_el, n = len(members), first.n_points
        starts = np.asarray(offsets)[members]
        if members[-1] - members[0] + 1 == n_el:
            self.sel = slice(int(starts[0]), int(starts[0]) + n_el * n)
        else:
            self.sel = (starts[:, None] + np.arange(n)).ravel()
        self.members = members
        self.dim = dim = first.dim
        self.shape = (n_el,) + first.grid_shape[::-1]
        xi = first.logical_grid()
        self.coords = np.stack([_point_order(el.map.apply(xi), dim) for el in elements], axis=1)
        jac = [jacobian_at(el, xi) for el in elements]
        det = np.stack([_point_order(j[1], dim) for j in jac])
        weights = [ns.weights for ns in node_sets]
        self.mass = _lumped_mass(
            elements, background, self.coords, det, _point_order(_weight_product(weights), dim)
        )
        self.jinv = np.stack([_point_order(j[2], dim) for j in jac], axis=2)
        # per reference direction j, the physical directions i whose
        # Jinv^j_i is not zero at every point: the one i = j on rectilinear
        # meshes, every i on curved ones. The volume kernels skip the others,
        # whose terms are exact zeros
        nonzero = self.jinv.reshape(dim, dim, -1).any(axis=2)
        self.directions = [[i for i in range(dim) if nonzero[j, i]] for j in range(dim)]
        self._terms = []
        for j, dirs in enumerate(self.directions):
            sel = _index(dirs)
            self._terms.append((sel, self.jinv[j][sel]))
        self.diffs = [differentiation_matrix(ns) for ns in node_sets]
        self.faces, self.face_geometry = [], []
        for fdim in range(dim):
            trans = _weight_product([w for i, w in enumerate(weights) if i != fdim])
            for side in (-1, 1):
                index = (Ellipsis, 0 if side < 0 else -1) + (slice(None),) * fdim
                fg = sampled_face_geometry(
                    background, self.coords[index], det[index], self.jinv[fdim][index], side
                )
                mag = fg.normal_magnitude
                massive = fg.surface_measure * _point_order(trans, dim - 1)
                self.faces.append(_GroupFace(
                    (fdim, side), index, slice(face_start, face_start + mag.size), mag.shape,
                    mag / weights[fdim][0 if side < 0 else -1], massive,
                ))
                face_start += mag.size
                self.face_geometry.append((
                    fg.coords.reshape(dim, -1), fg.normal.reshape(dim, -1),
                    (2.0 / mag).ravel(), fg.surface_measure.ravel(), massive.ravel(),
                    np.full(mag.size, first.degrees[fdim]),
                ))
        self.face_end = face_start

    def take(self, rows):
        """The group's part of a (..., points) array, point-ordered."""
        return rows[..., self.sel].reshape(rows.shape[:-1] + self.shape)

    def put(self, rows, values):
        rows[..., self.sel] = values.reshape(rows.shape[:-1] + (-1,))

    def traces(self, volume, buf):
        """Copy the face values of a (..., *shape) volume array into the face buffer."""
        for f in self.faces:
            buf[..., f.span] = volume[f.index].reshape(buf.shape[:-1] + (-1,))

    def lift(self, volume, buf, massive):
        """Add the lifted face-buffer values into a (..., *shape) volume array."""
        for f in self.faces:
            weight = f.massive if massive else f.massless
            volume[f.index] += buf[..., f.span].reshape(buf.shape[:-1] + f.shape) * weight

    def flux_rows(self, fluxes):
        """Per reference direction j, the components of `fluxes` (c, d, ...)
        that are not zero everywhere for some physical direction of
        `directions[j]`: a slice when they are consecutive, else a list."""
        nonzero = fluxes.reshape(fluxes.shape[:2] + (-1,)).any(axis=2).tolist()
        return [
            _index([c for c, row in enumerate(nonzero) if any(row[i] for i in dirs)])
            for dirs in self.directions
        ]

    def divergence(self, fluxes, rows):
        """Strong nodal divergence sum_ij Jinv^j_i d_xi_j F^i, (c, d, ...) -> (c, ...).

        Reference direction j differentiates only the flux components
        `rows[j]` (`flux_rows`); the others must be exact zeros in all its
        physical directions, and get nothing from it.
        """
        out = np.zeros(fluxes.shape[:1] + fluxes.shape[2:])
        for j, (sel, jinv) in enumerate(self._terms):
            df = _apply_1d(self.diffs[j], fluxes[rows[j]][:, sel], j)
            out[rows[j]] += np.einsum("i...,ci...->c...", jinv, df)
        return out

    def stiffness(self, fluxes, form):
        """Massive divergence (strong) or its negative transpose (weak)."""
        if form == "strong":
            return self.mass * self.divergence(fluxes, (slice(None),) * self.dim)
        out = 0.0
        for j, (sel, jinv) in enumerate(self._terms):
            pre = self.mass * np.einsum("i...,ci...->c...", jinv, fluxes[:, sel])
            out = out - _apply_1d(self.diffs[j].T, pre, j)
        return out


def _element_groups(mesh, background):
    """One `_Group` per grid shape, in order of first appearance in the mesh,
    their face points filling one face buffer group after group."""
    by_shape = {}
    for k, el in enumerate(mesh.elements):
        by_shape.setdefault(el.grid_shape, []).append(k)
    groups, pos = [], 0
    for members in by_shape.values():
        elements = [mesh.elements[k] for k in members]
        groups.append(_Group(elements, members, mesh.point_offsets, background, pos))
        pos = groups[-1].face_end
    return groups


def lumped_mass_diag(element, background):
    """Diagonal mass sqrt(g) J prod(w) at every grid point."""
    weights = [ns.weights for ns in element.node_sets()]
    xi = element.logical_grid()
    _, det, _ = jacobian_at(element, xi)
    return _lumped_mass(
        [element], background, element.map.apply(xi), det, _weight_product(weights)
    )


def _is_identity(mat):
    return mat.shape[0] == mat.shape[1] and np.array_equal(mat, np.eye(mat.shape[0]))


class _MortarGroup:
    """Mortars with a non-identity side and the same face grids, mortar grid
    and coverages. Mortars whose sides are both the identity are exchanged
    pointwise through `_MeshCache.partner` instead.

    Per side: `index` (mortars, face points) into the face buffer, P^T and
    the lumped face mass W_f at `index`, both None where P = I (such a face
    has no other mortar, and W_m is its W_f up to interpolation). `weights`
    (mortars, mortar points) is the quadrature W_m both sides share: LGL
    weights in the logical measure of the coarse side times its surface
    measure. The coarse side is the partially covered one if any, else the
    one with fewer face points (ties: side 0). The restriction
    R = W_f^-1 P^T W_m is P's adjoint under these masses, which keeps the
    lifted coupling symmetric; sum R P over a face is not I. `sigma` is the
    penalty for C = 1 on the mortar points, with the larger normal degree
    and the smaller prolonged h of the two sides.
    """

    def __init__(self, mortar, index, prolongs, cache):
        self.index = index
        self.prolong = [None if _is_identity(p) else p.T for p in prolongs]
        self.face_mass = [
            None if p is None else cache.face_mass[i] for p, i in zip(self.prolong, index)
        ]
        partial = [any(c != "full" for c in s.coverage) for s in mortar.sides]
        sizes = [i.shape[1] for i in index]
        coarse = int(partial[1] if partial[0] != partial[1] else sizes[1] < sizes[0])

        def prolonged(side, values):
            # one P @ v per mortar: one matrix product over all of them would
            # round differently
            return np.stack([prolongs[side] @ v for v in values[index[side]]])

        self.weights = mortar_logical_weights(
            mortar.counts, mortar.sides[coarse].coverage
        ) * prolonged(coarse, cache.face_measure)
        self.sigma = penalty_sigma(
            *(cache.face_p[i[:, :1]] for i in index),
            *(prolonged(s, cache.face_h) for s in (0, 1)), 1.0,
        )

    def to_mortar(self, side, buf):
        """Gather one side's face values from the buffer onto the mortars."""
        data = np.take(buf, self.index[side], axis=-1)
        p = self.prolong[side]
        return data if p is None else data @ p

    def add_restricted(self, side, values, buf):
        """Restrict mortar values to one side's faces and add them to the buffer."""
        p = self.prolong[side]
        if p is not None:
            values = (values * self.weights) @ p.T / self.face_mass[side]
        buf[..., self.index[side]] += values


def _face_key(side):
    return (side.element, side.dim, side.side)


def _concat(indices):
    """One index array from a possibly empty list of them."""
    return np.concatenate(indices) if indices else np.zeros(0, dtype=int)


class _MeshCache:
    """Geometry, topology and stacked transfer data shared between handles.

    Face geometry is kept in face-buffer order only: `face_coords`,
    `face_normal`, `face_h`, `face_measure`, `face_mass` (lumped) and
    `face_p`, the degree normal to the face, with `face_spans` mapping
    (element, dim, side) to the face's points.

    The face points fall into three disjoint sets, or set-up raises
    TopologyError: paired points, where `partner` gives the matching point
    across a mortar whose prolongations are both the identity (elsewhere it
    is the point itself); external points, `external` per tag; and the
    points of mortars with a non-identity side, `restricted`, exchanged by
    `mortar_groups`. `face_sigma` is the penalty for C = 1 at every point,
    with the larger normal degree and the smaller h of the point and its
    partner, so the same on both points of a pair. Restricted points, which
    are their own partners, have a value too, but their jumps come from the
    mortar groups, with the groups' own penalty.
    """

    def __init__(self, mesh, background):
        self.topology = topology = mortar_topology(mesh)
        self.n_points = mesh.total_points
        self.groups = _element_groups(mesh, background)
        self.face_spans = spans = {}
        for group in self.groups:
            for f in group.faces:
                n = math.prod(f.shape[1:])
                for e, k in enumerate(group.members):
                    start = f.span.start + e * n
                    spans[(k,) + f.key] = slice(start, start + n)
        self.n_face_points = self.groups[-1].face_end
        (self.face_coords, self.face_normal, self.face_h, self.face_measure, self.face_mass,
         self.face_p) = (
            np.concatenate(parts, axis=-1)
            for parts in zip(*(key for g in self.groups for key in g.face_geometry))
        )

        mortars = topology.mortars
        side_spans = [[spans[_face_key(s)] for s in m.sides] for m in mortars]
        shapes = [
            [face_shape(mesh.elements[s.element].grid_shape, s.dim) for s in m.sides]
            for m in mortars
        ]
        prolongs = [
            [prolongation_matrix(sh, m.counts, s.coverage) for s, sh in zip(m.sides, shs)]
            for m, shs in zip(mortars, shapes)
        ]
        n = self.n_face_points
        self.partner = partner = np.arange(n)
        by_kind = {}
        for mi, m in enumerate(mortars):
            kind = (m.counts,) + tuple(zip(shapes[mi], (s.coverage for s in m.sides)))
            by_kind.setdefault(kind, []).append(mi)
        paired, self.mortar_groups = [], []
        for midxs in by_kind.values():
            index = [
                np.array([side_spans[mi][s].start for mi in midxs])[:, None]
                + np.arange(math.prod(shapes[midxs[0]][s]))
                for s in (0, 1)
            ]
            if all(_is_identity(p) for p in prolongs[midxs[0]]):
                # the mortar is the face itself: a pointwise swap
                a, b = index
                partner[a], partner[b] = b, a
                paired += [a.ravel(), b.ravel()]
            else:
                self.mortar_groups.append(
                    _MortarGroup(mortars[midxs[0]], index, prolongs[midxs[0]], self)
                )
        self.restricted = np.unique(_concat(
            [i.ravel() for mg in self.mortar_groups for i in mg.index]
        ))

        external, faces = {}, []  # tag -> face-buffer indices
        for ef in topology.external_faces:
            sp = spans[_face_key(ef)]
            faces.append(np.arange(sp.start, sp.stop))
            external.setdefault(ef.tag, []).append(faces[-1])
        self.external = {tag: np.concatenate(idx) for tag, idx in external.items()}

        # every point must be exactly one of: paired, external, or on mortars
        # with a non-identity side; any other point would get no flux
        covered = np.bincount(
            np.concatenate([_concat(paired), _concat(faces), self.restricted]), minlength=n
        )
        if (covered != 1).any():
            bad = int(np.argmax(covered != 1))
            k, dim, side = next(key for key, sp in spans.items() if sp.start <= bad < sp.stop)
            raise TopologyError(
                f"face (dim {dim}, side {side}) of element {mesh.elements[k].id_string()} "
                "is not covered exactly once by mortars and external faces"
            )
        self.face_sigma = penalty_sigma(
            self.face_p, self.face_p[partner], self.face_h, self.face_h[partner], 1.0
        )


class OperatorHandle:
    """The DG operator with all its discretization choices fixed.

    With a linearization point set, applications compute the directional
    derivative of the operator (linearized sources and boundary conditions);
    otherwise the full, possibly nonlinear and boundary-inhomogeneous,
    residual A(u).
    """

    def __init__(
        self,
        mesh,
        system,
        background,
        boundary_conditions,
        *,
        form: str = "strong",
        massive: bool = True,
        penalty_parameter: float = 1.0,
    ):
        self.mesh = mesh
        self.system = system
        self.background = background
        self.bcs = boundary_conditions
        self.form = form
        self.massive = bool(massive)
        self.penalty_parameter = float(penalty_parameter)
        if system.dim != mesh.dim:
            raise ConfigurationError("system", f"system is {system.dim}D but mesh is {mesh.dim}D")
        if form not in ("strong", "strong-weak"):
            raise ConfigurationError("operator.form", f"unknown form {form!r}")
        if not 0.0 <= self.penalty_parameter < math.inf:
            raise ConfigurationError(
                "operator.penalty_parameter", "penalty parameter must be finite and >= 0"
            )
        # the point-independent state, which `linearized_at` shares: the mesh
        # cache, the penalty, the auxiliary-flux rows and the boundary layout
        # and arrays. The background fields wait for the first application
        # (`_core`)
        self._cache = cache = _MeshCache(mesh, background)
        self.bcs.validate_tags(cache.external)
        if hasattr(system, "min_puncture_distance"):
            if min(system.min_puncture_distance(g.coords) for g in cache.groups) < 1e-10:
                raise SingularPointError(
                    "a collocation point lies within 1e-10 of a puncture; "
                    "offset the mesh bounds"
                )
        self.linearization_point = self._lin_groups = self._lin_sources = None
        self._fields = []
        self._face_sigma = self.penalty_parameter * cache.face_sigma
        self._mortar_sigma = [self.penalty_parameter * mg.sigma for mg in cache.mortar_groups]
        # the auxiliary flux is linear in u, so its components that are zero
        # for every unit primal field are zero for every field: phase one's
        # divergence skips them (`_Group.flux_rows`)
        n = system.n_primal
        self._aux_rows = []
        for g in cache.groups:
            unit = np.zeros((n, n) + g.shape)  # field c (second axis) is 1 in component c
            unit[np.arange(n), np.arange(n)] = 1.0
            self._aux_rows.append(g.flux_rows(system.auxiliary_flux(unit, g.coords, background)))
        # the boundary arrays over the external points, dirichlet-kind first
        # (`_external`): trace-free conditions fill their positions here,
        # once; the others (`_live`) overwrite theirs in every application
        by_bc = {}
        for tag, index in cache.external.items():
            bc = self.bcs.for_tag(tag)
            by_bc.setdefault(id(bc), (bc, []))[1].append(index)
        conds = [(bc, np.concatenate(parts)) for bc, parts in by_bc.values()]
        conds.sort(key=lambda c: c[0].kind == "neumann")  # stable
        e = self._external = _concat([index for _, index in conds])
        nd = self._n_dirichlet = sum(i.size for bc, i in conds if bc.kind == "dirichlet")
        self._x, self._normal = cache.face_coords[:, e], cache.face_normal[:, e]
        self._fixed = [
            np.zeros((system.n_auxiliary, nd)), np.zeros((system.n_primal, e.size - nd))
        ]
        self._live_layout, end = [], 0
        for bc, index in conds:
            start, end = end, end + index.size
            k = int(bc.kind == "neumann")
            pos, span = slice(start - k * nd, end - k * nd), slice(start, end)
            x, normal = self._x[:, span], self._normal[:, span]
            if not isinstance(bc, _TraceFree):
                self._live_layout.append((bc, k, pos, index, x, normal))
                continue
            # an error in the data, or their check, is named by the condition's tag
            key = next(t for t, c in self.bcs.table.items() if c is bc)
            with config_section(f"boundary_conditions.{key}"):
                zero = np.zeros((system.n_primal, index.size))
                data = self._fixed[k][:, pos] = _boundary_values(
                    bc, system, background, x, normal, zero, None
                )
                if not np.isfinite(data).all():
                    where = x[:, np.argmin(np.isfinite(data).all(axis=0))].tolist()
                    raise ConfigurationError("", f"non-finite boundary data at x = {where}")
        self._live = [layout + (None,) for layout in self._live_layout]

    # -- bookkeeping ---------------------------------------------------

    @property
    def n_primal_dofs(self) -> int:
        return self.system.n_primal * self._cache.n_points

    @property
    def n_auxiliary_dofs(self) -> int:
        return self.system.n_auxiliary * self._cache.n_points

    @property
    def topology(self):
        """The mesh's mortars and external faces, computed once per mesh."""
        return self._cache.topology

    @property
    def is_linearized(self) -> bool:
        return self.linearization_point is not None

    def zero_primal(self) -> FieldVector:
        return FieldVector.zeros(self.mesh, self.system.n_primal)

    def linearized_at(self, point: Optional[FieldVector] = None) -> "OperatorHandle":
        """Handle for the operator linearized about `point` (default zero).

        A shallow copy of this handle: it shares everything that does not
        depend on the point and reads the point once, per group and as face
        traces where a live condition reads them. Trace-free conditions have
        no linearized data (`_TraceFree`), and the fluxes are linear in u. The
        linearized sources are built on the first application.
        """
        point = self.zero_primal() if point is None else point
        self._check(point, "primal", "the linearization point", single=True)
        cache, rows = self._cache, self._rows(point.data)
        lin = copy.copy(self)
        lin.linearization_point = point
        lin._lin_groups = [g.take(rows).copy() for g in cache.groups]
        lin._lin_sources = None
        lin._fixed = [np.zeros_like(a) for a in self._fixed]
        if self._live_layout:
            traces = np.empty((self.system.n_primal, cache.n_face_points))
            for g, lin_g in zip(cache.groups, lin._lin_groups):
                g.traces(lin_g, traces)
            lin._live = [
                layout + (np.take(traces, layout[3], axis=-1),) for layout in self._live_layout
            ]
        return lin

    # -- operator application ------------------------------------------

    def _check(self, vec, block, what, single=False):
        """Raise unless `vec` is a `block` ("primal" or "auxiliary") vector on
        this handle's mesh, the same object, and unless `single`, a batch."""
        n = getattr(self.system, "n_" + block)
        if vec.mesh is not self.mesh or vec.n_components != n:
            raise ValueError(
                f"{what} must be {'an' if block == 'auxiliary' else 'a'} {block} vector: "
                f"{n} component(s) on the handle's mesh of {self.mesh.n_elements} elements, "
                f"not {vec.n_components} on {'that' if vec.mesh is self.mesh else 'another'} mesh"
            )
        if single and vec.data.ndim != 1:
            raise ValueError(f"{what} must be a single vector, not a batch")

    def apply(self, u: FieldVector) -> FieldVector:
        """Residual A(u) over the primal variables; a batch gives a batch."""
        self._check(u, "primal", "u")
        _, res = self._core(u, None)
        return FieldVector(self.mesh, self.system.n_primal, res)

    def matvec(self, flat) -> np.ndarray:
        """A(u) for flat data, read in place; the result is a new array."""
        return self.apply(FieldVector(self.mesh, self.system.n_primal, flat)).data

    def apply_full(self, v: FieldVector, u: FieldVector):
        """Residuals of the first-order system over (auxiliary, primal)."""
        self._check(v, "auxiliary", "the auxiliary block")
        self._check(u, "primal", "the primal block")
        if v.data.shape[:-1] != u.data.shape[:-1]:
            raise ValueError("auxiliary and primal blocks differ in batch size")
        res_v, res_u = self._core(u, v)
        return (
            FieldVector(self.mesh, self.system.n_auxiliary, res_v),
            FieldVector(self.mesh, self.system.n_primal, res_u),
        )

    def matvec_full(self, flat) -> np.ndarray:
        na = self.n_auxiliary_dofs
        flat = np.asarray(flat, dtype=float).ravel()
        rv, ru = self.apply_full(
            FieldVector(self.mesh, self.system.n_auxiliary, flat[:na]),
            FieldVector(self.mesh, self.system.n_primal, flat[na:]),
        )
        return np.concatenate([rv.data, ru.data])

    def reconstruct_auxiliary(self, u: FieldVector) -> FieldVector:
        """The auxiliary field the compact operator uses internally."""
        self._check(u, "primal", "u")
        recon = self._phase1(self._rows(u.data))[1]
        data, out = self._new_rows(self.system.n_auxiliary, u.data.shape[:-1])
        for g, r in zip(self._cache.groups, recon):
            g.put(out, r)
        return FieldVector(self.mesh, self.system.n_auxiliary, data)

    def _rows(self, data):
        """Flat vectors (..., n_dofs) as a (components, ..., points) view."""
        rows = data.reshape(data.shape[:-1] + (-1, self._cache.n_points))
        return rows.swapaxes(0, -2)

    def _new_rows(self, n_components, lead):
        """A new buffer of flat vectors shaped `lead` and its `_rows` view."""
        data = np.empty(lead + (n_components * self._cache.n_points,))
        return data, self._rows(data)

    def _phase1(self, u_rows):
        """Auxiliary fluxes, their exchange and the reconstructed auxiliary field.

        Returns per group the strong flux divergences and the reconstructed
        fields; as face buffers the projected auxiliary fluxes and their
        numerical flux; and the neumann-kind boundary array.
        """
        cache = self._cache
        sys_, bg = self.system, self.background
        lead = u_rows.shape[1:-1]
        traces = np.empty((sys_.n_primal,) + lead + (cache.n_face_points,))
        ws = []
        for g, rows in zip(cache.groups, self._aux_rows):
            ug = g.take(u_rows)
            ws.append(g.divergence(sys_.auxiliary_flux(ug, g.coords, bg), rows))
            g.traces(ug, traces)
        aux = _contract_normal(
            cache.face_normal, sys_.auxiliary_flux(traces, cache.face_coords, bg)
        )

        # the fixed boundary arrays, copied only to take the values of the
        # conditions that read the trace
        arrays = [a.reshape(a.shape[:1] + (1,) * len(lead) + a.shape[1:]) for a in self._fixed]
        if self._live:
            arrays = [np.broadcast_to(a, a.shape[:1] + lead + a.shape[-1:]).copy() for a in arrays]
            reps = math.prod(lead)
            for bc, k, pos, index, x, normal, lin_b in self._live:
                x, normal, lin_b = (
                    a if a is None or reps == 1 else np.tile(a, reps) for a in (x, normal, lin_b)
                )
                values = _boundary_values(bc, sys_, bg, x, normal, _fold(traces, index), lin_b)
                arrays[k][..., pos] = values.reshape(values.shape[:1] + lead + (-1,))
        aux_b, flux_b = arrays

        # the exterior: the partner's value, or the ghost on external faces,
        # whose boundary value is the interior's at neumann-kind points
        ext = np.take(aux, cache.partner, axis=-1)
        e, nd = self._external, self._n_dirichlet
        interior = np.take(aux, e, axis=-1)
        ext[..., e] = exterior_ghost_data(interior, _join(aux_b, interior[..., nd:]))
        # on a ghost face the numerical flux is the boundary value itself
        star = auxiliary_numerical_flux(aux, ext)
        jumps = star - aux
        # mortars with a non-identity side replace the jump at their points
        jumps[..., cache.restricted] = 0.0
        for mg in cache.mortar_groups:
            sides = [mg.to_mortar(s, aux) for s in (0, 1)]
            star_m = auxiliary_numerical_flux(*sides)
            for s, flux in enumerate((star_m, -star_m)):
                mg.add_restricted(s, flux - sides[s], jumps)

        recon = [w.copy() for w in ws]
        for g, r in zip(cache.groups, recon):
            g.lift(r, jumps, massive=False)
        return ws, recon, aux, star, flux_b

    def _core(self, u, given_v):
        """Shared implementation of the compact and full operators.

        Returns the residuals as flat data shaped like `u.data`, the
        auxiliary one None unless `given_v` is set.
        """
        cache = self._cache
        sys_, bg = self.system, self.background
        # per group, on the first application: the background fields, once per
        # handle family (the list is shared), and the linearized sources once
        fields = self._fields
        if not fields:
            fields.extend(sys_.background_fields(g.coords) for g in cache.groups)
        if self._lin_groups is not None and self._lin_sources is None:
            self._lin_sources = [
                sys_.linearized_primal_source(u0, g.coords, bg, f)
                for g, u0, f in zip(cache.groups, self._lin_groups, fields)
            ]
        sources = self._lin_sources
        strong = self.form == "strong"
        primal_form = "strong" if strong else "weak"
        n_u, n_v = sys_.n_primal, sys_.n_auxiliary
        u_rows = self._rows(u.data)
        lead = u_rows.shape[1:-1]

        ws, recon, aux, aux_star, flux_b = self._phase1(u_rows)
        v_rows = None if given_v is None else self._rows(given_v.data)
        w_traces = np.empty((n_v,) + lead + (cache.n_face_points,))
        res_u, res_v = [], []
        for gi, (g, w, rc) in enumerate(zip(cache.groups, ws, recon)):
            if v_rows is None:
                v = rc
            else:
                v = g.take(v_rows)
                res_v.append(g.mass * (v - rc))
            ug = g.take(u_rows)
            fu = sys_.primal_flux(v, g.coords, bg)
            if sources is None:
                src = sys_.primal_source(ug, v, g.coords, bg, fields[gi])
            else:
                src = sources[gi](ug, v)
            res = -g.stiffness(fu, primal_form)
            res += g.mass * src
            res_u.append(res)
            g.traces(w, w_traces)
        normal, x = cache.face_normal, cache.face_coords
        deriv = _contract_normal(normal, sys_.primal_flux(w_traces, x, bg))
        pen = _contract_normal(normal, sys_.primal_flux(aux, x, bg))

        # the exterior as in phase one; the derivative's boundary value is the
        # interior's at dirichlet-kind points
        ext_d, ext_p = (np.take(a, cache.partner, axis=-1) for a in (deriv, pen))
        e, nd = self._external, self._n_dirichlet
        interior = np.take(deriv, e, axis=-1)
        ext_d[..., e] = exterior_ghost_data(interior, _join(interior[..., :nd], flux_b))
        ext_p[..., e] = 2.0 * _contract_normal(
            self._normal, sys_.primal_flux(np.take(aux_star, e, axis=-1), self._x, bg)
        ) - np.take(pen, e, axis=-1)
        star = primal_numerical_flux(deriv, pen, ext_d, ext_p, self._face_sigma)
        # strong form subtracts the element's own exchanged flux
        jumps = deriv - star if strong else -star
        jumps[..., cache.restricted] = 0.0
        for mg, sigma in zip(cache.mortar_groups, self._mortar_sigma):
            d = [mg.to_mortar(s, deriv) for s in (0, 1)]
            p = [mg.to_mortar(s, pen) for s in (0, 1)]
            star_m = primal_numerical_flux(d[0], p[0], d[1], p[1], sigma)
            for s, flux in enumerate((star_m, -star_m)):
                jump = flux - d[s] if strong else flux
                mg.add_restricted(s, -jump, jumps)

        data_u, out_u = self._new_rows(n_u, lead)
        data_v, out_v = (None, None) if v_rows is None else self._new_rows(n_v, lead)
        bad = []
        for gi, (g, res) in enumerate(zip(cache.groups, res_u)):
            g.lift(res, jumps, massive=True)
            if not self.massive:
                res = res / g.mass
            # one reduction; the element is located only when it fails
            if not np.isfinite(res).all():
                # (components and batch, elements, element points)
                finite = np.isfinite(res).reshape(-1, g.shape[0], math.prod(g.shape[1:]))
                bad.append(g.members[int(np.argmin(finite.all(axis=(0, 2))))])
            g.put(out_u, res)
            if out_v is not None:
                g.put(out_v, res_v[gi] if self.massive else res_v[gi] / g.mass)
        if bad:
            raise FloatingPointError(
                f"non-finite residual in element {self.mesh.elements[min(bad)].id_string()}"
            )
        return data_v, data_u

    def build_rhs(self, fixed_source) -> FieldVector:
        """M f (f when massless): the value the residual A(u) is equated to.

        `fixed_source` is a primal FieldVector or a callable mapping points
        (d, ...) to values (n_primal, ...), evaluated once per element group.
        The inhomogeneous boundary term A(0) stays on the operator's side:
        solve_linear moves it to the right-hand side itself, and
        solve_newton equates A(u) to this value as it is.
        """
        sys_ = self.system
        given = isinstance(fixed_source, FieldVector)
        if given:
            self._check(fixed_source, "primal", "the fixed source")
            source_rows = self._rows(fixed_source.data)
        data, rows = self._new_rows(sys_.n_primal, ())
        for g in self._cache.groups:
            if given:
                fg = g.take(source_rows)
            else:
                fg = np.asarray(fixed_source(g.coords), dtype=float)
                if fg.shape != (sys_.n_primal,) + g.shape:
                    raise ValueError(
                        f"fixed source shape {fg.shape} does not match the "
                        f"stacked element grids {(sys_.n_primal,) + g.shape}"
                    )
            g.put(rows, g.mass * fg if self.massive else fg)
        return FieldVector(self.mesh, sys_.n_primal, data)
