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
buffer in that order; its per-element arrays are views into it.

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
  across, each boundary condition's ghosts are written over its external
  points, and one flux call gives the flux and jump everywhere. The flux
  and ghost functions take and return plain arrays;
- mortars with a non-identity side replace the jump at their points: those
  with the same face grids, mortar grid and coverages form a group that
  gathers its sides from the face buffer with one index array each, prolongs
  with one matrix product P and restricts with its mass-weighted adjoint
  W_f^-1 P^T W_m (both skipped on a side where P is the identity).

A batch of vectors (FieldVector.batch) rides through the same code as one
more leading point axis: volume arrays are (components, batch, elements,
*grid) and the face buffer is (components, batch, face points). Geometry,
the linearization point and the penalty broadcast over it. A single vector
simply has no batch axis. Boundary conditions never see the batch axis: it
is folded into their point axis, with the face geometry repeated once per
vector. In 2D and 3D each vector of a batch gets bit for bit the residual
it gets alone. In 1D it may not: there a lone vector on a one-element
group is a one-row dimension-0 product in `_apply_1d`, which BLAS rounds
differently from a block of rows, by up to about 1e-13 relative.

Work that is fixed for a handle or provably zero is not redone per
application: the data of trace-free boundary conditions (`_TraceFree`) are
evaluated once, when the handle is built, and the volume kernels contract
only the (reference, physical) direction pairs whose inverse-Jacobian entry
is not zero everywhere in the group, one per reference direction on
rectilinear meshes.
"""

from __future__ import annotations

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
    after those of the previous one; boundary conditions see only this form.
    """
    return buf[..., index].reshape(buf.shape[0], -1)


def _repeat(arr, reps):
    """`arr` repeated `reps` times along its last axis, as `_fold` lays out."""
    return arr if reps == 1 else np.tile(arr, reps)


def _unfold(values, lead):
    """Inverse of `_fold` for a batch shaped `lead`."""
    return values.reshape(values.shape[:1] + lead + (-1,))


def _contract_normal(normal, fluxes):
    """n_i F^i... over the flux direction axis: (c, d, n) -> (c, n)."""
    return np.einsum("i...,ci...->c...", normal, fluxes)


class FieldVector:
    """Mesh-wide nodal data in one flat buffer.

    `data` holds the values in the flat DoF order. `arrays[k]` is element k's
    (n_components, *grid_shape) view into it, built on first use; writing
    through a view changes the vector. Rebinding `data` is not supported.

    A batch (`FieldVector.batch`) holds several vectors as the rows of a
    (batch, n_dofs) `data` array; the operator applies all of them in one
    pass and returns a batch. Per-element `arrays` exist only for a single
    vector.
    """

    __slots__ = ("mesh", "n_components", "data", "_arrays")

    def __init__(self, mesh, n_components: int, arrays):
        if len(arrays) != len(mesh.elements):
            raise ValueError("one array per mesh element required")
        for arr, el in zip(arrays, mesh.elements):
            if np.shape(arr) != (n_components,) + el.grid_shape:
                raise ValueError(
                    f"element array shape {np.shape(arr)} does not match "
                    f"{(n_components,) + el.grid_shape}"
                )
        self._init(mesh, n_components, np.empty(n_components * mesh.total_points))
        for view, arr in zip(self.arrays, arrays):
            view[...] = arr

    def _init(self, mesh, n_components, data):
        self.mesh = mesh
        self.n_components = n_components
        self.data = data
        self._arrays = None

    @classmethod
    def _wrap(cls, mesh, n_components: int, data) -> "FieldVector":
        """A vector owning `data`, a flat float array of the right size."""
        out = cls.__new__(cls)
        out._init(mesh, n_components, data)
        return out

    @property
    def arrays(self) -> tuple:
        if self.data.ndim != 1:
            raise ValueError("per-element arrays exist only for a single vector")
        if self._arrays is None:
            offsets = self.mesh.point_offsets
            rows = self.data.reshape(self.n_components, -1)
            self._arrays = tuple(
                _point_order(
                    rows[:, offsets[k]:offsets[k + 1]].reshape(
                        (self.n_components,) + el.grid_shape[::-1]
                    ),
                    el.dim,
                )
                for k, el in enumerate(self.mesh.elements)
            )
        return self._arrays

    @classmethod
    def zeros(cls, mesh, n_components: int) -> "FieldVector":
        return cls._wrap(mesh, n_components, np.zeros(n_components * mesh.total_points))

    @classmethod
    def from_flat(cls, mesh, n_components: int, flat) -> "FieldVector":
        flat = np.array(flat, dtype=float).reshape(-1)
        expected = n_components * mesh.total_points
        if flat.size != expected:
            raise ValueError(
                f"flat vector has {flat.size} entries, expected {expected}"
            )
        return cls._wrap(mesh, n_components, flat)

    @classmethod
    def batch(cls, mesh, n_components: int, rows) -> "FieldVector":
        """A batch of vectors, one per row of `rows` in the flat DoF order."""
        rows = np.asarray(rows, dtype=float)
        expected = n_components * mesh.total_points
        if rows.ndim != 2 or rows.shape[1] != expected:
            raise ValueError(
                f"batch has shape {rows.shape}, expected (batch, {expected})"
            )
        return cls._wrap(mesh, n_components, rows)

    def to_flat(self) -> np.ndarray:
        return self.data.copy()

    @property
    def n_dofs(self) -> int:
        return self.data.shape[-1]

    def copy(self) -> "FieldVector":
        return self._wrap(self.mesh, self.n_components, self.data.copy())

    def __add__(self, other):
        return self._wrap(self.mesh, self.n_components, self.data + other.data)

    def __sub__(self, other):
        return self._wrap(self.mesh, self.n_components, self.data - other.data)

    def __mul__(self, scalar):
        return self._wrap(self.mesh, self.n_components, self.data * scalar)

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


def _condition_data(bc, x, normal, trace, lin_trace):
    """The condition's boundary value, or its linearization about `lin_trace`."""
    if lin_trace is None:
        return bc.values(x, normal, trace)
    return bc.linearized_values(x, normal, lin_trace, trace)


def exterior_ghost_data(
    bc, system, background, x, normal, trace, aux_flux=None, deriv_flux=None,
    penalty_flux=None, lin_trace=None, aux_boundary=None, deriv_boundary=None,
):
    """Ghost exterior (aux_flux, deriv_flux, penalty_flux) on external face points.

    Arrays are (components, points), the fluxes projected on the interior's
    outward normal as the numerical fluxes take them; `trace` is the primal
    trace. Dirichlet-kind conditions set the auxiliary boundary flux to
    n F_v(u_b), neumann-kind ones the derivative flux to their flux value;
    the other boundary value is the interior one. The exterior is the
    interior minus twice the boundary value, except that the penalty flux,
    which the receiving side combines directly, is 2 n F_u(aux boundary)
    minus the interior. `lin_trace`, the linearization point's primal trace,
    selects the condition's linearized data: the map is then homogeneous.
    `aux_boundary` passes in a boundary auxiliary flux computed earlier, and
    `deriv_boundary` a neumann-kind condition's flux value; the condition is
    then not asked for them, and `trace` may be None. A None flux has a None
    exterior.
    """
    if aux_boundary is None:
        if bc.kind == "dirichlet":
            ub = _condition_data(bc, x, normal, trace, lin_trace)
            aux_boundary = _contract_normal(
                normal, system.auxiliary_flux(ub, x, background)
            )
        else:
            aux_boundary = aux_flux
    ext_aux = ext_deriv = ext_pen = None
    if aux_flux is not None:
        ext_aux = aux_flux - 2.0 * aux_boundary
    if deriv_flux is not None:
        if bc.kind != "neumann":
            deriv_boundary = deriv_flux
        elif deriv_boundary is None:
            deriv_boundary = _condition_data(bc, x, normal, trace, lin_trace)
        ext_deriv = deriv_flux - 2.0 * deriv_boundary
    if penalty_flux is not None:
        penalty_boundary = _contract_normal(
            normal, system.primal_flux(aux_boundary, x, background)
        )
        ext_pen = -penalty_flux + 2.0 * penalty_boundary
    return ext_aux, ext_deriv, ext_pen


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
    their coordinates, normals, h = 2/|n~|, surface measure and lumped mass.

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
        coords, det, jinv = [], [], []
        for el in elements:
            coords.append(_point_order(el.map.apply(xi), dim))
            _, d, inv = jacobian_at(el, xi)
            det.append(_point_order(d, dim))
            jinv.append(_point_order(inv, dim))
        self.coords = np.stack(coords, axis=1)
        self.jinv = np.stack(jinv, axis=2)
        # per reference direction j, the physical directions i whose
        # Jinv^j_i is not zero at every point: the one i = j on rectilinear
        # meshes, every i on curved ones. The volume kernels skip the others,
        # whose terms are exact zeros
        nonzero = self.jinv.reshape(dim, dim, -1).any(axis=2)
        self.directions = [[i for i in range(dim) if nonzero[j, i]] for j in range(dim)]
        self._terms = []
        for j, dirs in enumerate(self.directions):
            lo, hi = dirs[0], dirs[-1] + 1
            sel = slice(lo, hi) if hi - lo == len(dirs) else dirs
            self._terms.append((sel, self.jinv[j][sel]))
        det = np.stack(det)
        weights = [ns.weights for ns in node_sets]
        self.mass = _lumped_mass(
            elements, background, self.coords, det, _point_order(_weight_product(weights), dim)
        )
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

    def divergence(self, fluxes):
        """Strong nodal divergence sum_ij Jinv^j_i d_xi_j F^i, (c, d, ...) -> (c, ...)."""
        out = 0.0
        for j, (sel, jinv) in enumerate(self._terms):
            df = _apply_1d(self.diffs[j], fluxes[:, sel], j)
            out = out + np.einsum("i...,ci...->c...", jinv, df)
        return out

    def stiffness(self, fluxes, form):
        """Massive divergence (strong) or its negative transpose (weak)."""
        if form == "strong":
            return self.mass * self.divergence(fluxes)
        out = 0.0
        for j, (sel, jinv) in enumerate(self._terms):
            pre = self.mass * np.einsum("i...,ci...->c...", jinv, fluxes[:, sel])
            out = out - _apply_1d(self.diffs[j].T, pre, j)
        return out


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
    (mortars, mortar points) is the quadrature W_m both sides share. The
    restriction R = W_f^-1 P^T W_m is P's adjoint under these masses, which
    keeps the lifted coupling symmetric; sum R P over a face is not I.
    """

    def __init__(self, index, prolongs, weights, face_mass, sigma):
        self.index = index
        self.prolong = [None if _is_identity(p) else p.T for p in prolongs]
        self.face_mass = [
            None if p is None else face_mass[i] for p, i in zip(self.prolong, index)
        ]
        self.weights = weights
        self.sigma = sigma

    def to_mortar(self, side, buf):
        """Gather one side's face values from the buffer onto the mortars."""
        data = buf[..., self.index[side]]
        p = self.prolong[side]
        return data if p is None else data @ p

    def add_restricted(self, side, values, buf):
        """Restrict mortar values to one side's faces and add them to the buffer."""
        p = self.prolong[side]
        if p is not None:
            values = (values * self.weights) @ p.T / self.face_mass[side]
        buf[..., self.index[side]] += values


def _mortar_measure_sigma(mortar, measures, hs, prolongs, mesh):
    """Quadrature weights on the mortar points and the penalty for C = 1.

    `measures` and `hs` are the two side faces' surface measure and h. Both
    sides share the weights: LGL weights in the logical measure of the side
    the surface measure comes from, times that measure.
    """
    # mortar surface measure from the coarse side: the partially covered
    # side if any, else the side with fewer face points (ties: side 0)
    partial = [any(c != "full" for c in s.coverage) for s in mortar.sides]
    if partial[0] != partial[1]:
        ci = 0 if partial[0] else 1
    elif measures[0].size != measures[1].size:
        ci = 0 if measures[0].size < measures[1].size else 1
    else:
        ci = 0
    cov = mortar.sides[ci].coverage
    weights = mortar_logical_weights(mortar.counts, cov) * (prolongs[ci] @ measures[ci])
    hs = [np.asarray(p @ h, dtype=float) for p, h in zip(prolongs, hs)]
    p_norm = max(mesh.elements[s.element].degrees[s.dim] for s in mortar.sides)
    return weights, penalty_sigma(p_norm, p_norm, hs[0], hs[1], 1.0)


def _face_key(side):
    return (side.element, side.dim, side.side)


def _concat(indices):
    """One index array from a possibly empty list of them."""
    return np.concatenate(indices) if indices else np.zeros(0, dtype=int)


class _MeshCache:
    """Geometry, topology and stacked transfer data shared between handles.

    Face geometry is kept in face-buffer order only: `face_coords`,
    `face_normal`, `face_h`, `face_measure` and `face_mass` (lumped), with
    `face_spans` mapping (element, dim, side) to the face's points.

    The face points fall into three disjoint sets, or set-up raises
    TopologyError: paired points, where `partner` gives the matching point
    across a mortar whose prolongations are both the identity (elsewhere it
    is the point itself); external points, `external` per tag; and the
    points of mortars with a non-identity side, `restricted`, exchanged by
    `mortar_groups`. `face_sigma` is the penalty for C = 1 at paired and
    external points, the same on both points of a pair.
    """

    def __init__(self, mesh, background):
        self.topology = topology = mortar_topology(mesh)
        offsets = mesh.point_offsets
        self.n_points = int(offsets[-1])

        by_shape = {}
        for k, el in enumerate(mesh.elements):
            by_shape.setdefault(el.grid_shape, []).append(k)
        self.groups = []
        self.face_spans = spans = {}
        pos = 0
        for members in by_shape.values():
            group = _Group([mesh.elements[k] for k in members], members, offsets, background, pos)
            for f in group.faces:
                n = math.prod(f.shape[1:])
                for e, k in enumerate(members):
                    start = f.span.start + e * n
                    spans[(k,) + f.key] = slice(start, start + n)
            self.groups.append(group)
            pos = group.face_end
        self.n_face_points = pos
        self.face_coords, self.face_normal, self.face_h, self.face_measure, self.face_mass = (
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
        self.face_sigma = np.zeros(n)
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
                p = np.array([
                    max(mesh.elements[s.element].degrees[s.dim] for s in mortars[mi].sides)
                    for mi in midxs
                ])[:, None]
                self.face_sigma[a] = self.face_sigma[b] = penalty_sigma(
                    p, p, self.face_h[a], self.face_h[b], 1.0
                )
                continue
            weights, sigmas = zip(*[
                _mortar_measure_sigma(
                    mortars[mi], [self.face_measure[sp] for sp in side_spans[mi]],
                    [self.face_h[sp] for sp in side_spans[mi]], prolongs[mi], mesh,
                )
                for mi in midxs
            ])
            self.mortar_groups.append(_MortarGroup(
                index, prolongs[midxs[0]], np.stack(weights), self.face_mass, np.stack(sigmas)
            ))
        self.restricted = np.unique(_concat(
            [i.ravel() for mg in self.mortar_groups for i in mg.index]
        ))

        external, faces, degrees = {}, [], []  # tag -> face-buffer indices
        for ef in topology.external_faces:
            sp = spans[_face_key(ef)]
            faces.append(np.arange(sp.start, sp.stop))
            external.setdefault(ef.tag, []).append(faces[-1])
            degrees.append(np.full(len(faces[-1]), mesh.elements[ef.element].degrees[ef.dim]))
        self.external = {tag: np.concatenate(idx) for tag, idx in external.items()}
        faces, p = _concat(faces), _concat(degrees)
        self.face_sigma[faces] = penalty_sigma(p, p, self.face_h[faces], self.face_h[faces], 1.0)

        # every point must be exactly one of: paired, external, or on mortars
        # with a non-identity side; any other point would get no flux
        covered = np.bincount(
            np.concatenate([_concat(paired), faces, self.restricted]), minlength=n
        )
        if (covered != 1).any():
            bad = int(np.argmax(covered != 1))
            k, dim, side = next(key for key, sp in spans.items() if sp.start <= bad < sp.stop)
            raise TopologyError(
                f"face (dim {dim}, side {side}) of element {mesh.elements[k].id_string()} "
                "is not covered exactly once by mortars and external faces"
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
        linearization_point: Optional[FieldVector] = None,
        _cache: Optional[_MeshCache] = None,
    ):
        if system.dim != mesh.dim:
            raise ConfigurationError(
                "system", f"system is {system.dim}D but mesh is {mesh.dim}D"
            )
        if form not in ("strong", "strong-weak"):
            raise ConfigurationError("operator.form", f"unknown form {form!r}")
        if not 0.0 <= penalty_parameter < math.inf:
            raise ConfigurationError(
                "operator.penalty_parameter", "penalty parameter must be finite and >= 0"
            )
        self.mesh = mesh
        self.system = system
        self.background = background
        self.bcs = boundary_conditions
        self.form = form
        self.massive = bool(massive)
        self.penalty_parameter = float(penalty_parameter)
        self.linearization_point = linearization_point
        self._cache = cache = _cache if _cache is not None else _MeshCache(mesh, background)
        self.bcs.validate_tags(cache.external)
        # a given `_cache` comes from a handle of the same mesh, system and
        # background (`linearized_at`), which already checked its points
        if _cache is None and hasattr(system, "min_puncture_distance"):
            if min(system.min_puncture_distance(g.coords) for g in cache.groups) < 1e-10:
                raise SingularPointError(
                    "a collocation point lies within 1e-10 of a puncture; "
                    "offset the mesh bounds"
                )
        self._face_sigma = self.penalty_parameter * cache.face_sigma
        self._mortar_sigma = [self.penalty_parameter * mg.sigma for mg in cache.mortar_groups]
        # the linearization point is read here, once: per group and as face traces
        self._lin_groups = lin_traces = None
        if linearization_point is not None:
            if linearization_point.n_components != system.n_primal:
                raise ValueError("linearization point must be a primal vector")
            if linearization_point.data.ndim != 1:
                raise ValueError("linearization point must be a single vector, not a batch")
            lin_rows = self._rows(linearization_point.data)
            self._lin_groups = [g.take(lin_rows).copy() for g in cache.groups]
            lin_traces = np.empty((system.n_primal, cache.n_face_points))
            for g, lin_g in zip(cache.groups, self._lin_groups):
                g.traces(lin_g, lin_traces)
        # external face points per condition object: (bc, face-buffer
        # indices, coordinates, normals, linearization point's traces, fixed
        # auxiliary boundary flux, fixed derivative boundary flux). The data
        # of a trace-free condition do not depend on the field, so they are
        # evaluated here, once: a dirichlet-kind condition's n F_v(u_b), a
        # neumann-kind one's flux value (zeros when linearized)
        by_bc = {}
        for tag, index in cache.external.items():
            bc = self.bcs.for_tag(tag)
            by_bc.setdefault(id(bc), (bc, []))[1].append(index)
        self._boundaries = []
        for bc, parts in by_bc.values():
            index = np.concatenate(parts)
            x, normal = cache.face_coords[:, index], cache.face_normal[:, index]
            lin_b = None if lin_traces is None else lin_traces[:, index]
            aux_b = deriv_b = None
            if isinstance(bc, _TraceFree):
                data = _condition_data(
                    bc, x, normal, np.zeros((system.n_primal, index.size)), lin_b
                )
                if bc.kind == "dirichlet":
                    aux_b = _contract_normal(normal, system.auxiliary_flux(data, x, background))
                else:
                    deriv_b = data
                lin_b = None
            self._boundaries.append((bc, index, x, normal, lin_b, aux_b, deriv_b))

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
        """Handle for the operator linearized about `point` (default zero)."""
        return OperatorHandle(
            self.mesh,
            self.system,
            self.background,
            self.bcs,
            form=self.form,
            massive=self.massive,
            penalty_parameter=self.penalty_parameter,
            linearization_point=self.zero_primal() if point is None else point,
            _cache=self._cache,
        )

    # -- operator application ------------------------------------------

    def apply(self, u: FieldVector) -> FieldVector:
        """Residual A(u) over the primal variables; a batch gives a batch."""
        _, res = self._core(u, None)
        return FieldVector._wrap(self.mesh, self.system.n_primal, res)

    def matvec(self, flat) -> np.ndarray:
        u = FieldVector.from_flat(self.mesh, self.system.n_primal, flat)
        return self.apply(u).to_flat()

    def apply_full(self, v: FieldVector, u: FieldVector):
        """Residuals of the first-order system over (auxiliary, primal)."""
        if v.n_components != self.system.n_auxiliary:
            raise ValueError("auxiliary block has wrong component count")
        if v.data.shape[:-1] != u.data.shape[:-1]:
            raise ValueError("auxiliary and primal blocks differ in batch size")
        res_v, res_u = self._core(u, v)
        return (
            FieldVector._wrap(self.mesh, self.system.n_auxiliary, res_v),
            FieldVector._wrap(self.mesh, self.system.n_primal, res_u),
        )

    def matvec_full(self, flat) -> np.ndarray:
        na = self.n_auxiliary_dofs
        flat = np.asarray(flat, dtype=float).ravel()
        v = FieldVector.from_flat(self.mesh, self.system.n_auxiliary, flat[:na])
        u = FieldVector.from_flat(self.mesh, self.system.n_primal, flat[na:])
        rv, ru = self.apply_full(v, u)
        return np.concatenate([rv.to_flat(), ru.to_flat()])

    def reconstruct_auxiliary(self, u: FieldVector) -> FieldVector:
        """The auxiliary field the compact operator uses internally."""
        recon = self._phase1(self._rows(u.data))[1]
        data, out = self._new_rows(self.system.n_auxiliary, u.data.shape[:-1])
        for g, r in zip(self._cache.groups, recon):
            g.put(out, r)
        return FieldVector._wrap(self.mesh, self.system.n_auxiliary, data)

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
        numerical flux; per boundary condition (condition, face-buffer index,
        points, normals, linearized traces, primal trace, fixed derivative
        boundary flux), folded as `_fold` does. A trace-free condition gets
        no traces: its data were fixed when the handle was built.
        """
        cache = self._cache
        sys_, bg = self.system, self.background
        lead = u_rows.shape[1:-1]
        reps = math.prod(lead)
        traces = np.empty((sys_.n_primal,) + lead + (cache.n_face_points,))
        ws = []
        for g in cache.groups:
            ug = g.take(u_rows)
            ws.append(g.divergence(sys_.auxiliary_flux(ug, g.coords, bg)))
            g.traces(ug, traces)
        aux = _contract_normal(
            cache.face_normal, sys_.auxiliary_flux(traces, cache.face_coords, bg)
        )

        # the exterior: the partner's value, or the ghost on external faces
        ext = aux[..., cache.partner]
        boundaries = []
        for bc, i, x, normal, lin_b, aux_b, deriv_b in self._boundaries:
            x, normal, lin_b, aux_b, deriv_b = (
                None if a is None else _repeat(a, reps)
                for a in (x, normal, lin_b, aux_b, deriv_b)
            )
            trace = None if isinstance(bc, _TraceFree) else _fold(traces, i)
            ghost, _, _ = exterior_ghost_data(
                bc, sys_, bg, x, normal, trace, aux_flux=_fold(aux, i), lin_trace=lin_b,
                aux_boundary=aux_b,
            )
            ext[..., i] = _unfold(ghost, lead)
            boundaries.append((bc, i, x, normal, lin_b, trace, deriv_b))
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
        return ws, recon, aux, star, boundaries

    def _core(self, u, given_v):
        """Shared implementation of the compact and full operators.

        Returns the residuals as flat data shaped like `u.data`, the
        auxiliary one None unless `given_v` is set.
        """
        cache = self._cache
        sys_, bg = self.system, self.background
        lin = self._lin_groups
        strong = self.form == "strong"
        primal_form = "strong" if strong else "weak"
        n_u, n_v = sys_.n_primal, sys_.n_auxiliary
        u_rows = self._rows(u.data)
        lead = u_rows.shape[1:-1]

        ws, recon, aux, aux_star, boundaries = self._phase1(u_rows)
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
            if lin is None:
                src = sys_.primal_source(ug, v, g.coords, bg)
            else:
                src = sys_.linearized_primal_source(lin[gi], ug, v, g.coords, bg)
            res = -g.stiffness(fu, primal_form)
            res += g.mass * src
            res_u.append(res)
            g.traces(w, w_traces)
        normal, x = cache.face_normal, cache.face_coords
        deriv = _contract_normal(normal, sys_.primal_flux(w_traces, x, bg))
        pen = _contract_normal(normal, sys_.primal_flux(aux, x, bg))

        # the exterior as in phase one
        ext_d, ext_p = deriv[..., cache.partner], pen[..., cache.partner]
        for bc, i, xb, nb, lin_b, trace, deriv_b in boundaries:
            _, ghost_d, ghost_p = exterior_ghost_data(
                bc, sys_, bg, xb, nb, trace, deriv_flux=_fold(deriv, i),
                penalty_flux=_fold(pen, i), lin_trace=lin_b,
                aux_boundary=_fold(aux_star, i), deriv_boundary=deriv_b,
            )
            ext_d[..., i] = _unfold(ghost_d, lead)
            ext_p[..., i] = _unfold(ghost_p, lead)
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
            if fixed_source.n_components != sys_.n_primal:
                raise ValueError("fixed source has the wrong component count")
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
        return FieldVector._wrap(self.mesh, sys_.n_primal, data)
