"""DG building blocks and the internal-penalty operator.

The element-local pieces (lumped mass, stiffness, lifting) combine with
mortar exchange of boundary fluxes into a compact nearest-neighbor operator
over the primal variables; the auxiliary variables are reconstructed
internally each application. An OperatorHandle bundles mesh, system,
background, boundary conditions and the discretization switches, and can
also apply the full first-order operator over (auxiliary, primal) blocks
for Schur-complement checks.

Application runs in two phases. Phase one maps the primal gradient to the
auxiliary variables G(grad u), exchanges their fluxes' normal projections
G(u (x) n) across mortars (ghosts on external faces) and reconstructs the
auxiliary field with mass-lumped lifting of the flux jumps. Phase two forms
primal fluxes, exchanges derivative-based and penalty-term data, and
assembles the residual in strong or strong-weak form.

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
  (sum factorization, as in Kronbichler & Kormann 2012). Set-up evaluates
  a group's geometry in one `jacobian_at` call;
- face traces of all elements live in one face buffer of shape
  (components, face points); the face fluxes are evaluated on it in one
  call per phase;
- both phases exchange through one routine (`OperatorHandle._exchange`).
  The numerical fluxes are pointwise, so it works in one pass over a
  phase's face buffers: one gather through `partner` gives every point of a
  mortar whose prolongations are both the identity the matching point
  across and an external point itself, times the phase's sign, the boundary
  terms are added where they may not be zero, and one flux call
  gives the numerical flux star everywhere. The jump to lift is star - own
  in strong form, star alone in weak form: phase one is always strong,
  phase two follows the form and lifts the negated jump. The penalty
  sigma = C (p+1)^2 / h is computed once per handle in one expression over
  the face buffer, with the larger normal degree and the smaller h of each
  point and its partner (an external point is its own);
- the mesh's topology (`Mesh.topology`) says which faces a mortar joins and
  how much of each it covers; the operator chooses the grid. Mortars whose
  two sides have the same face grids and coverages are a kind: its mortar
  grid is the larger face grid per transverse dimension (Kopriva, Woodruff
  & Hussaini 2002), and a side prolongs by the identity exactly when its
  face grid is the mortar grid and it is fully covered;
- mortars with a non-identity side replace the jump at their points, all of
  them in one pass per phase: one gather per face buffer and side, one flux
  call on every such mortar's points and one `np.add.at` of the restricted
  values into the face buffer. In between, each kind (`_MortarGroup`)
  prolongs with one matrix product P, made once per kind, and restricts
  with its mass-weighted adjoint W_f^-1 P^T W_m, each on a view of the
  stacked arrays with the kind's own shapes (both skipped where P = I). The
  scatter-add keeps the order (kind, side), in which a coarse face fed by
  several mortars adds their terms. Each kind computes its quadrature
  weights and penalty on the mortar points once, at set-up.

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
kind: n F_v(u_b) = G(u_b (x) n) at dirichlet-kind points, the flux value at
neumann-kind ones. A ghost is the interior minus twice its boundary value (the
interior's own where the kind gives none), the penalty ghost 2 n F_u(aux*)
minus the interior: the numerical flux on an external face is the boundary
value. For finite values that is a sign times the interior, -1 in phase one
at neumann-kind points and in phase two at dirichlet-kind ones (a - 2a = -a,
and aux* = 0 there), else 1, plus the boundary terms: -2 aux_b in phase one,
-2 flux_b and 2 n F_u(aux*) in phase two.

Work that is fixed for a handle or provably zero is not redone per
application:
- trace-free boundary conditions (`_TraceFree`) fill their part of the
  boundary arrays once, when the handle is built; with zero arrays and no
  live condition, as on linearizing them, no boundary term is formed;
- the volume kernels contract only the (reference, physical) direction
  pairs whose inverse-Jacobian entry is not zero everywhere in the group:
  on rectilinear meshes one per reference direction, a plain product;
- phase one differentiates the primal field, not its auxiliary flux, and
  applies G once to the gradient (`_Group.gradient`);
- the background fields, the only fixed data the fluxes and sources read,
  are evaluated once per group and handle family and gathered from there
  onto the face buffer; each handle builds its sources once per group on
  its first application: a linearized one the maps
  (du, dv) -> S'(u0)[du, dv], with what depends on u0 only (the puncture's
  power of u0) evaluated then. A source linear in (u, v) and exactly zero
  on unit fields, as poisson-flat's and elasticity's are, is dropped.
Nor is it redone per linearization: `linearized_at`, the only way to build
a linearized handle, takes a shallow copy of the handle it linearizes, so
the copy shares the mesh cache, the penalty, the background fields and the
boundary layout, and sets only what the point gives.
Each group gathers its span of the face buffer with one `take` through the
flat index of its face points; on a one-group mesh that gather is the face
buffer. It lifts with one `np.add.at`, which adds in index order, so a
point on several faces gets their terms in face-key order; a single
vector's scatter index is built once per group and component count, a
batch's per call. Phase one gathers the face values of G(grad u) before it
lifts into them, so the reconstructed field is G(grad u)'s own array, and a
single vector's residual on a one-group mesh is its group's array, already
in the flat order. Other gathers through an index array use the `take`
method too, several times faster than `[..., index]` at these sizes.
"""

from __future__ import annotations

import copy
import math
import numbers
from collections import namedtuple
from operator import attrgetter
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
from .mesh import COVERAGES, _is_number, face_parts, jacobian_at
from .mortars import mortar_logical_weights, prolongation_matrix
from .systems import EllipticSystem

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
    return buf.take(index, axis=-1).reshape(buf.shape[0], -1)


def _index(items):
    """A slice for consecutive nonempty `items`, else the list itself."""
    if items and items[-1] - items[0] + 1 == len(items):
        return slice(items[0], items[-1] + 1)
    return items


def _unit_fields(n, shape):
    """n fields over points `shape`: field c (the first axis) is 1 in component c, else 0."""
    return np.broadcast_to(np.eye(n).reshape((n, n) + (1,) * len(shape)), (n, n) + shape)


def _normal_auxiliary(system, u, normal):
    """n_i F^i_v(u) = G(u (x) n): u (c, ..., points), normal (d, points)."""
    return system.auxiliary_from_gradient(np.einsum("c...,i...->ci...", u, normal))


def _contract_normal(normal, fluxes):
    """n_i F^i... over the flux direction axis: (c, d, n) -> (c, n)."""
    return np.einsum("i...,ci...->c...", normal, fluxes)


def _project(sel, jinv, fluxes):
    """Jinv_i F^i over the directions `sel` of F[:, sel]; one (an int) is a product."""
    return jinv * fluxes if isinstance(sel, int) else _contract_normal(jinv, fluxes)


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
        if not data.size:
            raise ValueError("a batch needs at least one vector, got 0 rows")
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
        if not isinstance(other, FieldVector):
            return NotImplemented
        return FieldVector(self.mesh, self.n_components, self.data + self._like(other))

    def __sub__(self, other):
        if not isinstance(other, FieldVector):
            return NotImplemented
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


def _boundary_values(bc, system, x, normal, trace, point):
    """A condition's boundary-array entries at points x: n F_v(u_b) if
    dirichlet-kind, else its flux value; linearized about `point`, the
    linearization point's primal trace, unless that is None.
    """
    if point is None:
        data = bc.values(x, normal, trace)
    else:
        data = bc.linearized_values(x, normal, point, trace)
    return _normal_auxiliary(system, data, normal) if bc.kind == "dirichlet" else data


def exterior_ghost_data(interior, boundary):
    """The ghost exterior of normal-projected face data: interior - 2 boundary."""
    return interior - 2.0 * boundary


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


def _scatter_index(kept, array, stride, points, single):
    """The flat index of `points` in every `stride`-long row of a C-contiguous
    array, row after row: for one vector kept in `kept` per component count
    (the array's first axis), for a batch built per call, so that no kept
    state grows with the batch size."""
    index = kept.get(len(array)) if single else None
    if index is None:
        index = (np.arange(0, array.size, stride)[:, None] + points).ravel()
        if single:
            kept[len(array)] = index
    return index


# a face key (dim, side) of a group: its points' `span` in the face buffer and
# `shape` (elements, *face grid in point order)
_GroupFace = namedtuple("_GroupFace", "key span shape")


class _Group:
    """Elements of one grid shape, stacked in point order, with their geometry.

    Volume arrays are (..., elements, n_{d-1}, ..., n_0). `sel` picks the
    group's points from a (components, points) array: a slice when the
    members are consecutive in the mesh, else an index array. The group's
    face points fill [face_start, face_end) of the face buffer, face key by
    face key, element by element within a key; `face_geometry` holds per key
    their coordinates, normals, h = 2/|n~|, surface measure, lumped mass and
    the degree normal to the face.

    The members' points, Jacobians, determinants and inverses come from one
    `jacobian_at` call on the shared logical grid; everything else is
    derived from the stack.
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
        # evaluated on the logical grid in point order, so that the stacked
        # arrays come out C-contiguous in point order
        self.coords, _, det, self.jinv = jacobian_at(
            elements, _point_order(first.logical_grid(), dim)
        )
        weights = [ns.weights for ns in node_sets]
        self.mass = _lumped_mass(
            elements, background, self.coords, det, _point_order(_weight_product(weights), dim)
        )
        # per reference direction j, the physical directions i whose
        # Jinv^j_i is not zero at every point: the one i = j on rectilinear
        # meshes, every i on curved ones. The volume kernels skip the others,
        # whose terms are exact zeros, and take one that is left alone (an int
        # `sel`) as a plain product
        nonzero = self.jinv.reshape(dim, dim, -1).any(axis=2)
        self.directions = [[i for i in range(dim) if nonzero[j, i]] for j in range(dim)]
        self._terms = []
        for j, dirs in enumerate(self.directions):
            sel = dirs[0] if len(dirs) == 1 else _index(dirs)
            self._terms.append((sel, self.jinv[j][sel]))
        # every reference direction j its own physical direction j: the
        # gradient writes each term once, into an output it need not zero
        self._diagonal = all(sel == j for j, (sel, _) in enumerate(self._terms))
        self.diffs = [differentiation_matrix(ns) for ns in node_sets]
        # per face point, in face-buffer order: its flat index into one
        # component of a point-ordered volume, and its two lifting weights
        ids = np.arange(n_el * n).reshape(self.shape)
        self.faces, self.face_geometry, points, lift = [], [], [], ([], [])
        self.face_start = face_start
        for fdim in range(dim):
            trans = _weight_product([w for i, w in enumerate(weights) if i != fdim])
            for side in (-1, 1):
                index = (Ellipsis, 0 if side < 0 else -1) + (slice(None),) * fdim
                fg = sampled_face_geometry(
                    background, self.coords[index], det[index], self.jinv[fdim][index], side
                )
                mag = fg.normal_magnitude
                massive = fg.surface_measure * _point_order(trans, dim - 1)
                self.faces.append(
                    _GroupFace((fdim, side), slice(face_start, face_start + mag.size), mag.shape)
                )
                face_start += mag.size
                points.append(ids[index].ravel())
                lift[0].append((mag / weights[fdim][0 if side < 0 else -1]).ravel())
                lift[1].append(massive.ravel())
                self.face_geometry.append((
                    fg.coords.reshape(dim, -1), fg.normal.reshape(dim, -1),
                    (2.0 / mag).ravel(), fg.surface_measure.ravel(), massive.ravel(),
                    np.full(mag.size, first.degrees[fdim]),
                ))
        self.face_end = face_start
        self._face_points = np.concatenate(points)
        self._lift_weights = [np.concatenate(w) for w in lift]  # massless, massive
        self._scatter = {}  # component count -> one vector's scatter index

    def take(self, rows):
        """The group's part of a (..., points) array, point-ordered."""
        return rows[..., self.sel].reshape(rows.shape[:-1] + self.shape)

    def put(self, rows, values):
        rows[..., self.sel] = values.reshape(rows.shape[:-1] + (-1,))

    def traces(self, volume):
        """The face values (..., group face points) of a (..., *shape) volume
        array, in face-buffer order: one gather, a new array."""
        flat = volume.reshape(volume.shape[:-self.dim - 1] + (-1,))
        return flat.take(self._face_points, axis=-1)

    def lift(self, volume, buf, massive):
        """Add the lifted face-buffer values into a C-contiguous (..., *shape)
        volume array: one scatter-add on its flat view, indexed in face-key
        order, which `np.add.at` keeps where faces share a point
        (`_scatter_index`)."""
        if not volume.flags.c_contiguous:
            raise ValueError("lifting needs a C-contiguous volume array")
        values = buf[..., self.face_start:self.face_end] * self._lift_weights[massive]
        index = _scatter_index(self._scatter, volume, math.prod(self.shape), self._face_points,
                               volume.ndim == self.dim + 2)
        np.add.at(volume.reshape(-1), index, values.ravel())

    def gradient(self, u):
        """Nodal gradient sum_j Jinv^j_i d_xi_j u_c, (c, ...) -> (c, d, ...)."""
        shape = u.shape[:1] + (self.dim,) + u.shape[1:]
        out = np.empty(shape) if self._diagonal else np.zeros(shape)
        for j, (sel, jinv) in enumerate(self._terms):
            du = _apply_1d(self.diffs[j], u, j)
            if self._diagonal:
                np.multiply(jinv, du, out=out[:, j])
            else:
                out[:, sel] += (jinv * du if isinstance(sel, int)
                                else np.einsum("i...,c...->ci...", jinv, du))
        return out

    def divergence(self, fluxes):
        """Strong nodal divergence sum_ij Jinv^j_i d_xi_j F^i, (c, d, ...) -> (c, ...)."""
        out = np.zeros(fluxes.shape[:1] + fluxes.shape[2:])
        for j, (sel, jinv) in enumerate(self._terms):
            out += _project(sel, jinv, _apply_1d(self.diffs[j], fluxes[:, sel], j))
        return out

    def stiffness(self, fluxes, form):
        """Massive divergence (strong) or its negative transpose (weak)."""
        if form == "strong":
            return self.mass * self.divergence(fluxes)
        out = 0.0
        for j, (sel, jinv) in enumerate(self._terms):
            pre = self.mass * _project(sel, jinv, fluxes[:, sel])
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
    x, _, det, _ = jacobian_at([element], element.logical_grid())
    return _lumped_mass([element], background, x[:, 0], det[0], _weight_product(weights))


class _MortarGroup:
    """Mortars of one kind with a non-identity side: the kind's mortar grid
    `counts` and the two sides' `coverages`, `prolongs` P per side (None
    where P = I), and the data that `_MeshCache` stacks with the other
    kinds' for one exchange pass over all of them. Mortars whose sides are
    both the identity are exchanged pointwise through `_MeshCache.partner`
    instead.

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

    def __init__(self, counts, coverages, index, prolongs, cache):
        self.index = index
        self.prolong = [None if p is None else p.T for p in prolongs]
        self.face_mass = [
            None if p is None else cache.face_mass[i] for p, i in zip(prolongs, index)
        ]
        partial = [any(c != "full" for c in cov) for cov in coverages]
        sizes = [i.shape[1] for i in index]
        coarse = int(partial[1] if partial[0] != partial[1] else sizes[1] < sizes[0])

        def prolonged(side, values):
            # one P @ v per mortar: one matrix product over all of them would
            # round differently
            values, p = values[index[side]], prolongs[side]
            return values if p is None else np.stack([p @ v for v in values])

        self.weights = (mortar_logical_weights(counts, coverages[coarse])
                        * prolonged(coarse, cache.face_measure))
        self.sigma = penalty_sigma(
            *(cache.face_p[i[:, :1]] for i in index),
            *(prolonged(s, cache.face_h) for s in (0, 1)), 1.0,
        )

    def restrict(self, side, values):
        """Mortar values (..., mortars, mortar points) on one side's face
        points: W_f^-1 P^T W_m v, or v itself where P = I."""
        p = self.prolong[side]
        return values if p is None else (values * self.weights) @ p.T / self.face_mass[side]


def _concat(indices):
    """One index array from a possibly empty list of them."""
    return np.concatenate(indices) if indices else np.zeros(0, dtype=int)


def _distinct(values):
    """The distinct values, ascending, by one sort: numpy 2.4's `np.unique`
    hashes integers and took 3 to 15 times as long on 200 to 20,000 of them
    (2-core Intel Xeon, Python 3.11)."""
    values = np.sort(values)
    return np.concatenate([values[:1], values[1:][values[1:] != values[:-1]]])


def _ranges(starts, sizes):
    """The ranges [start, start + size) end to end, one index array."""
    ends = sizes.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (starts - ends + sizes).repeat(sizes)


class _MeshCache:
    """Geometry and stacked transfer data shared between handles.

    Face geometry is kept in face-buffer order only: `face_coords`,
    `face_normal`, `face_h`, `face_measure`, `face_mass` (lumped) and
    `face_p`, the degree normal to the face. `face_start` and `face_size`
    give each face's first point and number of points, by the topology's
    face number (`MeshTopology`).

    The face points fall into three disjoint sets, or set-up raises
    TopologyError: paired points, where `partner` gives the matching point
    across a mortar whose prolongations are both the identity (elsewhere it
    is the point itself); external points, `external` per tag, in the order
    of first appearance; and the points of mortars with a non-identity side,
    `restricted`, exchanged in one pass over the stacked `mortar_groups`
    (`to_mortar`, `add_restricted`). All of it is read from the topology's
    arrays, with a loop over element groups and over mortar kinds only.

    The face grids decide the mortars: the mesh's topology has no degrees.
    A kind is each side's (face grid, coverages), kinds in the order of
    their first mortar; its mortar grid is the per-dimension maximum of the
    two face grids, so the mortar's points per transverse dimension take the
    larger degree of the two sides, plus one. A side whose face grid is the
    mortar grid and whose coverages are all "full" prolongs by the identity,
    decided from the kind alone, so no prolongation is made for it.

    `face_sigma` is the penalty for C = 1 at every point, with the larger
    normal degree and the smaller h of the point and its partner, so the
    same on both points of a pair. Restricted points, which are their own
    partners, have a value too, but their jumps come from the mortars, with
    the penalty on the mortar points, `mortar_sigma`.
    """

    def __init__(self, mesh, background):
        self.n_points = mesh.total_points
        self.groups = _element_groups(mesh, background)
        dim, topology = mesh.dim, mesh.topology
        # per face number: its first point, its number of points and its grid
        self.face_start = start = np.empty(2 * dim * mesh.n_elements, dtype=int)
        self.face_size = size = np.empty_like(start)
        face_grid = np.empty((start.size, dim - 1), dtype=int)
        for group in self.groups:
            # a group's face keys come in (dim, side) order, as face numbers do
            number = np.asarray(group.members)[:, None] * 2 * dim + np.arange(2 * dim)
            size[number] = [math.prod(f.shape[1:]) for f in group.faces]
            start[number] = (np.array([f.span.start for f in group.faces])
                             + size[number] * np.arange(len(number))[:, None])
            face_grid[number] = [f.shape[:0:-1] for f in group.faces]
        self.n_face_points = n = self.groups[-1].face_end
        (self.face_coords, self.face_normal, self.face_h, self.face_measure, self.face_mass,
         self.face_p) = (
            np.concatenate(parts, axis=-1)
            for parts in zip(*(key for g in self.groups for key in g.face_geometry))
        )

        # mortars of one kind share their face grids and coverages, so their
        # mortar grid and prolongations are made once per kind. A kind's
        # code packs (points * 4 + coverage) per side and transverse
        # dimension, 9 bits each: a face grid has at most MAX_DEGREE + 1 = 65
        # points
        faces, coverage = topology.faces, topology.coverage
        grids = face_grid[faces]
        codes = (grids * 4 + coverage).reshape(len(faces), 2 * dim - 2) @ (
            512 ** np.arange(2 * dim - 2))
        self.partner = partner = np.arange(n)
        paired, self.mortar_groups = [], []
        for code in dict.fromkeys(codes.tolist()):
            members = (codes == code).nonzero()[0]
            kind = [(tuple(g), tuple(COVERAGES[c] for c in cov)) for g, cov in
                    zip(grids[members[0]].tolist(), coverage[members[0]].tolist())]
            face_grids, coverages = zip(*kind)
            counts = tuple(map(max, *face_grids))
            index = [start[faces[members, s], None] + np.arange(math.prod(face_grids[s]))
                     for s in (0, 1)]
            prolongs = [
                None if grid == counts and all(c == "full" for c in cov)
                else prolongation_matrix(grid, counts, cov)
                for grid, cov in kind
            ]
            if all(p is None for p in prolongs):
                # the mortar is the face itself: a pointwise swap
                a, b = index
                partner[a], partner[b] = b, a
                paired += [a.ravel(), b.ravel()]
            else:
                self.mortar_groups.append(_MortarGroup(counts, coverages, index, prolongs, self))
        self._stack_mortars()

        # the external points, face after face, and per tag in the order of
        # its first face
        tags, sizes = topology.tags, size[topology.external]
        points = _ranges(start[topology.external], sizes)
        self.external = {tag: points[(tags == tag).repeat(sizes)]
                         for tag in dict.fromkeys(tags.tolist())}

        # every point must be exactly one of: paired, external, or on mortars
        # with a non-identity side; any other point would get no flux
        covered = np.bincount(np.concatenate([*paired, points, self.restricted]), minlength=n)
        if (covered != 1).any():
            bad = int(np.argmax(covered != 1))
            number = np.flatnonzero((start <= bad) & (bad < start + size))[0]
            k, d, side = (int(a) for a in face_parts(number, dim))
            raise TopologyError(
                f"face (dim {d}, side {side}) of element {mesh.elements[k].id_string()} "
                "is not covered exactly once by mortars and external faces"
            )
        self.face_sigma = penalty_sigma(
            self.face_p, self.face_p[partner], self.face_h, self.face_h[partner], 1.0
        )

    def _stack_mortars(self):
        """Lay the mortar groups end to end for one pass over all of them.

        Per side, `mortar_index` is the face-buffer index over every group,
        kind by kind and mortar by mortar; the mortar points follow the same
        order, one layout for both sides, on which `mortar_sigma` is the
        penalty. Per side `_prolong` cuts the gather into pieces, a run of
        groups whose P is the identity or one group's (span, mortars, P^T);
        `_restrict` lists each group's mortar points per (kind, side), the
        order in which `_scatter_points` adds them back.
        """
        groups = self.mortar_groups
        self.mortar_index = [_concat([mg.index[s].ravel() for mg in groups]) for s in (0, 1)]
        self.mortar_sigma = np.concatenate([mg.sigma.ravel() for mg in groups] or [np.zeros(0)])
        self._prolong, self._restrict, ends = ([], []), [], [0, 0, 0]
        for mg in groups:
            n_m, n_q = mg.weights.shape
            span = slice(ends[2], ends[2] + n_m * n_q)
            for s, pieces in enumerate(self._prolong):
                face = slice(ends[s], ends[s] + mg.index[s].size)
                if mg.prolong[s] is None and pieces and pieces[-1][2] is None:
                    face = slice(pieces.pop()[0].start, face.stop)
                pieces.append((face, n_m, mg.prolong[s]))
                self._restrict.append((span, mg, s))
                ends[s] = face.stop
            ends[2] = span.stop
        self._scatter_points = _concat([mg.index[s].ravel() for mg in groups for s in (0, 1)])
        self._scatter = {}  # component count -> one vector's scatter index
        self.restricted = _distinct(self._scatter_points)

    def to_mortar(self, side, buf):
        """One side's values (..., mortar points) on every stacked mortar: one
        gather from a (..., face points) buffer, prolonged per group where P
        is not the identity, on a view with the group's own shapes."""
        data = buf.take(self.mortar_index[side], axis=-1)
        pieces = self._prolong[side]
        if len(pieces) == 1 and pieces[0][2] is None:
            return data
        lead = data.shape[:-1]
        return np.concatenate([
            data[..., face] if p is None
            else (data[..., face].reshape(lead + (n_m, -1)) @ p).reshape(lead + (-1,))
            for face, n_m, p in pieces
        ], axis=-1)

    def add_restricted(self, values, buf):
        """Add both sides' mortar values, restricted per group where P is not
        the identity, to their face points in a new (..., face points) buffer:
        one `np.add.at` in (kind, side) order, which it keeps where a face
        takes several mortars (`_scatter_index`)."""
        lead = values[0].shape[:-1]
        parts = []
        for span, mg, s in self._restrict:
            part = values[s][..., span]
            if mg.prolong[s] is not None:
                part = mg.restrict(s, part.reshape(lead + mg.weights.shape)).reshape(lead + (-1,))
            parts.append(part)
        index = _scatter_index(self._scatter, buf, buf.shape[-1], self._scatter_points,
                               len(lead) == 1)
        np.add.at(buf.reshape(-1), index, np.concatenate(parts, axis=-1).ravel())

    def face_values(self, volumes):
        """The face buffer (..., face points) of per-group arrays (..., *group
        shape), a new array: on a one-group mesh the group's gather itself."""
        traces = [g.traces(volume) for g, volume in zip(self.groups, volumes)]
        return traces[0] if len(traces) == 1 else np.concatenate(traces, axis=-1)


class OperatorHandle:
    """The DG operator with all its discretization choices fixed.

    With a linearization point set, applications compute the directional
    derivative of the operator (linearized sources and boundary conditions);
    otherwise the full, possibly nonlinear and boundary-inhomogeneous,
    residual A(u). The settings it was built from are read-only, so they
    cannot drift from the operator.
    """

    mesh, system, background, bcs, form, massive, penalty_parameter, linearization_point = (
        property(attrgetter("_" + name)) for name in (
            "mesh", "system", "background", "bcs", "form", "massive", "penalty_parameter",
            "linearization_point")
    )

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
        self._mesh, self._system, self._background, self._bcs, self._form = (
            mesh, system, background, boundary_conditions, form
        )
        # bool("false") is True: only a real bool says which operator is meant
        if not isinstance(massive, (bool, np.bool_)):
            raise ConfigurationError("operator.massive", f"must be a bool, got {massive!r}")
        self._massive = bool(massive)
        # float(True) is 1.0 and float("2") is 2.0: only a real number is a penalty
        if not _is_number(penalty_parameter, numbers.Real):
            raise ConfigurationError(
                "operator.penalty_parameter", f"must be a real number, got {penalty_parameter!r}"
            )
        self._penalty_parameter = float(penalty_parameter)
        if system.dim != mesh.dim:
            raise ConfigurationError("system", f"system is {system.dim}D but mesh is {mesh.dim}D")
        owner = next((c for c in type(system).__mro__ if "auxiliary_flux" in vars(c)), None)
        if owner not in (None, EllipticSystem):  # ignored: the operator reads G only
            raise ConfigurationError("system", f"{owner.__name__} overrides auxiliary_flux: define "
                                     "auxiliary_from_gradient; auxiliary_flux is derived from it")
        if form not in ("strong", "strong-weak"):
            raise ConfigurationError("operator.form", f"unknown form {form!r}")
        if not 0.0 <= self.penalty_parameter < math.inf:
            raise ConfigurationError(
                "operator.penalty_parameter", "penalty parameter must be finite and >= 0"
            )
        # the point-independent state, which `linearized_at` shares: the mesh
        # cache, the penalty and the boundary layout and arrays. The background
        # fields wait for the first application (`_background_fields`)
        self._cache = cache = _MeshCache(mesh, background)
        self.bcs.validate_tags(cache.external)
        if hasattr(system, "min_puncture_distance"):
            if min(system.min_puncture_distance(g.coords) for g in cache.groups) < 1e-10:
                raise SingularPointError(
                    "a collocation point lies within 1e-10 of a puncture; "
                    "offset the mesh bounds"
                )
        self._linearization_point = self._lin_groups = self._sources = None
        self._fields = []
        # the penalty on the face buffer, then on the stacked mortar points
        self._sigma_args = [
            (self.penalty_parameter * s,) for s in (cache.face_sigma, cache.mortar_sigma)
        ]
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
        x_ext, self._normal = cache.face_coords[:, e], cache.face_normal[:, e]
        self._fixed = [
            np.zeros((system.n_auxiliary, nd)), np.zeros((system.n_primal, e.size - nd))
        ]
        self._live_layout, end = [], 0
        for bc, index in conds:
            start, end = end, end + index.size
            k = int(bc.kind == "neumann")
            pos, span = slice(start - k * nd, end - k * nd), slice(start, end)
            x, normal = x_ext[:, span], self._normal[:, span]
            if not isinstance(bc, _TraceFree):
                self._live_layout.append((bc, k, pos, index, x, normal))
                continue
            # an error in the data, or their check, is named by the condition's tag
            key = next(t for t, c in self.bcs.table.items() if c is bc)
            with config_section(f"boundary_conditions.{key}"):
                zero = np.zeros((system.n_primal, index.size))
                data = self._fixed[k][:, pos] = _boundary_values(
                    bc, system, x, normal, zero, None
                )
                if not np.isfinite(data).all():
                    where = x[:, np.argmin(np.isfinite(data).all(axis=0))].tolist()
                    raise ConfigurationError("", f"non-finite boundary data at x = {where}")
        self._live = [layout + (None,) for layout in self._live_layout]
        # per phase the exterior's sign: -1 at the external points whose ghost is
        # minus the interior when the boundary data are zero, else 1; None if all 1
        signs = np.ones((2, cache.n_face_points))
        signs[0, e[nd:]] = signs[1, e[:nd]] = -1.0
        self._signs = [sign if (sign < 0).any() else None for sign in signs]
        self._zero_boundary = not self._live and not any(a.any() for a in self._fixed)

    # -- bookkeeping ---------------------------------------------------

    @property
    def n_primal_dofs(self) -> int:
        return self.system.n_primal * self._cache.n_points

    @property
    def n_auxiliary_dofs(self) -> int:
        return self.system.n_auxiliary * self._cache.n_points

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
        linearized sources are built on the first application. The handle
        keeps a read-only copy of the point.
        """
        point = self.zero_primal() if point is None else point
        self._check(point, "primal", "the linearization point", single=True)
        point = point.copy()
        point.data.flags.writeable = False
        cache, rows = self._cache, self._rows(point.data)
        lin = copy.copy(self)
        lin._linearization_point = point
        lin._lin_groups = [g.take(rows).copy() for g in cache.groups]
        lin._sources = None
        lin._fixed = [np.zeros_like(a) for a in self._fixed]
        lin._zero_boundary = not self._live_layout
        if self._live_layout:
            traces = cache.face_values(lin._lin_groups)
            lin._live = [
                layout + (traces.take(layout[3], axis=-1),) for layout in self._live_layout
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
        n, recon = self.system.n_auxiliary, self._phase1(self._rows(u.data))[1]
        return FieldVector(self.mesh, n, self._flat(n, recon))

    def _rows(self, data):
        """Flat vectors (..., n_dofs) as a (components, ..., points) view."""
        rows = data.reshape(data.shape[:-1] + (-1, self._cache.n_points))
        return rows.swapaxes(0, -2)

    def _new_rows(self, n_components, lead):
        """A new buffer of flat vectors shaped `lead` and its `_rows` view."""
        data = np.empty(lead + (n_components * self._cache.n_points,))
        return data, self._rows(data)

    def _flat(self, n_components, volumes):
        """Flat vectors of per-group (components, ..., *group shape) arrays,
        which must be new: one vector on a one-group mesh is its group's
        array itself, whose C order is the flat DoF order."""
        groups = self._cache.groups
        lead = volumes[0].shape[1:-len(groups[0].shape)]
        if len(groups) == 1 and not lead:
            return volumes[0].reshape(-1)
        data, rows = self._new_rows(n_components, lead)
        for g, volume in zip(groups, volumes):
            g.put(rows, volume)
        return data

    def _background_fields(self):
        """The background fields per group, on the face buffer and at the
        dirichlet-kind external points, the only ones the penalty ghost reads:
        evaluated once per handle family, which shares the list."""
        if not self._fields:
            groups = [self.system.background_fields(g.coords, self.background)
                      for g in self._cache.groups]
            face = [self._cache.face_values(f) for f in zip(*groups)]
            d = self._external[:self._n_dirichlet]
            self._fields.extend((groups, face, [f.take(d, axis=-1) for f in face]))
        return self._fields

    def _source_maps(self, fields):
        """Per group the primal source as a map (u, v) -> S, linearized on a
        linearized handle, or None where it is provably zero: linear (a linear
        system's or a linearized one) and zero on every unit field of u and v."""
        sys_, lin = self.system, self._lin_groups
        n, maps = sys_.n_primal, []
        for g, f, u0 in zip(self._cache.groups, fields, lin or [None] * len(fields)):
            maps.append(sys_.linearized_primal_source(u0, f) if lin else
                        lambda u, v, f=f: sys_.primal_source(u, v, f))
            if sys_.linear or lin:
                unit = _unit_fields(n + sys_.n_auxiliary, g.shape)
                maps[-1] = maps[-1] if maps[-1](unit[:n], unit[n:]).any() else None
        return maps

    def _exchange(self, own, sign, boundary, flux, flux_args, strong):
        """One phase's numerical flux star (strong form only, else None) and jumps
        on the face buffer: star is flux(*own, *ext, *args) on its buffers `own`,
        ext being `sign` times the partner's value plus what `boundary`, unless
        None, adds in place, and args flux_args[0]; the points of mortars with a
        non-identity side take their jumps from one flux call on every such
        mortar's points, with args flux_args[1]; elsewhere the jump is
        star - own[0] if `strong`, else star."""
        cache = self._cache
        ext = [buf.take(cache.partner, axis=-1) for buf in own]
        if sign is not None:  # None: every sign is 1
            for x in ext:
                x *= sign
        if boundary is not None:
            boundary(ext)
        star = flux(*own, *ext, *flux_args[0])
        jumps = star - own[0] if strong else star
        if cache.mortar_groups:
            jumps[..., cache.restricted] = 0.0
            sides = [cache.to_mortar(s, buf) for buf in own for s in (0, 1)]  # (buffer, side)
            star_m = flux(*sides[::2], *sides[1::2], *flux_args[1])
            cache.add_restricted(
                [f - sides[s] if strong else f for s, f in enumerate((star_m, -star_m))], jumps
            )
        return (star if strong else None), jumps

    def _phase1(self, u_rows):
        """Auxiliary fluxes, their exchange and the reconstructed auxiliary field.

        Returns per group the primal field and the reconstructed fields; as
        face buffers the face values of G(grad u), the projected auxiliary
        fluxes G(u (x) n) and their numerical flux; and the neumann-kind
        boundary array, None where the boundary data are provably zero."""
        cache, sys_ = self._cache, self.system
        lead = u_rows.shape[1:-1]
        ugs = [g.take(u_rows) for g in cache.groups]
        ws = [sys_.auxiliary_from_gradient(g.gradient(ug)) for g, ug in zip(cache.groups, ugs)]
        traces = cache.face_values(ugs)
        aux = _normal_auxiliary(sys_, traces, cache.face_normal)

        # the fixed boundary arrays, none where they are provably zero, copied
        # only to take the values of the conditions that read the trace
        arrays = None if self._zero_boundary else [
            a.reshape(a.shape[:1] + (1,) * len(lead) + a.shape[1:]) for a in self._fixed]
        if self._live:
            arrays = [np.broadcast_to(a, a.shape[:1] + lead + a.shape[-1:]).copy() for a in arrays]
            reps = math.prod(lead)
            for bc, k, pos, index, x, normal, lin_b in self._live:
                x, normal, lin_b = (
                    a if a is None or reps == 1 else np.tile(a, reps) for a in (x, normal, lin_b)
                )
                values = _boundary_values(bc, sys_, x, normal, _fold(traces, index), lin_b)
                arrays[k][..., pos] = values.reshape(values.shape[:1] + lead + (-1,))
        aux_b, flux_b = arrays or (None, None)

        def boundary(ext):  # the ghost's -2 aux_b at dirichlet-kind points
            d = self._external[:self._n_dirichlet]
            ext[0][..., d] = exterior_ghost_data(ext[0].take(d, axis=-1), aux_b)

        star, jumps = self._exchange([aux], self._signs[0], boundary if arrays else None,
                                     auxiliary_numerical_flux, [(), ()],
                                     strong=True)

        # G(grad u) is new on every application: gathered first, then lifted
        # in place into the reconstructed field
        w_faces = cache.face_values(ws)
        for g, w in zip(cache.groups, ws):
            g.lift(w, jumps, massive=False)
        return ugs, ws, w_faces, aux, star, flux_b

    def _core(self, u, given_v):
        """Shared implementation of the compact and full operators.

        Returns the residuals as flat data shaped like `u.data`, the
        auxiliary one None unless `given_v` is set.
        """
        cache, sys_ = self._cache, self.system
        fields, face_fields, dirichlet_fields = self._background_fields()
        if self._sources is None:  # on the first application
            self._sources = self._source_maps(fields)
        strong = self.form == "strong"
        primal_form = "strong" if strong else "weak"
        n_u, n_v = sys_.n_primal, sys_.n_auxiliary
        ugs, recon, w_faces, aux, aux_star, flux_b = self._phase1(self._rows(u.data))
        v_rows = None if given_v is None else self._rows(given_v.data)
        res_u, res_v = [], []
        for g, ug, rc, f, source in zip(cache.groups, ugs, recon, fields, self._sources):
            if v_rows is None:
                v = rc
            else:
                v = g.take(v_rows)
                res_v.append(g.mass * (v - rc))
            fu = sys_.primal_flux(v, f)
            res = -g.stiffness(fu, primal_form)
            if source is not None:
                res += g.mass * source(ug, v)
            res_u.append(res)
        normal = cache.face_normal
        deriv = _contract_normal(normal, sys_.primal_flux(w_faces, face_fields))
        pen = _contract_normal(normal, sys_.primal_flux(aux, face_fields))

        def boundary(ext):  # the ghosts' -2 flux_b in deriv, 2 n F_u(aux*) in pen
            nd = self._n_dirichlet
            d, n = self._external[:nd], self._external[nd:]
            ext[0][..., n] = exterior_ghost_data(ext[0].take(n, axis=-1), flux_b)
            fluxes = sys_.primal_flux(aux_star.take(d, axis=-1), dirichlet_fields)
            ext[1][..., d] += 2.0 * _contract_normal(self._normal[:, :nd], fluxes)

        _, jumps = self._exchange([deriv, pen], self._signs[1],
                                  None if flux_b is None else boundary,
                                  primal_numerical_flux, self._sigma_args, strong)
        np.negative(jumps, out=jumps)  # the residual lifts deriv - star, or -star

        bad = []
        for gi, (g, res) in enumerate(zip(cache.groups, res_u)):
            g.lift(res, jumps, massive=True)
            if not self.massive:
                res_u[gi] = res = res / g.mass
            # one reduction; the element is located only when it fails
            if not np.isfinite(res).all():
                # (components and batch, elements, element points)
                finite = np.isfinite(res).reshape(-1, g.shape[0], math.prod(g.shape[1:]))
                bad.append(g.members[int(np.argmin(finite.all(axis=(0, 2))))])
        if bad:
            raise FloatingPointError(
                f"non-finite residual in element {self.mesh.elements[min(bad)].id_string()}"
            )
        if not self.massive:
            res_v = [r / g.mass for g, r in zip(cache.groups, res_v)]
        return (None if v_rows is None else self._flat(n_v, res_v)), self._flat(n_u, res_u)

    def build_rhs(self, fixed_source) -> FieldVector:
        """M f (f when massless): the value the residual A(u) is equated to.

        `fixed_source` is one primal FieldVector, not a batch, or a callable
        mapping points (d, ...) to values (n_primal, ...), evaluated once per
        element group. The inhomogeneous boundary term A(0) stays on the
        operator's side: solve_linear moves it to the right-hand side itself,
        and solve_newton equates A(u) to this value as it is.
        """
        sys_ = self.system
        given = isinstance(fixed_source, FieldVector)
        if given:
            self._check(fixed_source, "primal", "the fixed source", single=True)
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
