"""Deformed-cube meshes: coordinate maps, elements, refinement, face topology.

A mesh is a list of blocks, each carrying a coordinate map from the reference
cube [-1, 1]^d into physical space, plus a list of elements. An element is
identified by its block and one (level, index) segment per dimension, so
element ids encode the full refinement history; child maps compose the block
map with the affine map onto the element's logical sub-cube. Meshes stay
two-to-one balanced across faces, which keeps mortar coverages decidable from
segment arithmetic alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import gauss_lobatto_nodes_weights
from .errors import ConfigurationError, DegenerateGeometryError, TopologyError

__all__ = [
    "AffineMap",
    "AnnulusWedgeMap",
    "ComposedMap",
    "Element",
    "Mesh",
    "Mortar",
    "MortarSide",
    "ExternalFace",
    "MeshTopology",
    "build_rectilinear_mesh",
    "build_annulus_mesh",
    "refine_uniform",
    "split_element",
    "with_degrees",
    "jacobian_at",
    "mortar_topology",
    "face_shape",
    "face_slices",
]

_AXIS_NAMES = ("x", "y", "z")


def _expand(v: np.ndarray, target_ndim: int) -> np.ndarray:
    """Append singleton axes so a (d,)-shaped constant broadcasts over points."""
    return v.reshape(v.shape + (1,) * (target_ndim - 1))


class AffineMap:
    """Maps [-1, 1]^d onto the box [lower, upper] componentwise."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("affine map bounds must be matching 1D arrays")
        if not np.all(self.upper > self.lower):
            raise DegenerateGeometryError(
                f"affine map needs upper > lower, got {lower} .. {upper}"
            )
        self.half = 0.5 * (self.upper - self.lower)
        self.mid = 0.5 * (self.upper + self.lower)

    @property
    def dim(self):
        return self.lower.size

    def apply(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _expand(self.mid, xi.ndim) + _expand(self.half, xi.ndim) * xi

    def jacobian(self, xi):
        xi = np.asarray(xi, dtype=float)
        jac = np.zeros((self.dim, self.dim) + xi.shape[1:])
        for i in range(self.dim):
            jac[i, i] = self.half[i]
        return jac


class AnnulusWedgeMap:
    """Maps the reference square onto an annular wedge (2D).

    xi_0 runs radially from r_inner to r_outer, xi_1 runs in angle from
    theta_min to theta_max (counterclockwise).
    """

    dim = 2

    def __init__(self, r_inner, r_outer, theta_min, theta_max):
        if r_inner <= 0 or r_outer <= r_inner:
            raise DegenerateGeometryError(
                f"annulus wedge needs 0 < r_inner < r_outer, got {r_inner}, {r_outer}"
            )
        if not 0 < theta_max - theta_min <= 2 * np.pi:
            raise DegenerateGeometryError("wedge angle must lie in (0, 2*pi]")
        self.r_inner = float(r_inner)
        self.r_outer = float(r_outer)
        self.theta_min = float(theta_min)
        self.theta_max = float(theta_max)
        self._dr = 0.5 * (r_outer - r_inner)
        self._dt = 0.5 * (theta_max - theta_min)

    def _polar(self, xi):
        r = self.r_inner + (xi[0] + 1.0) * self._dr
        theta = self.theta_min + (xi[1] + 1.0) * self._dt
        return r, theta

    def apply(self, xi):
        xi = np.asarray(xi, dtype=float)
        r, theta = self._polar(xi)
        return np.stack([r * np.cos(theta), r * np.sin(theta)])

    def jacobian(self, xi):
        xi = np.asarray(xi, dtype=float)
        r, theta = self._polar(xi)
        c, s = np.cos(theta), np.sin(theta)
        row0 = np.stack([self._dr * c, -r * self._dt * s])
        row1 = np.stack([self._dr * s, r * self._dt * c])
        return np.stack([row0, row1])


class ComposedMap:
    """Composition second(first(xi)); Jacobian by the chain rule."""

    def __init__(self, first, second):
        self.first = first
        self.second = second

    @property
    def dim(self):
        return self.second.dim

    def apply(self, xi):
        return self.second.apply(self.first.apply(xi))

    def jacobian(self, xi):
        inner = self.first.apply(xi)
        j_outer = self.second.jacobian(inner)
        j_inner = self.first.jacobian(xi)
        return np.einsum("ij...,jk...->ik...", j_outer, j_inner)


Segment = tuple[int, int]  # (refinement level, index within 0 .. 2^level - 1)


def _segment_logical_bounds(seg: Segment) -> tuple[float, float]:
    level, index = seg
    width = 2.0 / (1 << level)
    lo = -1.0 + index * width
    return lo, lo + width


def _segment_map(segments: tuple[Segment, ...]) -> AffineMap:
    bounds = [_segment_logical_bounds(s) for s in segments]
    return AffineMap([b[0] for b in bounds], [b[1] for b in bounds])


def _seg_bounds_at(seg: Segment, level: int) -> tuple[int, int]:
    """Integer interval of a segment rescaled to a common finer level."""
    scale = 1 << (level - seg[0])
    return seg[1] * scale, (seg[1] + 1) * scale


def _children(seg: Segment) -> tuple[Segment, Segment]:
    level, index = seg
    return (level + 1, 2 * index), (level + 1, 2 * index + 1)


@dataclass(frozen=True)
class Element:
    """One deformed-cube element: its id, per-dimension degrees, and map."""

    block: int
    segments: tuple[Segment, ...]
    degrees: tuple[int, ...]
    map: object

    @property
    def dim(self) -> int:
        return len(self.segments)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(p + 1 for p in self.degrees)

    @property
    def n_points(self) -> int:
        return int(np.prod(self.grid_shape))

    def node_sets(self):
        return tuple(gauss_lobatto_nodes_weights(p + 1) for p in self.degrees)

    def logical_grid(self) -> np.ndarray:
        """Collocation points in element-logical coords, shape (d, *grid_shape)."""
        axes = [ns.nodes for ns in self.node_sets()]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    def coords(self) -> np.ndarray:
        """Physical collocation points, shape (d, *grid_shape)."""
        return self.map.apply(self.logical_grid())

    def id_string(self) -> str:
        segs = ",".join(f"L{l}I{i}" for l, i in self.segments)
        return f"B{self.block}[{segs}]"


@dataclass(frozen=True)
class Block:
    map: object
    # per (dim, side): ("external", tag) or ("block", neighbor_block_index)
    boundary: dict


@dataclass
class Mesh:
    dim: int
    blocks: list
    elements: list

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def total_points(self) -> int:
        return int(self.point_offsets[-1])

    @cached_property
    def point_offsets(self) -> np.ndarray:
        """Where each element's points start in the flat DoF order, then the
        total; computed once, as meshes are not modified after construction."""
        sizes = [e.n_points for e in self.elements]
        return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])

    def characteristic_h(self) -> float:
        """Largest per-axis extent of any element's mapped corners (h, not
        h*sqrt(2), for a square)."""
        h = 0.0
        for e in self.elements:
            corners = np.array(
                list(itertools.product(*[(-1.0, 1.0)] * self.dim))
            ).T
            phys = e.map.apply(corners)
            for d in range(self.dim):
                lo = phys[d].min()
                hi = phys[d].max()
                h = max(h, hi - lo)
        return h


def _element_sort_key(mesh_max_levels, element: Element):
    pos = []
    for d in reversed(range(element.dim)):
        lo, _ = _seg_bounds_at(element.segments[d], mesh_max_levels[d])
        pos.append(lo)
    return (element.block, *pos)


def _canonical_order(dim, elements):
    max_levels = [
        max((e.segments[d][0] for e in elements), default=0) for d in range(dim)
    ]
    return sorted(elements, key=lambda e: _element_sort_key(max_levels, e))


def _make_element(block_index, block, segments, degrees) -> Element:
    if all(s == (0, 0) for s in segments):
        emap = block.map
    else:
        emap = ComposedMap(_segment_map(segments), block.map)
    return Element(block_index, tuple(segments), tuple(degrees), emap)


def _levels_degrees(levels, degrees, dim):
    """Per-dimension refinement levels (>= 0) and degrees (>= 1) as int tuples."""
    out = []
    for key, values, low in (("levels", levels, 0), ("degrees", degrees, 1)):
        values = tuple(int(v) for v in values)
        if len(values) != dim:
            raise ConfigurationError(
                f"refinement.{key}", f"levels and degrees need {dim} entries, one per dimension"
            )
        for i, v in enumerate(values):
            if v < low:
                raise ConfigurationError(
                    f"refinement.{key}[{i}]", f"levels must be >= 0 and degrees >= 1, got {v}"
                )
        out.append(values)
    return tuple(out)


def build_rectilinear_mesh(bounds, levels, degrees) -> Mesh:
    """Axis-aligned box mesh on a single affine block.

    bounds: per-dimension (lower, upper); levels: per-dimension initial
    refinement levels (2^level elements per dimension); degrees: per-dimension
    polynomial degrees. External boundary tags are "x-lower", "x-upper", ...
    """
    bounds = [tuple(map(float, b)) for b in bounds]
    dim = len(bounds)
    if dim not in (1, 2, 3):
        raise ConfigurationError(
            "domain.bounds", f"expected 1 to 3 [lower, upper] pairs, got {dim}"
        )
    for i, b in enumerate(bounds):
        if len(b) != 2 or not b[0] < b[1]:
            raise ConfigurationError(
                f"domain.bounds[{i}]", f"expected [lower, upper] with upper > lower, got {list(b)}"
            )
    levels, degrees = _levels_degrees(levels, degrees, dim)
    block = Block(
        map=AffineMap([b[0] for b in bounds], [b[1] for b in bounds]),
        boundary={
            (d, side): ("external", f"{_AXIS_NAMES[d]}-{name}")
            for d in range(dim)
            for side, name in ((-1, "lower"), (1, "upper"))
        },
    )
    elements = []
    for idx in itertools.product(*[range(1 << l) for l in levels]):
        segments = tuple((levels[d], idx[d]) for d in range(dim))
        elements.append(_make_element(0, block, segments, degrees))
    return Mesh(dim, [block], _canonical_order(dim, elements))


def build_annulus_mesh(r_inner, r_outer, n_wedges, levels, degrees) -> Mesh:
    """Full 2D annulus from n_wedges angular blocks.

    Dimension 0 is radial (external tags "inner"/"outer"), dimension 1 angular
    and periodic across blocks.
    """
    n_wedges = int(n_wedges)
    if n_wedges < 2:
        raise ConfigurationError("domain.n_wedges", f"must be at least 2, got {n_wedges}")
    if not r_inner > 0:
        raise ConfigurationError("domain.r_inner", f"must be > 0, got {r_inner}")
    if not r_outer > r_inner:
        raise ConfigurationError("domain.r_outer", f"must exceed r_inner, got {r_outer}")
    levels, degrees = _levels_degrees(levels, degrees, 2)
    blocks = []
    for w in range(n_wedges):
        theta0 = 2 * np.pi * w / n_wedges
        theta1 = 2 * np.pi * (w + 1) / n_wedges
        blocks.append(
            Block(
                map=AnnulusWedgeMap(r_inner, r_outer, theta0, theta1),
                boundary={
                    (0, -1): ("external", "inner"),
                    (0, 1): ("external", "outer"),
                    (1, -1): ("block", (w - 1) % n_wedges),
                    (1, 1): ("block", (w + 1) % n_wedges),
                },
            )
        )
    elements = []
    for w, block in enumerate(blocks):
        for idx in itertools.product(*[range(1 << l) for l in levels]):
            segments = tuple((levels[d], idx[d]) for d in range(2))
            elements.append(_make_element(w, block, segments, degrees))
    return Mesh(2, blocks, _canonical_order(2, elements))


def refine_uniform(mesh: Mesh, mode: str) -> Mesh:
    """One global refinement step: "h" splits every element in every
    dimension, "p" raises every degree by one. Per-element degree offsets and
    relative h-refinement are preserved."""
    if mode == "p":
        elements = [
            replace(e, degrees=tuple(p + 1 for p in e.degrees))
            for e in mesh.elements
        ]
        return Mesh(mesh.dim, mesh.blocks, elements)
    if mode != "h":
        raise ValueError(f"refinement mode must be 'h' or 'p', got {mode!r}")
    elements = []
    for e in mesh.elements:
        for combo in itertools.product(*[_children(s) for s in e.segments]):
            elements.append(
                _make_element(e.block, mesh.blocks[e.block], combo, e.degrees)
            )
    return Mesh(mesh.dim, mesh.blocks, _canonical_order(mesh.dim, elements))


def _element_index(mesh: Mesh, index: int) -> int:
    """`index`, unless it is out of 0 <= index < n_elements."""
    if not 0 <= index < mesh.n_elements:
        raise ValueError(f"element index {index} out of range for {mesh.n_elements} elements")
    return index


def split_element(mesh: Mesh, index: int) -> Mesh:
    """Replace one element by its 2^d children (for nonconforming meshes)."""
    e = mesh.elements[_element_index(mesh, index)]
    children = [
        _make_element(e.block, mesh.blocks[e.block], combo, e.degrees)
        for combo in itertools.product(*[_children(s) for s in e.segments])
    ]
    elements = mesh.elements[:index] + children + mesh.elements[index + 1 :]
    return Mesh(mesh.dim, mesh.blocks, _canonical_order(mesh.dim, elements))


def with_degrees(mesh: Mesh, index: int, degrees) -> Mesh:
    """Return a mesh with one element's degrees replaced."""
    degrees = tuple(int(p) for p in degrees)
    if len(degrees) != mesh.dim or any(p < 1 for p in degrees):
        raise ValueError(f"bad degrees {degrees} for dimension {mesh.dim}")
    elements = list(mesh.elements)
    index = _element_index(mesh, index)
    elements[index] = replace(elements[index], degrees=degrees)
    return Mesh(mesh.dim, mesh.blocks, elements)


def jacobian_at(element: Element, xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jacobian dx/dxi, its determinant, and its inverse at logical points.

    xi has shape (d,) or (d, ...); returns (J, det, J^-1) with J shaped
    (d, d, ...). Raises DegenerateGeometryError unless det > 0 everywhere.
    """
    xi = np.asarray(xi, dtype=float)
    jac = element.map.jacobian(xi)
    if element.dim == 1:
        det = jac[0, 0]
    elif element.dim == 2:
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    else:
        det = np.einsum(
            "i...,i...->...",
            jac[:, 0],
            np.cross(jac[:, 1], jac[:, 2], axisa=0, axisb=0, axisc=0),
        )
    if np.any(np.asarray(det) <= 0):
        raise DegenerateGeometryError(
            f"non-positive Jacobian determinant in element {element.id_string()}"
        )
    det = np.asarray(det, dtype=float)
    if element.dim == 1:
        inv = (1.0 / det)[None, None]
    elif element.dim == 2:
        inv = (
            np.stack(
                [
                    np.stack([jac[1, 1], -jac[0, 1]]),
                    np.stack([-jac[1, 0], jac[0, 0]]),
                ]
            )
            / det
        )
    else:
        cof = np.empty_like(jac)
        for i in range(3):
            cof[:, i] = np.cross(
                jac[:, (i + 1) % 3], jac[:, (i + 2) % 3], axisa=0, axisb=0, axisc=0
            )
        inv = np.einsum("ji...->ij...", cof) / det
    return jac, det, inv


def face_shape(grid_shape: tuple[int, ...], dim: int) -> tuple[int, ...]:
    return grid_shape[:dim] + grid_shape[dim + 1 :]


def face_slices(ndim_grid: int, dim: int, side: int):
    """Index tuple selecting one face of a grid-shaped array's last ndim axes."""
    idx = [slice(None)] * ndim_grid
    idx[dim] = 0 if side < 0 else -1
    return (Ellipsis, *idx)


@dataclass(frozen=True)
class MortarSide:
    element: int  # index into mesh.elements
    dim: int
    side: int  # -1 or +1
    # per transverse dimension (ascending dim order, normal dim excluded):
    # "full", "lower", or "upper" -- the part of this side's face the mortar covers
    coverage: tuple[str, ...]


@dataclass(frozen=True)
class Mortar:
    sides: tuple[MortarSide, MortarSide]
    counts: tuple[int, ...]  # mortar collocation points per transverse dim


@dataclass(frozen=True)
class ExternalFace:
    element: int
    dim: int
    side: int
    tag: str


@dataclass
class MeshTopology:
    mortars: list
    external_faces: list


def _transverse_matches(seg: Segment):
    """The segments a two-to-one balanced neighbor's face may have across
    `seg`, each with the coverages (this side, the neighbor's side)."""
    level, index = seg
    out = [(seg, ("full", "full"))]
    if level > 0:
        half = "lower" if index % 2 == 0 else "upper"
        out.append(((level - 1, index >> 1), ("full", half)))
    for child in _children(seg):
        out.append((child, ("lower" if child[1] % 2 == 0 else "upper", "full")))
    return out


def _dyadic(numerator: int, level: int) -> tuple[int, int]:
    """The fraction numerator / 2^level in lowest terms, as (numerator, level)."""
    while level > 0 and numerator % 2 == 0:
        numerator //= 2
        level -= 1
    return numerator, level


def _at_block_boundary(seg: Segment, side: int) -> bool:
    return seg[1] == 0 if side < 0 else seg[1] == (1 << seg[0]) - 1


def mortar_topology(mesh: Mesh) -> MeshTopology:
    """Build the internal mortar list and external face list.

    Every internal face is covered exactly once by its mortars (validated);
    mortar point counts take the maximum degree of the two sides per
    transverse dimension. Blocks must share logical-axis orientation, which
    the builders guarantee.
    """
    dim = mesh.dim
    mortars: list[Mortar] = []
    external: list[ExternalFace] = []
    # (element, dim, side) of each internal face -> the fraction of it that
    # its mortars cover, summed as they are created
    covered: dict[tuple, float] = {}
    seen: set[frozenset] = set()

    def trans(segments, face_dim):
        return segments[:face_dim] + segments[face_dim + 1:]

    # (block, dim, side, plane, transverse segments) -> elements, in mesh
    # order, whose face on that side lies on the plane and spans those
    # segments; planes are dyadic fractions of the block
    faces_at: dict[tuple, list[int]] = {}
    for k, e in enumerate(mesh.elements):
        for face_dim, (level, index) in enumerate(e.segments):
            for side, plane in ((-1, index), (1, index + 1)):
                key = (e.block, face_dim, side, _dyadic(plane, level),
                       trans(e.segments, face_dim))
                faces_at.setdefault(key, []).append(k)

    conforming = [("full", "full")] * (dim - 1)

    def neighbors(elem_index, face_dim, side):
        """(element, coverages per transverse dim) of each balanced neighbor
        across this face, in mesh order; None and the tag when external.

        Under two-to-one balance a neighbor's transverse segment is the
        same, the parent or a child, per transverse dim; a neighbor that
        overlaps otherwise leaves the face uncovered, which the coverage
        check reports. Neighbor faces on the plane do not overlap, so one
        with the same segments is the only neighbor.
        """
        e = mesh.elements[elem_index]
        level, index = e.segments[face_dim]
        block = e.block
        if _at_block_boundary(e.segments[face_dim], side):
            kind, block = mesh.blocks[e.block].boundary[(face_dim, side)]
            if kind == "external":
                return None, block
            plane = (0, 0) if side > 0 else (1, 0)
        else:
            plane = _dyadic(index + (side > 0), level)
        segments = trans(e.segments, face_dim)
        same = faces_at.get((block, face_dim, -side, plane, segments), [])
        found = [(kk, conforming) for kk in same if kk != elem_index]
        if found:
            return found, None
        for combo in itertools.product(*map(_transverse_matches, segments)):
            key = (block, face_dim, -side, plane, tuple(c[0] for c in combo))
            found += [
                (kk, [c[1] for c in combo])
                for kk in faces_at.get(key, [])
                if kk != elem_index
            ]
        return sorted(found), None

    for k, e in enumerate(mesh.elements):
        for face_dim in range(dim):
            trans_dims = trans(tuple(range(dim)), face_dim)
            for side in (-1, 1):
                found, tag = neighbors(k, face_dim, side)
                if found is None:
                    external.append(ExternalFace(k, face_dim, side, tag))
                    continue
                if not found:
                    raise TopologyError(
                        f"face {face_dim}/{side:+d} of element "
                        f"{e.id_string()} has no neighbor and no boundary tag"
                    )
                for kk, rel in found:
                    key = frozenset([(k, face_dim, side), (kk, face_dim, -side)])
                    if key in seen:
                        continue
                    seen.add(key)
                    other = mesh.elements[kk]
                    counts = tuple(
                        max(e.degrees[t], other.degrees[t]) + 1 for t in trans_dims
                    )
                    sides = (
                        MortarSide(k, face_dim, side, tuple(r[0] for r in rel)),
                        MortarSide(kk, face_dim, -side, tuple(r[1] for r in rel)),
                    )
                    mortars.append(Mortar(sides=sides, counts=counts))
                    for ms in sides:
                        face = (ms.element, face_dim, ms.side)
                        covered[face] = covered.get(face, 0.0) + 0.5 ** sum(
                            cov != "full" for cov in ms.coverage
                        )

    # Coverage check: the mortar pieces of every internal face tile it once.
    for (k, face_dim, side), total in covered.items():
        if total != 1.0:
            raise TopologyError(
                f"face {face_dim}/{side:+d} of element "
                f"{mesh.elements[k].id_string()} is covered {total}x by mortars"
            )
    return MeshTopology(mortars, external)
