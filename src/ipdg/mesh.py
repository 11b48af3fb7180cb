"""Deformed-cube meshes: coordinate maps, elements, refinement, face topology.

A mesh is a list of blocks, each carrying a coordinate map from the reference
cube [-1, 1]^d into physical space, plus a list of elements. An element is
identified by its block and one (level, index) segment per dimension, so
element ids encode the full refinement history. An element's place is the box
its segments span in the block's logical cube (`_boxes`), exact dyadic floats:
its points are the block map of that box (`jacobian_at`), the mesh order sorts
by its lower corner, and its faces lie on the planes of its bounds. Meshes stay
two-to-one balanced across faces, which keeps mortar coverages decidable from
segment arithmetic alone.

The mortar topology (`mortar_topology`, kept as `Mesh.topology`) is geometry
only: which faces touch and how much of each a mortar covers. It reads no
degree, so meshes that differ only in degrees have the same topology; the
grid on which a mortar couples its two sides is the operator's choice.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import gauss_lobatto_nodes_weights
from .errors import ConfigurationError, DegenerateGeometryError, ResourceCapError, TopologyError

__all__ = [
    "AffineMap",
    "AnnulusWedgeMap",
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
]

_AXIS_NAMES = ("x", "y", "z")
# the most elements a builder, refine_uniform or split_element makes: 2^20
# take about 3 s and 300 MB to build
MAX_ELEMENTS = 1 << 20
# the highest degree per dimension an element may have: its LGL node set, 65
# nodes, takes about 5 ms to make, where 400 nodes take 0.23 s and 1600 take
# 5 s, and past about 850 nodes the barycentric weights overflow. The tests
# use at most 12 nodes
MAX_DEGREE = 64


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

    def apply(self, xi):
        xi = np.asarray(xi, dtype=float)
        return _expand(self.mid, xi.ndim) + _expand(self.half, xi.ndim) * xi

    def jacobian(self, xi):
        xi = np.asarray(xi, dtype=float)
        dim = self.half.size
        jac = np.zeros((dim, dim) + xi.shape[1:])
        for i in range(dim):
            jac[i, i] = self.half[i]
        return jac


class AnnulusWedgeMap:
    """Maps the reference square onto an annular wedge (2D).

    xi_0 runs radially from r_inner to r_outer, xi_1 runs in angle from
    theta_min to theta_max (counterclockwise).
    """

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


Segment = tuple[int, int]  # (refinement level, index within 0 .. 2^level - 1)


def _is_number(value, kind) -> bool:
    """Whether `value` is a number of the `numbers` class `kind`, such as
    Integral or Real: numpy's numbers are, a bool is not (int(2.7) and
    int(True) would be read as counts without a word)."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _segment_ok(seg) -> bool:
    """Whether `seg` is a pair of integers (level, index) with level >= 0 and
    0 <= index < 2^level."""
    if not (isinstance(seg, tuple) and len(seg) == 2
            and all(_is_number(v, numbers.Integral) for v in seg)):
        return False
    level, index = seg
    return level >= 0 and index >= 0 and index >> level == 0


def _degree_ok(p) -> bool:
    return _is_number(p, numbers.Integral) and 1 <= p <= MAX_DEGREE


def _boxes(segments):
    """Centers and half-widths, each (d, elements), of the boxes that
    elements' segments (elements, d) span in their blocks' logical cube:
    segment (level, index) spans -1 + [index, index + 1] * 2 / 2^level. Every
    number is dyadic, so the arithmetic is exact, and so are the bounds
    mid -+ half, which are -1 and 1 on the block's own faces."""
    # one flat pass over the nested tuples, which np.array reads far slower
    chain = itertools.chain.from_iterable
    level, index = np.fromiter(chain(chain(segments)), np.int64).reshape(len(segments), -1, 2).T
    half = np.ldexp(1.0, -level)
    return (2 * index + 1) * half - 1.0, half


def _halves(seg: Segment) -> tuple[Segment, Segment]:
    level, index = seg
    return (level + 1, 2 * index), (level + 1, 2 * index + 1)


@dataclass(frozen=True)
class Element:
    """One deformed-cube element: its id (block and segments), per-dimension
    degrees, and its block's map. The element is the box its segments span
    in the block's logical cube, taken into physical space by `block_map`."""

    block: int
    segments: tuple[Segment, ...]
    degrees: tuple[int, ...]
    block_map: object

    @property
    def dim(self) -> int:
        return len(self.segments)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(p + 1 for p in self.degrees)

    @property
    def n_points(self) -> int:
        return math.prod(self.grid_shape)

    def node_sets(self):
        return tuple(gauss_lobatto_nodes_weights(p + 1) for p in self.degrees)

    def logical_grid(self) -> np.ndarray:
        """Collocation points in element-logical coords, shape (d, *grid_shape)."""
        axes = [ns.nodes for ns in self.node_sets()]
        return np.stack(np.meshgrid(*axes, indexing="ij"))

    def coords(self) -> np.ndarray:
        """Physical collocation points, shape (d, *grid_shape)."""
        return jacobian_at([self], self.logical_grid())[0][:, 0]

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

    def __post_init__(self):
        """Check the elements: each has `dim` segments and degrees, a block of
        the mesh, segments (level, index) with level >= 0 and 0 <= index <
        2^level, and integer degrees from 1 to MAX_DEGREE. The checks run
        on sets made at C speed, so each distinct block, segment pair, number
        of segments and degree tuple is checked once, and on the sum of all
        degrees, an integer unless a degree is a float that an equal integer
        hid in the set. Only when one fails are the elements scanned, to raise
        a ValueError naming the first that breaks a rule."""
        elements = self.elements
        if len(elements) == 0:
            raise ValueError("a mesh needs at least one element")
        segments = [e.segments for e in elements]
        degrees = [e.degrees for e in elements]
        chain = itertools.chain.from_iterable
        if (set(map(len, segments)) == {self.dim}
                and all(len(d) == self.dim and all(map(_degree_ok, d)) for d in set(degrees))
                and _is_number(sum(chain(degrees)), numbers.Integral)
                and all(map(self._block_ok, {e.block for e in elements}))
                and all(map(_segment_ok, set(chain(segments))))):
            return
        for k, e in enumerate(elements):
            if not len(e.segments) == len(e.degrees) == self.dim:
                problem = f"has {len(e.segments)} segments and {len(e.degrees)} degrees"
            elif not self._block_ok(e.block):
                problem = f"has block {e.block!r}, not one of the mesh's {len(self.blocks)}"
            elif not all(map(_segment_ok, e.segments)):
                problem = (f"has segments {e.segments!r}: need (level, index) with "
                           "level >= 0 and 0 <= index < 2^level")
            elif not all(map(_degree_ok, e.degrees)):
                problem = f"has degrees {e.degrees!r}: need integers from 1 to {MAX_DEGREE}"
            else:
                continue
            raise ValueError(f"element {k} {problem}, in a {self.dim}D mesh")

    def _block_ok(self, block) -> bool:
        return _is_number(block, numbers.Integral) and 0 <= block < len(self.blocks)

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

    @cached_property
    def topology(self) -> "MeshTopology":
        """The mesh's mortars and external faces (`mortar_topology`),
        computed once, as meshes are not modified after construction."""
        return mortar_topology(self)

    def characteristic_h(self) -> float:
        """Largest per-axis extent of any element's mapped corners (h, not
        h*sqrt(2), for a square), from one evaluation of every corner."""
        corners = np.array(list(itertools.product(*[(-1.0, 1.0)] * self.dim))).T
        phys = jacobian_at(self.elements, corners)[0]  # (d, elements, corners)
        return float((phys.max(axis=2) - phys.min(axis=2)).max())


def _canonical_order(elements):
    """`elements` sorted by block, then by their boxes' lower corners, the
    last dimension first; a stable sort, so equal keys keep their order."""
    mid, half = _boxes([e.segments for e in elements])
    # lexsort's last key is the first one sorted by
    order = np.lexsort(np.vstack([mid - half, [e.block for e in elements]]))
    return [elements[k] for k in order.tolist()]


def _levels_degrees(levels, degrees, dim, n_blocks=1):
    """Per-dimension refinement levels (>= 0) and degrees (>= 1) as int tuples;
    ResourceCapError if a degree is over MAX_DEGREE or n_blocks blocks of them
    make over MAX_ELEMENTS elements."""
    out = []
    for key, values, low in (("levels", levels, 0), ("degrees", degrees, 1)):
        values = tuple(values)
        if len(values) != dim:
            raise ConfigurationError(
                f"refinement.{key}", f"levels and degrees need {dim} entries, one per dimension"
            )
        for i, v in enumerate(values):
            if not _is_number(v, numbers.Integral) or v < low:
                raise ConfigurationError(
                    f"refinement.{key}[{i}]",
                    f"levels must be >= 0 and degrees >= 1, as integers, got {v!r}",
                )
        out.append(tuple(map(int, values)))
    if max(out[1]) > MAX_DEGREE:
        i = out[1].index(max(out[1]))
        raise ResourceCapError(f"refinement.degrees[{i}]: degree {out[1][i]}, over {MAX_DEGREE}")
    total = sum(out[0])  # 2^total is formed only below the cap
    if total >= MAX_ELEMENTS.bit_length() or n_blocks << total > MAX_ELEMENTS:
        key = f"refinement.levels[{out[0].index(max(out[0]))}]" if total else "domain.n_wedges"
        raise ResourceCapError(f"{key}: {n_blocks} x 2^{total} elements, over {MAX_ELEMENTS}")
    return tuple(out)


def _uniform_mesh(dim, blocks, levels, degrees) -> Mesh:
    """The mesh of `blocks`, each cut into 2^levels[d] segments along each
    dimension d, every element of the given degrees, made in the mesh order
    (`_canonical_order`): block by block, the last dimension slowest."""
    grid = list(itertools.product(*[[(l, i) for i in range(1 << l)] for l in levels[::-1]]))
    elements = [Element(b, s[::-1], degrees, block.map)
                for b, block in enumerate(blocks) for s in grid]
    return Mesh(dim, blocks, elements)


def build_rectilinear_mesh(bounds, levels, degrees) -> Mesh:
    """Axis-aligned box mesh on a single affine block.

    bounds: per-dimension (lower, upper); levels: per-dimension initial
    refinement levels (2^level elements per dimension); degrees: per-dimension
    polynomial degrees. External boundary tags are "x-lower", "x-upper", ...
    """
    bounds = list(bounds)
    dim = len(bounds)
    if dim not in (1, 2, 3):
        raise ConfigurationError(
            "domain.bounds", f"expected 1 to 3 [lower, upper] pairs, got {dim}"
        )
    for i, b in enumerate(bounds):
        pair = isinstance(b, (list, tuple, np.ndarray)) and len(b) == 2
        if not (pair and all(_is_number(v, numbers.Real) and math.isfinite(v) for v in b)
                and b[0] < b[1]):
            raise ConfigurationError(f"domain.bounds[{i}]", "expected [lower, upper], finite "
                                     f"numbers with upper > lower, got {b!r}")
    levels, degrees = _levels_degrees(levels, degrees, dim)
    block = Block(
        map=AffineMap([b[0] for b in bounds], [b[1] for b in bounds]),
        boundary={
            (d, side): ("external", f"{_AXIS_NAMES[d]}-{name}")
            for d in range(dim)
            for side, name in ((-1, "lower"), (1, "upper"))
        },
    )
    return _uniform_mesh(dim, [block], levels, degrees)


def build_annulus_mesh(r_inner, r_outer, n_wedges, levels, degrees) -> Mesh:
    """Full 2D annulus from n_wedges angular blocks.

    Dimension 0 is radial (external tags "inner"/"outer"), dimension 1 angular
    and periodic across blocks.
    """
    if not _is_number(n_wedges, numbers.Integral) or n_wedges < 2:
        raise ConfigurationError("domain.n_wedges", f"must be an integer >= 2, got {n_wedges!r}")
    n_wedges = int(n_wedges)
    for key, r, low in (("r_inner", r_inner, 0), ("r_outer", r_outer, r_inner)):
        if not (_is_number(r, numbers.Real) and low < r < math.inf):
            raise ConfigurationError(f"domain.{key}", f"must be a finite number > {low}, got {r!r}")
    levels, degrees = _levels_degrees(levels, degrees, 2, n_wedges)
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
    return _uniform_mesh(2, blocks, levels, degrees)


def _children(e: Element) -> list[Element]:
    """The 2^d elements that halve `e` in every dimension."""
    return [Element(e.block, s, e.degrees, e.block_map)
            for s in itertools.product(*map(_halves, e.segments))]


def refine_uniform(mesh: Mesh, mode: str) -> Mesh:
    """One global refinement step: "h" splits every element in every
    dimension, "p" raises every degree by one. Per-element degree offsets and
    relative h-refinement are preserved. ResourceCapError if "h" would make
    over MAX_ELEMENTS elements or "p" a degree over MAX_DEGREE."""
    if mode == "p":
        top = max(map(max, {e.degrees for e in mesh.elements}))
        if top >= MAX_DEGREE:  # refused before any element is made
            raise ResourceCapError(f"p-refinement: degree {top + 1}, over {MAX_DEGREE}")
        elements = [
            replace(e, degrees=tuple(p + 1 for p in e.degrees))
            for e in mesh.elements
        ]
        return Mesh(mesh.dim, mesh.blocks, elements)
    if mode != "h":
        raise ValueError(f"refinement mode must be 'h' or 'p', got {mode!r}")
    n = mesh.n_elements
    if n << mesh.dim > MAX_ELEMENTS:  # refused before any child is made, as in a build
        raise ResourceCapError(f"h-refinement: {n} x 2^{mesh.dim} elements, over {MAX_ELEMENTS}")
    elements = [c for e in mesh.elements for c in _children(e)]
    return Mesh(mesh.dim, mesh.blocks, _canonical_order(elements))


def _element_index(mesh: Mesh, index: int) -> int:
    """`index` as an int, unless it is not an integer in 0 <= index < n_elements."""
    if not _is_number(index, numbers.Integral):
        raise ValueError(f"element index must be an integer, got {index!r}")
    if not 0 <= index < mesh.n_elements:
        raise ValueError(f"element index {index} out of range for {mesh.n_elements} elements")
    return int(index)


def split_element(mesh: Mesh, index: int) -> Mesh:
    """Replace one element by its 2^d children (for nonconforming meshes);
    ResourceCapError if that makes over MAX_ELEMENTS elements."""
    index = _element_index(mesh, index)
    n = mesh.n_elements
    if n + (1 << mesh.dim) - 1 > MAX_ELEMENTS:
        raise ResourceCapError(f"split: {n} - 1 + 2^{mesh.dim} elements, over {MAX_ELEMENTS}")
    elements = mesh.elements[:index] + _children(mesh.elements[index]) + mesh.elements[index + 1 :]
    return Mesh(mesh.dim, mesh.blocks, _canonical_order(elements))


def with_degrees(mesh: Mesh, index: int, degrees) -> Mesh:
    """Return a mesh with one element's degrees replaced; ResourceCapError if
    one is over MAX_DEGREE."""
    degrees = tuple(degrees)
    if len(degrees) != mesh.dim or not all(
        _is_number(p, numbers.Integral) and p >= 1 for p in degrees
    ):
        raise ValueError(f"bad degrees {degrees} for dimension {mesh.dim}: need integers >= 1")
    if max(degrees) > MAX_DEGREE:
        raise ResourceCapError(f"degrees {degrees}: degree {max(degrees)}, over {MAX_DEGREE}")
    elements = list(mesh.elements)
    index = _element_index(mesh, index)
    elements[index] = replace(elements[index], degrees=tuple(map(int, degrees)))
    return Mesh(mesh.dim, mesh.blocks, elements)


def jacobian_at(elements, xi):
    """Points x, Jacobian dx/dxi, its determinant and its inverse for a stack
    of elements at shared logical points.

    xi has shape (d,) or (d, ...); returns (x, J, det, J^-1) with the element
    axis first among the point axes: x (d, elements, ...), J and J^-1
    (d, d, elements, ...), det (elements, ...), all C-contiguous. An
    element's point is its block map at mid + half * xi, its box in the
    block's logical cube (`_boxes`, one expression for the whole stack); each
    distinct block map is evaluated once, on the stacked points of its
    members. Raises DegenerateGeometryError unless det > 0 everywhere, naming
    the first element in the given order where it is not.
    """
    xi = np.asarray(xi, dtype=float)
    dim, n, pts = xi.shape[0], len(elements), xi.shape[1:]
    maps = {}
    for k, el in enumerate(elements):
        maps.setdefault(id(el.block_map), (el.block_map, []))[1].append(k)
    # (d, elements, 1, ...): the boxes over the point axes
    mid, half = (
        a.reshape((dim, n) + (1,) * len(pts)) for a in _boxes([el.segments for el in elements])
    )
    x = np.empty((dim, n) + pts)
    jac = np.empty((dim, dim, n) + pts)
    for block_map, members in maps.values():
        h = half[:, members]
        logical = mid[:, members] + h * xi[:, None]
        x[:, members] = block_map.apply(logical)
        # the chain rule with the box's diagonal Jacobian scales J's columns
        jac[:, :, members] = block_map.jacobian(logical) * h
    # the adjugate adj J = det J * J^-1, the transposed cofactors
    if dim == 1:
        adj = np.ones_like(jac)
    elif dim == 2:
        adj = np.stack([np.stack([jac[1, 1], -jac[0, 1]]), np.stack([-jac[1, 0], jac[0, 0]])])
    else:
        # row i is the cross product of columns i + 1 and i + 2
        adj = np.stack([
            np.cross(jac[:, (i + 1) % 3], jac[:, (i + 2) % 3], axisa=0, axisb=0, axisc=0)
            for i in range(3)
        ])
    # det J = (adj J)[0] . J[:, 0], the expansion along the first column
    det = np.einsum("i...,i...->...", jac[:, 0], adj[0])
    bad = (det <= 0).reshape(n, -1).any(axis=1)
    if bad.any():
        first = elements[int(np.argmax(bad))]
        raise DegenerateGeometryError(
            f"non-positive Jacobian determinant in element {first.id_string()}"
        )
    # J^-1 in J's C order, which the 3D adjugate's cross products do not have
    return x, jac, det, np.divide(adj, det, out=np.empty_like(jac))


def face_shape(grid_shape: tuple, dim: int) -> tuple:
    """A per-dimension tuple without dimension `dim`: a face's grid shape, or
    its transverse segments."""
    return grid_shape[:dim] + grid_shape[dim + 1 :]


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
    for child in _halves(seg):
        out.append((child, ("lower" if child[1] % 2 == 0 else "upper", "full")))
    return out


def mortar_topology(mesh: Mesh) -> MeshTopology:
    """Build the internal mortar list and external face list.

    Every internal face is covered exactly once by its mortars (validated).
    Only the blocks, the segments and the blocks' boundary maps are read, no
    degree: a mortar is its two sides and their coverages. A face lies on a
    plane of its block's logical cube, its box's bound (`_boxes`): an exact
    dyadic float, -1 or 1 on the block's own faces, and -1 and 1 swap across
    into the neighboring block. Blocks must share logical-axis orientation,
    which the builders guarantee.
    """
    dim = mesh.dim
    mortars: list[Mortar] = []
    external: list[ExternalFace] = []
    # (element, dim, side) of each internal face -> the fraction of it that
    # its mortars cover, summed as they are created
    covered: dict[tuple, float] = {}

    mid, half = _boxes([e.segments for e in mesh.elements])
    # per element and dim, the planes of its faces on sides -1 and 1
    planes = np.array([mid - half, mid + half]).T.tolist()
    # (block, dim, side, plane, transverse segments) -> elements, in mesh
    # order, whose face on that side lies on the plane and spans those segments
    faces_at: dict[tuple, list[int]] = {}
    for k, e in enumerate(mesh.elements):
        for face_dim, bounds in enumerate(planes[k]):
            segments = face_shape(e.segments, face_dim)
            for side, plane in zip((-1, 1), bounds):
                faces_at.setdefault((e.block, face_dim, side, plane, segments), []).append(k)

    conforming = [("full", "full")] * (dim - 1)

    def neighbors(elem_index, face_dim, side, plane):
        """(element, coverages per transverse dim) of each balanced neighbor
        across this face, in mesh order; None and the tag when external.

        Under two-to-one balance a neighbor's transverse segment is the
        same, the parent or a child, per transverse dim; a neighbor that
        overlaps otherwise leaves the face uncovered, which the coverage
        check reports. Neighbor faces on the plane do not overlap, so one
        with the same segments is the only neighbor.
        """
        e = mesh.elements[elem_index]
        block = e.block
        if plane == side:  # on the block's own face
            kind, block = mesh.blocks[e.block].boundary[(face_dim, side)]
            if kind == "external":
                return None, block
            plane = -plane
        segments = face_shape(e.segments, face_dim)
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
        for face_dim, bounds in enumerate(planes[k]):
            for side, plane in zip((-1, 1), bounds):
                found, tag = neighbors(k, face_dim, side, plane)
                if found is None:
                    external.append(ExternalFace(k, face_dim, side, tag))
                    continue
                if not found:
                    raise TopologyError(
                        f"face {face_dim}/{side:+d} of element "
                        f"{e.id_string()} has no neighbor and no boundary tag"
                    )
                # checked even if no mortar reaches it, as when overlapping
                # elements hide it from the neighbors that it finds
                covered.setdefault((k, face_dim, side), 0.0)
                for kk, rel in found:
                    if kk < k:  # made from kk's side: balanced neighbors find each other
                        continue
                    sides = (
                        MortarSide(k, face_dim, side, tuple(r[0] for r in rel)),
                        MortarSide(kk, face_dim, -side, tuple(r[1] for r in rel)),
                    )
                    mortars.append(Mortar(sides))
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
