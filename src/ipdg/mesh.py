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
grid on which a mortar couples its two sides is the operator's choice. It is
arrays over face numbers (`MeshTopology`, `face_parts`), found with no loop
over faces: every face's key and the keys its neighbors may have are matched
in one sort. The operator and the assembly's colouring read the arrays; the
`Mortar` and `ExternalFace` objects are made only when read.

A mesh is edited along one of two paths. `_split` (`split_element`,
`refine_uniform` "h") makes children, hence new faces and a topology of
their own; `_regraded` (`with_degrees`, `refine_uniform` "p") changes
degrees only, and hands over the parent's topology when it has one. Neither
checks a degree: every `Mesh` checks its own elements.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import gauss_lobatto_nodes_weights
from .errors import ConfigurationError, DegenerateGeometryError, ResourceCapError, TopologyError

__all__ = [
    "COVERAGES",
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
    "face_parts",
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


def _segment_arrays(segments):
    """Levels and indices, each (d, elements) int64, of elements' segments
    (elements, d)."""
    # one flat pass over the nested tuples, which np.array reads far slower
    chain = itertools.chain.from_iterable
    return np.fromiter(chain(chain(segments)), np.int64).reshape(len(segments), -1, 2).T


def _boxes(level, index):
    """Centers and half-widths, each (d, elements), of the boxes that
    segments (`_segment_arrays`) span in their blocks' logical cube: segment
    (level, index) spans -1 + [index, index + 1] * 2 / 2^level. Every
    number is dyadic, so the arithmetic is exact, and so are the bounds
    mid -+ half, which are -1 and 1 on the block's own faces."""
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
        a ValueError naming the first that breaks a rule, or a
        ResourceCapError if its only fault is an integer degree over
        MAX_DEGREE: only a handle makes the node sets that such a degree
        makes expensive."""
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
            error = ValueError
            if not len(e.segments) == len(e.degrees) == self.dim:
                problem = f"has {len(e.segments)} segments and {len(e.degrees)} degrees"
            elif not self._block_ok(e.block):
                problem = f"has block {e.block!r}, not one of the mesh's {len(self.blocks)}"
            elif not all(map(_segment_ok, e.segments)):
                problem = (f"has segments {e.segments!r}: need (level, index) with "
                           "level >= 0 and 0 <= index < 2^level")
            elif not all(_is_number(p, numbers.Integral) and p >= 1 for p in e.degrees):
                problem = f"has degrees {e.degrees!r}: need integers from 1 to {MAX_DEGREE}"
            elif max(e.degrees) > MAX_DEGREE:
                error, problem = ResourceCapError, f"has degree {max(e.degrees)}, over {MAX_DEGREE}"
            else:
                continue
            raise error(f"element {k} {problem}, in a {self.dim}D mesh")

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
    mid, half = _boxes(*_segment_arrays([e.segments for e in elements]))
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


def _split(mesh: Mesh, indices) -> Mesh:
    """The mesh with each element at `indices` (distinct, a range or a
    tuple) replaced by its 2^d children, in the mesh order; ResourceCapError,
    before any child is made, if that makes over MAX_ELEMENTS elements."""
    n, k = mesh.n_elements, len(indices)
    total = n + k * ((1 << mesh.dim) - 1)
    if total > MAX_ELEMENTS:
        raise ResourceCapError(f"splitting {k} of {n} elements makes {total}, over {MAX_ELEMENTS}")
    elements = [c for i, e in enumerate(mesh.elements)
                for c in (_children(e) if i in indices else (e,))]
    return Mesh(mesh.dim, mesh.blocks, _canonical_order(elements))


def _regraded(mesh: Mesh, degrees) -> Mesh:
    """The mesh with element k at degrees[k], one tuple per element (an
    element given its own degrees object is kept). Order, blocks and
    segments stay, and the topology reads no degree, so the parent's is
    handed over when the parent has computed it, and never computed here."""
    elements = [e if e.degrees is p else replace(e, degrees=p)
                for e, p in zip(mesh.elements, degrees, strict=True)]
    new = Mesh(mesh.dim, mesh.blocks, elements)
    if "topology" in vars(mesh):  # a cached_property, stored on first read
        new.topology = mesh.topology
    return new


def refine_uniform(mesh: Mesh, mode: str) -> Mesh:
    """One global refinement step: "h" splits every element in every
    dimension (`_split`), "p" raises every degree by one (`_regraded`).
    Per-element degree offsets and relative h-refinement are preserved.
    ResourceCapError if "h" would make over MAX_ELEMENTS elements or "p" a
    degree over MAX_DEGREE (from `Mesh`)."""
    if mode == "p":
        return _regraded(mesh, [tuple(p + 1 for p in e.degrees) for e in mesh.elements])
    if mode != "h":
        raise ValueError(f"refinement mode must be 'h' or 'p', got {mode!r}")
    return _split(mesh, range(mesh.n_elements))


def _element_index(mesh: Mesh, index: int) -> int:
    """`index` as an int, unless it is not an integer in 0 <= index < n_elements."""
    if not _is_number(index, numbers.Integral):
        raise ValueError(f"element index must be an integer, got {index!r}")
    if not 0 <= index < mesh.n_elements:
        raise ValueError(f"element index {index} out of range for {mesh.n_elements} elements")
    return int(index)


def split_element(mesh: Mesh, index: int) -> Mesh:
    """Replace one element by its 2^d children (for nonconforming meshes,
    `_split`); ResourceCapError if that makes over MAX_ELEMENTS elements."""
    return _split(mesh, (_element_index(mesh, index),))


def with_degrees(mesh: Mesh, index: int, degrees) -> Mesh:
    """Return a mesh with one element's degrees replaced (`_regraded`),
    numpy integers read as int; the new `Mesh` raises ValueError unless they
    are `dim` integers >= 1, ResourceCapError if one is over MAX_DEGREE."""
    index = _element_index(mesh, index)
    degrees = tuple(int(p) if _is_number(p, numbers.Integral) else p for p in degrees)
    return _regraded(mesh, [degrees if k == index else e.degrees
                            for k, e in enumerate(mesh.elements)])


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
        a.reshape((dim, n) + (1,) * len(pts))
        for a in _boxes(*_segment_arrays([el.segments for el in elements]))
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


# a mortar side's coverage codes, in `MeshTopology.coverage`
COVERAGES = ("full", "lower", "upper")


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


def face_parts(faces, dim):
    """(element, face dim, side) of face numbers (`MeshTopology`)."""
    return faces // (2 * dim), faces // 2 % dim, faces % 2 * 2 - 1


@dataclass(eq=False)
class MeshTopology:
    """A mesh's mortars and external faces as arrays over face numbers
    (element * dim + face dim) * 2 + (side > 0), which count the faces in
    (element, dim, side) order (`face_parts` reads one back):

    - `faces` (mortars, 2): each mortar's two sides, the lower-indexed
      element's face first;
    - `coverage` (mortars, 2, dim - 1): per side and transverse dimension
      (ascending, the normal one left out) the part of the side's face that
      the mortar covers, an index into `COVERAGES`;
    - `external` and `tags`: the external faces, ascending, and their tags.

    `mortars` and `external_faces` list the same as `Mortar` and
    `ExternalFace` objects, made on first read. Topologies are equal when
    their arrays are."""

    dim: int
    faces: np.ndarray
    coverage: np.ndarray
    external: np.ndarray
    tags: np.ndarray

    def __eq__(self, other):
        fields = ("dim", "faces", "coverage", "external", "tags")
        return isinstance(other, MeshTopology) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in fields
        )

    @cached_property
    def mortars(self) -> list:
        parts = (a.ravel().tolist() for a in face_parts(self.faces, self.dim))
        coverage = np.array(COVERAGES)[self.coverage].reshape(self.faces.size, self.dim - 1)
        sides = list(map(MortarSide, *parts, map(tuple, coverage.tolist())))
        return list(map(Mortar, zip(sides[::2], sides[1::2])))

    @cached_property
    def external_faces(self) -> list:
        parts = (a.tolist() for a in face_parts(self.external, self.dim))
        return list(map(ExternalFace, *parts, self.tags.tolist()))


# per relation (`mortar_topology`) the neighbor's segment 2s, 2s + 1 or s
# from s, but for the parent s >> 1, and the part of this side's face that a
# mortar covers
_CHILD = np.array([[1, 0, 2, 2], [0, 0, 0, 1]])
_COVERED = np.array([0, 0, 1, 2])


@functools.cache
def _transverse(dim):
    """Per face dim the transverse dims, ascending, (dim, dim - 1); every
    combination of one relation from 0 to 3 per transverse dim,
    (4^(dim - 1), dim - 1); and the positions 0 .. dim - 2 of the
    transverse dims."""
    others = np.array([[t for t in range(dim) if t != d] for d in range(dim)], dtype=int)
    combos = np.array(list(itertools.product(range(4), repeat=dim - 1)), dtype=int)
    return others.reshape(dim, dim - 1), combos.reshape(4 ** (dim - 1), dim - 1), np.arange(dim - 1)


def _block_targets(mesh):
    """Per (block, dim, side > 0), the block across that face of a block of
    the mesh, or -1 - i for an external face of tag tags[i]; and the tags.
    TopologyError, naming the block, the face and the entry, unless each
    face of each block has a boundary entry ("external", a str) or ("block",
    the index of a block of the mesh)."""
    n, tags, targets, sides = len(mesh.blocks), {}, [], (-1, 1)
    for (b, block), dim, side in itertools.product(enumerate(mesh.blocks), range(mesh.dim), sides):
        entry = block.boundary.get((dim, side))
        kind, value = entry if isinstance(entry, (tuple, list)) and len(entry) == 2 else (0, 0)
        if kind == "external" and isinstance(value, str):
            targets.append(-1 - tags.setdefault(value, len(tags)))
        elif kind == "block" and _is_number(value, numbers.Integral) and 0 <= value < n:
            targets.append(value)
        else:
            what = f"entry {entry!r}" if (dim, side) in block.boundary else "no entry"
            raise TopologyError(f"block {b} has {what} for face {dim}/{side:+d} in its boundary "
                                "map: need ('external', tag) or ('block', index of one of the "
                                f"mesh's {n} blocks)")
    return np.reshape(targets, (n, mesh.dim, 2)), np.array(list(tags), dtype=str)


def mortar_topology(mesh: Mesh) -> MeshTopology:
    """The mesh's mortars and external faces (`MeshTopology`).

    Only the blocks, the segments and the blocks' boundary maps are read, no
    degree: a mortar is its two sides and their coverages. Each face is keyed
    by its block, dim, side, plane and transverse segments. The plane is a
    bound of its box (`_boxes`), an exact dyadic float, -1 or 1 on the
    block's own face, where the block's boundary map (`_block_targets`)
    makes the face external or sends its key into the neighboring block,
    with -1 and 1 swapped; blocks must share logical-axis orientation,
    which the builders guarantee. A neighbor's face has the opposite side
    and, under two-to-one balance, per transverse dimension the same
    segment, its parent or a child: up to 4^(dim - 1) keys per face, all
    matched with the faces' own keys in one sort of every key. A neighbor
    with the same segments everywhere is the only one; other neighbors that
    overlap leave the face uncovered, which the coverage check reports.

    Mortars come in (element, face dim, side, neighbor) order, each made
    from its lower-indexed element's side; external faces in (element, dim,
    side) order. TopologyError names the first face in that order with no
    neighbor and no boundary tag; else every internal face, and every face
    a mortar reaches, must be covered exactly once by its mortars' pieces,
    or it names the first that is not, in the order in which a loop over
    the faces would first meet it: at its own turn, or at the turn of the
    lower-indexed neighbor that makes its first mortar.
    """
    dim, n = mesh.dim, mesh.n_elements
    targets, tag_names = _block_targets(mesh)
    level, index = _segment_arrays([e.segments for e in mesh.elements])
    mid, half = _boxes(level, index)
    faces = np.arange(2 * dim * n)
    (element, face_dim, side), up = face_parts(faces, dim), faces & 1
    block = np.fromiter((e.block for e in mesh.elements), np.int64, n)[element]
    plane = (mid.T[..., None] + half.T[..., None] * (-1.0, 1.0)).ravel()
    crossing = plane == side  # on the block's own face
    across = targets[block, face_dim, up]
    external = crossing & (across < 0)
    others, combos, slots = _transverse(dim)
    # per transverse dimension the segment, as its heap number 2^level + index,
    # and the neighbor's: the same, the parent, the lower or the upper child
    # (relations 0 to 3), where some element may have it
    heap = (1 << level) | index
    segments = heap[others[face_dim], element[:, None]]
    related = segments[..., None] * _CHILD[0] + _CHILD[1]
    related[..., 1] = segments >> 1
    possible = (heap.min() <= related) & (related <= heap.max())
    face, combo = (possible[:, slots, combos].all(axis=2) & ~external[:, None]).nonzero()
    relation = combos[combo]
    # the faces' keys, then the neighbors' looked for: block, dim and side,
    # the plane (its bits, as an integer; + 0.0 leaves no -0.0) and the
    # segments; rows of one key end up together in one sort, own keys first
    keys = np.empty((faces.size + face.size, dim + 1), dtype=np.int64)
    own, looked_for = keys[:faces.size], keys[faces.size:]
    own[:, 0] = faces + (block - element) * (2 * dim)
    own[:, 1], own[:, 2:] = (plane + 0.0).view(np.int64), segments
    looked_for[:, 0] = (own[:, 0] + crossing * (across - block) * (2 * dim) - side)[face]
    looked_for[:, 1] = (np.where(crossing, -plane, plane) + 0.0).view(np.int64)[face]
    looked_for[:, 2:] = related[face[:, None], slots, relation]
    order = np.lexsort(keys.T)
    keys = keys[order]
    # each looked-for key's faces: the own rows that open its group
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    is_own = order < faces.size
    owned, opens = is_own.cumsum(), np.maximum.accumulate(np.arange(len(keys)) * new)
    at = (~is_own).nonzero()[0]
    first = opens[at]
    hits = owned[at] - owned[first] + is_own[first]
    ends = hits.cumsum()
    match = order[np.arange(hits.sum()) + (first - ends + hits).repeat(hits)]
    looked_up = order[at].repeat(hits) - faces.size
    face, relation, neighbor = face[looked_up], relation[looked_up], element[match]
    # apart from the face's own element; a neighbor with the same segments
    # is the only one
    keep = neighbor != element[face]
    same = ~relation.any(axis=1)
    has_same, found = np.zeros((2, faces.size), dtype=bool)
    has_same[face[keep & same]] = True
    keep &= same | ~has_same[face]
    found[face[keep]] = True
    lonely = ~(external | found)
    if lonely.any():
        k, d, s = (int(a[lonely.argmax()]) for a in (element, face_dim, side))
        raise TopologyError(f"face {d}/{s:+d} of element {mesh.elements[k].id_string()} has no "
                            "neighbor and no boundary tag")
    keep &= neighbor > element[face]
    order = np.lexsort((neighbor[keep], face[keep]))
    face, match, relation = face[keep][order], match[keep][order], relation[keep][order]
    # the coverages (this side, the neighbor's) of each relation; a parent
    # covers its child's half, lower for an even index
    pairs = np.empty((face.size, 2), dtype=np.int64)
    coverage = np.empty((face.size, 2, dim - 1), dtype=np.int64)
    pairs[:, 0], pairs[:, 1], coverage[:, 0] = face, match, _COVERED[relation]
    coverage[:, 1] = (relation == 1) * (1 + (segments[face] & 1))

    # the mortar pieces of every internal face tile it once
    total = np.bincount(pairs.ravel(), 0.5 ** (coverage != 0).sum(axis=2).ravel(), faces.size)
    turn = faces + external * faces.size
    np.minimum.at(turn, pairs[:, 1], pairs[:, 0])
    bad = ((turn < faces.size) & (total != 1.0)).nonzero()[0]
    if bad.size:
        f = bad[np.lexsort((element[bad], turn[bad]))[0]]
        name = mesh.elements[element[f]].id_string()
        raise TopologyError(f"face {face_dim[f]}/{side[f]:+d} of element {name} is covered "
                            f"{float(total[f])}x by mortars")
    tags = tag_names[-1 - across[external]]
    return MeshTopology(dim, pairs, coverage, external.nonzero()[0], tags)
