"""Mesh, coordinate map, refinement, and mortar topology tests.

Jacobians are checked against central finite differences of the maps; the
annulus is checked by integrating its area with the mesh quadrature.
"""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from ipdg.background import FlatBackground
from ipdg.boundaries import BoundaryMap, DirichletBC
from ipdg.errors import DegenerateGeometryError, TopologyError
from ipdg.mesh import (
    _at_block_boundary,
    AffineMap,
    AnnulusWedgeMap,
    ComposedMap,
    Mesh,
    build_annulus_mesh,
    build_rectilinear_mesh,
    face_shape,
    face_slices,
    jacobian_at,
    mortar_topology,
    refine_uniform,
    split_element,
    with_degrees,
)
from ipdg.operators import OperatorHandle, _MeshCache
from ipdg.systems import make_system


def fd_jacobian(cmap, xi, eps=1e-6):
    xi = np.asarray(xi, dtype=float)
    d = xi.shape[0]
    cols = []
    for j in range(d):
        step = np.zeros_like(xi)
        step[j] = eps
        cols.append((cmap.apply(xi + step) - cmap.apply(xi - step)) / (2 * eps))
    return np.stack(cols, axis=1)


class TestMaps:
    def test_affine_unit_square(self):
        m = AffineMap([0.0, 0.0], [1.0, 1.0])
        np.testing.assert_allclose(m.apply(np.array([-1.0, -1.0])), [0.0, 0.0])
        np.testing.assert_allclose(m.apply(np.array([1.0, 1.0])), [1.0, 1.0])
        np.testing.assert_allclose(m.apply(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_affine_jacobian_is_half_widths(self):
        m = AffineMap([0.0, -2.0], [0.5, 2.0])
        jac = m.jacobian(np.array([0.3, -0.4]))
        np.testing.assert_allclose(jac, [[0.25, 0.0], [0.0, 2.0]])

    def test_wedge_zero_corner(self):
        # First wedge of four: theta starts at 0, so (-1, -1) lands on (r_inner, 0).
        m = AnnulusWedgeMap(1.0, 2.0, 0.0, np.pi / 2)
        np.testing.assert_allclose(
            m.apply(np.array([-1.0, -1.0])), [1.0, 0.0], atol=1e-15
        )
        np.testing.assert_allclose(
            m.apply(np.array([1.0, 1.0])), [0.0, 2.0], atol=1e-15
        )

    @pytest.mark.parametrize(
        "cmap",
        [
            AffineMap([0.0, 0.0], [1.0, 2.0]),
            AnnulusWedgeMap(1.0, 2.0, 0.2, 1.3),
            ComposedMap(
                AffineMap([-1.0, 0.0], [0.0, 1.0]),
                AnnulusWedgeMap(0.5, 3.0, 0.0, np.pi),
            ),
        ],
    )
    def test_jacobian_matches_finite_differences(self, cmap):
        rng = np.random.default_rng(5)
        for _ in range(4):
            xi = rng.uniform(-0.9, 0.9, size=2)
            np.testing.assert_allclose(
                cmap.jacobian(xi), fd_jacobian(cmap, xi), rtol=1e-7, atol=1e-8
            )

    def test_composed_jacobian_is_chain_rule_product(self):
        inner = AffineMap([-1.0, -1.0], [0.0, 0.0])
        outer = AnnulusWedgeMap(1.0, 4.0, 0.1, 2.0)
        comp = ComposedMap(inner, outer)
        xi = np.array([0.25, -0.6])
        expected = outer.jacobian(inner.apply(xi)) @ inner.jacobian(xi)
        np.testing.assert_allclose(comp.jacobian(xi), expected, rtol=1e-12)

    def test_degenerate_wedge_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            AnnulusWedgeMap(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DegenerateGeometryError):
            AnnulusWedgeMap(2.0, 1.0, 0.0, 1.0)


class TestJacobianAt:
    def test_affine_element_inverse_and_det(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        e = mesh.elements[0]
        jac, det, inv = jacobian_at(e, np.array([0.1, 0.2]))
        np.testing.assert_allclose(jac, [[0.25, 0.0], [0.0, 0.25]])
        np.testing.assert_allclose(det, 0.0625)
        np.testing.assert_allclose(inv, [[4.0, 0.0], [0.0, 4.0]])

    def test_3d_inverse(self):
        mesh = build_rectilinear_mesh(
            [(0, 1), (0, 2), (0, 4)], (0, 0, 0), (1, 1, 1)
        )
        e = mesh.elements[0]
        jac, det, inv = jacobian_at(e, np.zeros(3))
        np.testing.assert_allclose(det, 0.5 * 1.0 * 2.0)
        np.testing.assert_allclose(
            np.einsum("ij...,jk...->ik...", inv, jac), np.eye(3), atol=1e-14
        )

    def test_annulus_determinant_positive_and_correct(self):
        mesh = build_annulus_mesh(1.0, 2.0, 4, (0, 0), (3, 3))
        e = mesh.elements[0]
        xi = e.logical_grid()
        jac, det, inv = jacobian_at(e, xi)
        assert np.all(det > 0)
        # det = r * dr/dxi * dtheta/deta with dr/dxi = 1/2, dtheta/deta = pi/4
        r = np.hypot(*e.coords())
        np.testing.assert_allclose(det, r * 0.5 * (np.pi / 4), rtol=1e-12)

    def test_reflected_map_rejected(self):
        class Reflected:
            """`base` with the first logical axis reversed: det J < 0."""

            def __init__(self, base):
                self.base = base

            def apply(self, xi):
                xi = np.array(xi, dtype=float)
                xi[0] = -xi[0]
                return self.base.apply(xi)

            def jacobian(self, xi):
                xi = np.array(xi, dtype=float)
                xi[0] = -xi[0]
                jac = self.base.jacobian(xi)
                jac[:, 0] = -jac[:, 0]
                return jac

        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 0), (2, 2))
        good, el = mesh.elements
        bad = dataclasses.replace(el, map=Reflected(el.map))
        message = f"non-positive Jacobian determinant in element {bad.id_string()}"
        with pytest.raises(DegenerateGeometryError, match=re.escape(message)):
            jacobian_at(bad, bad.logical_grid())
        reflected = Mesh(mesh.dim, mesh.blocks, [good, bad])
        bcs = BoundaryMap.everywhere(DirichletBC(0.0))
        with pytest.raises(DegenerateGeometryError, match=re.escape(message)):
            OperatorHandle(
                reflected, make_system("poisson-flat", dim=2), FlatBackground(), bcs
            )

    def test_annulus_area_by_quadrature(self):
        mesh = build_annulus_mesh(1.0, 2.0, 4, (1, 1), (4, 4))
        total = 0.0
        for e in mesh.elements:
            ns = e.node_sets()
            w = np.multiply.outer(ns[0].weights, ns[1].weights)
            _, det, _ = jacobian_at(e, e.logical_grid())
            total += float((w * det).sum())
        np.testing.assert_allclose(total, np.pi * (4.0 - 1.0), rtol=1e-12)


class TestNormals:
    # the outward unnormalized face normal of face (dim, side) is side times
    # row `dim` of the inverse Jacobian at the face points

    def test_unit_square_quarter_element(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        e = mesh.elements[0]  # [0, 0.5]^2
        _, _, inv = jacobian_at(e, np.array([1.0, 0.0]))
        np.testing.assert_allclose(+1.0 * inv[0], [4.0, 0.0])
        _, _, inv = jacobian_at(e, np.array([0.0, -1.0]))
        np.testing.assert_allclose(-1.0 * inv[1], [0.0, -4.0])

    def test_annulus_radial_face_is_radial(self):
        # as the operator's face buffer holds it: unit and pointing along r
        mesh = build_annulus_mesh(1.0, 2.0, 4, (0, 0), (3, 3))
        cache = _MeshCache(mesh, FlatBackground())
        span = cache.face_spans[(0, 0, 1)]
        n, x = cache.face_normal[:, span], cache.face_coords[:, span]
        np.testing.assert_allclose(np.hypot(*n), 1.0, rtol=1e-14)
        np.testing.assert_allclose((n * x).sum(axis=0), np.hypot(*x), rtol=1e-12)


class TestBuildersAndRefinement:
    def test_element_counts(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 2), (3, 4))
        assert mesh.n_elements == 2 * 4
        assert all(e.grid_shape == (4, 5) for e in mesh.elements)
        assert mesh.total_points == 8 * 20

    def test_coords_of_single_element(self):
        mesh = build_rectilinear_mesh([(0, 1)], (0,), (1,))
        np.testing.assert_allclose(mesh.elements[0].coords(), [[0.0, 1.0]])

    def test_h_refine_quadruples_2d(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (0, 0), (2, 2))
        fine = refine_uniform(mesh, "h")
        assert fine.n_elements == 4
        assert all(e.degrees == (2, 2) for e in fine.elements)
        # children cover the unit square once
        areas = []
        for e in fine.elements:
            c = e.coords()
            areas.append((c[0].max() - c[0].min()) * (c[1].max() - c[1].min()))
        np.testing.assert_allclose(sum(areas), 1.0)

    def test_p_refine_preserves_offsets(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        mesh = with_degrees(mesh, 0, (4, 2))
        fine = refine_uniform(mesh, "p")
        assert fine.elements[0].degrees == (5, 3)
        assert fine.elements[1].degrees == (3, 3)

    def test_annulus_wedge_count(self):
        mesh = build_annulus_mesh(1.0, 2.0, 3, (1, 0), (2, 2))
        assert mesh.n_elements == 3 * 2

    def test_refined_child_maps_compose_parent(self):
        mesh = build_annulus_mesh(1.0, 2.0, 2, (0, 0), (2, 2))
        fine = refine_uniform(mesh, "h")
        # every child corner must lie on the parent annulus
        for e in fine.elements:
            c = e.coords()
            r = np.hypot(c[0], c[1])
            assert np.all(r >= 1.0 - 1e-12) and np.all(r <= 2.0 + 1e-12)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_rectilinear_mesh([(0, 1)], (0,), (0,))
        with pytest.raises(ValueError):
            build_annulus_mesh(1.0, 2.0, 1, (0, 0), (2, 2))
        with pytest.raises(ValueError):
            refine_uniform(build_rectilinear_mesh([(0, 1)], (0,), (1,)), "hp")

    @pytest.mark.parametrize("levels, degrees", [((0, 0), (0, 2)), ((-1, 0), (2, 2))])
    def test_both_builders_range_check_levels_and_degrees(self, levels, degrees):
        message = "levels must be >= 0 and degrees >= 1"
        with pytest.raises(ValueError, match=message):
            build_rectilinear_mesh([(0, 1), (0, 1)], levels, degrees)
        with pytest.raises(ValueError, match=message):
            build_annulus_mesh(1.0, 2.0, 4, levels, degrees)
        with pytest.raises(ValueError, match="need 2 entries"):
            build_annulus_mesh(1.0, 2.0, 4, (0,), (2,))


class TestTopology:
    def test_single_element_all_external(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (0, 0), (2, 2))
        topo = mortar_topology(mesh)
        assert topo.mortars == []
        tags = sorted(f.tag for f in topo.external_faces)
        assert tags == ["x-lower", "x-upper", "y-lower", "y-upper"]

    def test_two_by_two_mortar_count(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        topo = mortar_topology(mesh)
        assert len(topo.mortars) == 4
        assert len(topo.external_faces) == 8
        for m in topo.mortars:
            assert m.sides[0].coverage == ("full",)
            assert m.sides[1].coverage == ("full",)
            assert m.counts == (3,)

    def test_mortar_counts_take_max_degree(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 0), (2, 2))
        mesh = with_degrees(mesh, 0, (2, 5))
        topo = mortar_topology(mesh)
        (m,) = topo.mortars
        assert m.counts == (6,)

    def test_split_element_gives_half_coverages(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        mesh = split_element(mesh, 0)
        topo = mortar_topology(mesh)
        # coarse neighbors see two mortars on the shared face, halves each
        splits = [
            m
            for m in topo.mortars
            if "full" not in (m.sides[0].coverage[0], m.sides[1].coverage[0])
        ]
        assert splits == []
        halves = [
            m
            for m in topo.mortars
            if "full" != m.sides[0].coverage[0] or "full" != m.sides[1].coverage[0]
        ]
        assert len(halves) == 4  # two faces of the coarse/fine interface, 2 each
        covered = {
            (m.sides[0].coverage[0], m.sides[1].coverage[0]) for m in halves
        }
        assert covered <= {
            ("full", "lower"),
            ("full", "upper"),
            ("lower", "full"),
            ("upper", "full"),
        }

    def test_unbalanced_mesh_rejected(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        mesh = split_element(mesh, 0)
        # element 1 is now the level-2 child at (0.25, 0); splitting it puts
        # level-3 faces against the level-1 element across x = 0.5
        mesh = split_element(mesh, 1)
        with pytest.raises(TopologyError):
            mortar_topology(mesh)

    def test_repeated_element_over_covers_its_neighbor(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 0), (2, 2))
        repeated = Mesh(mesh.dim, mesh.blocks, mesh.elements + mesh.elements[:1])
        with pytest.raises(TopologyError, match="covered 2.0x by mortars"):
            mortar_topology(repeated)

    def test_annulus_is_periodic(self):
        mesh = build_annulus_mesh(1.0, 2.0, 4, (0, 0), (2, 2))
        topo = mortar_topology(mesh)
        # four angular interfaces (periodic ring), no angular external faces
        assert len(topo.mortars) == 4
        assert sorted(f.tag for f in topo.external_faces) == ["inner"] * 4 + [
            "outer"
        ] * 4

    def test_two_wedge_annulus_has_two_distinct_interfaces(self):
        mesh = build_annulus_mesh(1.0, 2.0, 2, (0, 0), (2, 2))
        topo = mortar_topology(mesh)
        assert len(topo.mortars) == 2

    def test_mortars_cover_3d_refined_face(self):
        mesh = build_rectilinear_mesh(
            [(0, 1), (0, 1), (0, 1)], (0, 0, 0), (2, 2, 2)
        )
        mesh = refine_uniform(mesh, "h")
        mesh = split_element(mesh, 0)
        topo = mortar_topology(mesh)
        # the split corner element's +x face neighbors see 2x2 mortars;
        # every internal face is tiled once by its mortars' coverages
        fractions = {}
        for m in topo.mortars:
            for s in m.sides:
                key = (s.element, s.dim, s.side)
                f = 1.0
                for cov in s.coverage:
                    f *= 1.0 if cov == "full" else 0.5
                fractions[key] = fractions.get(key, 0.0) + f
        assert set(fractions.values()) == {1.0}
        assert any(
            s.coverage == (c1, c2)
            for m in topo.mortars for s in m.sides
            for c1 in ("lower", "upper") for c2 in ("lower", "upper")
        )
        external = {(f.element, f.dim, f.side) for f in topo.external_faces}
        assert len(fractions) + len(external) == 2 * 3 * mesh.n_elements


def transverse_relation(seg_a, seg_b):
    """Coverages (a's, b's) of two overlapping segments, from interval
    arithmetic at the finer level; None when they are disjoint."""
    level = max(seg_a[0], seg_b[0])
    a0, a1 = (i << (level - seg_a[0]) for i in (seg_a[1], seg_a[1] + 1))
    b0, b1 = (i << (level - seg_b[0]) for i in (seg_b[1], seg_b[1] + 1))
    if a1 <= b0 or b1 <= a0:
        return None

    def coverage(lo, hi, outer_lo, outer_hi):
        if (lo, hi) == (outer_lo, outer_hi):
            return "full"
        return "lower" if lo == outer_lo else "upper"

    lo, hi = max(a0, b0), min(a1, b1)
    return coverage(lo, hi, a0, a1), coverage(lo, hi, b0, b1)


def scan_topology(mesh):
    """Mortars and external faces found by testing every face against every
    element, the quadratic scan that the face-plane lookup replaces.

    Returns ((side, side, counts) per mortar, (element, dim, side, tag) per
    external face), each side as (element, dim, side, coverages).
    """
    els = mesh.elements
    level = np.array([[s[0] for s in e.segments] for e in els])
    index = np.array([[s[1] for s in e.segments] for e in els])
    block = np.array([e.block for e in els])
    mortars, external, seen = [], [], set()
    for k, e in enumerate(els):
        for fd in range(mesh.dim):
            for side in (-1, 1):
                lev, idx = e.segments[fd]
                if _at_block_boundary(e.segments[fd], side):
                    kind, target = mesh.blocks[e.block].boundary[(fd, side)]
                    if kind == "external":
                        external.append((k, fd, side, target))
                        continue
                    last = (1 << level[:, fd]) - 1
                    mask = (block == target) & (index[:, fd] == (0 if side > 0 else last))
                    mask[k] &= target != e.block
                else:
                    common = np.maximum(lev, level[:, fd])
                    plane = (idx + (side > 0)) << (common - lev)
                    other = (index[:, fd] + (side < 0)) << (common - level[:, fd])
                    mask = (block == e.block) & (other == plane)
                    mask[k] = False
                trans = [t for t in range(mesh.dim) if t != fd]
                for kk in np.flatnonzero(mask):
                    rel = [transverse_relation(e.segments[t], els[kk].segments[t]) for t in trans]
                    key = frozenset([(k, fd, side), (int(kk), fd, -side)])
                    if None in rel or key in seen:
                        continue
                    seen.add(key)
                    counts = tuple(max(e.degrees[t], els[kk].degrees[t]) + 1 for t in trans)
                    mortars.append((
                        (k, fd, side, tuple(r[0] for r in rel)),
                        (int(kk), fd, -side, tuple(r[1] for r in rel)),
                        counts,
                    ))
    return mortars, external


@pytest.mark.parametrize("make", [
    lambda: build_rectilinear_mesh([(0, 1), (0, 1)], (5, 5), (4, 4)),
    lambda: with_degrees(split_element(split_element(
        build_rectilinear_mesh([(0, 1), (0, 1)], (2, 2), (3, 3)), 5), 12), 0, (5, 2)),
    lambda: split_element(with_degrees(
        build_rectilinear_mesh([(0, 1)] * 3, (1, 1, 0), (2, 2, 2)), 3, (3, 1, 2)), 0),
    lambda: split_element(build_annulus_mesh(1.0, 2.0, 3, (1, 0), (2, 2)), 2),
    lambda: build_annulus_mesh(1.0, 2.0, 2, (0, 1), (2, 2)),
    # level-1 and level-3 elements on the plane x = 1/2 overlap in y but not
    # in z, so they share no face and the mesh is balanced
    lambda: split_element(split_element(split_element(
        build_rectilinear_mesh([(0, 1)] * 3, (1, 0, 1), (1, 1, 1)), 3), 2), 11),
], ids=["32x32", "split-raised-2d", "split-raised-3d", "annulus-split", "two-wedges",
        "plane-neighbours-apart-3d"])
def test_topology_matches_all_pairs_scan(make):
    mesh = make()
    topo = mortar_topology(mesh)
    mortars, external = scan_topology(mesh)

    def side(s):
        return (s.element, s.dim, s.side, s.coverage)

    assert [(side(m.sides[0]), side(m.sides[1]), m.counts) for m in topo.mortars] == mortars
    assert [(f.element, f.dim, f.side, f.tag) for f in topo.external_faces] == external


class TestIndexingHelpers:
    def test_face_shape_and_slices(self):
        assert face_shape((3, 4, 5), 1) == (3, 5)
        arr = np.arange(2 * 3 * 4).reshape(2, 3, 4)
        np.testing.assert_array_equal(arr[face_slices(3, 0, -1)], arr[0])
        np.testing.assert_array_equal(arr[face_slices(3, 2, 1)], arr[:, :, -1])

    def test_dimension_major_flattening(self):
        # F-order flatten: dimension 0 varies fastest
        mesh = build_rectilinear_mesh([(0, 1), (0, 2)], (0, 0), (1, 1))
        c = mesh.elements[0].coords()
        flat_x = c[0].flatten(order="F")
        np.testing.assert_allclose(flat_x, [0.0, 1.0, 0.0, 1.0])
        flat_y = c[1].flatten(order="F")
        np.testing.assert_allclose(flat_y, [0.0, 0.0, 2.0, 2.0])


def test_characteristic_h_halves_under_refinement():
    mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (0, 0), (2, 2))
    h0 = mesh.characteristic_h()
    h1 = refine_uniform(mesh, "h").characteristic_h()
    np.testing.assert_allclose(h0, 1.0)
    np.testing.assert_allclose(h1, 0.5)
