"""Mesh, coordinate map, refinement, and mortar topology tests.

Jacobians are checked against central finite differences of the maps; the
annulus is checked by integrating its area with the mesh quadrature.
"""

import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipdg.background import FlatBackground
from ipdg.boundaries import BoundaryMap, DirichletBC
from ipdg.errors import (
    ConfigurationError, DegenerateGeometryError, ResourceCapError, TopologyError,
)
from ipdg.mesh import (
    MAX_DEGREE,
    _canonical_order,
    AffineMap,
    AnnulusWedgeMap,
    Mesh,
    build_annulus_mesh,
    build_rectilinear_mesh,
    face_shape,
    jacobian_at,
    mortar_topology,
    refine_uniform,
    split_element,
    with_degrees,
)
from ipdg.mortars import prolongation_matrix
from ipdg.operators import OperatorHandle, _MeshCache
from ipdg.systems import make_system
from test_operators import face_slices


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
        ],
    )
    def test_jacobian_matches_finite_differences(self, cmap):
        rng = np.random.default_rng(5)
        for _ in range(4):
            xi = rng.uniform(-0.9, 0.9, size=2)
            np.testing.assert_allclose(
                cmap.jacobian(xi), fd_jacobian(cmap, xi), rtol=1e-7, atol=1e-8
            )

    def test_degenerate_wedge_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            AnnulusWedgeMap(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(DegenerateGeometryError):
            AnnulusWedgeMap(2.0, 1.0, 0.0, 1.0)


def element_points(e, xi):
    """Reference for an element's points: its block map at its box in the
    block's logical cube, the box worked out from the segments by hand."""
    half = np.array([0.5 ** level for level, _ in e.segments])
    mid = np.array([(2 * index + 1) * 0.5 ** level - 1.0 for level, index in e.segments])
    xi = np.asarray(xi, dtype=float)
    shape = (-1,) + (1,) * (xi.ndim - 1)
    return e.block_map.apply(mid.reshape(shape) + half.reshape(shape) * xi)


# elements of several levels in one mesh: split annulus wedges at levels 0-2
# and a refined box
BOX_MESHES = [
    split_element(build_annulus_mesh(0.5, 3.0, 3, (level, level), (2, 2)), 1)
    for level in range(3)
] + [
    refine_uniform(
        build_rectilinear_mesh([(0.0, 1.0), (-0.5, 2.0), (1.0, 1.5)], (1, 0, 1), (1, 1, 1)), "h"
    )
]
BOX_IDS = [f"annulus-split-L{level}" for level in range(3)] + ["3d-refined"]


class TestJacobianAt:
    @pytest.mark.parametrize("mesh", BOX_MESHES, ids=BOX_IDS)
    def test_jacobian_matches_finite_differences_of_its_points(self, mesh):
        # J is the derivative of x: the block map's Jacobian at the box's
        # point times the box's half-widths, by the chain rule
        xi = np.random.default_rng(5).uniform(-0.9, 0.9, size=(mesh.dim, 4))
        _, jac, _, _ = jacobian_at(mesh.elements, xi)
        eps = 1e-6
        for j in range(mesh.dim):
            step = np.zeros((mesh.dim, 1))
            step[j] = eps
            ahead, behind = (jacobian_at(mesh.elements, xi + s)[0] for s in (step, -step))
            np.testing.assert_allclose(jac[:, j], (ahead - behind) / (2 * eps),
                                       rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("mesh", BOX_MESHES, ids=BOX_IDS)
    def test_points_are_the_block_map_of_the_box(self, mesh):
        # bit for bit, for the stack and for each element's `coords`
        xi = mesh.elements[0].logical_grid()
        x = jacobian_at(mesh.elements, xi)[0]
        for k, e in enumerate(mesh.elements):
            assert np.array_equal(x[:, k], element_points(e, xi))
            assert np.array_equal(e.coords(), element_points(e, e.logical_grid()))

    def test_affine_element_inverse_and_det(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        e = mesh.elements[0]
        _, jac, det, inv = jacobian_at([e], np.array([0.1, 0.2]))
        np.testing.assert_allclose(jac[..., 0], [[0.25, 0.0], [0.0, 0.25]])
        np.testing.assert_allclose(det, [0.0625])
        np.testing.assert_allclose(inv[..., 0], [[4.0, 0.0], [0.0, 4.0]])

    def test_3d_inverse(self):
        mesh = build_rectilinear_mesh(
            [(0, 1), (0, 2), (0, 4)], (0, 0, 0), (1, 1, 1)
        )
        e = mesh.elements[0]
        _, jac, det, inv = jacobian_at([e], np.zeros(3))
        np.testing.assert_allclose(det, [0.5 * 1.0 * 2.0])
        np.testing.assert_allclose(
            np.einsum("ij...,jk...->ik...", inv, jac)[..., 0], np.eye(3), atol=1e-14
        )

    def test_annulus_determinant_positive_and_correct(self):
        mesh = build_annulus_mesh(1.0, 2.0, 4, (0, 0), (3, 3))
        e = mesh.elements[0]
        xi = e.logical_grid()
        _, jac, det, inv = jacobian_at([e], xi)
        assert np.all(det > 0)
        # det = r * dr/dxi * dtheta/deta with dr/dxi = 1/2, dtheta/deta = pi/4
        r = np.hypot(*e.coords())
        np.testing.assert_allclose(det[0], r * 0.5 * (np.pi / 4), rtol=1e-12)

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
        bad = dataclasses.replace(el, block_map=Reflected(el.block_map))
        message = f"non-positive Jacobian determinant in element {bad.id_string()}"
        with pytest.raises(DegenerateGeometryError, match=re.escape(message)):
            jacobian_at([bad], bad.logical_grid())
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
            _, _, det, _ = jacobian_at([e], e.logical_grid())
            total += float((w * det[0]).sum())
        np.testing.assert_allclose(total, np.pi * (4.0 - 1.0), rtol=1e-12)


class TestNormals:
    # the outward unnormalized face normal of face (dim, side) is side times
    # row `dim` of the inverse Jacobian at the face points

    def test_unit_square_quarter_element(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        e = mesh.elements[0]  # [0, 0.5]^2
        _, _, _, inv = jacobian_at([e], np.array([1.0, 0.0]))
        np.testing.assert_allclose(+1.0 * inv[0, :, 0], [4.0, 0.0])
        _, _, _, inv = jacobian_at([e], np.array([0.0, -1.0]))
        np.testing.assert_allclose(-1.0 * inv[1, :, 0], [0.0, -4.0])

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

    def test_builders_require_integer_levels_degrees_and_wedges(self):
        # int() used to truncate these without a word: degree 2.7 built
        # degree 2, level True level 1 and 2.5 wedges two
        square = [(0, 1), (0, 1)]
        for levels, degrees, path in (
            ((1, 1), (2.7, 2), "refinement.degrees[0]"),
            ((1.9, 1), (2, 2), "refinement.levels[0]"),
            ((True, 1), (2, 2), "refinement.levels[0]"),
            ((1, 1), (2, "3"), "refinement.degrees[1]"),
        ):
            for build in (lambda: build_rectilinear_mesh(square, levels, degrees),
                          lambda: build_annulus_mesh(1.0, 2.0, 4, levels, degrees)):
                with pytest.raises(ConfigurationError, match="as integers, got") as err:
                    build()
                assert err.value.path == path
        for n_wedges in (2.5, 4.0, True):
            with pytest.raises(ConfigurationError, match="must be an integer >= 2") as err:
                build_annulus_mesh(1.0, 2.0, n_wedges, (0, 0), (2, 2))
            assert err.value.path == "domain.n_wedges"
        # a bounds entry that is not a pair of numbers is named
        for bounds, i in (([0, 1], 0), ([(0, 1), "ab"], 1), ([(0, 1), (0, True)], 1)):
            with pytest.raises(ConfigurationError, match="expected .lower, upper.") as err:
                build_rectilinear_mesh(bounds, (0,) * len(bounds), (1,) * len(bounds))
            assert err.value.path == f"domain.bounds[{i}]"
        # numpy integers are integers
        mesh = build_rectilinear_mesh(np.array(square), np.array([1, 1]), (np.int64(2), 2))
        assert mesh.n_elements == 4 and mesh.elements[0].degrees == (2, 2)
        assert type(mesh.elements[0].degrees[0]) is int
        assert build_annulus_mesh(1.0, 2.0, np.int64(3), (0, 0), (2, 2)).n_elements == 3

    def test_builders_require_finite_extents_and_number_radii(self):
        # an infinite extent used to build a mesh whose handle failed on its
        # lumped mass, and a string radius raised TypeError in a comparison
        for bounds, i in (([(0.0, np.inf)], 0), ([(0, 1), (-np.inf, 1.0)], 1)):
            with pytest.raises(ConfigurationError, match=".lower, upper., finite numbers") as err:
                build_rectilinear_mesh(bounds, (0,) * len(bounds), (2,) * len(bounds))
            assert err.value.path == f"domain.bounds[{i}]"
        for r_inner, r_outer, path in (
            (np.inf, np.inf, "domain.r_inner"), ("1", 2.0, "domain.r_inner"),
            (True, 2.0, "domain.r_inner"), (1.0, np.inf, "domain.r_outer"),
            (1.0, "2", "domain.r_outer"),
        ):
            with pytest.raises(ConfigurationError, match="must be a finite number") as err:
                build_annulus_mesh(r_inner, r_outer, 4, (0, 0), (2, 2))
            assert err.value.path == path
        assert build_annulus_mesh(np.float64(1.0), 2, 4, (0, 0), (2, 2)).n_elements == 4

    def test_element_editors_require_integers(self):
        # split_element(mesh, True) split element 1 and with_degrees truncated
        # degree 3.9 to 3
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        for index in (True, 1.5, 1.0, "1"):
            with pytest.raises(ValueError, match="element index must be an integer, got"):
                split_element(mesh, index)
            with pytest.raises(ValueError, match="element index must be an integer, got"):
                with_degrees(mesh, index, (3, 3))
        for degrees in ((3.9, 2), (True, 2), (3, "2")):
            with pytest.raises(ValueError, match="need integers >= 1"):
                with_degrees(mesh, 0, degrees)
        assert split_element(mesh, np.int64(1)).n_elements == 7
        raised = with_degrees(mesh, np.int64(0), np.array([3, 4]))
        assert raised.elements[0].degrees == (3, 4) and type(raised.elements[0].degrees[0]) is int

    def test_hand_made_mesh_checks_its_elements(self):
        # each used to fail later and elsewhere without naming the element:
        # numpy's "cannot reshape", an IndexError, "no neighbor and no
        # boundary tag", or LGL's "need n >= 2" when a handle was built
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        e = mesh.elements[2]
        for changes, problem in (
            ({"segments": ((1, 0), (1, 1), (0, 0)), "degrees": (2, 2, 2)},
             "has 3 segments and 3 degrees"),
            ({"degrees": (2, 2, 2)}, "has 2 segments and 3 degrees"),
            ({"block": 3}, "has block 3, not one of the mesh's 1"),
            ({"block": True}, "has block True, not one of the mesh's 1"),
            ({"segments": ((1, 5), (1, 1))}, r"has segments \(\(1, 5\), \(1, 1\)\): need"),
            ({"segments": ((-1, 0), (1, 1))}, r"has segments \(\(-1, 0\), \(1, 1\)\): need"),
            ({"segments": ((1, -1), (1, 1))}, r"has segments \(\(1, -1\), \(1, 1\)\): need"),
            ({"segments": ((1, 0.5), (1, 1))}, r"has segments \(\(1, 0.5\), \(1, 1\)\): need"),
            ({"degrees": (0, 2)}, r"has degrees \(0, 2\): need integers from 1 to 64"),
            ({"degrees": (2, 65)}, r"has degrees \(2, 65\): need integers from 1 to 64"),
            ({"degrees": (2.5, 2)}, r"has degrees \(2.5, 2\): need integers"),
            # equal to the other elements' (2, 2), so one set holds both
            ({"degrees": (2.0, 2)}, r"has degrees \(2.0, 2\): need integers"),
        ):
            elements = list(mesh.elements)
            elements[2] = dataclasses.replace(e, **changes)
            with pytest.raises(ValueError, match=rf"^element 2 {problem}.*, in a 2D mesh$"):
                Mesh(2, mesh.blocks, elements)
        # the first element that breaks a rule is named, whichever rule
        elements = list(mesh.elements)
        elements[1] = dataclasses.replace(e, degrees=(0, 2))
        elements[3] = dataclasses.replace(e, block=1)
        with pytest.raises(ValueError, match="^element 1 has degrees"):
            Mesh(2, mesh.blocks, elements)
        # numpy integers are integers
        elements = [dataclasses.replace(e, block=np.int64(0), degrees=(np.int64(3), 2))]
        assert Mesh(2, mesh.blocks, elements).n_elements == 1

    def test_degree_cap(self):
        # degrees: [20000] used to hang making the LGL node set
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 0), (2, MAX_DEGREE))
        assert mesh.elements[0].degrees == (2, MAX_DEGREE)
        with pytest.raises(ResourceCapError, match=r"^p-refinement: degree 65, over 64$"):
            refine_uniform(mesh, "p")
        with pytest.raises(ResourceCapError, match=r"^degrees \(2, 65\): degree 65, over 64$"):
            with_degrees(mesh, 1, (2, MAX_DEGREE + 1))
        assert with_degrees(mesh, 1, (MAX_DEGREE, 1)).elements[1].degrees == (64, 1)
        for build in (lambda d: build_rectilinear_mesh([(0, 1), (0, 1)], (0, 0), d),
                      lambda d: build_annulus_mesh(1.0, 2.0, 4, (0, 0), d)):
            with pytest.raises(ResourceCapError) as err:
                build((2, 20000))
            assert str(err.value) == "refinement.degrees[1]: degree 20000, over 64"

    def test_element_editors_range_check_the_index(self):
        # a negative index used to count from the end: split_element(mesh, -1)
        # kept every element and added the children of the last
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        for index in (-1, -4, 4, 7):
            with pytest.raises(ValueError, match=f"element index {index} out of range for 4"):
                split_element(mesh, index)
            with pytest.raises(ValueError, match=f"element index {index} out of range for 4"):
                with_degrees(mesh, index, (3, 3))
        assert split_element(mesh, 3).n_elements == 7
        assert with_degrees(mesh, 3, (3, 2)).elements[3].degrees == (3, 2)


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
        # every mortar joins two 3-point faces, its mortar grid: a pointwise
        # swap of 4 x 2 x 3 points, with no mortar kind to prolong
        cache = _MeshCache(mesh, FlatBackground())
        assert cache.mortar_groups == []
        assert (cache.partner != np.arange(cache.n_face_points)).sum() == 24

    def test_mortar_counts_take_max_degree(self):
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 0), (2, 2))
        mesh = with_degrees(mesh, 0, (2, 5))
        topo = mortar_topology(mesh)
        (m,) = topo.mortars
        assert [s.element for s in m.sides] == [0, 1]
        # the mortar grid is element 0's 6-point face, which it does not
        # prolong; element 1's 3-point face is prolonged onto it
        (kind,) = _MeshCache(mesh, FlatBackground()).mortar_groups
        assert kind.weights.shape == (1, 6)
        assert kind.prolong[0] is None and kind.prolong[1].shape == (3, 6)

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

    def test_overlapping_parent_is_rejected(self):
        # the right column's parent beside its two elements: the left
        # column's faces at x = 1/2 find their equals only, so the parent's
        # face, which finds them, gets no mortar
        mesh = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2))
        parent = dataclasses.replace(mesh.elements[1], segments=((1, 1), (0, 0)))
        message = r"^face 0/-1 of element B0\[L1I1,L0I0\] is covered 0.0x by mortars$"
        with pytest.raises(TopologyError, match=message):
            mortar_topology(Mesh(mesh.dim, mesh.blocks, mesh.elements + [parent]))

    def test_empty_mesh_rejected(self):
        # it would fail later, in numpy, wherever the elements are stacked
        blocks = build_rectilinear_mesh([(0, 1), (0, 1)], (1, 1), (2, 2)).blocks
        for elements in ([], ()):
            with pytest.raises(ValueError, match="^a mesh needs at least one element$"):
                Mesh(2, blocks, elements)

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


def _at_block_boundary(seg, side):
    """Whether a segment's face on `side` is its block's own face."""
    return seg[1] == 0 if side < 0 else seg[1] == (1 << seg[0]) - 1


def scan_topology(mesh):
    """Mortars and external faces found by testing every face against every
    element, the quadratic scan that the face-plane lookup replaces.

    Returns ((side, side) per mortar, (element, dim, side, tag) per external
    face), each side as (element, dim, side, coverages).
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
                    mortars.append((
                        (k, fd, side, tuple(r[0] for r in rel)),
                        (int(kk), fd, -side, tuple(r[1] for r in rel)),
                    ))
    return mortars, external


def assert_matches_scan(mesh):
    topo = mortar_topology(mesh)
    mortars, external = scan_topology(mesh)

    def side(s):
        return (s.element, s.dim, s.side, s.coverage)

    assert [(side(m.sides[0]), side(m.sides[1])) for m in topo.mortars] == mortars
    assert [(f.element, f.dim, f.side, f.tag) for f in topo.external_faces] == external
    assert_mortar_grids(mesh)


def degree_counts(mesh, mortar):
    """The mortar grid as `Mortar.counts` held it before the topology lost
    its degrees: per transverse dimension the larger degree of the two
    sides, plus one."""
    a, b = (mesh.elements[s.element] for s in mortar.sides)
    return tuple(max(a.degrees[t], b.degrees[t]) + 1
                 for t in range(mesh.dim) if t != mortar.sides[0].dim)


def is_identity(mat):
    """Whether a prolongation is the identity, as the mesh cache once decided
    it from the matrix."""
    return mat.shape[0] == mat.shape[1] and np.array_equal(mat, np.eye(mat.shape[0]))


def assert_mortar_grids(mesh):
    """The mesh cache keys a mortar kind by face grids and coverages. Its
    mortar grid, their per-dimension maximum, and its identity sides, a face
    that is the mortar grid and fully covered, are what the degrees and the
    prolongation matrices gave: a kind with a non-identity side has P = None
    exactly on the identity sides and prod(counts) mortar points, and a
    mortar whose sides are both the identity is a pointwise swap."""
    cache = _MeshCache(mesh, FlatBackground())
    kinds = {(a[0], b[0]): mg for mg in cache.mortar_groups for a, b in zip(*mg.index)}
    for m in mesh.topology.mortars:
        counts = degree_counts(mesh, m)
        grids = [face_shape(mesh.elements[s.element].grid_shape, s.dim) for s in m.sides]
        assert tuple(map(max, *grids)) == counts
        identity = [is_identity(prolongation_matrix(g, counts, s.coverage))
                    for g, s in zip(grids, m.sides)]
        starts = tuple(cache.face_spans[(s.element, s.dim, s.side)].start for s in m.sides)
        if all(identity):
            assert starts not in kinds and cache.partner[starts[0]] == starts[1]
            continue
        mg = kinds.pop(starts)
        assert [p is None for p in mg.prolong] == identity
        assert mg.weights.shape[1] == math.prod(counts)
    assert not kinds


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
    assert_matches_scan(make())


def split_at_random(draw, mesh, max_splits=4, max_degree=4):
    """`mesh` after a few random splits and degree changes; a split whose
    mortars from the all-pairs scan do not tile every face once breaks
    two-to-one balance, so `mortar_topology` must refuse it, and it is
    skipped."""
    for _ in range(draw(st.integers(0, max_splits))):
        split = split_element(mesh, draw(st.integers(0, mesh.n_elements - 1)))
        if scan_tiles(split):
            mesh = split
        else:
            with pytest.raises(TopologyError):
                mortar_topology(split)
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, mesh.n_elements - 1))
        degrees = tuple(draw(st.integers(1, max_degree)) for _ in range(mesh.dim))
        mesh = with_degrees(mesh, k, degrees)
    return mesh


def scan_tiles(mesh):
    """Whether the all-pairs scan's mortars cover every internal face once."""
    mortars, _ = scan_topology(mesh)
    covered = {}
    for m in mortars:
        for element, fd, side, coverage in m[:2]:
            key = element, fd, side
            covered[key] = covered.get(key, 0.0) + 0.5 ** sum(c != "full" for c in coverage)
    return all(total == 1.0 for total in covered.values())


@st.composite
def random_meshes(draw, kind):
    """A randomly split 1D, 2D or 3D box, or annulus of 2 to 5 wedges."""
    if kind == "annulus":
        levels = tuple(draw(st.integers(0, 1)) for _ in range(2))
        mesh = build_annulus_mesh(1.0, 2.0, draw(st.integers(2, 5)), levels, (2, 2))
    else:
        dim = int(kind[0])
        levels = tuple(draw(st.integers(1, 2 if dim < 3 else 1)) for _ in range(dim))
        mesh = build_rectilinear_mesh([(0, 1)] * dim, levels, (2,) * dim)
    return split_at_random(draw, mesh)


@pytest.mark.parametrize("kind", ["1d", "2d", "3d", "annulus"])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_topology_matches_all_pairs_scan_on_random_meshes(kind, data):
    assert_matches_scan(data.draw(random_meshes(kind)))


@pytest.mark.parametrize("kind", ["1d", "2d", "3d", "annulus"])
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_topology_reads_no_degrees(kind, data):
    # the same elements at other degrees have the same mortars and external
    # faces: one element raised or lowered, and every degree raised
    mesh = data.draw(random_meshes(kind))
    k = data.draw(st.integers(0, mesh.n_elements - 1))
    degrees = tuple(data.draw(st.integers(1, 5)) for _ in range(mesh.dim))
    topology = mortar_topology(mesh)
    for variant in (with_degrees(mesh, k, degrees), refine_uniform(mesh, "p")):
        assert mortar_topology(variant) == topology
        assert variant.topology == topology
    assert mesh.topology is mesh.topology


def interval_order(elements):
    """The mesh order by integer intervals: block, then each segment's lower
    end as an integer at the finest level of its dimension among `elements`,
    the last dimension first."""
    dim = len(elements[0].segments)
    top = [max(e.segments[d][0] for e in elements) for d in range(dim)]

    def key(e):
        lower = [index << (top[d] - level) for d, (level, index) in enumerate(e.segments)]
        return (e.block, *reversed(lower))

    return sorted(elements, key=key)


@pytest.mark.parametrize("make", [
    lambda: build_rectilinear_mesh([(0, 1)], (3,), (2,)),
    lambda: build_rectilinear_mesh([(0, 1), (0, 2)], (2, 1), (2, 2)),
    lambda: refine_uniform(build_rectilinear_mesh([(0, 1)] * 3, (1, 0, 1), (1, 1, 1)), "h"),
    lambda: split_element(split_element(
        build_rectilinear_mesh([(0, 1), (0, 1)], (2, 1), (2, 2)), 5), 0),
    lambda: split_element(refine_uniform(build_rectilinear_mesh([(0, 1)] * 3, (1, 1, 0),
                                                                (1, 1, 1)), "h"), 9),
    lambda: split_element(build_annulus_mesh(1.0, 2.0, 3, (1, 1), (2, 2)), 7),
    lambda: build_annulus_mesh(1.0, 2.0, 3, (1, 2), (2, 2)),
    lambda: build_rectilinear_mesh([(0, 1)] * 3, (1, 2, 1), (1, 1, 1)),
], ids=["1d", "2d-built", "3d-refined", "2d-split", "3d-refined-split", "annulus-split",
        "annulus-built", "3d-built"])
def test_canonical_order_is_the_interval_order(make):
    mesh = make()
    assert mesh.elements == interval_order(mesh.elements)
    shuffled = list(mesh.elements)
    random.Random(0).shuffle(shuffled)
    assert _canonical_order(shuffled) == mesh.elements


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


def per_element_h(mesh):
    """Reference for `Mesh.characteristic_h`: one `element_points` per element."""
    corners = np.array(list(itertools.product(*[(-1.0, 1.0)] * mesh.dim))).T
    h = 0.0
    for e in mesh.elements:
        phys = element_points(e, corners)
        for d in range(mesh.dim):
            h = max(h, phys[d].max() - phys[d].min())
    return h


@pytest.mark.parametrize("mesh", [
    build_rectilinear_mesh([(0.0, 0.7)], (3,), (2,)),
    split_element(build_rectilinear_mesh([(0.0, 1.0), (-0.3, 2.0)], (1, 2), (2, 3)), 5),
    split_element(build_annulus_mesh(0.3, 1.1, 4, (1, 0), (3, 3)), 2),
    refine_uniform(build_rectilinear_mesh([(1.0, 2.0)] * 3, (0, 1, 0), (2, 2, 2)), "h"),
], ids=["1d", "2d-split", "annulus-split", "3d"])
def test_characteristic_h_equals_per_element_loop(mesh):
    # one evaluation of every element's corners gives bit for bit the loop's h
    h = mesh.characteristic_h()
    assert type(h) is float and h > 0.0
    assert h == per_element_h(mesh)
