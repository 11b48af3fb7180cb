"""Face <-> mortar transfer: interpolation, least squares, reassembly.

The least-squares fit is `face_restriction_family`; with one mortar it is
the restriction R of that mortar alone, `fit` below.
"""

import numpy as np
import pytest

from ipdg.basis import gauss_lobatto_nodes_weights
from ipdg.mortars import (
    coverage_targets,
    face_restriction_family,
    mortar_logical_weights,
    prolongation_matrix,
)


def lgl(n):
    return gauss_lobatto_nodes_weights(n).nodes


def fit(face_counts, mortar_counts, coverages, measure=None):
    """The least-squares restriction of a face's only mortar."""
    (r,) = face_restriction_family(face_counts, [(mortar_counts, coverages, measure)])
    return r


def test_coverage_targets_map_half_intervals():
    nodes = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(coverage_targets(nodes, "full"), nodes)
    np.testing.assert_allclose(coverage_targets(nodes, "lower"), [-1.0, -0.5, 0.0])
    np.testing.assert_allclose(coverage_targets(nodes, "upper"), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        coverage_targets(nodes, "middle")


def test_prolongation_exact_on_polynomials():
    # face polynomial of full degree must be reproduced at mapped points
    for cov in ("full", "lower", "upper"):
        for nf in (3, 5):
            for nm in (nf, nf + 2):
                p = prolongation_matrix((nf,), (nm,), (cov,))
                xf = lgl(nf)
                u = xf**(nf - 1) - 2.0 * xf
                xt = coverage_targets(lgl(nm), cov)
                np.testing.assert_allclose(
                    p @ u, xt**(nf - 1) - 2.0 * xt, atol=1e-13
                )


def test_prolongation_kron_ordering_matches_f_order():
    # separable polynomial on a 3D face (two transverse dims, differing counts)
    nf = (3, 4)
    nm = (4, 5)
    cov = ("lower", "full")
    p = prolongation_matrix(nf, nm, cov)
    x1, x2 = np.meshgrid(lgl(nf[0]), lgl(nf[1]), indexing="ij")
    u = (x1**2 * (1.0 + x2**3)).flatten(order="F")
    t1 = coverage_targets(lgl(nm[0]), cov[0])
    t2 = coverage_targets(lgl(nm[1]), cov[1])
    y1, y2 = np.meshgrid(t1, t2, indexing="ij")
    expected = (y1**2 * (1.0 + y2**3)).flatten(order="F")
    np.testing.assert_allclose(p @ u, expected, atol=1e-13)


def test_point_face_for_1d_meshes():
    assert prolongation_matrix((), (), ()).shape == (1, 1)
    np.testing.assert_allclose(fit((), (), ()), [[1.0]])


def test_logical_weights_integrate_split_intervals():
    # weights of a half mortar integrate face-logical length 1
    w = mortar_logical_weights((5,), ("lower",))
    assert w.sum() == pytest.approx(1.0)
    w2 = mortar_logical_weights((4, 4), ("upper", "full"))
    assert w2.sum() == pytest.approx(2.0)
    assert w2.shape == (16,)


def product(a, b):
    # evaluate verification products in 80-bit arithmetic: the half-coverage
    # inverse at degree 8 has entries ~1e5, so a float64 product would add
    # ~6e-12 of its own rounding and mask the matrices' actual quality
    return np.asarray(a, dtype=np.longdouble) @ np.asarray(b, dtype=np.longdouble)


def test_restriction_inverts_prolongation_all_degrees_and_coverages():
    for cov in ("full", "lower", "upper"):
        for deg_face in range(2, 9):
            for deg_mortar in range(deg_face, 9):
                nf, nm = deg_face + 1, deg_mortar + 1
                r = fit((nf,), (nm,), (cov,))
                p = prolongation_matrix((nf,), (nm,), (cov,))
                err = np.abs(product(r, p) - np.eye(nf)).max()
                assert err <= 1e-12, f"cov={cov} P={deg_face} mortar={deg_mortar}: {err}"


def test_restriction_inverts_prolongation_two_transverse_dims():
    nf = (4, 3)
    nm = (5, 4)
    cov = ("upper", "lower")
    r = fit(nf, nm, cov)
    p = prolongation_matrix(nf, nm, cov)
    np.testing.assert_allclose(product(r, p), np.eye(12), atol=1e-12)


def test_restriction_is_weighted_least_squares():
    # normal equations: P^T M (P R u - u) = 0 for arbitrary mortar data
    nf, nm, cov = (4,), (6,), ("lower",)
    r = fit(nf, nm, cov)
    p = prolongation_matrix(nf, nm, cov)
    m = mortar_logical_weights(nm, cov)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(6)
    residual = p @ (r @ u) - u
    np.testing.assert_allclose(p.T @ (m * residual), 0.0, atol=1e-13)


def test_restriction_with_measure_changes_fit():
    nf, nm, cov = (3,), (6,), ("full",)
    measure = 1.0 + 0.5 * lgl(6) ** 2
    r = fit(nf, nm, cov, measure=measure)
    p = prolongation_matrix(nf, nm, cov)
    np.testing.assert_allclose(r @ p, np.eye(3), atol=1e-12)
    m = mortar_logical_weights(nm, cov) * measure
    rng = np.random.default_rng(3)
    u = rng.standard_normal(6)
    residual = p @ (r @ u) - u
    np.testing.assert_allclose(p.T @ (m * residual), 0.0, atol=1e-13)
    assert not np.allclose(r, fit(nf, nm, cov))


def test_mortar_must_resolve_face():
    with pytest.raises(ValueError):
        fit((5,), (4,), ("full",))


def test_family_reassembles_identity_split_face():
    # one face, two half mortars: sum_m R_m P_m = I
    nf = (5,)
    mortars = [((6,), ("lower",), None), ((5,), ("upper",), None)]
    rs = face_restriction_family(nf, mortars)
    total = sum(
        r @ prolongation_matrix(nf, counts, cov)
        for r, (counts, cov, _) in zip(rs, mortars)
    )
    np.testing.assert_allclose(total, np.eye(5), atol=1e-12)


def test_family_reassembles_identity_quarter_mortars_3d():
    nf = (3, 4)
    mortars = [
        ((4, 4), (cx, cy), None)
        for cx in ("lower", "upper")
        for cy in ("lower", "upper")
    ]
    rs = face_restriction_family(nf, mortars)
    total = sum(
        r @ prolongation_matrix(nf, counts, cov)
        for r, (counts, cov, _) in zip(rs, mortars)
    )
    np.testing.assert_allclose(total, np.eye(12), atol=1e-12)


def test_family_single_full_mortar_matches_plain_restriction():
    # the extended-precision fit against the float64 normal equations
    # (P^T M P) R = P^T M, well conditioned at this size
    nf, nm = (4,), (6,)
    (r,) = face_restriction_family(nf, [(nm, ("full",), None)])
    p = prolongation_matrix(nf, nm, ("full",))
    pm = p.T * mortar_logical_weights(nm, ("full",))
    np.testing.assert_allclose(r, np.linalg.solve(pm @ p, pm), atol=1e-13)


def test_family_conserves_integrals_flat_measure():
    # face-quadrature integral of the reassembled data equals the summed
    # mortar-side integrals (exact because the split quadrature resolves
    # the face space)
    nf = (4,)
    mortars = [((6,), ("lower",), None), ((6,), ("upper",), None)]
    rs = face_restriction_family(nf, mortars)
    rng = np.random.default_rng(4)
    us = [rng.standard_normal(6) for _ in mortars]
    combined = sum(r @ u for r, u in zip(rs, us))
    wf = gauss_lobatto_nodes_weights(4).weights
    face_integral = wf @ combined
    mortar_integral = sum(
        mortar_logical_weights(counts, cov) @ u
        for (counts, cov, _), u in zip(mortars, us)
    )
    assert face_integral == pytest.approx(mortar_integral, rel=1e-12)


def test_single_mortar_fit_round_trip():
    x = lgl(4)
    data = x**3 - x
    on_mortar = prolongation_matrix((4,), (6,), ("upper",)) @ data
    t = coverage_targets(lgl(6), "upper")
    np.testing.assert_allclose(on_mortar, t**3 - t, atol=1e-13)
    back = fit((4,), (6,), ("upper",)) @ on_mortar
    np.testing.assert_allclose(back, data, atol=1e-12)


def test_single_mortar_fit_constants_and_guards():
    out = prolongation_matrix((4,), (5,), ("lower",)) @ np.ones(4)
    np.testing.assert_allclose(out, 1.0, atol=1e-14)
    back = fit((4,), (5,), ("lower",)) @ np.ones(5)
    np.testing.assert_allclose(back, 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="measure length"):
        fit((4,), (5,), ("lower",), measure=np.ones(7))


def test_flat_paths_are_memoized():
    a = prolongation_matrix((4,), (5,), ("lower",))
    b = prolongation_matrix((4,), (5,), ("lower",))
    assert a is b
    assert not a.flags.writeable
    c = mortar_logical_weights((5,), ("lower",))
    assert c is mortar_logical_weights((5,), ("lower",))
    assert not c.flags.writeable
