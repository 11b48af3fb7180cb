"""Transfer operators between element faces and mortars.

A mortar carries its own tensor-product LGL grid over the face's transverse
dimensions. Data moves face -> mortar by polynomial interpolation
(prolongation P). The DG operator moves it back by the adjoint
W_f^-1 P^T W_m, which keeps its symmetric form symmetric but does not invert
P. `face_restriction_family` keeps the mass-weighted least-squares fit
instead: built against the combined normal matrix of all mortars sharing a
face, restricting after prolonging reassembles the identity on the face.

Coverage per transverse dimension is "full", "lower" or "upper"; half
coverages map the mortar interval [-1, 1] onto the matching half of the face
interval.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .basis import gauss_lobatto_nodes_weights, interpolation_matrix

__all__ = [
    "coverage_targets",
    "prolongation_matrix",
    "mortar_logical_weights",
    "face_restriction_family",
]

_HALF = {"lower": -1.0, "upper": 1.0}


def coverage_targets(mortar_nodes: np.ndarray, coverage: str) -> np.ndarray:
    """Map mortar nodes into face logical coordinates."""
    if coverage == "full":
        return np.asarray(mortar_nodes)
    try:
        shift = _HALF[coverage]
    except KeyError:
        raise ValueError(f"unknown coverage {coverage!r}") from None
    return 0.5 * (np.asarray(mortar_nodes) + shift)


def _prolongation_1d(n_face: int, n_mortar: int, coverage: str) -> np.ndarray:
    face = gauss_lobatto_nodes_weights(n_face)
    mortar_nodes = gauss_lobatto_nodes_weights(n_mortar).nodes
    return interpolation_matrix(face, coverage_targets(mortar_nodes, coverage))


@lru_cache(maxsize=None)
def prolongation_matrix(
    face_counts: tuple[int, ...],
    mortar_counts: tuple[int, ...],
    coverages: tuple[str, ...],
) -> np.ndarray:
    """Interpolation from a face grid to a mortar grid, flattened F-order.

    All arguments are per transverse dimension in ascending dimension order;
    the first dimension varies fastest in the flattened index.
    """
    if not len(face_counts) == len(mortar_counts) == len(coverages):
        raise ValueError("per-dimension argument lengths disagree")
    mats = [
        _prolongation_1d(nf, nm, cov)
        for nf, nm, cov in zip(face_counts, mortar_counts, coverages)
    ]
    if not mats:
        return np.ones((1, 1))
    out = reduce(np.kron, reversed(mats))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def mortar_logical_weights(
    mortar_counts: tuple[int, ...], coverages: tuple[str, ...]
) -> np.ndarray:
    """Quadrature weights of the mortar grid in face logical measure.

    Half coverages pick up the 1/2 interval scaling per dimension.
    """
    ws = []
    for nm, cov in zip(mortar_counts, coverages):
        w = gauss_lobatto_nodes_weights(nm).weights
        ws.append(w if cov == "full" else 0.5 * w)
    if not ws:
        return np.ones(1)
    out = reduce(np.kron, reversed(ws))
    out.flags.writeable = False
    return out


def _mortar_mass(mortar_counts, coverages, measure):
    m = mortar_logical_weights(tuple(mortar_counts), tuple(coverages))
    if measure is not None:
        measure = np.asarray(measure, dtype=float).reshape(-1)
        if measure.shape != m.shape:
            raise ValueError("measure length does not match the mortar grid")
        m = m * measure
    return m


def _qr_mgs(a):
    """Thin QR by modified Gram-Schmidt with reorthogonalization.

    Hand-rolled because the fit must run in extended precision: recovering a
    high-degree polynomial from samples on half an interval is ill enough
    conditioned (kappa up to ~1e6 at degree 8) that float64 factorizations
    leave R P - I around 1e-10. The matrices involved are tiny.
    """
    a = np.ascontiguousarray(a, dtype=np.longdouble)
    m, n = a.shape
    q = a.copy()
    tri = np.zeros((n, n), dtype=np.longdouble)
    for j in range(n):
        for _ in range(2):
            for i in range(j):
                s = q[:, i] @ q[:, j]
                tri[i, j] += s
                q[:, j] -= s * q[:, i]
        norm = np.sqrt(q[:, j] @ q[:, j])
        tri[j, j] = norm
        q[:, j] /= norm
    return q, tri


def _solve_upper(tri, rhs):
    n = tri.shape[0]
    x = np.zeros_like(rhs)
    for i in range(n - 1, -1, -1):
        x[i] = (rhs[i] - tri[i, i + 1:] @ x[i + 1:]) / tri[i, i]
    return x


def _solve_normal(prolongations, masses):
    """Restrictions sharing the summed normal matrix of several mortars."""
    n_face = prolongations[0].shape[1]
    for p in prolongations:
        if p.shape[0] < n_face:
            raise ValueError("mortar grid does not resolve the face grid")
    roots = [np.sqrt(np.asarray(m, dtype=np.longdouble)) for m in masses]
    stacked = np.vstack([
        np.asarray(p, dtype=np.longdouble) * w[:, None]
        for p, w in zip(prolongations, roots)
    ])
    q, tri = _qr_mgs(stacked)
    out = []
    row = 0
    for p, w in zip(prolongations, roots):
        block = q[row:row + p.shape[0]]
        row += p.shape[0]
        # kept in extended precision: entries reach ~1e5 for half-coverage
        # fits at degree 8, and rounding them to float64 alone would push
        # R P - I to several times 1e-12
        out.append(_solve_upper(tri, block.T * w))
    return out


def face_restriction_family(face_counts, mortars):
    """Mass-weighted least-squares restrictions for every mortar sharing one face.

    `mortars` is a sequence of (mortar_counts, coverages, measure-or-None)
    triples. An optional flat `measure` scales that mortar's mass pointwise
    (physical surface measure); without it the fit is in face logical
    measure. The returned matrices R_m satisfy sum_m R_m P_m = I, so jumps
    restricted from a fully tiled face reassemble exactly; with one mortar
    this is R P = I. Raises ValueError when a mortar has fewer points than
    the face.
    """
    face_counts = tuple(int(n) for n in face_counts)
    prolongations = []
    masses = []
    for counts, coverages, measure in mortars:
        counts = tuple(int(n) for n in counts)
        coverages = tuple(coverages)
        prolongations.append(prolongation_matrix(face_counts, counts, coverages))
        masses.append(_mortar_mass(counts, coverages, measure))
    return _solve_normal(prolongations, masses)
