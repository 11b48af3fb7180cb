"""Fixed background geometries the elliptic operators are formulated on.

Supports conformally-flat metrics g_ij = exp(2 phi) delta_ij with a
user-supplied conformal factor phi(x); the flat Euclidean metric is the
phi = 0 case of these, not a second implementation. All evaluators are
vectorized over point arrays shaped (d, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlatBackground",
    "ConformallyFlatBackground",
    "FaceGeometry",
    "make_background",
]


def _scaled_identity(factor, d):
    """factor * delta_ij, shaped (d, d, ...) for a factor shaped (...)."""
    g = np.zeros((d, d) + np.shape(factor))
    for i in range(d):
        g[i, i] = factor
    return g


class ConformallyFlatBackground:
    """g_ij = exp(2 phi) delta_ij for a smooth conformal factor phi.

    phi and grad_phi are callables taking points shaped (d, ...) and returning
    arrays shaped (...) and (d, ...) respectively. The Christoffel symbols
    follow the closed form
    Gamma^i_jk = delta^i_j d_k phi + delta^i_k d_j phi - delta_jk d^i phi,
    whose trace is Gamma^j_{ji} = d * d_i phi.
    """

    def __init__(self, phi, grad_phi):
        self.phi = phi
        self.grad_phi = grad_phi

    def metric(self, x):
        x = np.asarray(x)
        return _scaled_identity(np.exp(2.0 * self.phi(x)), x.shape[0])

    def inverse_metric(self, x):
        x = np.asarray(x)
        return _scaled_identity(np.exp(-2.0 * self.phi(x)), x.shape[0])

    def sqrt_det(self, x):
        x = np.asarray(x)
        d = x.shape[0]
        return np.exp(d * self.phi(x))

    def christoffel(self, x):
        x = np.asarray(x)
        d = x.shape[0]
        dphi = np.asarray(self.grad_phi(x))
        gamma = np.zeros((d, d, d) + x.shape[1:])
        for i in range(d):
            for j in range(d):
                gamma[i, i, j] += dphi[j]
                gamma[i, j, i] += dphi[j]
                gamma[j, i, i] -= dphi[j]
        return gamma

    def christoffel_contraction(self, x):
        x = np.asarray(x)
        d = x.shape[0]
        return d * np.asarray(self.grad_phi(x))


class FlatBackground(ConformallyFlatBackground):
    """Euclidean metric: the conformally flat background with phi = 0, whose
    metric is the identity and Christoffel symbols zero exactly (exp(0) = 1)."""

    def __init__(self):
        super().__init__(lambda x: np.zeros(x.shape[1:]), lambda x: np.zeros(x.shape))


def make_background(kind: str, phi=None, grad_phi=None):
    if kind == "flat":
        return FlatBackground()
    if kind == "conformally-flat":
        if phi is None or grad_phi is None:
            raise ValueError("conformally-flat backgrounds need phi and grad_phi")
        return ConformallyFlatBackground(phi, grad_phi)
    raise ValueError(f"unknown background kind {kind!r}")


@dataclass(frozen=True)
class FaceGeometry:
    """Geometric face data sampled at the face collocation points.

    normal:            normalized outward one-form n_i, |n|_g = 1
    normal_magnitude:  |n~| = sqrt(n~_i n~_j g^ij) of the unnormalized normal
    surface_measure:   face area element per unit logical face coordinate,
                       equal to sqrt(g) * J * |n~| so that lifting weights
                       reduce to 1/w at the face
    coords:            physical face points, shape (d, *face_shape)
    """

    normal: np.ndarray
    normal_magnitude: np.ndarray
    surface_measure: np.ndarray
    coords: np.ndarray


def sampled_face_geometry(background, x, det, inv_row, side: int) -> FaceGeometry:
    """Face geometry from the element map sampled at face points.

    `x` (d, ...) are the points, `det` (...) the Jacobian determinant there
    and `inv_row` (d, ...) the row of J^-1 for the face's logical direction.
    The trailing point axes may have any shape, so a stack of faces is one
    call.
    """
    raw = float(side) * inv_row
    ginv = background.inverse_metric(x)
    mag = np.sqrt(np.einsum("i...,ij...,j...->...", raw, ginv, raw))
    measure = background.sqrt_det(x) * det * mag
    return FaceGeometry(
        normal=raw / mag,
        normal_magnitude=np.asarray(mag),
        surface_measure=np.asarray(measure),
        coords=x,
    )
