"""One-dimensional spectral collocation machinery on the reference interval [-1, 1].

Elements collocate on Legendre-Gauss-Lobatto (LGL) grids only: the interval
endpoints are nodes, so face traces are nodal values, and the LGL quadrature
gives the diagonal (lumped) mass matrix. Provides LGL nodes and weights,
barycentric Lagrange interpolation, and nodal differentiation matrices on LGL
grids. Node/weight/differentiation tables are memoized per node count and
returned as read-only arrays, so callers may share them freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NodeSet1D",
    "gauss_lobatto_nodes_weights",
    "barycentric_weights",
    "interpolation_matrix",
    "differentiation_matrix",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITS = 60


@dataclass(frozen=True)
class NodeSet1D:
    """LGL nodes (endpoints included) and quadrature weights on [-1, 1], ascending."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _legendre_pair(n: int, x: float) -> tuple[float, float]:
    """Evaluate (P_n(x), P_{n-1}(x)) by the three-term recurrence."""
    p, pm1 = 1.0, 0.0
    for k in range(1, n + 1):
        p, pm1 = ((2 * k - 1) * x * p - (k - 1) * pm1) / k, p
    return p, pm1


def _legendre_deriv(n: int, x: float) -> float:
    """P_n'(x) for |x| < 1, from the recurrence identity."""
    p, pm1 = _legendre_pair(n, x)
    return n * (x * p - pm1) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_lobatto_nodes_weights(n: int) -> NodeSet1D:
    """LGL nodes (roots of (1-x^2) P'_{n-1}) and weights for n >= 2.

    Interior roots are found by Newton iteration on (1-x^2) P'_{n-1}, whose
    derivative reduces to -n(n-1) P_{n-1} via the Legendre ODE. Nodes are
    computed for one half of the interval and mirrored, so the set is exactly
    symmetric about 0. Weights are 2 / (n (n-1) P_{n-1}(x)^2) everywhere,
    including the +-1 endpoints.
    """
    if n < 2:
        raise ValueError(f"gauss-lobatto node sets need n >= 2, got {n}")
    nodes = np.zeros(n)
    nodes[0], nodes[-1] = -1.0, 1.0
    # Interior roots in the strictly-negative half; Chebyshev-Lobatto guesses.
    for i in range(1, (n + 1) // 2):
        x = -np.cos(np.pi * i / (n - 1))
        if abs(x) < 1e-14:
            x = 0.0
        else:
            for _ in range(_NEWTON_MAX_ITS):
                p, _ = _legendre_pair(n - 1, x)
                dp = _legendre_deriv(n - 1, x)
                dx = (1.0 - x * x) * dp / (n * (n - 1) * p)
                x += dx
                if abs(dx) <= _NEWTON_TOL:
                    break
        nodes[i] = x
        nodes[n - 1 - i] = -x
    if n % 2 == 1:
        nodes[n // 2] = 0.0
    weights = np.empty(n)
    for i, x in enumerate(nodes):
        p, _ = _legendre_pair(n - 1, x)
        weights[i] = 2.0 / (n * (n - 1) * p * p)
    weights = 0.5 * (weights + weights[::-1])  # enforce exact symmetry
    return NodeSet1D(_freeze(nodes), _freeze(weights))


def _as_nodes(nodes) -> np.ndarray:
    if isinstance(nodes, NodeSet1D):
        return nodes.nodes
    return np.asarray(nodes, dtype=float)


def barycentric_weights(nodes) -> np.ndarray:
    """Barycentric interpolation weights lambda_p = 1 / prod_{q != p} (x_p - x_q)."""
    x = _as_nodes(nodes)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / diff.prod(axis=1)


def interpolation_matrix(source, targets) -> np.ndarray:
    """Lagrange interpolation matrix from source nodes to target points.

    Rows are target points, columns source nodes; row sums are exactly 1 for
    targets that coincide with a source node and 1 to roundoff elsewhere.
    Uses the numerically stable barycentric form.
    """
    x = _as_nodes(source)
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    lam = barycentric_weights(x)
    out = np.zeros((t.size, x.size))
    d = t[:, None] - x[None, :]
    hit_rows, hit_cols = np.nonzero(d == 0.0)
    regular = np.ones(t.size, dtype=bool)
    regular[hit_rows] = False
    if regular.any():
        terms = lam[None, :] / d[regular]
        out[regular] = terms / terms.sum(axis=1, keepdims=True)
    out[hit_rows, hit_cols] = 1.0
    return out


@lru_cache(maxsize=None)
def _differentiation_matrix_cached(n: int) -> np.ndarray:
    x = gauss_lobatto_nodes_weights(n).nodes
    lam = barycentric_weights(x)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    mat = (lam[None, :] / lam[:, None]) / d
    np.fill_diagonal(mat, 0.0)
    # Negative-sum trick: rows annihilate constants exactly.
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return _freeze(mat)


def differentiation_matrix(nodes: NodeSet1D) -> np.ndarray:
    """Nodal differentiation matrix D_rq = l_q'(x_r) on an LGL node set, memoized per n."""
    return _differentiation_matrix_cached(nodes.n)
