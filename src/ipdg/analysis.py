"""Error norms, convergence rates, and operator diagnostics.

The error integral uses the same collocation-point quadrature as the
operator itself, normalized by the measured domain volume. Rates come in two
flavors: order per mesh halving and decimal digits per degree increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .operators import _element_groups, _point_order
from .solver import ExplicitMatrix

__all__ = [
    "ConvergenceLevel",
    "ConvergenceSeries",
    "l2_error",
    "convergence_rates",
    "symmetry_defect",
    "write_convergence_csv",
]

CSV_HEADER = "mode,level,n_points,h_or_P,error,rate"


@dataclass(frozen=True)
class ConvergenceLevel:
    level: int
    n_points: int
    resolution: float  # representative h (h-mode) or degree P (p-mode)
    error: float


@dataclass
class ConvergenceSeries:
    mode: str  # "h" or "p"
    levels: list = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("h", "p"):
            raise ValueError(f"convergence mode must be h or p, got {self.mode!r}")

    def add(self, level, n_points, resolution, error):
        """Append a level; it must have more points than the last one and, in
        p-mode, a higher degree (the rate divides by the degree's step)."""
        if self.levels and n_points <= self.levels[-1].n_points:
            raise ValueError("levels must strictly increase in resolution")
        if self.mode == "p" and self.levels and resolution <= self.levels[-1].resolution:
            raise ValueError(
                f"p-mode levels must raise the degree: {resolution} after "
                f"{self.levels[-1].resolution}"
            )
        self.levels.append(
            ConvergenceLevel(level, int(n_points), float(resolution), float(error))
        )


def _pairwise_sum(values):
    """Deterministic pairwise reduction, independent of element count quirks."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        vals = [
            vals[i] + vals[i + 1] if i + 1 < len(vals) else vals[i]
            for i in range(0, len(vals), 2)
        ]
    return vals[0]


def _natural(arr, dim):
    """A point-ordered element array as a new C-ordered array in natural grid order."""
    return np.ascontiguousarray(_point_order(arr, dim))


def l2_error(mesh, u, analytic_value, background, *, handle=None) -> float:
    """Volume-normalized L2 error pooled over all primal components.

    analytic_value maps coords (d, ...) to field values of exactly the shape
    (n_components, ...), once per element group. `u` must be one vector on
    `mesh` (the same object) with one component per primal variable: of the
    handle's system when given, and of the analytic value. `handle`, an
    OperatorHandle on this mesh and background, lends its element groups,
    so their geometry is not evaluated again; without one, the groups are
    built here. The error is the same to the last bit either way. Each
    element's sums run in its natural grid order.
    """
    if handle is None:
        groups = _element_groups(mesh, background)
    elif handle.mesh is not mesh or handle.background is not background:
        raise ValueError("handle was built for another mesh or background")
    else:
        groups = handle._cache.groups
    n = u.n_components if handle is None else handle.system.n_primal
    if u.mesh is not mesh or u.n_components != n or u.data.ndim != 1:
        raise ValueError(
            f"u must be a primal vector: {n} component(s) on the mesh of "
            f"{mesh.n_elements} elements, not {u.n_components} on "
            f"{'that' if u.mesh is mesh else 'another'} mesh"
            + ("" if u.data.ndim == 1 else ", and not a batch")
        )
    rows = u.data.reshape(n, mesh.total_points)
    num_parts, den_parts = [0.0] * mesh.n_elements, [0.0] * mesh.n_elements
    for g in groups:
        exact = np.asarray(analytic_value(g.coords), dtype=float)
        if exact.shape != (n,) + g.shape:
            raise ValueError(
                f"analytic value has shape {exact.shape}, expected {n} component(s) first "
                f"and the stacked element grids {(n,) + g.shape}"
            )
        diff = g.take(rows) - exact
        for e, k in enumerate(g.members):
            w = _natural(g.mass[e], g.dim)
            num_parts[k] = float(np.sum(w * _natural(diff[:, e], g.dim) ** 2))
            den_parts[k] = float(np.sum(w))
    return math.sqrt(_pairwise_sum(num_parts) / _pairwise_sum(den_parts))


def convergence_rates(series: ConvergenceSeries):
    """Rates per adjacent level pair; positive when the error decreases.

    h-mode: error order per halving, log2(err_prev / err_next).
    p-mode: decimal digits gained per unit degree increment.
    """
    if len(series.levels) < 2:
        raise ValueError("need at least two levels to measure a rate")
    rates = []
    for prev, nxt in zip(series.levels, series.levels[1:]):
        if nxt.error == 0.0:
            rates.append(math.inf)
            continue
        if prev.error == 0.0:
            rates.append(-math.inf)
            continue
        if series.mode == "h":
            rates.append(math.log2(prev.error / nxt.error))
        else:
            dp = nxt.resolution - prev.resolution
            rates.append(math.log10(prev.error / nxt.error) / dp)
    return rates


def symmetry_defect(matrix) -> float:
    """max |A_ij - A_ji| / max |A_ij| for a square matrix, dense or a scipy
    sparse one; a sparse matrix is not densified, and gives the same float.
    An ExplicitMatrix is read through its sparse `matrix`."""
    if isinstance(matrix, ExplicitMatrix):
        matrix = matrix.matrix
    if scipy.sparse.issparse(matrix):
        a = matrix.tocsr().astype(float)
    else:
        a = np.asarray(matrix.toarray() if hasattr(matrix, "toarray") else matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("symmetry defect needs a square matrix")
    scale = abs(a).max()
    if scale == 0.0:
        return 0.0
    return float(abs(a - a.T).max() / scale)


def write_convergence_csv(series: ConvergenceSeries, path) -> None:
    """CSV with one row per level; first row has an empty rate column."""
    rates = [""] + [
        f"{r:.17e}" for r in convergence_rates(series)
    ] if len(series.levels) > 1 else [""]
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for lv, rate in zip(series.levels, rates):
            f.write(
                f"{series.mode},{lv.level},{lv.n_points},"
                f"{lv.resolution:.17e},{lv.error:.17e},{rate}\n"
            )
