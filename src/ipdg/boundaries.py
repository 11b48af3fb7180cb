"""Boundary conditions applied through exterior ghost data.

Every condition is either dirichlet-kind (supplies boundary values u_b of
the primal field) or neumann-kind (supplies the boundary normal flux). The
operator keeps one boundary array per kind over the external face points,
n F_v(u_b) at dirichlet-kind points and the flux value at neumann-kind ones,
and forms the ghost exterior data from them (`operators.exterior_ghost_data`):
the exterior is the interior minus twice the boundary value. Robin
conditions fold the interior trace into a neumann-kind flux, degenerating to
dirichlet when their flux coefficient vanishes.

values() receives flattened face arrays: points (d, n), unit normal (d, n)
and primal trace (n_primal, n). The operator calls it once per condition
with the points of all the faces it covers, so n spans several faces and
values must be pointwise. For a batch of vectors the points repeat once per
vector of the batch. Trace-free conditions (`_TraceFree`) promise that their
data ignore the trace: the operator evaluates them once, when a handle is
built, rejects them there with ConfigurationError unless they are finite,
and reuses them in every application.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .solutions import neumann_flux_data, robin_data

__all__ = [
    "BoundaryCondition",
    "DirichletBC",
    "NeumannBC",
    "RobinBC",
    "AnalyticDirichletBC",
    "AnalyticNeumannBC",
    "AnalyticRobinBC",
    "FalloffDirichletBC",
    "BoundaryMap",
]


def _field(value, x, n_components):
    """Evaluate a constant or callable boundary field to (n_components, n)."""
    n = np.asarray(x).shape[-1]
    if callable(value):
        out = np.asarray(value(x), dtype=float)
        if out.ndim == 1:
            out = np.broadcast_to(out, (n_components, n))
        if out.shape != (n_components, n):
            raise ValueError(
                f"boundary field returned shape {out.shape}, "
                f"expected {(n_components, n)}"
            )
        return out
    return np.full((n_components, n), float(value))


class BoundaryCondition:
    """Base condition; `kind` picks which ghost quantity gets overwritten."""

    kind: str  # "dirichlet" or "neumann"

    def values(self, x, normal, u_trace):
        raise NotImplementedError

    def linearized_values(self, x, normal, u_trace, du_trace):
        """Directional derivative of values() along a trace perturbation.

        Default: central finite differences with step 1e-7 (1 + max|u_trace|),
        for conditions whose trace dependence has no closed form.
        """
        step = 1e-7 * (1.0 + float(np.max(np.abs(u_trace))))
        plus = self.values(x, normal, u_trace + step * du_trace)
        minus = self.values(x, normal, u_trace - step * du_trace)
        return (plus - minus) / (2.0 * step)


class _TraceFree(BoundaryCondition):
    """Conditions whose data ignore the interior traces entirely.

    The trace passed to values() gives only the component count, so a
    subclass must not read it: its data are evaluated once per handle.
    """

    def linearized_values(self, x, normal, u_trace, du_trace):
        n = np.asarray(x).shape[-1]
        return np.zeros((np.asarray(du_trace).shape[0], n))


class DirichletBC(_TraceFree):
    kind = "dirichlet"

    def __init__(self, value):
        self.value = value

    def values(self, x, normal, u_trace):
        return _field(self.value, x, np.asarray(u_trace).shape[0])


class NeumannBC(_TraceFree):
    kind = "neumann"

    def __init__(self, value):
        self.value = value

    def values(self, x, normal, u_trace):
        return _field(self.value, x, np.asarray(u_trace).shape[0])


class RobinBC(BoundaryCondition):
    """a u + b (n-projected primal flux) = g.

    For b != 0 imposed as the neumann-kind flux (g - a u)/b using the
    interior trace; for b = 0 degrades to dirichlet data g/a.
    """

    def __init__(self, a: float, b: float, g):
        if a == 0.0 and b == 0.0:
            raise ValueError("robin condition needs a nonzero coefficient")
        self.a = float(a)
        self.b = float(b)
        self.g = g
        self.kind = "dirichlet" if b == 0.0 else "neumann"

    def _g(self, x, normal, n_components):
        return _field(self.g, x, n_components)

    def values(self, x, normal, u_trace):
        ncomp = np.asarray(u_trace).shape[0]
        g = self._g(x, normal, ncomp)
        if self.kind == "dirichlet":
            return g / self.a
        return (g - self.a * np.asarray(u_trace)) / self.b

    def linearized_values(self, x, normal, u_trace, du_trace):
        if self.kind == "dirichlet":
            return np.zeros_like(np.asarray(du_trace, dtype=float))
        return -(self.a / self.b) * np.asarray(du_trace)


class AnalyticDirichletBC(_TraceFree):
    """Dirichlet data sampled from an analytic solution."""

    kind = "dirichlet"

    def __init__(self, solution):
        self.solution = solution

    def values(self, x, normal, u_trace):
        return self.solution.field.value(x)


class AnalyticNeumannBC(_TraceFree):
    """Normal-flux data of an analytic solution."""

    kind = "neumann"

    def __init__(self, solution, system, background):
        self.solution = solution
        self.system = system
        self.background = background

    def values(self, x, normal, u_trace):
        return neumann_flux_data(self.solution, self.system, self.background, x, normal)


class AnalyticRobinBC(RobinBC):
    """Robin data a u + b n.F_u manufactured from an analytic solution."""

    def __init__(self, solution, system, background, a: float, b: float):
        self.solution = solution
        self.system = system
        self.background = background
        super().__init__(a, b, None)

    def _g(self, x, normal, n_components):
        return robin_data(
            self.solution, self.system, self.background, x, normal, self.a, self.b
        )


class FalloffDirichletBC(_TraceFree):
    """Dirichlet data A / |x - center|, the leading far-field fall-off."""

    kind = "dirichlet"

    def __init__(self, amplitude: float = 0.0, center=(0.0, 0.0, 0.0)):
        self.amplitude = float(amplitude)
        self.center = np.asarray(center, dtype=float)

    def values(self, x, normal, u_trace):
        x = np.asarray(x)
        dx = x - self.center.reshape(-1, *([1] * (x.ndim - 1)))
        r = np.sqrt(np.einsum("i...,i...->...", dx, dx))
        ncomp = np.asarray(u_trace).shape[0]
        # inf or nan where r = 0, which the operator rejects as non-finite data
        with np.errstate(divide="ignore", invalid="ignore"):
            data = self.amplitude / r
        return np.broadcast_to(data, (ncomp,) + r.shape).copy()


class BoundaryMap:
    """Boundary tag -> condition table with an optional "all" wildcard."""

    def __init__(self, table: dict):
        if not table:
            raise ConfigurationError("boundary_conditions", "no conditions given")
        self.table = dict(table)

    @classmethod
    def everywhere(cls, bc: BoundaryCondition) -> "BoundaryMap":
        return cls({"all": bc})

    def for_tag(self, tag: str) -> BoundaryCondition:
        if tag in self.table:
            return self.table[tag]
        if "all" in self.table:
            return self.table["all"]
        raise ConfigurationError(
            f"boundary_conditions.{tag}", f"no condition for boundary tag {tag!r}"
        )

    def validate_tags(self, tags) -> None:
        """Check coverage of the mesh's external tags and reject strays."""
        tags = set(tags)
        for tag in tags:
            self.for_tag(tag)
        for tag in self.table:
            if tag != "all" and tag not in tags:
                raise ConfigurationError(
                    f"boundary_conditions.{tag}",
                    f"tag {tag!r} does not exist on this mesh",
                )
