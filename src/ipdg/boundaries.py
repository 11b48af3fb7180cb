"""Boundary conditions applied through exterior ghost data.

Every condition is either dirichlet-kind (supplies boundary values u_b of
the primal field) or neumann-kind (supplies the boundary normal flux). The
operator keeps one boundary array per kind over the external face points,
n F_v(u_b) at dirichlet-kind points and the flux value at neumann-kind ones,
and forms the ghost exterior data from them (`operators.exterior_ghost_data`):
the exterior is the interior minus twice the boundary value. Robin
conditions fold the interior trace into a neumann-kind flux, degenerating to
dirichlet when their flux coefficient vanishes.

Each condition takes its data as a number or a callable: Dirichlet data are
values of u, value(x); Neumann and Robin data, n-projected fluxes, are
value(x, normal). An `AnalyticSolution` supplies all three: field.value,
neumann_data and robin_data(a, b).

values() receives flattened face arrays: points (d, n), unit normal (d, n)
and primal trace (n_primal, n). The operator calls it once per condition
with the points of all the faces it covers, so n spans several faces and
values must be pointwise. For a batch of vectors the points repeat once per
vector of the batch. Trace-free conditions (`_TraceFree`) promise that their
data ignore the trace: the operator evaluates them once, when a handle is
built, rejects them there with ConfigurationError unless they are finite,
and reuses them in every application. A condition names a bad argument by
its key ("a", "center"); the handle and the configuration prefix it with
the condition's tag, as in boundary_conditions.<tag>.center.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "BoundaryCondition",
    "DirichletBC",
    "NeumannBC",
    "RobinBC",
    "FalloffDirichletBC",
    "BoundaryMap",
]


def _field(value, n_components, x, *args):
    """Evaluate a constant, or a callable of (x, *args), to (n_components, n)."""
    n = np.asarray(x).shape[-1]
    if callable(value):
        out = np.asarray(value(x, *args), dtype=float)
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
    """u = value, a number or a callable value(x)."""

    kind = "dirichlet"

    def __init__(self, value):
        self.value = value

    def values(self, x, normal, u_trace):
        return _field(self.value, np.asarray(u_trace).shape[0], x)


class NeumannBC(_TraceFree):
    """n-projected primal flux = value, a number or a callable value(x, normal)."""

    kind = "neumann"

    def __init__(self, value):
        self.value = value

    def values(self, x, normal, u_trace):
        return _field(self.value, np.asarray(u_trace).shape[0], x, normal)


class RobinBC(BoundaryCondition):
    """a u + b (n-projected primal flux) = g, a number or a callable g(x, normal).

    For b != 0 imposed as the neumann-kind flux (g - a u)/b using the
    interior trace; for b = 0 degrades to dirichlet data g/a.
    """

    def __init__(self, a: float, b: float, g):
        if a == 0.0 and b == 0.0:
            raise ConfigurationError("a", "robin condition needs a nonzero coefficient")
        self.a = float(a)
        self.b = float(b)
        self.g = g
        self.kind = "dirichlet" if b == 0.0 else "neumann"

    def values(self, x, normal, u_trace):
        g = _field(self.g, np.asarray(u_trace).shape[0], x, normal)
        if self.kind == "dirichlet":
            return g / self.a
        return (g - self.a * np.asarray(u_trace)) / self.b

    def linearized_values(self, x, normal, u_trace, du_trace):
        if self.kind == "dirichlet":
            return np.zeros_like(np.asarray(du_trace, dtype=float))
        return -(self.a / self.b) * np.asarray(du_trace)


class FalloffDirichletBC(DirichletBC):
    """Dirichlet data A / |x - center|, the leading far-field fall-off."""

    def __init__(self, amplitude: float = 0.0, center=(0.0, 0.0, 0.0)):
        self.amplitude = float(amplitude)
        self.center = np.asarray(center, dtype=float)
        super().__init__(self._falloff)

    def _falloff(self, x):
        if self.center.shape != (len(x),):
            raise ConfigurationError(
                "center", f"expected {len(x)} entries, one per dimension, got {self.center.size}"
            )
        dx = x - self.center[:, None]
        r = np.sqrt(np.einsum("i...,i...->...", dx, dx))
        # inf or nan where r = 0, which the operator rejects as non-finite data
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.amplitude / r


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
