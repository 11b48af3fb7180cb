"""Analytic fields and manufactured problems.

An AnalyticField bundles a closed-form primal field with its gradient and
Hessian; manufactured_problem turns one into an AnalyticSolution of a system
on a background, whose fixed source is the continuum residual of the system,
so the discrete solution must converge to the field. The solution also gives
the boundary data the field satisfies, in the signatures of `ipdg.boundaries`:
field.value(x) for Dirichlet, neumann_data(x, normal) for Neumann, and
robin_data(a, b), a callable of (x, normal), for Robin. A small registry
exposes named solutions to the configuration layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "AnalyticField",
    "AnalyticSolution",
    "manufactured_problem",
    "sin_product",
    "sin_product_vector",
    "gaussian",
    "zero_field",
    "make_solution",
]


@dataclass(frozen=True)
class AnalyticField:
    """Closed-form field with derivatives.

    value(x): (d, *s) -> (ncomp, *s); gradient adds a derivative axis after
    the component axis; hessian adds two.
    """

    n_components: int
    value: Callable
    gradient: Callable
    hessian: Callable


@dataclass(frozen=True)
class AnalyticSolution:
    name: str
    field: AnalyticField
    system: object
    background: object

    def fixed_source(self, x):
        """The continuum residual of the field: x -> (n_primal, *s)."""
        f = self.field
        return self.system.continuum_residual(
            f.value(x), f.gradient(x), f.hessian(x), x, self.background
        )

    def neumann_data(self, x, normal):
        """n_i F^i_u of the field: Neumann data on a boundary."""
        v = self.system.auxiliary_from_gradient(self.field.gradient(x))
        flux = self.system.primal_flux(v, self.system.background_fields(x, self.background))
        return np.einsum("i...,ci...->c...", normal, flux)

    def robin_data(self, a, b):
        """Robin data a u + b n_i F^i_u of the field, a callable of (x, normal)."""
        return lambda x, normal: a * self.field.value(x) + b * self.neumann_data(x, normal)


def manufactured_problem(system, field: AnalyticField, bg) -> AnalyticSolution:
    """Fix the source so `field` solves the system exactly."""
    if field.n_components != system.n_primal:
        raise ConfigurationError(
            "solution.name",
            f"the field has {field.n_components} components, the system needs {system.n_primal}",
        )
    return AnalyticSolution(f"manufactured({system.name})", field, system, bg)


def _separable(dim, factors):
    """Product field from per-dimension (f, f', f'') triples, one component."""

    def value(x):
        out = np.ones(np.asarray(x).shape[1:])
        for i, (f, _, _) in enumerate(factors):
            out = out * f(x[i])
        return out[None]

    def gradient(x):
        x = np.asarray(x)
        vals = [f(x[i]) for i, (f, _, _) in enumerate(factors)]
        out = np.empty((1, dim) + x.shape[1:])
        for i, (_, df, _) in enumerate(factors):
            term = df(x[i])
            for j in range(dim):
                if j != i:
                    term = term * vals[j]
            out[0, i] = term
        return out

    def hessian(x):
        x = np.asarray(x)
        vals = [f(x[i]) for i, (f, _, _) in enumerate(factors)]
        dvals = [df(x[i]) for i, (_, df, _) in enumerate(factors)]
        ddvals = [ddf(x[i]) for i, (_, _, ddf) in enumerate(factors)]
        out = np.empty((1, dim, dim) + x.shape[1:])
        for i in range(dim):
            for j in range(dim):
                if i == j:
                    term = ddvals[i]
                else:
                    term = dvals[i] * dvals[j]
                for k in range(dim):
                    if k != i and k != j:
                        term = term * vals[k]
                out[0, i, j] = term
        return out

    return AnalyticField(1, value, gradient, hessian)


def _stack_fields(fields):
    """Combine single-component fields into one multi-component field."""
    n = len(fields)

    def value(x):
        return np.concatenate([f.value(x) for f in fields])

    def gradient(x):
        return np.concatenate([f.gradient(x) for f in fields])

    def hessian(x):
        return np.concatenate([f.hessian(x) for f in fields])

    return AnalyticField(n, value, gradient, hessian)


def sin_product(dim, amplitude=1.0, wavenumber=1.0) -> AnalyticField:
    """u = A * prod_i sin(k pi x_i); vanishes on the unit-box boundary for
    integer k."""
    kpi = wavenumber * np.pi
    a = float(amplitude)

    def triple(first):
        scale = a if first else 1.0
        return (
            lambda t: scale * np.sin(kpi * t),
            lambda t: scale * kpi * np.cos(kpi * t),
            lambda t: -scale * kpi**2 * np.sin(kpi * t),
        )

    return _separable(dim, [triple(i == 0) for i in range(dim)])


def sin_product_vector(dim, amplitudes=None, wavenumber=1.0) -> AnalyticField:
    """Vector field with sin-product components of differing amplitudes."""
    if amplitudes is None:
        amplitudes = (1.0, 0.7, 0.9)[:dim]
    if len(amplitudes) != dim:
        raise ConfigurationError(
            "solution.params.amplitudes", f"need {dim} amplitudes, got {len(amplitudes)}"
        )
    return _stack_fields(
        [sin_product(dim, amplitude=a, wavenumber=wavenumber) for a in amplitudes]
    )


def gaussian(dim, center, width=1.0, amplitude=1.0) -> AnalyticField:
    """u = A exp(-|x - c|^2 / w^2)."""
    c = np.asarray(center, dtype=float)
    if c.shape != (dim,):
        raise ConfigurationError(
            "solution.params.center", f"expected {dim} entries, one per dimension, got {c.size}"
        )
    w2 = float(width) ** 2
    if w2 == 0.0:
        raise ConfigurationError("solution.params.width", f"must be nonzero, got {width}")

    def shifted(x):
        x = np.asarray(x)
        return x - c.reshape(dim, *([1] * (x.ndim - 1)))

    def value(x):
        dx = shifted(x)
        r2 = np.einsum("i...,i...->...", dx, dx)
        return (amplitude * np.exp(-r2 / w2))[None]

    def gradient(x):
        dx = shifted(x)
        return (-2.0 / w2) * dx[None] * value(x)[:, None]

    def hessian(x):
        dx = shifted(x)
        u = value(x)[0]
        out = np.einsum("i...,j...,...->ij...", dx, dx, (4.0 / w2**2) * u)
        for i in range(dim):
            out[i, i] -= (2.0 / w2) * u
        return out[None]

    return AnalyticField(1, value, gradient, hessian)


def zero_field(dim, n_components=1) -> AnalyticField:
    def value(x):
        return np.zeros((n_components,) + np.asarray(x).shape[1:])

    def gradient(x):
        return np.zeros((n_components, dim) + np.asarray(x).shape[1:])

    def hessian(x):
        return np.zeros((n_components, dim, dim) + np.asarray(x).shape[1:])

    return AnalyticField(n_components, value, gradient, hessian)


def make_solution(name, system, bg, params=None) -> AnalyticSolution:
    """Named manufactured solutions for the configuration layer."""
    params = dict(params or {})
    dim = system.dim
    if name == "sin-product":
        field = sin_product(dim, **params)
    elif name == "sin-product-vector":
        field = sin_product_vector(dim, **params)
    elif name == "gaussian":
        field = gaussian(dim, **params)
    elif name == "zero":
        field = zero_field(dim, system.n_primal)
    else:
        raise ValueError(f"unknown analytic solution {name!r}")
    return manufactured_problem(system, field, bg)
