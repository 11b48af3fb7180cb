"""Elliptic systems in first-order flux form.

Every system writes the PDE as -d_i F^i_A + S_A = f_A over a set of primal
variables u and auxiliary variables v (one auxiliary slot per primal
gradient). Fluxes are linear in (u, v); nonlinearity may enter through the
sources only. Evaluators are vectorized: fields have shape (n_components,
*grid), points (d, *grid), fluxes (n_components, d, *grid).

A system defines its auxiliary variables once, v = G(grad u) with G linear
(`auxiliary_from_gradient`); the flux F^i_v(u) = G(u (x) e_i) derives from it.

The flux and source read fixed data only as background fields, such as
poisson-curved's inverse metric or the puncture's Bowen-York alpha and beta:
`background_fields(x, bg)` computes them without keeping them, the evaluators
get those of their points, and the operator evaluates them once per group.

Available systems: "poisson-flat", "poisson-curved", "elasticity",
"puncture" (3D black-hole puncture initial data). The puncture system is flat
Poisson plus its nonlinear source: it inherits `PoissonFlat`'s fluxes,
symmetry flag and Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SingularPointError

__all__ = [
    "EllipticSystem",
    "PoissonFlat",
    "PoissonCurved",
    "Elasticity",
    "Puncture",
    "PunctureSpec",
    "make_system",
    "sym_index_pairs",
]

_AXES = ("x", "y", "z")


def sym_index_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle index pairs of a symmetric rank-2 tensor, row-major."""
    return tuple((j, k) for j in range(dim) for k in range(j, dim))


class EllipticSystem:
    """Base class; subclasses fill in components and evaluators.

    The auxiliary equations read -d_i F^i_v + v = 0: S_v = v is the whole
    auxiliary source, so only the primal source is left to the subclass.
    `auxiliary_from_gradient` (G) is the one auxiliary hook: the operator
    refuses a subclass that overrides `auxiliary_flux`, which derives from it.
    """

    name: str
    dim: int
    primal_components: tuple[str, ...]
    auxiliary_components: tuple[str, ...]
    linear: bool = True
    # whether the strong-weak operator of this system is symmetric, making it
    # eligible for conjugate-gradient solves
    symmetric_eligible: bool = False

    @property
    def n_primal(self) -> int:
        return len(self.primal_components)

    @property
    def n_auxiliary(self) -> int:
        return len(self.auxiliary_components)

    def primal_flux(self, v, fields):
        """F_u(v), given the `background_fields` of v's points."""
        raise NotImplementedError

    def background_fields(self, x, bg):
        """The fixed fields the primal flux and source read at points x
        (d, ...) on background bg, a tuple; none by default.

        Pointwise: the fields of a subset of the points are that subset of
        the fields, each ending in x's point axes. An operator evaluates
        them once per element group, on the first application of any handle
        that shares its set-up, takes the face values from those, and hands
        every evaluator the fields of its points.
        """
        return ()

    def primal_source(self, u, v, fields):
        """S_u, given the `background_fields` of the points: pointwise, and in
        a linear system linear in (u, v) (the operator probes it on unit fields)."""
        return np.zeros((self.n_primal,) + np.asarray(u).shape[1:])

    def linearized_primal_source(self, u0, fields):
        """The primal source linearized at u0: the map (du, dv) -> S'(u0)[du, dv].

        A linearized operator calls this once per element group, on its first
        application, and then applies the map it returns to every
        perturbation. So the work that depends on u0 and x only belongs
        here, and the map does only what depends on (du, dv). The
        linearization point is a primal state only, so a nonlinear source
        must be a function of u plus a term linear in v. Linear systems
        return their source itself, evaluated on the perturbation; nonlinear
        systems must override this.
        """
        if not self.linear:
            raise NotImplementedError(
                f"{type(self).__name__} is nonlinear and must override linearized_primal_source"
            )
        return lambda du, dv: self.primal_source(du, dv, fields)

    def auxiliary_from_gradient(self, grad):
        """v = G(grad u) of a primal gradient (n_primal, d, ...) -> (n_auxiliary,
        ...): linear, and pointwise over the trailing axes."""
        raise NotImplementedError

    def auxiliary_flux(self, u):
        """F^i_v(u) = G(u (x) e_i), (n_auxiliary, d, ...), so div F_v = G(grad u);
        the operator calls G itself, never this."""
        u = np.asarray(u)
        outer = np.zeros(u.shape[:1] + (self.dim, self.dim) + u.shape[1:])
        for i in range(self.dim):
            outer[:, i, i] = u
        return self.auxiliary_from_gradient(outer)

    def continuum_residual(self, u, grad, hess, x, bg):
        """-d_i F^i_u + S_u for a smooth field given its derivatives.

        Used to manufacture fixed sources from analytic solutions.
        """
        raise NotImplementedError


class _PoissonLike(EllipticSystem):
    """Shared flux structure: v = grad u, F^i_u built from v."""

    def __init__(self, dim: int):
        if dim not in (1, 2, 3):
            raise ValueError(f"supported dimensions are 1..3, got {dim}")
        self.dim = dim
        self.primal_components = ("u",)
        self.auxiliary_components = tuple(f"v_{_AXES[i]}" for i in range(dim))

    def auxiliary_from_gradient(self, grad):
        return np.asarray(grad)[0]


class PoissonFlat(_PoissonLike):
    """Flat-space Poisson equation -d_i d^i u = f."""

    name = "poisson-flat"
    symmetric_eligible = True

    def primal_flux(self, v, fields):
        return np.asarray(v)[None]

    def continuum_residual(self, u, grad, hess, x, bg):
        return -np.einsum("cii...->c...", np.asarray(hess))


class PoissonCurved(_PoissonLike):
    """Poisson equation on a curved background, -g^ij grad_i grad_j u = f.

    Flux F^i_u = g^ij v_j; the Christoffel contraction enters as a source
    S_u = -Gamma^i_{ij} g^jk v_k, which breaks operator symmetry.
    """

    name = "poisson-curved"
    symmetric_eligible = False

    def background_fields(self, x, bg):
        """(g^ij, Gamma^j_{ji}) at points x, shape (d, ...)."""
        return bg.inverse_metric(x), bg.christoffel_contraction(x)

    def primal_flux(self, v, fields):
        ginv, _ = fields
        return np.einsum("ij...,j...->i...", ginv, np.asarray(v))[None]

    def primal_source(self, u, v, fields):
        ginv, contraction = fields
        return -np.einsum(
            "j...,jk...,k...->...", contraction, ginv, np.asarray(v)
        )[None]

    def continuum_residual(self, u, grad, hess, x, bg):
        ginv, _ = self.background_fields(x, bg)
        gamma = bg.christoffel(x)
        lap = np.einsum("ij...,cij...->c...", ginv, np.asarray(hess))
        lap -= np.einsum(
            "ij...,kij...,ck...->c...", ginv, gamma, np.asarray(grad)
        )
        return -lap


class Elasticity(EllipticSystem):
    """Linear elasticity with a homogeneous isotropic constitutive relation.

    Primal variables are the displacement components, auxiliary slots the
    unique components of the symmetric strain S_jk = d_(j xi_k). The stress
    flux is F^ij = lambda delta^ij tr S + 2 mu S^ij.
    """

    name = "elasticity"
    symmetric_eligible = True

    def __init__(self, dim: int, lame_lambda: float = 1.0, shear_modulus: float = 1.0):
        if dim not in (2, 3):
            raise ConfigurationError("domain", f"elasticity supports dimensions 2..3, got {dim}")
        self.dim = dim
        self.lame_lambda = lam = float(lame_lambda)
        self.shear_modulus = mu = float(shear_modulus)
        # where the isotropic elasticity tensor is positive definite
        if not mu > 0.0:
            raise ConfigurationError("system.shear_modulus", f"must be > 0, got {mu}")
        if not dim * lam + 2.0 * mu > 0.0:
            raise ConfigurationError(
                "system.lame_lambda",
                f"needs {dim} lambda + 2 mu > 0, got lambda = {lam}, mu = {mu}",
            )
        self.pairs = sym_index_pairs(dim)
        self.primal_components = tuple(f"xi_{_AXES[i]}" for i in range(dim))
        self.auxiliary_components = tuple(
            f"S_{_AXES[j]}{_AXES[k]}" for j, k in self.pairs
        )

    def _full_strain(self, v):
        v = np.asarray(v)
        s = np.zeros((self.dim, self.dim) + v.shape[1:])
        for a, (j, k) in enumerate(self.pairs):
            s[j, k] = v[a]
            s[k, j] = v[a]
        return s

    def primal_flux(self, v, fields):
        s = self._full_strain(v)
        trace = np.einsum("ii...->...", s)
        out = 2.0 * self.shear_modulus * s
        for j in range(self.dim):
            out[j, j] += self.lame_lambda * trace
        return out

    def auxiliary_from_gradient(self, grad):
        grad = np.asarray(grad)  # grad[c, i] = d_i xi_c
        out = np.zeros((len(self.pairs),) + grad.shape[2:])
        for a, (j, k) in enumerate(self.pairs):
            out[a] = 0.5 * (grad[k, j] + grad[j, k])
        return out

    def continuum_residual(self, u, grad, hess, x, bg):
        hess = np.asarray(hess)  # hess[c, a, b] = d_a d_b xi_c
        lam, mu = self.lame_lambda, self.shear_modulus
        grad_div = np.einsum("kkj...->j...", hess)
        lap = np.einsum("jii...->j...", hess)
        return -(lam + mu) * grad_div - mu * lap


@dataclass(frozen=True)
class PunctureSpec:
    mass: float
    position: tuple[float, float, float]
    momentum: tuple[float, float, float] = (0.0, 0.0, 0.0)
    spin: tuple[float, float, float] = (0.0, 0.0, 0.0)


class Puncture(PoissonFlat):
    """Puncture initial-data equation -d_i d^i u = beta (alpha (1+u) + 1)^-7.

    Flat Poisson plus the nonlinear source S_u = -beta (alpha (1 + u) + 1)^-7.
    The background fields alpha and beta derive from a Bowen-York extrinsic
    curvature for a collection of punctures with masses, linear momenta and
    spins.
    """

    name = "puncture"
    linear = False

    def __init__(self, punctures):
        super().__init__(3)
        self.punctures = tuple(punctures)
        if not self.punctures:
            raise ConfigurationError("system.punctures", "at least one puncture is required")
        for i, p in enumerate(self.punctures):
            path = f"system.punctures[{i}]"
            if not p.mass > 0.0:
                raise ConfigurationError(f"{path}.mass", f"must be > 0, got {p.mass}")
            for key in ("position", "momentum", "spin"):
                if np.size(getattr(p, key)) != 3:
                    raise ConfigurationError(f"{path}.{key}", "expected 3 entries")

    def _offsets(self, x):
        """(puncture, x - position, |x - position|) per puncture, at points x (d, ...)."""
        x = np.asarray(x, dtype=float)
        for p in self.punctures:
            pos = np.asarray(p.position, dtype=float)
            dx = x - pos.reshape(3, *([1] * (x.ndim - 1)))
            yield p, dx, np.sqrt(np.einsum("i...,i...->...", dx, dx))

    def background_fields(self, x, bg):
        """(alpha, beta) at points x, shape (d, ...) -> two (...) arrays."""
        x = np.asarray(x, dtype=float)
        inv_alpha = np.zeros(x.shape[1:])
        abar = np.zeros((3, 3) + x.shape[1:])
        eye = np.eye(3)
        for p, dx, r in self._offsets(x):
            mom = np.asarray(p.momentum, dtype=float)
            spin = np.asarray(p.spin, dtype=float)
            if np.any(r < 1e-10):
                raise SingularPointError(
                    "collocation point within 1e-10 of a puncture"
                )
            n = dx / r
            pdotn = np.einsum("i,i...->...", mom, n)
            spin_col = spin.reshape(3, *([1] * (x.ndim - 1)))
            cross = np.cross(spin_col, n, axisa=0, axisb=0, axisc=0)
            term = np.zeros_like(abar)
            for i in range(3):
                for j in range(3):
                    term[i, j] = (
                        mom[i] * n[j]
                        + mom[j] * n[i]
                        - (eye[i, j] - n[i] * n[j]) * pdotn
                        + (2.0 / r) * (n[i] * cross[j] + n[j] * cross[i])
                    )
            abar += 1.5 / r**2 * term
            inv_alpha += p.mass / r
        alpha = 1.0 / inv_alpha
        beta = 0.125 * alpha**7 * np.einsum("ij...,ij...->...", abar, abar)
        return alpha, beta

    def min_puncture_distance(self, x) -> float:
        return min(float(np.min(r)) for _, _, r in self._offsets(x))

    def primal_source(self, u, v, fields):
        alpha, beta = fields
        u = np.asarray(u)
        return (-beta * (alpha * (1.0 + u[0]) + 1.0) ** -7)[None]

    def linearized_primal_source(self, u0, fields):
        # the power of u0, once per linearization
        alpha, beta = fields
        factor = 7.0 * alpha * beta * (alpha * (1.0 + np.asarray(u0)[0]) + 1.0) ** -8
        return lambda du, dv: (factor * np.asarray(du)[0])[None]

    def continuum_residual(self, u, grad, hess, x, bg):
        source = self.primal_source(u, None, self.background_fields(x, bg))
        return super().continuum_residual(u, grad, hess, x, bg) + source


def make_system(name: str, dim: int, **params) -> EllipticSystem:
    """Instantiate a system by name; params are system-specific."""
    if name == "poisson-flat":
        return PoissonFlat(dim)
    if name == "poisson-curved":
        return PoissonCurved(dim)
    if name == "elasticity":
        return Elasticity(dim, **params)
    if name == "puncture":
        if dim != 3:
            raise ConfigurationError("domain", "the puncture system needs a 3D domain")
        specs = [
            p if isinstance(p, PunctureSpec) else PunctureSpec(**p)
            for p in params.get("punctures", [])
        ]
        return Puncture(specs)
    raise ValueError(f"unknown system {name!r}")
