"""The exterior of external face points, against the ghost formulas it replaced.

The operator forms every exterior value as a sign times the partner's value
(an external point is its own partner) and adds the boundary terms only
where the boundary data are not provably zero. `GhostFormulas` keeps the
formulas that came before: at the external points each phase's ghost is
interior - 2 boundary, with the interior's own value standing in for the
boundary value a condition's kind does not give, and the penalty ghost is
2 n F_u(aux*) - pen. For finite values the two give the same bits, so the
tests ask for `np.array_equal` on random meshes, for every system, both
forms, batches, non-identity mortars and every kind of condition,
homogeneous or not; and for the same error where u is not finite.

The reference also keeps the mortar exchange as it was before every mortar
with a non-identity side went through one stacked pass: one kind at a time,
each with its own gathers, prolongations, flux call and additions into the
face buffer. The stacked pass must give the same bits, also where a coarse
face takes four mortars, whose sum depends on the order.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ipdg import (
    BoundaryMap,
    DirichletBC,
    FieldVector,
    FlatBackground,
    NeumannBC,
    OperatorHandle,
    PunctureSpec,
    RobinBC,
    build_rectilinear_mesh,
    make_system,
    split_element,
    with_degrees,
)
from ipdg.operators import (
    _boundary_values,
    _contract_normal,
    _fold,
    _normal_auxiliary,
    auxiliary_numerical_flux,
    exterior_ghost_data,
    primal_numerical_flux,
)
from test_operators import (
    QuadraticFluxBC,
    interpolant,
    raised_square,
    split_annulus,
    split_box_3d,
)
from test_random_meshes import (
    CURVED,
    annulus_meshes,
    cube_meshes,
    interval_meshes,
    meshes,
    raised_cube_meshes,
)

BG = FlatBackground()


def _join(a, b):
    """a and b side by side on the last axis, broadcast over the others."""
    if not (a.shape[-1] and b.shape[-1]):
        return a if a.shape[-1] else b
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    return np.concatenate([np.broadcast_to(c, lead + c.shape[-1:]) for c in (a, b)], axis=-1)


class GhostFormulas(OperatorHandle):
    """The operator with the ghosts formed by their formulas at every
    external point, in every application, whatever the boundary data."""

    def _ghost_exchange(self, own, ghosts, flux, flux_args, strong):
        cache = self._cache
        ext = [buf.take(cache.partner, axis=-1) for buf in own]
        for x, ghost in zip(ext, ghosts):
            x[..., self._external] = ghost
        star = flux(*own, *ext, *flux_args[0])
        jumps = star - own[0] if strong else star
        if cache.mortar_groups:
            # one mortar kind at a time, from its own index, P, W_f, W_m and
            # penalty, each side added in turn
            jumps[..., cache.restricted] = 0.0
            for mg in cache.mortar_groups:
                sides = [buf.take(mg.index[s], axis=-1) for buf in own for s in (0, 1)]
                sides = [x if p is None else x @ p for x, p in zip(sides, mg.prolong * len(own))]
                args = (self.penalty_parameter * mg.sigma,) if flux_args[1] else ()
                star_m = flux(*sides[::2], *sides[1::2], *args)
                for s, f in enumerate((star_m, -star_m)):
                    values, p = (f - sides[s] if strong else f), mg.prolong[s]
                    if p is not None:
                        values = (values * mg.weights) @ p.T / mg.face_mass[s]
                    jumps[..., mg.index[s]] += values
        return (star if strong else None), jumps

    def _phase1(self, u_rows):
        cache, sys_ = self._cache, self.system
        lead = u_rows.shape[1:-1]
        ugs = [g.take(u_rows) for g in cache.groups]
        ws = [sys_.auxiliary_from_gradient(g.gradient(ug)) for g, ug in zip(cache.groups, ugs)]
        traces = cache.face_values(ugs)
        aux = _normal_auxiliary(sys_, traces, cache.face_normal)
        arrays = [a.reshape(a.shape[:1] + (1,) * len(lead) + a.shape[1:]) for a in self._fixed]
        if self._live:
            arrays = [np.broadcast_to(a, a.shape[:1] + lead + a.shape[-1:]).copy() for a in arrays]
            reps = math.prod(lead)
            for bc, k, pos, index, x, normal, lin_b in self._live:
                x, normal, lin_b = (
                    a if a is None or reps == 1 else np.tile(a, reps) for a in (x, normal, lin_b)
                )
                values = _boundary_values(bc, sys_, x, normal, _fold(traces, index), lin_b)
                arrays[k][..., pos] = values.reshape(values.shape[:1] + lead + (-1,))
        aux_b, flux_b = arrays
        interior = aux.take(self._external, axis=-1)
        ghost = exterior_ghost_data(interior, _join(aux_b, interior[..., self._n_dirichlet:]))
        star, jumps = self._ghost_exchange([aux], [ghost], auxiliary_numerical_flux,
                                           [(), ()], strong=True)
        w_faces = cache.face_values(ws)
        for g, w in zip(cache.groups, ws):
            g.lift(w, jumps, massive=False)
        return ugs, ws, w_faces, aux, star, flux_b

    def _core(self, u, given_v):
        cache, sys_ = self._cache, self.system
        fields, face_fields, _ = self._background_fields()
        ext_fields = [f.take(self._external, axis=-1) for f in face_fields]
        if self._sources is None:
            self._sources = self._source_maps(fields)
        strong = self.form == "strong"
        ugs, recon, w_faces, aux, aux_star, flux_b = self._phase1(self._rows(u.data))
        v_rows = None if given_v is None else self._rows(given_v.data)
        res_u, res_v = [], []
        for g, ug, rc, f, source in zip(cache.groups, ugs, recon, fields, self._sources):
            v = rc if v_rows is None else g.take(v_rows)
            if v_rows is not None:
                res_v.append(g.mass * (v - rc))
            res = -g.stiffness(sys_.primal_flux(v, f), "strong" if strong else "weak")
            if source is not None:
                res += g.mass * source(ug, v)
            res_u.append(res)
        normal = cache.face_normal
        deriv = _contract_normal(normal, sys_.primal_flux(w_faces, face_fields))
        pen = _contract_normal(normal, sys_.primal_flux(aux, face_fields))
        e = self._external
        d_e, aux_e = deriv.take(e, axis=-1), aux_star.take(e, axis=-1)
        ghosts = [exterior_ghost_data(d_e, _join(d_e[..., :self._n_dirichlet], flux_b)),
                  2.0 * _contract_normal(self._normal, sys_.primal_flux(aux_e, ext_fields))
                  - pen.take(e, axis=-1)]
        _, jumps = self._ghost_exchange([deriv, pen], ghosts, primal_numerical_flux,
                                        self._sigma_args, strong)
        np.negative(jumps, out=jumps)
        bad = []
        for gi, (g, res) in enumerate(zip(cache.groups, res_u)):
            g.lift(res, jumps, massive=True)
            if not self.massive:
                res_u[gi] = res = res / g.mass
            if not np.isfinite(res).all():
                finite = np.isfinite(res).reshape(-1, g.shape[0], math.prod(g.shape[1:]))
                bad.append(g.members[int(np.argmin(finite.all(axis=(0, 2))))])
        if bad:
            raise FloatingPointError(
                f"non-finite residual in element {self.mesh.elements[min(bad)].id_string()}"
            )
        if not self.massive:
            res_v = [r / g.mass for g, r in zip(cache.groups, res_v)]
        n_u, n_v = sys_.n_primal, sys_.n_auxiliary
        return (None if v_rows is None else self._flat(n_v, res_v)), self._flat(n_u, res_u)


# conditions of every kind: homogeneous and inhomogeneous trace-free data,
# Robin conditions that read the trace (neumann-kind) or not (b = 0,
# dirichlet-kind), and a nonlinear flux linearized by finite differences
CONDITIONS = [
    lambda: DirichletBC(0.0),
    lambda: DirichletBC(lambda x: np.sin(2.0 * x[0]) + x[-1]),
    lambda: NeumannBC(0.0),
    lambda: NeumannBC(lambda x, normal: np.cos(x[0]) * normal[-1]),
    lambda: RobinBC(1.0, 2.0, 0.5),
    lambda: RobinBC(2.0, 0.0, 0.8),
    lambda: QuadraticFluxBC(),
]
TAGS = {1: ["x-lower", "x-upper"], 2: ["x-lower", "x-upper", "y-lower", "y-upper"],
        3: ["x-lower", "x-upper", "y-lower", "y-upper", "z-lower", "z-upper"]}


@st.composite
def problems(draw):
    """(mesh, system, background, conditions) for every system."""
    kind = draw(st.sampled_from(["interval", "square", "cube", "annulus", "puncture"]))
    if kind == "interval":
        mesh, system, bg = draw(interval_meshes()), make_system("poisson-flat", dim=1), BG
    elif kind == "square":
        name = draw(st.sampled_from(["poisson-flat", "elasticity"]))
        mesh, system, bg = draw(meshes()), make_system(name, dim=2), BG
    elif kind == "cube":
        name = draw(st.sampled_from(["poisson-flat", "elasticity"]))
        mesh, system, bg = draw(raised_cube_meshes()), make_system(name, dim=3), BG
    elif kind == "annulus":
        mesh, system, bg = draw(annulus_meshes()), make_system("poisson-curved", dim=2), CURVED
    else:
        mesh, bg = draw(cube_meshes(lower=1.0)), BG
        system = make_system("puncture", dim=3, punctures=[
            PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3), spin=(0.0, 0.1, 0.0)),
        ])
    tags = ["inner", "outer"] if kind == "annulus" else TAGS[mesh.dim]
    picks = st.sampled_from(range(len(CONDITIONS)))
    table = {tag: CONDITIONS[draw(picks)]() for tag in tags}
    return mesh, system, bg, BoundaryMap(table)


def handles(problem, form, massive):
    """The operator and its ghost-formula reference, each unlinearized and
    linearized about a nonzero point."""
    mesh, system, bg, bcs = problem
    pair = [cls(mesh, system, bg, bcs, form=form, massive=massive)
            for cls in (OperatorHandle, GhostFormulas)]
    n = system.n_primal
    point = interpolant(mesh, lambda x: 0.1 * np.sin(x[0] + 2.0 * x[-1:]).repeat(n, axis=0), n)
    return [pair, [h.linearized_at(point) for h in pair]]


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem=problems(), form=st.sampled_from(["strong", "strong-weak"]), massive=st.booleans())
def test_exterior_equals_ghost_formulas(problem, form, massive):
    mesh = problem[0]
    rng = np.random.default_rng(mesh.n_elements)
    for handle, reference in handles(problem, form, massive):
        n_u, n_v = handle.system.n_primal, handle.system.n_auxiliary
        us = rng.standard_normal((3, handle.n_primal_dofs))
        vs = rng.standard_normal((3, handle.n_auxiliary_dofs))
        for h in (handle, reference):
            h.outputs = [h.matvec(us[0]), h.apply(FieldVector.batch(mesh, n_u, us)).data,
                         h.reconstruct_auxiliary(FieldVector.batch(mesh, n_u, us)).data]
            for make, index in ((FieldVector.from_flat, 0), (FieldVector.batch, slice(None))):
                h.outputs += [r.data for r in h.apply_full(make(mesh, n_v, vs[index]),
                                                           make(mesh, n_u, us[index]))]
        for got, want in zip(handle.outputs, reference.outputs):
            assert np.array_equal(got, want)


def square_handle(table, cls=OperatorHandle):
    mesh = build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (1, 1), (3, 3))
    return cls(mesh, make_system("poisson-flat", dim=2), BG, BoundaryMap(table))


@pytest.mark.parametrize("table", [
    {"all": DirichletBC(0.0)},
    {"x-lower": NeumannBC(0.0), "all": DirichletBC(0.0)},
    {"x-lower": NeumannBC(1.0), "y-upper": RobinBC(1.0, 2.0, 0.5), "all": DirichletBC(1.0)},
], ids=["dirichlet", "neumann-dirichlet", "inhomogeneous-robin"])
def test_non_finite_u_is_named_as_by_the_ghost_formulas(table):
    # -u where the formula gave u - 2u: -inf, not nan, at such a point; the
    # residual is not finite in the same elements, and the error names the first
    handle, reference = (square_handle(table, cls).linearized_at()
                         for cls in (OperatorHandle, GhostFormulas))
    n = handle.n_primal_dofs
    for point in (0, 7, n // 2, n - 1):
        rows = np.zeros((2, n))
        rows[1, point] = np.inf
        for data in (rows[1], rows):
            messages = []
            for h in (handle, reference):
                with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as err:
                    h.apply(FieldVector(h.mesh, 1, data))
                messages.append(err.value.args[0])
            assert messages[0] == messages[1]
            assert messages[0].startswith("non-finite residual in element B0[")


def test_boundary_terms_added_unless_provably_zero():
    # inhomogeneous trace-free data, or a condition that reads the trace,
    # keep the boundary terms; a linearized trace-free handle drops them
    live = {"x-lower": RobinBC(1.0, 2.0, 0.5), "all": DirichletBC(0.0)}
    for table, zero in (({"all": DirichletBC(1.0)}, (False, True)),
                        (live, (False, False)),
                        ({"x-lower": NeumannBC(0.0), "all": DirichletBC(0.0)}, (True, True))):
        handle, reference = (square_handle(table, cls) for cls in (OperatorHandle, GhostFormulas))
        x = np.random.default_rng(3).standard_normal(handle.n_primal_dofs)
        for h, r, provably_zero in zip((handle, handle.linearized_at()),
                                       (reference, reference.linearized_at()), zero):
            assert h._zero_boundary is provably_zero
            assert np.array_equal(h.matvec(x), r.matvec(x))
            assert np.array_equal(h.matvec(np.zeros_like(x)), r.matvec(np.zeros_like(x)))
    # the terms change the result: A(0) of DirichletBC(1.0) is not zero, and
    # the linearized Robin data -a/b du differ from homogeneous Neumann data
    assert square_handle({"all": DirichletBC(1.0)}).matvec(np.zeros(x.size)).any()
    neumann = {"x-lower": NeumannBC(0.0), "all": DirichletBC(0.0)}
    robin, plain = (square_handle(t).linearized_at() for t in (live, neumann))
    assert not np.array_equal(robin.matvec(x), plain.matvec(x))


def nonconforming_assemble_mesh():
    """The benchmark's hp mesh: 4x4 elements at p=4, one split on the edge
    of the square, two raised to (5, 5) and (4, 6)."""
    mesh = split_element(build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (2, 2), (4, 4)), 4)
    return with_degrees(with_degrees(mesh, 8, (5, 5)), 9, (4, 6)), BG


@pytest.mark.parametrize("system", ["poisson-flat", "elasticity"])
@pytest.mark.parametrize("form", ["strong", "strong-weak"])
@pytest.mark.parametrize("case", [
    nonconforming_assemble_mesh, split_annulus, raised_square, split_box_3d,
])
def test_mortar_pass_equals_per_kind_loop(case, form, system):
    # h-, p- and hp-nonconforming mortars, in 3D four on each coarse face
    mesh, bg = case()
    handle, reference = (cls(
        mesh, make_system(system, dim=mesh.dim), bg,
        BoundaryMap({"all": DirichletBC(lambda x: np.sin(2.0 * x[0]) + x[-1])}),
        form=form, penalty_parameter=1.5,
    ) for cls in (OperatorHandle, GhostFormulas))
    groups = handle._cache.mortar_groups
    assert len(groups) > 1
    on_face = np.bincount(np.concatenate([i.ravel() for mg in groups for i in mg.index]))
    assert on_face.max() == (4 if mesh.dim == 3 else 2 if case is not raised_square else 1)
    rng = np.random.default_rng(7)
    n_u, n_v = handle.system.n_primal, handle.system.n_auxiliary
    us = rng.standard_normal((4, handle.n_primal_dofs))
    vs = rng.standard_normal((4, handle.n_auxiliary_dofs))
    for h in (handle, reference):
        h.outputs = [h.matvec(us[0]), h.apply(FieldVector.batch(mesh, n_u, us)).data,
                     h.matvec(us[1])]
        for make, index in ((FieldVector.from_flat, 0), (FieldVector.batch, slice(None))):
            h.outputs += [r.data for r in h.apply_full(make(mesh, n_v, vs[index]),
                                                       make(mesh, n_u, us[index]))]
    for got, want in zip(handle.outputs, reference.outputs):
        assert np.array_equal(got, want)
