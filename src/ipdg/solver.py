"""Matrix-free linear solves, explicit assembly, and inexact Newton iteration.

The Krylov drivers only ever call the operator handle's matvec, so they work
at any resolution; explicit matrices exist for inspection, direct oracles,
and Schur-complement checks and are guarded by a DoF cap.
"""

from __future__ import annotations

import heapq
import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigurationError, ResourceCapError
from .mesh import _is_number, face_parts
from .operators import FieldVector, _distinct, _ranges

__all__ = [
    "SolveReport",
    "ExplicitMatrix",
    "assemble_explicit",
    "schur_eliminate",
    "solve_linear",
    "solve_newton",
    "check_iteration",
    "check_solver",
    "DEFAULT_ASSEMBLY_CAP",
]

DEFAULT_ASSEMBLY_CAP = 20000

_PRIMAL_ORDER = (
    "primal variables; variable-major, then element index, grid points "
    "first-axis-fastest"
)
_FULL_ORDER = (
    "auxiliary block then primal block; within each: variable-major, then "
    "element index, grid points first-axis-fastest"
)


@dataclass
class SolveReport:
    """Outcome of one linear or nonlinear solve."""

    iterations: int
    residual_norm: float  # relative to the right-hand side (or absolute if rhs = 0)
    tolerance: float  # the relative residual the solve was asked for
    converged: bool
    wall_time: float
    residual_history: list = field(default_factory=list)
    inner: list = field(default_factory=list)  # Newton: each step's linear-solve report


@dataclass
class ExplicitMatrix:
    """Assembled operator with a record of its DoF ordering."""

    matrix: scipy.sparse.csr_matrix
    ordering: str

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def write(self, path) -> None:
        """Plain-text coordinate export.

        Header "rows cols nnz", then one "row col value" triple per line with
        1-based indices, row-major, full double precision.
        """
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        with open(path, "w") as f:
            f.write(f"{self.n_rows} {self.n_cols} {coo.nnz}\n")
            f.writelines(map(
                "{} {} {:.17e}\n".format,
                (coo.row[order] + 1).tolist(),
                (coo.col[order] + 1).tolist(),
                coo.data[order].tolist(),
            ))


# Entries of one batched probe application, each row counted as the handle's
# primal plus auxiliary DoFs in the compact and the full assembly alike,
# since an apply's temporaries scale with both. On the nonconforming-assemble
# mesh (496 + 992 DoFs) that is 44 rows, and tracemalloc reads a peak of
# 3.1 MB for the compact assembly and 4.8 MB for the full one; counting
# primal entries alone would pack 132 compact rows and raise it to 8.0 MB.
# Larger batches measured no faster.
_PROBE_BATCH_ENTRIES = 1 << 16


def _distance3_colors(balls, base, weight):
    """Colour elements so that no two at graph distance 1 or 2 share a
    colour, each with the least colour its ball does not hold yet, in
    increasing order of the key base[k] - weight * saturation, where
    saturation counts the colours in k's ball so far and base[k] % n == k:
    one priority queue of keys, whose stale entries are skipped. `balls` is
    the symmetric relation "within distance 2" (`_relation`); a ball is a
    set, so the order of its row does not matter."""
    n = len(base)
    indptr, indices = (a.tolist() for a in balls)
    colors, seen, keys = [-1] * n, [0] * n, list(base)  # seen: a bit per colour
    heap = sorted(base)
    while heap:
        key = heapq.heappop(heap)
        k = key % n
        if key != keys[k] or colors[k] >= 0:
            continue
        free = ~seen[k] & (seen[k] + 1)  # the lowest clear bit
        colors[k] = free.bit_length() - 1
        for m in indices[indptr[k]:indptr[k + 1]]:
            if not seen[m] & free and colors[m] < 0:
                seen[m] |= free
                if weight:
                    keys[m] -= weight
                    heapq.heappush(heap, keys[m])
    return colors


def _relation(rows, cols, n):
    """The relation of the pairs (rows[i], cols[i]) of n elements, an
    element's own pair left out, as CSR rows (indptr, indices): the indices
    of each row ascending and distinct."""
    pairs = _distinct(rows * n + cols)
    rows, cols = np.divmod(pairs[pairs // n != pairs % n], n)
    return np.concatenate([[0], np.bincount(rows, minlength=n).cumsum()]), cols


def _element_color_groups(mesh):
    """Passes of the mesh's elements whose closed neighbourhoods are
    disjoint, and the face-neighbour relation (`_relation`), from the
    element pairs of the mortars (`Mesh.topology`).

    Columns of the operator rooted in one element only reach its face
    neighbors, so elements at graph distance >= 3 can share one batched
    unit-vector application, which costs as many probe columns as the pass's
    largest element has points (column grouping for sparse Jacobians,
    Coleman & More 1983). Of three deterministic colourings it takes the
    one with the fewest probe columns, then the fewest passes, then the
    first: greedy in mesh order, and DSatur (Brelaz 1979) by saturation
    then size (points) and by size then saturation, ties to the larger ball
    (the elements within distance 2, from the relation's rows), then to mesh
    order. The greedy stays a candidate because DSatur alone can need more
    columns. A colouring that reaches the lower bounds of both counts, the
    most points and the most elements of a closed neighbourhood, cannot be
    beaten, and ends the search.
    """
    n = mesh.n_elements
    a, b = face_parts(mesh.topology.faces, mesh.dim)[0].T
    nbrs = _relation(np.concatenate([a, b]), np.concatenate([b, a]), n)
    # each element's neighbours, then their neighbours, make its ball
    (indptr, near), degree = nbrs, np.diff(nbrs[0])
    rows = np.arange(n).repeat(degree)
    hops = degree[near]
    balls = _relation(np.concatenate([rows, rows.repeat(hops)]),
                      np.concatenate([near, near[_ranges(indptr[near], hops)]]), n)
    sizes = np.diff(mesh.point_offsets)
    size = sizes.tolist()
    # keys in mixed radix, most significant first: saturation or size, then
    # the other, then the ball's size, then k; a larger one comes first
    ties = [-ball * n + k for k, ball in enumerate(np.diff(balls[0]).tolist())]
    by_sat = [-size[k] * n ** 2 + t for k, t in enumerate(ties)]
    by_size = [-size[k] * n ** 3 + t for k, t in enumerate(ties)]
    bound = (int((np.bincount(rows, sizes[near], n) + sizes).max()), int(degree.max()) + 1)
    best = None
    for base, weight in ((list(range(n)), 0), (by_sat, (max(size) + 1) * n ** 2),
                         (by_size, n ** 2)):
        groups = [[] for _ in range(n)]
        for k, c in enumerate(_distance3_colors(balls, base, weight)):
            groups[c].append(k)
        groups = [g for g in groups if g]
        cost = (sum(max(size[k] for k in g) for g in groups), len(groups))
        if best is None or cost < best[0]:
            best = cost, groups
        if cost == bound:
            break
    return best[1], nbrs


def assemble_explicit(
    handle, include_auxiliary: bool = False, cap: int = DEFAULT_ASSEMBLY_CAP
) -> ExplicitMatrix:
    """Assembly of the handle's linear(ized) action by probing with unit vectors.

    Each pass probes one set of elements and components; one probe vector
    sets the same point of every element of the set. An owner map names,
    for each element, the probed element whose column may reach its rows,
    so each nonzero of the result belongs to one column. The probes of all
    passes, for every component and point, lie end to end in pass order,
    each carrying its pass, and go through the operator in batches filled
    to `_PROBE_BATCH_ENTRIES`, a batch crossing from one pass into the next.
    A column's entries depend only on its own element's probe, and in 2D
    and 3D a batch row gets the residual it gets alone, so there neither
    the colouring nor the batches change the matrix by a bit.

    Primal columns reach the face neighbors of their element, so their
    passes are the colors of a distance-3 coloring (`_element_color_groups`),
    each element owning its closed neighborhood. Auxiliary columns reach
    only their own element: a given v enters the auxiliary residual only as
    M v, and the primal residual only through the element's own volume
    terms (the primal flux and source at its points, then its stiffness).
    So the auxiliary components of all elements form one pass whose owner
    map is each element itself.
    """
    # any other value would be read as a truth value, or fail deep in the passes
    if not isinstance(include_auxiliary, (bool, np.bool_)):
        raise ConfigurationError("include_auxiliary", f"must be a bool, got {include_auxiliary!r}")
    if not handle.is_linearized and not handle.system.linear:
        raise ConfigurationError(
            "assemble",
            "assembling a nonlinear operator requires a linearization point",
        )
    lin = handle if handle.is_linearized else handle.linearized_at()
    mesh = handle.mesh
    offsets = mesh.point_offsets
    sizes = np.diff(offsets)
    total = int(offsets[-1])
    n_aux = handle.n_auxiliary_dofs if include_auxiliary else 0
    n = n_aux + handle.n_primal_dofs
    if n > cap:
        raise ResourceCapError(
            f"operator has {n} DoFs, above the assembly cap {cap}"
        )

    groups, nbrs = _element_color_groups(mesh)
    n_elements = len(sizes)
    point_element = np.repeat(np.arange(n_elements), sizes)
    n_v = n_aux // total
    primal = np.arange(n_v, n // total)
    # per pass the owner of each element, -1 if none; a member owns itself
    owner = np.full((len(groups) + include_auxiliary, n_elements), -1)
    pass_of, k = np.empty(n_elements, dtype=int), np.arange(n_elements)
    for j, group in enumerate(groups):
        pass_of[group] = j
    owner[pass_of, k] = k
    k = k.repeat(np.diff(nbrs[0]))
    owner[pass_of[k], nbrs[1]] = k
    if include_auxiliary:
        owner[-1] = np.arange(n_elements)
    member = owner == np.arange(n_elements)
    # every (pass, component, point index) probe, pass after pass
    pass_of, comp, point = [], [], []
    for j, is_member in enumerate(member):
        components = primal if j < len(groups) else np.arange(n_v)
        n_probe_points = sizes[is_member].max()
        pass_of.append(np.full(components.size * n_probe_points, j))
        comp.append(np.repeat(components, n_probe_points))
        point.append(np.tile(np.arange(n_probe_points), components.size))
    pass_of, comp, point = (np.concatenate(a) for a in (pass_of, comp, point))
    row_owner = owner[:, point_element]
    chunk = max(1, _PROBE_BATCH_ENTRIES // (handle.n_auxiliary_dofs + handle.n_primal_dofs))
    rows_out, cols_out, vals_out = [], [], []
    for start in range(0, comp.size, chunk):
        j, c, p = (a[start:start + chunk] for a in (pass_of, comp, point))
        probes = np.zeros((c.size, n))
        b, k = np.nonzero(member[j] & (sizes > p[:, None]))
        probes[b, c[b] * total + offsets[k] + p[b]] = 1.0
        if include_auxiliary:
            rv, ru = lin.apply_full(
                FieldVector.batch(mesh, handle.system.n_auxiliary, probes[:, :n_aux]),
                FieldVector.batch(mesh, handle.system.n_primal, probes[:, n_aux:]),
            )
            result = np.concatenate([rv.data, ru.data], axis=1)
        else:
            result = lin.apply(
                FieldVector.batch(mesh, handle.system.n_primal, probes)
            ).data
        b, row = np.nonzero(result)
        k = row_owner[j[b], row % total]
        keep = (k >= 0) & (sizes[k] > p[b])
        b, row, k = b[keep], row[keep], k[keep]
        rows_out.append(row)
        cols_out.append(c[b] * total + offsets[k] + p[b])
        vals_out.append(result[b, row])

    mat = scipy.sparse.coo_matrix(
        (np.concatenate(vals_out), (np.concatenate(rows_out), np.concatenate(cols_out))),
        shape=(n, n),
    ).tocsr()
    mat.sort_indices()
    return ExplicitMatrix(mat, _FULL_ORDER if include_auxiliary else _PRIMAL_ORDER)


def schur_eliminate(full: ExplicitMatrix, n_auxiliary: int) -> ExplicitMatrix:
    """Primal-block Schur complement A_uu - A_uv A_vv^-1 A_vu.

    A_vv must be diagonal. The first-order operator's is: with mass
    lumping its auxiliary equations read M v = M recon(u), so A_vv is the
    lumped mass (the identity when massless), and its inverse is a row
    scaling.
    """
    n = full.n_rows
    # a bool would be read as 1, and a float fails in numpy's slicing
    if not (_is_number(n_auxiliary, numbers.Integral) and 0 < n_auxiliary < n):
        raise ConfigurationError(
            "n_auxiliary", f"must be an integer from 1 to {n - 1}, got {n_auxiliary!r}"
        )
    a = full.matrix.tocsr()
    na = int(n_auxiliary)
    avv = a[:na, :na].tocoo()
    avu = a[:na, na:]
    auv = a[na:, :na]
    auu = a[na:, na:]
    if np.any((avv.row != avv.col) & (avv.data != 0.0)):
        raise ValueError(
            "auxiliary block A_vv is not diagonal, so it cannot be "
            "eliminated by scaling"
        )
    with np.errstate(divide="ignore"):
        scale = 1.0 / avv.diagonal()
    x = scipy.sparse.diags(scale) @ avu
    if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(x.data))):
        raise FloatingPointError("auxiliary diagonal block is singular")
    s = scipy.sparse.csr_matrix(auu - auv @ x)
    s.sort_indices()
    return ExplicitMatrix(s, _PRIMAL_ORDER)


# -- Krylov drivers ----------------------------------------------------


def _gmres(matvec, b, tol, max_iter, restart, precond):
    """Restarted GMRES from x = 0 with modified Gram-Schmidt and Givens rotations.

    Returns x, the iteration count, the residual history, convergence, and
    the true relative residual of x when it was computed (else None). The
    first cycle starts from r = b, as x = 0; later ones from b - A x. The
    Hessenberg column, rotations and least-squares right-hand side are
    Python floats: each is a scalar operation, and numpy scalars cost more.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    scratch = np.empty_like(b)
    history = [1.0]  # zero initial guess
    total = 0
    rel = 1.0
    true_rel = None
    while total < max_iter:
        r = b - matvec(x) if total else b
        beta = float(np.linalg.norm(r))
        rel = beta / bnorm
        if rel <= tol:
            return x, total, history, True, rel
        m = min(restart, max_iter - total)
        v = np.empty((m + 1, b.size))
        rows = list(v)
        v[0] = r / beta
        h = np.zeros((m, m))  # the rotated, upper triangular Hessenberg matrix
        cs, sn = [], []
        g = [beta]
        for j in range(m):
            w = matvec(precond(rows[j]))
            col = []
            for i in range(j + 1):
                col.append(float(rows[i].dot(w)))
                w -= np.multiply(col[i], rows[i], out=scratch)
            col.append(math.sqrt(w.dot(w)))
            if col[j + 1] > 0.0:
                np.divide(w, col[j + 1], out=rows[j + 1])
            for i in range(j):
                t = cs[i] * col[i] + sn[i] * col[i + 1]
                col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1]
                col[i] = t
            denom = float(np.hypot(col[j], col[j + 1]))
            cs.append(col[j] / denom)
            sn.append(col[j + 1] / denom)
            col[j] = denom
            h[:j + 1, j] = col[:j + 1]
            g.append(-sn[j] * g[j])
            g[j] = cs[j] * g[j]
            total += 1
            rel = abs(g[j + 1]) / bnorm
            history.append(rel)
            if rel <= tol:
                break
        j_done = len(cs)
        y = scipy.linalg.solve_triangular(
            h[:j_done, :j_done], np.array(g[:j_done]), lower=False
        )
        x = x + precond(v[:j_done].T @ y)
        true_rel = None
        if rel <= tol:
            true_rel = np.linalg.norm(b - matvec(x)) / bnorm
            if true_rel <= tol:
                return x, total, history, True, true_rel
    return x, total, history, False, true_rel


def _cg(matvec, b, tol, max_iter):
    """Conjugate gradients from x = 0, on Python floats; returns what `_gmres` returns."""
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    history = [math.sqrt(rr) / bnorm]
    true_rel = None
    for it in range(1, max_iter + 1):
        ap = matvec(p)
        pap = float(p @ ap)
        if pap <= 0.0:
            # lost positive definiteness; report what we have
            return x, it - 1, history, False, true_rel
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        rel = math.sqrt(rr_new) / bnorm
        history.append(rel)
        true_rel = None
        if rel <= tol:
            true_rel = float(np.linalg.norm(b - matvec(x))) / bnorm
            if true_rel <= tol:
                return x, it, history, True, true_rel
            rel = true_rel
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, max_iter, history, False, true_rel


def check_iteration(section, tol, max_iter, restart=1):
    """Raise unless an iteration can run with these arguments, named by their
    config keys under `section`."""
    if not 0.0 <= tol < math.inf:
        raise ConfigurationError(f"{section}.tolerance", f"must be finite and >= 0, got {tol}")
    for key, count in (("max_iterations", max_iter), ("restart", restart)):
        # a bool is an int, and a float count fails only deep in the loops
        if not _is_number(count, numbers.Integral) or count < 1:
            raise ConfigurationError(f"{section}.{key}", f"must be an integer >= 1, got {count!r}")


def check_solver(handle, method, tol, max_iter, restart, preconditioner=None):
    """Raise unless `solve_linear` can solve with `handle` and these
    arguments, named by their `solver.*` config keys."""
    check_iteration("solver", tol, max_iter, restart)
    if method == "cg":
        if handle.form != "strong-weak" or not handle.system.symmetric_eligible:
            raise ConfigurationError(
                "solver.method",
                "cg requires the strong-weak form of a symmetry-eligible system",
            )
        if not handle.massive:
            raise ConfigurationError(
                "solver.method",
                "cg requires the massive operator; without the mass matrix "
                "the operator M^-1 A is not symmetric",
            )
        if preconditioner is not None:
            raise ConfigurationError(
                "solver.method", "cg does not take a preconditioner; use gmres"
            )
    elif method != "gmres":
        raise ConfigurationError("solver.method", f"unknown method {method!r}")


def _flat_rhs(handle, rhs):
    """A right-hand side as a new flat array: one primal FieldVector on the
    handle's mesh, or an array of n_primal_dofs values; all finite."""
    if isinstance(rhs, FieldVector):
        handle._check(rhs, "primal", "the right-hand side", single=True)
        rhs = rhs.data
    b = np.asarray(rhs, dtype=float).ravel().copy()
    if b.size != handle.n_primal_dofs:
        raise ValueError(
            f"the right-hand side has {b.size} values, not the handle's "
            f"n_primal_dofs = {handle.n_primal_dofs}"
        )
    if not np.isfinite(b).all():
        raise FloatingPointError(f"non-finite right-hand side at DoF {np.argmin(np.isfinite(b))}")
    return b


def solve_linear(
    handle,
    rhs,
    method: str = "gmres",
    tol: float = 1e-10,
    max_iter: int = 10000,
    restart: int = 50,
    preconditioner=None,
):
    """Iterative solve of handle(u) = rhs, matrix-free.

    For non-linearized handles of linear systems the inhomogeneous boundary
    contribution handle(0) is moved to the right-hand side, so the returned
    field satisfies the affine equation. Non-convergence is reported, not
    raised.
    """
    check_solver(handle, method, tol, max_iter, restart, preconditioner)
    if not handle.is_linearized and not handle.system.linear:
        raise ConfigurationError(
            "solver.method",
            "nonlinear operators need solve_newton or a linearization point",
        )

    t0 = time.perf_counter()
    b = _flat_rhs(handle, rhs)
    lin = handle if handle.is_linearized else handle.linearized_at()
    if not handle.is_linearized:
        b = b - handle.matvec(np.zeros_like(b))

    def wrap(x):
        return FieldVector(handle.mesh, handle.system.n_primal, x)

    if np.linalg.norm(b) == 0.0:
        return wrap(np.zeros_like(b)), SolveReport(
            0, 0.0, tol, True, time.perf_counter() - t0, [0.0]
        )
    precond = preconditioner if preconditioner is not None else (lambda x: x)
    if method == "cg":
        x, its, history, ok, final = _cg(lin.matvec, b, tol, max_iter)
    else:
        x, its, history, ok, final = _gmres(
            lin.matvec, b, tol, max_iter, restart, precond
        )
    if final is None:  # the driver stopped without the true residual of x
        final = np.linalg.norm(b - lin.matvec(x)) / np.linalg.norm(b)
    # Python scalars, not numpy ones, so that a report converts to JSON
    return wrap(x), SolveReport(
        its, float(final), tol, bool(ok and final <= tol), time.perf_counter() - t0, history
    )


# Forcing terms of inexact Newton: Eisenstat & Walker (1996), choice 2,
# eta = gamma (|F_k| / |F_k-1|)^alpha, raised to gamma eta_k-1^alpha when that
# exceeds _EW_SAFEGUARD, at most _EW_MAX, and _EW_FIRST at the first step
_EW_GAMMA, _EW_ALPHA, _EW_FIRST, _EW_MAX, _EW_SAFEGUARD = 0.9, 2.0, 0.5, 0.9, 0.1


def solve_newton(
    handle,
    rhs,
    tol: float = 1e-10,
    max_iter: int = 30,
    inner: Optional[dict] = None,
    initial_guess: Optional[FieldVector] = None,
):
    """Inexact Newton on handle(u) = rhs with a matrix-free inner solve.

    The Jacobian at each iterate is the handle linearized there. Step k
    solves it only to the relative residual eta_k = max(inner tol,
    0.5 tau / |F_k|, EW_k). The inner `tol` is a floor, the tightest an
    inner solve is ever asked for. tau = tol |rhs| (tol when rhs = 0) is
    Newton's absolute tolerance; its term keeps the last step from
    oversolving (Kelley 1995). EW_k is Eisenstat and Walker's choice 2 with
    its safeguard (the `_EW_*` constants); it is 0 for a linear system,
    whose Newton model is exact, so that it takes one step.

    No damping: initial guesses are the caller's responsibility. Three
    consecutive residual increases abort with a failure report. The report's
    `inner` lists the report of each step's linear solve, with the eta_k it
    was given as its `tolerance`, so an inner solve that did not converge
    shows there.
    """
    # every keyword of solve_linear, with its default here
    params = dict(method="gmres", tol=1e-12, max_iter=10000, restart=50, preconditioner=None)
    for key in inner or {}:
        if key not in params:
            raise ConfigurationError(
                "inner", f"unknown key {key!r}; the keys are solve_linear's: {', '.join(params)}"
            )
    params.update(inner or {})
    check_iteration("newton", tol, max_iter)
    check_solver(handle, **params)
    t0 = time.perf_counter()
    b = _flat_rhs(handle, rhs)
    if initial_guess is not None:
        handle._check(initial_guess, "primal", "the initial guess", single=True)
    scale = np.linalg.norm(b)
    if scale == 0.0:
        scale = 1.0  # fall back to absolute residuals
    u = initial_guess.copy() if initial_guess is not None else handle.zero_primal()
    res = b - handle.apply(u).data
    rel = np.linalg.norm(res) / scale
    history = [rel]
    growth = 0
    its = 0
    inner_reports = []
    while rel > tol and its < max_iter:
        if handle.system.linear:
            ew = 0.0
        elif its == 0:
            ew = _EW_FIRST
        else:
            ew = _EW_GAMMA * (rel / history[-2]) ** _EW_ALPHA
            kept = _EW_GAMMA * eta ** _EW_ALPHA
            ew = min(_EW_MAX, max(ew, kept) if kept > _EW_SAFEGUARD else ew)
        eta = float(max(params["tol"], 0.5 * tol / rel, ew))
        jac = handle.linearized_at(u)
        du, inner_report = solve_linear(
            jac,
            FieldVector(handle.mesh, handle.system.n_primal, res),
            **dict(params, tol=eta),
        )
        inner_reports.append(inner_report)
        u = u + du
        its += 1
        res = b - handle.apply(u).data
        new_rel = np.linalg.norm(res) / scale
        history.append(new_rel)
        if new_rel >= rel:
            growth += 1
            if growth >= 3:
                rel = new_rel
                break
        else:
            growth = 0
        rel = new_rel
    return u, SolveReport(
        its, float(rel), tol, bool(rel <= tol), time.perf_counter() - t0, history, inner_reports
    )
