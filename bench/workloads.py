"""The three benchmark workloads, each run against the public API of ipdg.

A workload is built once per run from the seed (`make(name, seed, workdir)`)
and then run as repeated passes. Every pass returns the outcome of each
operation it attempted (solves, assemblies and correctness gates) plus the
values it reports. The seed moves only the inputs named in each workload's
docstring; the DoF counts do not depend on it.

Names of the library are looked up on the `ipdg` modules at call time, so the
wrappers that `tracing.py` installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import numpy as np
import scipy.sparse
import yaml

import ipdg
import ipdg.cli
import ipdg.mesh

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_ERRORS = os.path.join(HERE, "reference_errors.json")

# Relative tolerance of the finest-level error against the recorded value.
# Identical code reproduces the error bit for bit; the tolerance leaves room
# for refactors that reorder floating-point sums without changing the scheme.
ERROR_RTOL = 1e-6


class Pass:
    """Outcome of one pass: named operations and reported values."""

    def __init__(self):
        self.ops = []  # (name, ok, detail)
        self.values = {}
        self.dofs = {}

    def op(self, name, ok, detail=""):
        self.ops.append((name, bool(ok), detail))

    @property
    def failed(self):
        return [o for o in self.ops if not o[1]]


# -- poisson-hconv ----------------------------------------------------------

# The Gaussian centre is one of these eight points, picked by the seed: the
# mirror images of (0.35, 0.35) and of (0.425, 0.425) in the square's
# symmetries. Both orbits cost the same CG work (340 and 341 iterations over
# the three levels), so the spread across seeds measures the machine, not the
# input; centres nearer the middle or off the diagonals cost 196 to 351. The
# finest-level error of each centre is recorded in reference_errors.json
# (regenerate with record_reference.py).
CENTRES = tuple(
    (x, y) for d in (0.15, 0.075) for x in (0.5 - d, 0.5 + d) for y in (0.5 - d, 0.5 + d)
)


def write_poisson_config(centre, outdir):
    """Write the study's YAML configuration into `outdir`; returns its path."""
    config = {
        "system": {"name": "poisson-flat"},
        "domain": {"kind": "rectilinear", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        "refinement": {"levels": [1, 1], "degrees": [4, 4]},
        "solution": {
            "name": "gaussian",
            "params": {"center": list(centre), "width": 0.15, "amplitude": 1.0},
        },
        "boundary_conditions": {"all": {"type": "dirichlet", "analytic": True}},
        "operator": {"form": "strong-weak", "massive": True, "penalty_parameter": 1.0},
        "solver": {"method": "cg", "tolerance": 1e-10, "max_iterations": 20000},
        "output": {"directory": outdir, "prefix": "hconv"},
    }
    path = os.path.join(outdir, "hconv.yaml")
    with open(path, "w") as f:
        yaml.safe_dump(config, f)
    return path


def run_study(config_path, levels):
    """`ipdg convergence --mode h` in-process; returns the exit code and CSV rows."""
    argv = ["convergence", "--config", config_path, "--mode", "h", "--levels", str(levels)]
    csv_path = os.path.join(os.path.dirname(config_path), "hconv-convergence.csv")
    if os.path.exists(csv_path):
        os.remove(csv_path)
    with contextlib.redirect_stdout(io.StringIO()):
        code = ipdg.cli.main(argv)
    if code != 0:
        return code, []
    with open(csv_path) as f:
        header = f.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in f if line.strip()]
    return code, rows


class PoissonHConv:
    """h-convergence study through the CLI on a generated YAML file.

    poisson-flat 2D, 2x2 -> 8x8 elements at p=4 (100 -> 1600 DoFs),
    strong-weak, massive, CG tol 1e-10. Seeded: the centre of the Gaussian
    manufactured solution (width 0.15), one of eight points.
    """

    name = "poisson-hconv"
    levels = 3

    def __init__(self, seed, workdir):
        self.centre = random.Random(seed).choice(CENTRES)
        self.config_path = write_poisson_config(self.centre, workdir)
        with open(REFERENCE_ERRORS) as f:
            self.reference = json.load(f)["poisson-hconv"].get(centre_key(self.centre))

    def warm_up(self):
        # two levels fill every per-process cache the three-level study uses
        run_study(self.config_path, 2)

    def run(self, result: Pass):
        code, rows = run_study(self.config_path, self.levels)
        result.op("cli-exit-0", code == 0, f"exit code {code}")
        if code != 0:
            return
        finest = float(rows[-1]["error"])
        rate = float(rows[-1]["rate"])
        result.values["finest_error"] = finest
        result.values["last_rate"] = rate
        result.dofs = {"points_per_level": [int(r["n_points"]) for r in rows]}
        if self.reference is None:
            result.op("finest-error-recorded", False,
                      f"no recorded error for centre {self.centre}")
        else:
            dev = abs(finest - self.reference) / self.reference
            result.op("finest-error-recorded", dev <= ERROR_RTOL,
                      f"error {finest:.17e} vs recorded {self.reference:.17e}")
        result.op("last-rate-ge-4", rate >= 4.0, f"rate {rate:.3f}")


def centre_key(centre):
    return f"{centre[0]:.3f},{centre[1]:.3f}"


# -- nonconforming-assemble ---------------------------------------------------

class NonconformingAssemble:
    """Explicit assembly, Schur elimination and export on an hp-nonconforming mesh.

    4x4 elements at p=4 on the unit square, one element split and two
    elements raised to degrees (5, 5) and (4, 6) or (6, 4): 19 elements, 496
    primal and 992 auxiliary DoFs. Seeded: which element is split, which two
    are raised, and the probe vector of the matvec gate.

    The seed chooses only among meshes that cost the same to assemble: the
    split element lies on an edge of the square (6 h-nonconforming mortars),
    the split mesh needs 7 colours in the greedy distance-3 colouring that
    column probing uses, and both raised elements share one colour. Every
    seed then probes 186 compact and 558 full columns. Of these meshes it
    takes those in the largest group with the same face signature (see
    `face_signature`), so that every apply does the same work too and the
    spread across seeds measures the machine, not the input. That group
    holds 44 meshes, with the split at 6 places and the second raised
    element always at (4, 6).
    """

    name = "nonconforming-assemble"

    def __init__(self, seed, workdir):
        groups = {}
        base = self.base_mesh()
        for split in range(base.n_elements):
            mesh = ipdg.split_element(base, split)
            colours, h_mortars = probe_colours(mesh)
            if max(colours) + 1 != 7 or h_mortars != 6:
                continue
            topology = ipdg.mesh.mortar_topology(mesh)
            for a in range(mesh.n_elements):
                for b in range(mesh.n_elements):
                    if a == b or colours[a] != colours[b]:
                        continue
                    for anisotropic in ((4, 6), (6, 4)):
                        raised = ((a, (5, 5)), (b, anisotropic))
                        key = face_signature(mesh, topology, dict(raised))
                        groups.setdefault(key, []).append((split, raised))
        largest = max(groups.values(), key=len)
        self.split, self.raised = random.Random(seed).choice(largest)
        self.probe = np.random.default_rng(seed).standard_normal(496)
        self.path = os.path.join(workdir, "operator.txt")

    def base_mesh(self):
        return ipdg.build_rectilinear_mesh([(0.0, 1.0), (0.0, 1.0)], (2, 2), (4, 4))

    def build_mesh(self):
        mesh = ipdg.split_element(self.base_mesh(), self.split)
        for index, degrees in self.raised:
            mesh = ipdg.with_degrees(mesh, index, degrees)
        return mesh

    def handle(self):
        return ipdg.OperatorHandle(
            self.build_mesh(), ipdg.make_system("poisson-flat", dim=2),
            ipdg.FlatBackground(), ipdg.BoundaryMap({"all": ipdg.DirichletBC(0.0)}),
            form="strong-weak", massive=True, penalty_parameter=1.0,
        )

    def warm_up(self):
        self.handle()

    def run(self, result: Pass):
        lin = self.handle().linearized_at()
        compact = ipdg.assemble_explicit(lin)
        result.op("assemble-compact", compact.n_rows == lin.n_primal_dofs,
                  f"{compact.n_rows} rows")
        full = ipdg.assemble_explicit(lin, include_auxiliary=True)
        n_aux = lin.n_auxiliary_dofs
        result.op("assemble-full", full.n_rows == n_aux + lin.n_primal_dofs,
                  f"{full.n_rows} rows")
        schur = ipdg.schur_eliminate(full, n_aux)
        compact.write(self.path)
        result.dofs = {"primal": compact.n_rows, "auxiliary": n_aux}

        a = compact.matrix
        scale = abs(a).max()
        dev = abs(schur.matrix - a).max() / scale
        result.op("schur-equals-compact", dev <= 1e-12, f"max|S-A|/max|A| {dev:.3e}")
        result.values["schur_deviation"] = float(dev)

        ref = lin.matvec(self.probe)
        mismatch = np.linalg.norm(a @ self.probe - ref) / np.linalg.norm(ref)
        result.op("matrix-matches-matvec", mismatch <= 1e-12, f"relative {mismatch:.3e}")

        back = read_coordinate_file(self.path)
        same = back.shape == a.shape and (back != a).nnz == 0
        result.op("export-parses-back", same, f"{back.nnz} entries read")

        result.values["symmetry_defect"] = ipdg.symmetry_defect(a)
        result.values["nnz"] = int(a.nnz)


def probe_colours(mesh):
    """Greedy distance-3 colouring of the face-neighbour graph in mesh order,
    and the number of h-nonconforming mortars."""
    n = mesh.n_elements
    nbrs = [set() for _ in range(n)]
    h_mortars = 0
    for mortar in ipdg.mesh.mortar_topology(mesh).mortars:
        a, b = (side.element for side in mortar.sides)
        nbrs[a].add(b)
        nbrs[b].add(a)
        h_mortars += any(c != "full" for side in mortar.sides for c in side.coverage)
    colours = []
    for k in range(n):
        ball = set(nbrs[k]).union(*(nbrs[m] for m in nbrs[k])) - {k}
        used = {colours[m] for m in ball if m < k}
        colours.append(min(set(range(n)) - used))
    return colours, h_mortars


def face_signature(mesh, topology, raised):
    """How many faces of each kind a mesh has once elements are `raised`.

    A mortar's kind is the degree along the face and the coverage of each of
    its sides; an external face's kind is its element's degrees. Meshes with
    the same signature do the same arithmetic in an apply.
    """
    def degrees(k):
        return raised.get(k, mesh.elements[k].degrees)

    kinds = {}
    for mortar in topology.mortars:
        key = ("mortar",) + tuple(sorted(
            (degrees(s.element)[1 - s.dim], s.coverage) for s in mortar.sides))
        kinds[key] = kinds.get(key, 0) + 1
    for face in topology.external_faces:
        key = ("external", tuple(degrees(face.element)))
        kinds[key] = kinds.get(key, 0) + 1
    return tuple(sorted(kinds.items()))


def read_coordinate_file(path):
    """Parse the plain-text coordinate export back into a CSR matrix."""
    with open(path) as f:
        rows, cols, nnz = (int(t) for t in f.readline().split())
        data = np.loadtxt(f, ndmin=2) if nnz else np.zeros((0, 3))
    if data.shape[0] != nnz:
        raise ValueError(f"header promises {nnz} entries, file has {data.shape[0]}")
    return scipy.sparse.csr_matrix(
        (data[:, 2], (data[:, 0].astype(int) - 1, data[:, 1].astype(int) - 1)),
        shape=(rows, cols),
    )


# -- puncture-newton ----------------------------------------------------------

class PunctureNewton:
    """Newton solve of the 3D puncture equation with a GMRES inner solver.

    Two punctures of mass 0.5 near x = +-3 with momenta near +-0.2 y and
    spins near +-0.1 z, in the cube [-10, 10]^3 shifted by 0.39, 2^3
    elements at p=5 (1728 DoFs), strong-weak, FalloffDirichletBC. Seeded:
    small perturbations of every puncture position, momentum and spin.
    """

    name = "puncture-newton"
    newton_rtol = 1e-8  # relative to the residual of the zero initial guess
    inner = {"method": "gmres", "tol": 1e-10, "restart": 50, "max_iter": 5000}

    def __init__(self, seed, workdir):
        rng = random.Random(seed)

        def jitter(vec, amount):
            return tuple(v + rng.uniform(-amount, amount) for v in vec)

        self.punctures = [
            ipdg.PunctureSpec(
                0.5,
                jitter((sign * 3.0, 0.0, 0.0), 0.05),
                momentum=jitter((0.0, sign * 0.2, 0.0), 0.005),
                spin=jitter((0.0, 0.0, sign * 0.1), 0.0025),
            )
            for sign in (1.0, -1.0)
        ]

    def handle(self):
        shift = 0.39
        mesh = ipdg.build_rectilinear_mesh(
            [(-10.0 + shift, 10.0 + shift)] * 3, (1, 1, 1), (5, 5, 5)
        )
        system = ipdg.make_system("puncture", dim=3, punctures=self.punctures)
        return ipdg.OperatorHandle(
            mesh, system, ipdg.FlatBackground(),
            ipdg.BoundaryMap({"all": ipdg.FalloffDirichletBC(0.0)}),
            form="strong-weak",
        )

    def warm_up(self):
        handle = self.handle()
        handle.linearized_at().apply(handle.zero_primal())

    def run(self, result: Pass):
        handle = self.handle()
        rhs = handle.zero_primal()
        initial = np.linalg.norm(handle.apply(rhs).to_flat())
        tol = self.newton_rtol * initial
        u, report = ipdg.solve_newton(handle, rhs, tol=tol, inner=dict(self.inner))
        # solve_newton and the inner solves are counted through their reports
        residual = np.linalg.norm(handle.apply(u).to_flat())
        result.op("residual-recomputed", residual <= tol,
                  f"|A(u) - b| {residual:.3e} vs tol {tol:.3e}")
        result.values["newton_residual"] = float(residual)
        result.dofs = {"primal": handle.n_primal_dofs}


WORKLOADS = {w.name: w for w in (PoissonHConv, NonconformingAssemble, PunctureNewton)}


def make(name, seed, workdir):
    return WORKLOADS[name](seed, workdir)
