"""Assembled operators against matrices stored from an earlier implementation.

Each case assembles the linearized compact operator (and, for one
nonconforming mesh, the full first-order operator) of a small problem and
compares it with the matrix stored under tests/snapshots/. A rewrite of the
operator may reorder floating-point sums but must not change the scheme, so
the stored matrices are reproduced to 1e-13 relative to their largest entry.

Regenerate the files of the named cases (only when the scheme itself
changes on purpose, and only the cases it changes) with

    PYTHONPATH=src python tests/test_snapshots.py --write NAME [NAME ...]

A change meant to keep every output to the last bit is checked against the
tree it starts from by dumping the same outputs from both and comparing them
with `np.array_equal`:

    PYTHONPATH=OLD/src python tests/test_snapshots.py --dump old.npz
    PYTHONPATH=NEW/src python tests/test_snapshots.py --dump new.npz
    PYTHONPATH=NEW/src python tests/test_snapshots.py --compare old.npz new.npz

The dump holds, per case, the compact and the full matrix, one seeded batch
applied to the case's handle and the L2 error of one of its vectors with and
without the handle, and the mesh geometry (`geometry_arrays`): every
element group's coordinates, J^-1 and mass, the mesh cache's face arrays,
the characteristic h and every element's `coords()`; for the cases in
`UNLINEARIZED`, a batch, a single vector and a full vector applied to the
handle before linearization; the
solution and report of the solves in `SOLVES`: CG on poisson-conforming,
and Newton on puncture with every inner report, wall times left out; and
the bytes of every file that `ipdg solve`, a 2-level h-`convergence` and
compact and full `assemble` write for the configurations in `CLI_CONFIGS`:
a rectilinear Poisson Gaussian, and a curved annulus on a conformally flat
background with Neumann and Robin data. `--compare` lists every array that
differs or is in one file only, and exits nonzero if there is any; it also
lists, without failing, every array that is equal but not byte for byte,
such as one with a zero of the other sign.
"""

import contextlib
import io
import os
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
import yaml

import ipdg.cli
from ipdg import (
    BoundaryMap,
    ConformallyFlatBackground,
    DirichletBC,
    FalloffDirichletBC,
    FieldVector,
    FlatBackground,
    NeumannBC,
    OperatorHandle,
    PunctureSpec,
    RobinBC,
    assemble_explicit,
    build_annulus_mesh,
    build_rectilinear_mesh,
    l2_error,
    make_system,
    solve_linear,
    solve_newton,
    split_element,
    with_degrees,
)
from test_operators import interpolant

SNAPSHOT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snapshots")
RTOL = 1e-13
BG = FlatBackground()


def unit_square(level, degree):
    return build_rectilinear_mesh(
        [(0.0, 1.0), (0.0, 1.0)], (level, level), (degree, degree)
    )


def poisson_conforming():
    mesh = unit_square(1, 3)
    handle = OperatorHandle(
        mesh, make_system("poisson-flat", dim=2), BG,
        BoundaryMap({"all": DirichletBC(0.0)}), form="strong-weak",
    )
    return handle.linearized_at()


def h_nonconforming():
    # one split element next to one raised element: half-coverage mortars
    # with differing degrees on the two sides
    mesh = split_element(with_degrees(unit_square(1, 3), 3, (4, 4)), 0)
    handle = OperatorHandle(
        mesh, make_system("poisson-flat", dim=2), BG,
        BoundaryMap({"x-lower": NeumannBC(0.0), "all": DirichletBC(0.0)}),
        form="strong",
    )
    return handle.linearized_at()


def p_nonconforming():
    mesh = with_degrees(unit_square(1, 3), 0, (4, 2))
    mesh = with_degrees(mesh, 3, (2, 5))
    handle = OperatorHandle(
        mesh, make_system("poisson-flat", dim=2), BG,
        BoundaryMap({"all": DirichletBC(0.0)}),
        form="strong-weak", massive=False, penalty_parameter=1.5,
    )
    return handle.linearized_at()


def nonconforming_3d():
    # split faces in 3D: mortars with two transverse dimensions and every
    # combination of half coverages
    mesh = build_rectilinear_mesh([(0.0, 1.0)] * 3, (1, 0, 0), (1, 1, 1))
    mesh = split_element(with_degrees(mesh, 1, (2, 1, 3)), 0)
    handle = OperatorHandle(
        mesh, make_system("poisson-flat", dim=3), BG,
        BoundaryMap({"all": DirichletBC(0.0)}), form="strong-weak",
    )
    return handle.linearized_at()


def annulus():
    background = ConformallyFlatBackground(
        lambda x: 0.1 * x[0],
        lambda x: np.stack([0.1 * np.ones_like(x[0]), np.zeros_like(x[0])]),
    )
    mesh = build_annulus_mesh(0.5, 1.0, 3, (0, 0), (3, 3))
    handle = OperatorHandle(
        mesh, make_system("poisson-curved", dim=2), background,
        BoundaryMap({"inner": DirichletBC(0.0), "outer": RobinBC(1.0, 2.0, 0.0)}),
        form="strong-weak",
    )
    return handle.linearized_at()


def elasticity():
    mesh = unit_square(1, 2)
    handle = OperatorHandle(
        mesh, make_system("elasticity", dim=2, lame_lambda=1.5, shear_modulus=0.7),
        BG, BoundaryMap({"y-upper": NeumannBC(0.0), "all": DirichletBC(0.0)}),
        form="strong-weak",
    )
    return handle.linearized_at()


def curved_elasticity():
    # the one case where taking the gradient before the strain map
    # re-associates the sums of the auxiliary divergence
    mesh = build_annulus_mesh(0.5, 1.0, 3, (0, 0), (3, 3))
    handle = OperatorHandle(
        mesh, make_system("elasticity", dim=2, lame_lambda=1.5, shear_modulus=0.7),
        BG, BoundaryMap({"inner": DirichletBC(0.0), "outer": NeumannBC(0.0)}),
        form="strong-weak",
    )
    return handle.linearized_at()


def mortar_elasticity_handle():
    # strong form across mortars with a non-identity side (a split element
    # next to a raised one), with a trace-reading Robin condition beside
    # Neumann and Dirichlet data
    mesh = split_element(with_degrees(unit_square(1, 2), 3, (3, 3)), 0)
    return OperatorHandle(
        mesh, make_system("elasticity", dim=2, lame_lambda=1.5, shear_modulus=0.7), BG,
        BoundaryMap({
            "x-lower": RobinBC(1.0, 2.0, 0.3),
            "y-upper": NeumannBC(lambda x, normal: np.stack([x[0], -0.5 * x[1]])),
            "all": DirichletBC(lambda x: np.stack([np.sin(x[0]), x[0] * x[1]])),
        }),
        form="strong",
    )


def mortar_elasticity():
    handle = mortar_elasticity_handle()
    point = interpolant(handle.mesh, lambda x: 0.1 * np.stack([np.sin(x[0]), np.cos(x[1])]), 2)
    return handle.linearized_at(point)


def puncture_handle():
    system = make_system(
        "puncture", dim=3,
        punctures=[PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3),
                                spin=(0.0, 0.1, 0.0))],
    )
    mesh = build_rectilinear_mesh([(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)],
                                  (1, 0, 0), (2, 2, 2))
    return OperatorHandle(
        mesh, system, BG, BoundaryMap({"all": FalloffDirichletBC(0.2)}),
        form="strong-weak",
    )


def puncture():
    handle = puncture_handle()
    # linearize about a nonzero state so the linearized source matters
    point = interpolant(handle.mesh, lambda x: 0.1 * np.sin(x[0] + 2.0 * x[1] - x[2])[None])
    return handle.linearized_at(point)


# name -> (function making the handle, include the auxiliary block)
CASES = {
    "poisson-conforming": (poisson_conforming, False),
    "h-nonconforming": (h_nonconforming, False),
    "h-nonconforming-full": (h_nonconforming, True),
    "p-nonconforming": (p_nonconforming, False),
    "nonconforming-3d": (nonconforming_3d, False),
    "annulus": (annulus, False),
    "elasticity": (elasticity, False),
    "curved-elasticity": (curved_elasticity, False),
    "mortar-elasticity": (mortar_elasticity, False),
    "puncture": (puncture, False),
}


def cg_solve():
    """CG on the poisson-conforming case's handle, seeded right-hand side."""
    handle = poisson_conforming()
    rhs = np.random.default_rng(1).standard_normal(handle.n_primal_dofs)
    return solve_linear(handle, FieldVector(handle.mesh, 1, rhs), method="cg", tol=1e-12)


def newton_solve():
    """Newton with GMRES inner solves on the puncture case's nonlinear handle."""
    handle = puncture_handle()
    return solve_newton(handle, handle.zero_primal(), tol=1e-12, inner={"tol": 1e-12})


# the face arrays of the mesh cache that `--dump` records per case
FACE_ARRAYS = ("face_coords", "face_normal", "face_h", "face_measure", "face_mass", "face_p",
               "face_sigma")


def geometry_arrays(name, handle):
    """The geometry a handle's operator is built from, under `name/geometry/`."""
    cache, mesh = handle._cache, handle.mesh
    arrays = {
        f"{name}/geometry/group{g}/{attr}": getattr(group, attr)
        for g, group in enumerate(cache.groups) for attr in ("coords", "jinv", "mass")
    }
    arrays.update({f"{name}/geometry/{attr}": getattr(cache, attr) for attr in FACE_ARRAYS})
    arrays[f"{name}/geometry/characteristic_h"] = np.array(mesh.characteristic_h())
    arrays[f"{name}/geometry/element_coords"] = np.concatenate(
        [e.coords().reshape(mesh.dim, -1) for e in mesh.elements], axis=1
    )
    return arrays


# case name -> a solve on that case that `--dump` records
SOLVES = {"poisson-conforming": cg_solve, "puncture": newton_solve}


# case name -> the case's handle before linearization, whose residuals A(u)
# and full residuals `--dump` records
UNLINEARIZED = {"mortar-elasticity": mortar_elasticity_handle}


# case name -> a CLI configuration like the case's problem, whose output files
# `--dump` records byte for byte after the runs in `CLI_RUNS`
CLI_CONFIGS = {
    "poisson-conforming": {
        "system": {"name": "poisson-flat"},
        "domain": {"kind": "rectilinear", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        "refinement": {"levels": [1, 1], "degrees": [3, 3]},
        "solution": {
            "name": "gaussian",
            "params": {"center": [0.35, 0.35], "width": 0.15, "amplitude": 1.0},
        },
        "boundary_conditions": {"all": {"type": "dirichlet", "analytic": True}},
        "operator": {"form": "strong-weak"},
        "solver": {"method": "cg", "tolerance": 1.0e-10},
    },
    "annulus": {
        "system": {"name": "poisson-curved"},
        "domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 1.0, "n_wedges": 3},
        "refinement": {"levels": [0, 0], "degrees": [3, 3]},
        "background": {"kind": "conformally-flat", "scale": 0.1, "axis": 0},
        "solution": {"name": "sin-product"},
        "boundary_conditions": {
            "inner": {"type": "neumann", "analytic": True},
            "outer": {"type": "robin", "a": 1.0, "b": 2.0, "analytic": True},
        },
        "operator": {"form": "strong-weak"},
        "solver": {"method": "gmres", "tolerance": 1.0e-10},
    },
}
CLI_RUNS = (
    ["solve"],
    ["convergence", "--mode", "h", "--levels", "2"],
    ["assemble", "--out", "compact.txt"],
    ["assemble", "--with-auxiliary", "--out", "full.txt"],
)


def cli_files(name):
    """File name -> bytes (uint8) of every file `CLI_RUNS` write for the case's
    configuration, run by `ipdg.cli.main` into a temporary directory."""
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "run.yaml")
        with open(path, "w") as f:
            yaml.safe_dump({**CLI_CONFIGS[name], "output": {"prefix": "run"}}, f)
        with mock.patch.dict(os.environ, {"IPDG_OUTPUT_DIR": out}), \
                contextlib.redirect_stdout(io.StringIO()):
            for argv in CLI_RUNS:
                code = ipdg.cli.main([argv[0], "--config", path] + argv[1:])
                if code != 0:
                    raise RuntimeError(f"{name}: ipdg {' '.join(argv)} exited {code}")
        return {
            file: np.fromfile(os.path.join(out, file), dtype=np.uint8)
            for file in sorted(os.listdir(out)) if file != "run.yaml"
        }


def report_arrays(prefix, report):
    """A solve report's numbers, wall time left out, inner reports included."""
    arrays = {
        f"{prefix}/summary": np.array(
            [report.iterations, report.residual_norm, report.tolerance, report.converged]
        ),
        f"{prefix}/history": np.array(report.residual_history),
    }
    for k, inner in enumerate(report.inner):
        arrays.update(report_arrays(f"{prefix}/inner/{k}", inner))
    return arrays


def assemble_case(name):
    build, full = CASES[name]
    return assemble_explicit(build(), include_auxiliary=full).matrix


def snapshot_path(name):
    return os.path.join(SNAPSHOT_DIR, f"{name}.npz")


def load_snapshot(name):
    with np.load(snapshot_path(name)) as f:
        return scipy.sparse.csr_matrix(
            (f["data"], f["indices"], f["indptr"]), shape=tuple(f["shape"])
        )


def write_snapshots(names):
    os.makedirs(SNAPSHOT_DIR, exist_ok=True)
    for name in names:
        mat = assemble_case(name)
        np.savez_compressed(
            snapshot_path(name), data=mat.data, indices=mat.indices,
            indptr=mat.indptr, shape=np.array(mat.shape),
        )
        print(f"{name}: {mat.shape[0]} rows, {mat.nnz} entries")


@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot_reproduced(name):
    stored = load_snapshot(name)
    fresh = assemble_case(name)
    assert fresh.shape == stored.shape
    scale = abs(stored).max()
    deviation = abs(fresh - stored).max() / scale
    assert deviation <= RTOL, f"{name}: max|A - A_stored|/max|A_stored| = {deviation:.3e}"


def test_snapshots_stay_small():
    total = sum(os.path.getsize(snapshot_path(name)) for name in CASES)
    assert total < 300_000


def dump_outputs(path):
    """Write the outputs `--compare` checks, for every case builder, to `path`."""
    arrays = {}
    for build in dict.fromkeys(b for b, _ in CASES.values()):
        name, handle = build.__name__, build()
        for block, full in (("compact", False), ("full", True)):
            mat = assemble_explicit(handle, include_auxiliary=full).matrix
            for part in ("data", "indices", "indptr"):
                arrays[f"{name}/{block}/{part}"] = getattr(mat, part)
        arrays.update(geometry_arrays(name, handle))
        mesh, n = handle.mesh, handle.system.n_primal
        rows = np.random.default_rng(0).standard_normal((3, handle.n_primal_dofs))
        arrays[f"{name}/apply"] = handle.apply(FieldVector.batch(mesh, n, rows)).data
        u = FieldVector.from_flat(mesh, n, rows[0])
        # a single vector takes its own path through the operator's layout
        arrays[f"{name}/matvec"] = handle.matvec(rows[0])
        arrays[f"{name}/reconstruct_auxiliary"] = handle.reconstruct_auxiliary(u).data
        value = lambda x: np.repeat(np.sin(x[:1] + 0.5 * x[-1:]), n, axis=0)
        arrays[f"{name}/l2_error"] = np.array([
            l2_error(mesh, u, value, handle.background),
            l2_error(mesh, u, value, handle.background, handle=handle),
        ])
    for name, build in UNLINEARIZED.items():
        if name in CASES:
            handle, key = build(), build.__name__
            rows = np.random.default_rng(0).standard_normal((3, handle.n_primal_dofs))
            batch = FieldVector.batch(handle.mesh, handle.system.n_primal, rows)
            arrays[f"{key}/apply"] = handle.apply(batch).data
            arrays[f"{key}/matvec"] = handle.matvec(rows[0])
            full = np.random.default_rng(1).standard_normal(
                handle.n_auxiliary_dofs + handle.n_primal_dofs
            )
            arrays[f"{key}/matvec_full"] = handle.matvec_full(full)
    for name, solve in SOLVES.items():
        if name in CASES:
            u, report = solve()
            arrays[f"{solve.__name__}/u"] = u.data
            arrays.update(report_arrays(solve.__name__, report))
    for name in CLI_CONFIGS:
        if name in CASES:
            for file, data in cli_files(name).items():
                arrays[f"cli/{name}/{file}"] = data
    np.savez(path, **arrays)
    print(f"{path}: {len(arrays)} arrays")


def compare_outputs(path_a, path_b):
    """Names of the arrays of two dumps that are not `np.array_equal`, or in one only."""
    with np.load(path_a) as a, np.load(path_b) as b:
        return sorted(
            name for name in set(a.files) | set(b.files)
            if name not in a.files or name not in b.files or not np.array_equal(a[name], b[name])
        )


def byte_only_differences(path_a, path_b):
    """Names of the arrays in both dumps that are `np.array_equal` but differ
    in dtype, shape or bytes, such as the sign of a zero."""
    with np.load(path_a) as a, np.load(path_b) as b:
        return sorted(
            name for name in set(a.files) & set(b.files)
            if np.array_equal(a[name], b[name]) and (
                a[name].dtype != b[name].dtype or a[name].shape != b[name].shape
                or a[name].tobytes() != b[name].tobytes())
        )


USAGE = (
    "usage: PYTHONPATH=src python tests/test_snapshots.py --write NAME [NAME ...]\n"
    "       PYTHONPATH=src python tests/test_snapshots.py --dump FILE\n"
    "       PYTHONPATH=src python tests/test_snapshots.py --compare FILE FILE\n"
)


def main(argv):
    """`--write NAME [NAME ...]` rewrites the named cases' files, `--dump` and
    `--compare` check outputs bit for bit (`--compare` also lists, without
    failing, the arrays that are equal but not byte for byte); anything
    else, an unknown name included, exits with the usage and writes nothing."""
    command, names = argv[:1], argv[1:]
    if command == ["--dump"] and len(names) == 1:
        return dump_outputs(names[0])
    if command == ["--compare"] and len(names) == 2:
        differ = compare_outputs(*names)
        print("\n".join(differ) if differ else "all arrays equal")
        for name in byte_only_differences(*names):
            print(f"equal, but not byte for byte: {name}")
        sys.exit(1 if differ else 0)
    unknown = [name for name in names if name not in CASES]
    if command != ["--write"] or not names or unknown:
        sys.exit(
            (f"unknown case(s): {', '.join(unknown)}\n" if unknown else "")
            + USAGE + f"cases: {', '.join(CASES)}"
        )
    write_snapshots(names)


def test_write_rejects_unknown_or_missing_names(monkeypatch):
    def refuse(names):
        raise AssertionError(f"would write {names}")

    monkeypatch.setattr(sys.modules[__name__], "write_snapshots", refuse)
    for argv in ([], ["--write"], ["--write", "annulus", "no-such-case"], ["annulus"],
                 ["--dump"], ["--compare", "one.npz"]):
        with pytest.raises(SystemExit, match="usage"):
            main(argv)


def test_dump_and_compare(tmp_path, monkeypatch, capsys):
    # two dumps of the same tree are equal; a changed bit, or an array in
    # one file only, is listed and fails the comparison
    monkeypatch.setattr(sys.modules[__name__], "CASES", {"elasticity": (elasticity, False)})
    paths = [str(tmp_path / f"{k}.npz") for k in range(3)]
    for path in paths[:2]:
        main(["--dump", path])
    with np.load(paths[0]) as f:
        arrays = dict(f)
    assert sorted(arrays) == sorted(
        [f"elasticity/{b}/{p}" for b in ("compact", "full") for p in ("data", "indices", "indptr")]
        + ["elasticity/apply", "elasticity/l2_error", "elasticity/matvec",
           "elasticity/reconstruct_auxiliary"]
        + [f"elasticity/geometry/group0/{a}" for a in ("coords", "jinv", "mass")]
        + [f"elasticity/geometry/{a}" for a in FACE_ARRAYS]
        + ["elasticity/geometry/characteristic_h", "elasticity/geometry/element_coords"]
    )
    with pytest.raises(SystemExit) as exit_info:
        main(["--compare"] + paths[:2])
    assert exit_info.value.code == 0
    arrays["elasticity/apply"][0, 0] = np.nextafter(arrays["elasticity/apply"][0, 0], np.inf)
    arrays["extra"] = np.zeros(1)
    np.savez(paths[2], **arrays)
    assert compare_outputs(paths[0], paths[2]) == ["elasticity/apply", "extra"]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["--compare", paths[0], paths[2]])
    assert exit_info.value.code == 1
    assert capsys.readouterr().out.split() == ["elasticity/apply", "extra"]


def test_compare_lists_byte_only_differences(tmp_path, capsys):
    # a zero of the other sign, or another dtype of the same values, is
    # listed but does not fail the comparison; a changed value does
    paths = [str(tmp_path / f"{k}.npz") for k in range(3)]
    np.savez(paths[0], a=np.array([0.0, 1.0]), b=np.arange(3), c=np.ones(2))
    np.savez(paths[1], a=np.array([-0.0, 1.0]), b=np.arange(3.0), c=np.ones(2))
    np.savez(paths[2], a=np.array([-0.0, 1.0]), b=np.arange(3), c=np.zeros(2))
    assert byte_only_differences(paths[0], paths[1]) == ["a", "b"]
    with pytest.raises(SystemExit) as exit_info:
        main(["--compare"] + paths[:2])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.splitlines() == [
        "all arrays equal", "equal, but not byte for byte: a", "equal, but not byte for byte: b",
    ]
    with pytest.raises(SystemExit) as exit_info:
        main(["--compare", paths[0], paths[2]])
    assert exit_info.value.code == 1
    assert capsys.readouterr().out.splitlines() == ["c", "equal, but not byte for byte: a"]


def test_dump_records_the_solves_of_its_cases(tmp_path, monkeypatch):
    # a case in `SOLVES` adds its solve's solution, summary and residual
    # history; Newton adds those of every inner solve as well. A case in
    # `CLI_CONFIGS` adds the bytes of every file its CLI runs write
    names = set(SOLVES) | set(CLI_CONFIGS)
    monkeypatch.setattr(sys.modules[__name__], "CASES", {name: CASES[name] for name in names})
    path = str(tmp_path / "solves.npz")
    main(["--dump", path])
    with np.load(path) as f:
        arrays = dict(f)
    for solve in SOLVES.values():
        u, report = solve()
        name = solve.__name__
        assert np.array_equal(arrays[f"{name}/u"], u.data)
        assert np.array_equal(arrays[f"{name}/history"], report.residual_history)
        assert arrays[f"{name}/summary"][-1] == 1.0  # converged
        inner = [key for key in arrays if key.startswith(f"{name}/inner/")]
        assert len(inner) == 2 * len(report.inner)
    assert report.inner  # Newton's
    for name in CLI_CONFIGS:
        files = cli_files(name)
        assert sorted(files) == ["compact.txt", "full.txt", "run-convergence.csv",
                                 "run-report.csv"]
        assert sorted(k for k in arrays if k.startswith(f"cli/{name}/")) == [
            f"cli/{name}/{file}" for file in files
        ]
        for file, data in files.items():
            assert data.size > 0 and np.array_equal(arrays[f"cli/{name}/{file}"], data)
        report = files["run-report.csv"].tobytes().decode().splitlines()
        assert report[0] == "error,iterations,residual_norm,converged"
        assert report[1].endswith(",true")


if __name__ == "__main__":
    main(sys.argv[1:])
