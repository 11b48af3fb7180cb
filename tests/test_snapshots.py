"""Assembled operators against matrices stored from an earlier implementation.

Each case assembles the linearized compact operator (and, for one
nonconforming mesh, the full first-order operator) of a small problem and
compares it with the matrix stored under tests/snapshots/. A rewrite of the
operator may reorder floating-point sums but must not change the scheme, so
the stored matrices are reproduced to 1e-13 relative to their largest entry.

Regenerate the files of the named cases (only when the scheme itself
changes on purpose, and only the cases it changes) with

    PYTHONPATH=src python tests/test_snapshots.py --write NAME [NAME ...]
"""

import os
import sys

import numpy as np
import pytest
import scipy.sparse

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
    make_system,
    split_element,
    with_degrees,
)

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


def puncture():
    system = make_system(
        "puncture", dim=3,
        punctures=[PunctureSpec(1.0, (0.1, 0.2, 0.3), momentum=(0.2, 0.0, 0.3),
                                spin=(0.0, 0.1, 0.0))],
    )
    mesh = build_rectilinear_mesh([(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)],
                                  (1, 0, 0), (2, 2, 2))
    handle = OperatorHandle(
        mesh, system, BG, BoundaryMap({"all": FalloffDirichletBC(0.2)}),
        form="strong-weak",
    )
    # linearize about a nonzero state so the linearized source matters
    point = FieldVector(mesh, 1, [
        0.1 * np.sin(el.coords()[0] + 2.0 * el.coords()[1] - el.coords()[2])[None]
        for el in mesh.elements
    ])
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
    "puncture": (puncture, False),
}


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


def main(argv):
    """`--write NAME [NAME ...]` rewrites the named cases' files; anything
    else, an unknown name included, exits with the usage and writes none."""
    names = argv[1:]
    unknown = [name for name in names if name not in CASES]
    if argv[:1] != ["--write"] or not names or unknown:
        sys.exit(
            (f"unknown case(s): {', '.join(unknown)}\n" if unknown else "")
            + "usage: PYTHONPATH=src python tests/test_snapshots.py --write NAME [NAME ...]\n"
            + f"cases: {', '.join(CASES)}"
        )
    write_snapshots(names)


def test_write_rejects_unknown_or_missing_names(monkeypatch):
    def refuse(names):
        raise AssertionError(f"would write {names}")

    monkeypatch.setattr(sys.modules[__name__], "write_snapshots", refuse)
    for argv in ([], ["--write"], ["--write", "annulus", "no-such-case"], ["annulus"]):
        with pytest.raises(SystemExit, match="usage"):
            main(argv)


if __name__ == "__main__":
    main(sys.argv[1:])
