"""One home per rule: an invalid input names the same config key whether it
reaches the library directly or through `ipdg solve --config`.

Each rule lives in the library code that needs it and raises
ConfigurationError with its config key as the path; the configuration
layer only checks the YAML's shape. So every case below gives one path from
the library call and the same path, with exit code 2 and no traceback, from
the command line. Solver-section rules are checked by `assemble` as well.
"""

import numpy as np
import pytest
import yaml

from ipdg.background import FlatBackground
from ipdg.boundaries import BoundaryMap, DirichletBC, FalloffDirichletBC
from ipdg.cli import main
from ipdg.errors import ConfigurationError
from ipdg.mesh import build_annulus_mesh, build_rectilinear_mesh
from ipdg.operators import OperatorHandle
from ipdg.solutions import gaussian
from ipdg.solver import solve_linear, solve_newton
from ipdg.systems import Elasticity, Puncture, PunctureSpec, make_system

SQUARE = [(0.0, 1.0), (0.0, 1.0)]
CUBE = [[-1.0, 1.0]] * 3


def handle(form="strong-weak", bc=None):
    mesh = build_rectilinear_mesh(SQUARE, (1, 1), (2, 2))
    return OperatorHandle(
        mesh, make_system("poisson-flat", 2), FlatBackground(),
        BoundaryMap.everywhere(bc or DirichletBC(0.0)), form=form,
    )


def ones(h):
    return np.ones(h.n_primal_dofs)


PUNCTURE = {
    "system": {"name": "puncture", "punctures": [{"mass": 0.0, "position": [0.0, 0.0, 0.5]}]},
    "domain": {"kind": "rectilinear", "bounds": CUBE},
    "refinement": {"levels": [0, 0, 0], "degrees": [2, 2, 2]},
    "boundary_conditions": {"all": {"type": "falloff"}},
}

# path, the library call, the config's changes to a valid Poisson run (None
# drops a section), and whether `assemble` checks it too
CASES = [
    ("domain.r_inner",
     lambda: build_annulus_mesh(0.0, 2.0, 4, (0, 0), (2, 2)),
     {"domain": {"kind": "annulus", "r_inner": 0.0, "r_outer": 2.0, "n_wedges": 4}},
     False),
    ("solver.method",
     lambda: solve_linear(handle(form="strong"), ones(handle()), method="cg"),
     {"operator": {"form": "strong"}, "solver": {"method": "cg"}},
     True),
    ("solver.max_iterations",
     lambda: solve_linear(handle(), ones(handle()), max_iter=0),
     {"solver": {"max_iterations": 0}},
     True),
    ("newton.max_iterations",
     lambda: solve_newton(handle(), ones(handle()), max_iter=0),
     {"newton": {"max_iterations": 0}},
     True),
    ("system.shear_modulus",
     lambda: Elasticity(2, shear_modulus=0.0),
     {"system": {"name": "elasticity", "shear_modulus": 0.0}, "solution": None},
     False),
    ("system.punctures[0].mass",
     lambda: Puncture([PunctureSpec(0.0, (0.0, 0.0, 0.5))]),
     dict(PUNCTURE, solution=None),
     False),
    ("solution.params.width",
     lambda: gaussian(2, (0.5, 0.5), width=0.0),
     {"solution": {"name": "gaussian", "params": {"center": [0.5, 0.5], "width": 0.0}}},
     False),
    ("boundary_conditions.all.center",
     lambda: handle(bc=FalloffDirichletBC(1.0, (0.0, 0.0, 0.0))),
     {"boundary_conditions": {"all": {"type": "falloff", "amplitude": 1.0, "center": [0, 0, 0]}}},
     False),
    # a policy of the command line only: the library accepts C >= 0
    ("operator.penalty_parameter", None, {"operator": {"penalty_parameter": 0.5}}, False),
]


def write_config(tmp_path, changes):
    cfg = {
        "system": {"name": "poisson-flat"},
        "domain": {"kind": "rectilinear", "bounds": [list(b) for b in SQUARE]},
        "refinement": {"levels": [1, 1], "degrees": [2, 2]},
        "solution": {"name": "sin-product"},
        "boundary_conditions": {"all": {"type": "dirichlet", "value": 0.0}},
        "output": {"directory": str(tmp_path), "prefix": "rules"},
    }
    for key, value in changes.items():
        if value is None:
            cfg.pop(key)
        else:
            cfg[key] = value
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


@pytest.mark.parametrize("path, call, changes, assembles", CASES, ids=[c[0] for c in CASES])
def test_library_and_cli_name_the_same_key(tmp_path, capsys, path, call, changes, assembles):
    if call is not None:
        with pytest.raises(ConfigurationError) as err:
            call()
        assert err.value.path == path
    config = write_config(tmp_path, changes)
    commands = [["solve"]] + ([["assemble", "--out", "m.txt"]] if assembles else [])
    for command in commands:
        assert main([command[0], "--config", config] + command[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid configuration: {path}: "), err
        assert "Traceback" not in err
    assert not (tmp_path / "m.txt").exists()
