"""End-to-end command-line driver tests."""

import numpy as np
import pytest
import yaml

import ipdg.cli
from ipdg.cli import main
from ipdg.mesh import mortar_topology, refine_uniform


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("IPDG_OUTPUT_DIR", raising=False)


def write_config(tmp_path, overrides=None, name="run.yaml"):
    cfg = {
        "system": {"name": "poisson-flat"},
        "domain": {"kind": "rectilinear", "bounds": [[0.0, 1.0], [0.0, 1.0]]},
        "refinement": {"levels": [1, 1], "degrees": [5, 5]},
        "solution": {"name": "sin-product"},
        "boundary_conditions": {"all": {"type": "dirichlet", "value": 0.0}},
        "solver": {"tolerance": 1.0e-11},
        "output": {"directory": str(tmp_path), "prefix": "test"},
    }
    for key, value in (overrides or {}).items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_report(tmp_path):
    lines = (tmp_path / "test-report.csv").read_text().splitlines()
    assert lines[0] == "error,iterations,residual_norm,converged"
    return lines[1].split(",")


def test_solve_poisson(tmp_path, capsys):
    code = main(["solve", "--config", write_config(tmp_path)])
    assert code == 0
    row = read_report(tmp_path)
    error = float(row[0])
    assert 0.0 < error < 1e-4
    assert row[3] == "true"
    assert "solved poisson-flat" in capsys.readouterr().out


def test_solve_zero_solution_short_circuits(tmp_path):
    path = write_config(tmp_path, {"solution": {"name": "zero"}})
    assert main(["solve", "--config", path]) == 0
    row = read_report(tmp_path)
    assert float(row[0]) == 0.0
    assert row[1] == "0"  # zero rhs never enters the Krylov loop


def test_solve_invalid_config(tmp_path, capsys):
    path = write_config(tmp_path, {"solver": {"tol": 1e-8}})
    assert main(["solve", "--config", path]) == 2
    assert "solver.tol" in capsys.readouterr().err


def test_solve_non_finite_number_exit_code(tmp_path, capsys):
    # YAML's .nan is a float; without the finiteness check it reached the
    # operator and failed there with exit code 3
    path = write_config(tmp_path, {"operator": {"penalty_parameter": float("nan")}})
    assert ".nan" in (tmp_path / "run.yaml").read_text()
    assert main(["solve", "--config", path]) == 2
    assert "operator.penalty_parameter: must be finite" in capsys.readouterr().err


def test_solve_bad_solution_param_exit_code(tmp_path, capsys):
    # an unchecked centre reached numpy and failed there with exit code 1
    solution = {"name": "gaussian", "params": {"center": "abc"}}
    path = write_config(tmp_path, {"solution": solution})
    assert main(["solve", "--config", path]) == 2
    assert "solution.params.center" in capsys.readouterr().err


def test_solve_missing_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_solve_failure_exit_code(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "refinement": {"levels": [2, 2], "degrees": [4, 4]},
            "solver": {"tolerance": 1.0e-13, "max_iterations": 3},
        },
    )
    assert main(["solve", "--config", path]) == 3
    assert "solver failed" in capsys.readouterr().err


PUNCTURE_OVERRIDES = {
    "system": {
        "name": "puncture",
        "punctures": [
            {"mass": 0.5, "position": [3.0, 0.0, 0.0], "momentum": [0.0, 0.2, 0.0]},
            {"mass": 0.5, "position": [-3.0, 0.0, 0.0], "momentum": [0.0, -0.2, 0.0]},
        ],
    },
    "domain": {"kind": "rectilinear", "bounds": [[-10.0, 10.0]] * 3},
    "refinement": {"levels": [1, 1, 1], "degrees": [3, 3, 3]},
    "solution": None,
    "boundary_conditions": {"all": {"type": "falloff"}},
    "operator": {"form": "strong-weak"},
}


def test_solve_nonlinear_runs_newton(tmp_path, capsys, monkeypatch):
    reports = []

    def recorded(*args, **kwargs):
        u, report = newton(*args, **kwargs)
        reports.append(report)
        return u, report

    newton = ipdg.cli.solve_newton
    monkeypatch.setattr(ipdg.cli, "solve_newton", recorded)
    path = write_config(tmp_path, PUNCTURE_OVERRIDES)
    assert main(["solve", "--config", path]) == 0
    error, iterations, residual, converged = read_report(tmp_path)
    assert error == ""  # no analytic solution to compare with
    # Newton steps, not Krylov iterations
    (report,) = reports
    assert report.iterations > 0
    assert iterations == str(report.iterations)
    assert iterations != str(sum(r.iterations for r in report.inner))
    assert 0.0 <= float(residual) <= 1e-10
    assert converged == "true"
    assert f"error n/a, {iterations} iterations" in capsys.readouterr().out


def test_falloff_singular_on_a_boundary_point_exit_code(tmp_path, capsys):
    # the default falloff center, the origin, is a corner of the unit cube,
    # so the data A / r are not finite there: a configuration error, found
    # when the operator is built, not a non-finite residual in the solve
    overrides = dict(
        PUNCTURE_OVERRIDES, domain={"kind": "rectilinear", "bounds": [[0.0, 1.0]] * 3}
    )
    assert main(["solve", "--config", write_config(tmp_path, overrides)]) == 2
    err = capsys.readouterr().err
    assert "boundary_conditions.all: non-finite boundary data at x = [0.0, 0.0, 0.0]" in err


def test_solve_nonlinear_failure_exit_code(tmp_path, capsys):
    overrides = dict(
        PUNCTURE_OVERRIDES, newton={"tolerance": 1.0e-14, "max_iterations": 1}
    )
    assert main(["solve", "--config", write_config(tmp_path, overrides)]) == 3
    assert "solver failed: 1 iterations" in capsys.readouterr().err
    assert not (tmp_path / "test-report.csv").exists()


def test_solve_deterministic_output(tmp_path):
    path = write_config(tmp_path)
    assert main(["solve", "--config", path]) == 0
    first = (tmp_path / "test-report.csv").read_bytes()
    assert main(["solve", "--config", path]) == 0
    assert (tmp_path / "test-report.csv").read_bytes() == first


def test_output_dir_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    monkeypatch.setenv("IPDG_OUTPUT_DIR", str(override))
    assert main(["solve", "--config", write_config(tmp_path)]) == 0
    assert (override / "test-report.csv").exists()
    assert not (tmp_path / "test-report.csv").exists()


@pytest.mark.parametrize("command, output, key, made", [
    pytest.param(["solve"], {"directory": "{blocker}/out"}, "output.directory", "{blocker}/out",
                 id="command0"),
    pytest.param(["convergence", "--mode", "h", "--levels", "2"], {"directory": "{blocker}/out"},
                 "output.directory", "{blocker}/out", id="command1"),
    pytest.param(["assemble", "--out", "m.txt"], {"directory": "{blocker}/out"},
                 "output.directory", "{blocker}/out", id="command2"),
    # a file's own directory, named by what put the subdirectory in its path
    pytest.param(["assemble", "--out", "{blocker}/missing/m.txt"], {}, "cli.out",
                 "{blocker}/missing", id="absolute-out"),
    pytest.param(["assemble", "--out", "file/m.txt"], {}, "cli.out", "{blocker}",
                 id="relative-out"),
    pytest.param(["solve"], {"prefix": "file/run"}, "output.prefix", "{blocker}", id="prefix"),
])
def test_output_directory_that_cannot_be_made(tmp_path, capsys, monkeypatch, command, output,
                                              key, made):
    # a directory under a regular file cannot be made: the run names the
    # key with exit code 2 before it solves or assembles anything; it used
    # to exit 1 with a traceback after the whole solve
    blocker = tmp_path / "file"
    blocker.write_text("")
    fill = lambda text: text.replace("{blocker}", str(blocker))
    output = {"directory": str(tmp_path), "prefix": "test"} | {
        name: fill(value) for name, value in output.items()
    }
    path = write_config(tmp_path, {"output": output})

    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before the output directory was made")

    monkeypatch.setattr(ipdg.cli, "_run_solve", refuse)
    monkeypatch.setattr(ipdg.cli, "assemble_explicit", refuse)
    assert main([command[0], "--config", path] + [fill(arg) for arg in command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid configuration: {key}: cannot create {fill(made)}:"), err
    assert "Traceback" not in err


def test_output_file_directories_are_made(tmp_path):
    # an output file in a subdirectory that does not exist yet, given by the
    # prefix, a relative --out or an absolute one, used to exit 1 with a
    # traceback after the whole solve or assembly
    path = write_config(tmp_path, {"output": {"directory": str(tmp_path), "prefix": "sub/run"}})
    assert main(["solve", "--config", path]) == 0
    assert (tmp_path / "sub" / "run-report.csv").is_file()
    absolute = tmp_path / "abs" / "missing" / "m.txt"
    for out, written in (("rel/m.txt", tmp_path / "rel" / "m.txt"), (str(absolute), absolute)):
        assert main(["assemble", "--config", path, "--out", out]) == 0
        assert written.is_file()


def test_convergence_h_mode(tmp_path, capsys):
    path = write_config(
        tmp_path, {"refinement": {"levels": [0, 0], "degrees": [3, 3]}}
    )
    code = main(["convergence", "--config", path, "--mode", "h", "--levels", "3"])
    assert code == 0
    lines = (tmp_path / "test-convergence.csv").read_text().splitlines()
    assert lines[0] == "mode,level,n_points,h_or_P,error,rate"
    errors = [float(line.split(",")[4]) for line in lines[1:]]
    assert errors == sorted(errors, reverse=True)
    rates = [float(line.split(",")[5]) for line in lines[2:]]
    assert rates[-1] > 3.0  # degree-3 problem converges at least cubically
    assert "rates:" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["h", "p"])
def test_convergence_refines_only_between_levels(tmp_path, monkeypatch, mode):
    calls = []

    def counting(mesh, how):
        calls.append(how)
        return refine_uniform(mesh, how)

    monkeypatch.setattr(ipdg.cli, "refine_uniform", counting)
    path = write_config(
        tmp_path, {"refinement": {"levels": [0, 0], "degrees": [2, 2]}}
    )
    assert main(["convergence", "--config", path, "--mode", mode, "--levels", "3"]) == 0
    assert calls == [mode, mode]


def test_convergence_p_mode(tmp_path, monkeypatch):
    # p-refinement keeps the elements, so their topology is derived once: it
    # used to be derived again at every level
    calls = []
    monkeypatch.setattr("ipdg.mesh.mortar_topology",
                        lambda mesh: calls.append(mesh) or mortar_topology(mesh))
    path = write_config(
        tmp_path, {"refinement": {"levels": [1, 1], "degrees": [2, 2]}}
    )
    code = main(["convergence", "--config", path, "--mode", "p", "--levels", "3"])
    assert code == 0
    assert len(calls) == 1
    lines = (tmp_path / "test-convergence.csv").read_text().splitlines()
    degrees = [float(line.split(",")[3]) for line in lines[1:]]
    assert degrees == [2.0, 3.0, 4.0]
    errors = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_convergence_needs_two_levels(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["convergence", "--config", path, "--mode", "h", "--levels", "1"])
    assert code == 2
    assert "cli.levels" in capsys.readouterr().err


def test_convergence_needs_solution(tmp_path):
    path = write_config(tmp_path, {"solution": None})
    code = main(["convergence", "--config", path, "--mode", "h", "--levels", "2"])
    assert code == 2


def test_assemble_compact(tmp_path):
    path = write_config(tmp_path)
    assert main(["assemble", "--config", path, "--out", "mat.txt"]) == 0
    header = (tmp_path / "mat.txt").read_text().splitlines()[0].split()
    assert header[:2] == ["144", "144"]


def test_assemble_full(tmp_path):
    path = write_config(tmp_path)
    code = main(
        ["assemble", "--config", path, "--with-auxiliary", "--out", "mat.txt"]
    )
    assert code == 0
    header = (tmp_path / "mat.txt").read_text().splitlines()[0].split()
    assert header[:2] == ["432", "432"]


def test_assemble_elasticity_block_size(tmp_path):
    path = write_config(
        tmp_path,
        {
            "system": {"name": "elasticity"},
            "solution": {"name": "sin-product-vector"},
        },
    )
    assert main(["assemble", "--config", path, "--out", "mat.txt"]) == 0
    header = (tmp_path / "mat.txt").read_text().splitlines()[0].split()
    assert header[:2] == ["288", "288"]


def test_assemble_cap_exit_code(tmp_path, capsys):
    path = write_config(
        tmp_path, {"refinement": {"levels": [5, 5], "degrees": [5, 5]}}
    )
    assert main(["assemble", "--config", path, "--out", "mat.txt"]) == 4
    assert "cap" in capsys.readouterr().err


def test_bad_flags_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--config", "x", "--mode", "hp", "--levels", "2"])
    assert exc.value.code == 2


def test_assemble_deterministic(tmp_path):
    path = write_config(tmp_path)
    assert main(["assemble", "--config", path, "--out", "a.txt"]) == 0
    assert main(["assemble", "--config", path, "--out", "b.txt"]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
