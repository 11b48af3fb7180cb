"""Configuration-driven command-line driver.

Subcommands: `solve` runs one problem and reports the error, `convergence`
runs an h- or p-refinement sequence, `assemble` exports the operator matrix.
Exit codes: 0 success, 2 invalid configuration, 3 solver failure, 4 resource
cap exceeded. The IPDG_OUTPUT_DIR environment variable overrides the
configured output directory.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import ConvergenceSeries, convergence_rates, write_convergence_csv, l2_error
from .config import build_problem, load_config
from .errors import ConfigurationError, IpdgError, ResourceCapError
from .mesh import refine_uniform
from .solver import assemble_explicit, solve_linear, solve_newton

__all__ = ["main"]

REPORT_HEADER = "error,iterations,residual_norm,converged"


def _output_dir(cfg) -> str:
    out = os.environ.get("IPDG_OUTPUT_DIR") or cfg.output["directory"]
    os.makedirs(out, exist_ok=True)
    return out


def _out_path(cfg, filename) -> str:
    if os.path.isabs(filename):
        return filename
    return os.path.join(_output_dir(cfg), filename)


def _run_solve(problem, cfg):
    handle = problem.handle
    source = handle.zero_primal() if problem.solution is None else problem.solution.fixed_source
    rhs = handle.build_rhs(source)
    if handle.system.linear:
        return solve_linear(handle, rhs, **problem.solver)
    return solve_newton(
        handle,
        rhs,
        tol=cfg.newton["tolerance"],
        max_iter=cfg.newton["max_iterations"],
        inner=problem.solver,
    )


def _solution_error(problem, u):
    if problem.solution is None:
        return None
    return l2_error(
        problem.mesh, u, problem.solution.field.value, problem.background,
        handle=problem.handle,
    )


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    u, report = _run_solve(problem, cfg)
    if not report.converged:
        print(
            f"solver failed: {report.iterations} iterations, "
            f"residual {report.residual_norm:.3e}",
            file=sys.stderr,
        )
        return 3
    error = _solution_error(problem, u)
    path = _out_path(cfg, f"{cfg.output['prefix']}-report.csv")
    with open(path, "w") as f:
        f.write(REPORT_HEADER + "\n")
        f.write(
            ("" if error is None else f"{error:.17e}")
            + f",{report.iterations},{report.residual_norm:.17e},"
            + ("true" if report.converged else "false")
            + "\n"
        )
    err_text = "n/a" if error is None else f"{error:.6e}"
    print(
        f"solved {problem.system.name} on {problem.mesh.n_elements} elements "
        f"({problem.handle.n_primal_dofs} DoFs): error {err_text}, "
        f"{report.iterations} iterations, {report.wall_time:.3f}s"
    )
    print(f"wrote {path}")
    return 0


def cmd_convergence(args) -> int:
    if args.levels < 2:
        raise ConfigurationError("cli.levels", "need at least 2 levels")
    cfg = load_config(args.config)
    if cfg.solution is None:
        raise ConfigurationError(
            "solution", "convergence studies need an analytic solution"
        )
    series = ConvergenceSeries(args.mode)
    mesh = None
    for level in range(args.levels):
        problem = build_problem(cfg, mesh=mesh)
        u, report = _run_solve(problem, cfg)
        if not report.converged:
            print(
                f"solver failed at level {level}: residual "
                f"{report.residual_norm:.3e}",
                file=sys.stderr,
            )
            return 3
        error = _solution_error(problem, u)
        if args.mode == "h":
            resolution = problem.mesh.characteristic_h()
        else:
            resolution = max(max(e.degrees) for e in problem.mesh.elements)
        series.add(level, problem.mesh.total_points, resolution, error)
        print(
            f"level {level}: {problem.mesh.total_points} points, "
            f"error {error:.6e}"
        )
        if level + 1 < args.levels:
            mesh = refine_uniform(problem.mesh, args.mode)
    path = _out_path(cfg, f"{cfg.output['prefix']}-convergence.csv")
    write_convergence_csv(series, path)
    rates = ", ".join(f"{r:.2f}" for r in convergence_rates(series))
    print(f"rates: {rates}")
    print(f"wrote {path}")
    return 0


def cmd_assemble(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg)
    handle = problem.handle.linearized_at()
    matrix = assemble_explicit(handle, include_auxiliary=args.with_auxiliary)
    path = _out_path(cfg, args.out)
    matrix.write(path)
    print(
        f"wrote {matrix.n_rows}x{matrix.n_cols} matrix "
        f"({matrix.matrix.nnz} entries) to {path}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipdg",
        description="internal-penalty DG solver for elliptic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one configured problem")
    solve.add_argument("--config", required=True, help="YAML configuration file")

    conv = sub.add_parser("convergence", help="run an hp-refinement study")
    conv.add_argument("--config", required=True)
    conv.add_argument("--mode", required=True, choices=("h", "p"))
    conv.add_argument("--levels", required=True, type=int)

    asm = sub.add_parser("assemble", help="export the operator matrix")
    asm.add_argument("--config", required=True)
    asm.add_argument("--with-auxiliary", action="store_true")
    asm.add_argument("--out", required=True, help="matrix output filename")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "solve": cmd_solve,
        "convergence": cmd_convergence,
        "assemble": cmd_assemble,
    }
    try:
        return commands[args.command](args)
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 4
    except ConfigurationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except IpdgError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
