"""One benchmark run in a child process: passes of a workload, then metrics.

Started by run.py with BLAS pinned to one thread and PYTHONPATH pointing at
the checkout's `src/`. Prints one line per pass and, as its last line, a JSON
object with the operation counts, the metrics and the run environment.

Measuring starts after one untimed warm-up of the workload's set-up. A new
pass starts only if it is expected to end within `--seconds`, so a run lasts
about `--seconds` however fast the machine is, unless the minimum number of
passes takes longer.

Untraced (`--trace 0`): only the set-up calls, the solver entry points and
operator applications are wrapped, for at least MIN_PASSES passes. The
wrappers also let a speed clock calibrate during the pass, and the times
reported are at its reference speed (speed.py).
Traced (`--trace 1`): the first half of the time runs untraced passes, the
second half passes with every layer wrapped; the difference of their median
wall times, as measured, is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ipdg  # noqa: E402

if os.path.commonpath([os.path.abspath(ipdg.__file__), os.path.join(ROOT, "src")]) != os.path.join(ROOT, "src"):
    raise SystemExit(f"ipdg imported from {ipdg.__file__}, not from this checkout's src/")

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SOLVES = ("solver.solve_linear", "solver.solve_newton")  # spans whose reports are operations


def run_pass(workload, tracer, clock):
    """One timed pass; returns its record and the tracer's summary.

    With a speed clock the times are at reference speed (speed.py), else as
    measured; `measured_s` is the pass's wall time as measured either way.
    """
    tracer.reset()
    gc.collect()  # no collection left over from the previous pass
    result = workloads.Pass()
    if clock:
        clock.reset()
        clock.calibrate()
    t0 = perf_counter()
    workload.run(result)
    t1 = perf_counter()
    at = None
    if clock:
        clock.calibrate()
        at = clock.mapping()
    summary = tracing.Summary(tracer)
    solves = []
    for i in sorted(i for name in SOLVES for i in summary.named(name)):
        name = summary.names[summary.spans[i][0]]
        obs = summary.extra[i]
        solves.append((name, obs["iterations"], obs["converged"]))
        result.op(name, obs["converged"], f"{obs['iterations']} iterations")
    record = {
        "measured_s": t1 - t0,
        "wall_s": at(t1) - at(t0) if at else t1 - t0,
        "setup_s": summary.outermost(tracing.SETUP_NAMES, at),
        "solver_s": summary.outermost(tracing.SOLVER_NAMES, at),
        "calibrations": len(clock.costs) if clock else 0,
        "solves": solves,
        "result": result,
    }
    return record, summary


def run_phase(workload, tracer, deadline, min_passes, traced, log, clock=None):
    records = []
    while True:
        record, summary = run_pass(workload, tracer, clock)
        if traced:
            record["counts"] = counts(summary)
            record["layers"] = layer_metrics(summary, record["counts"], record["result"].values)
        records.append(record)
        res = record["result"]
        ok = sum(o[1] for o in res.ops)
        log(f"{'traced' if traced else 'untraced'} pass {len(records)}: "
            f"wall {record['wall_s']:.3f} s, setup {record['setup_s']:.3f} s, "
            f"solver {record['solver_s']:.3f} s, operations {ok}/{len(res.ops)} ok"
            + (f"; measured wall {record['measured_s']:.3f} s, "
               f"{record['calibrations']} calibrations" if clock else ""))
        for name, _, detail in res.failed:
            log(f"  FAILED {name}: {detail}")
        if len(records) >= min_passes and perf_counter() + record["measured_s"] > deadline:
            return records


def counts(summary):
    """Exact counts that must repeat bit for bit for one seed."""
    out = {f"calls.{k}": v for k, v in sorted(summary.calls.items())}
    out["solver.krylov_iterations"] = sum(
        e["iterations"] for e in summary.observed("solver.solve_linear"))
    out["solver.newton_steps"] = sum(
        e["iterations"] for e in summary.observed("solver.solve_newton"))
    out["solver.assemble_applies"] = sum(
        summary.under("operators.apply", "solver.assemble_explicit").values())
    return out


def layer_metrics(s, c, values):
    """Per-layer metrics of one traced pass; `c` are its exact counts."""
    calls, own, incl = s.calls, s.self_s, s.incl

    def n(name):
        return calls.get(name, 0)

    def t(*names):
        return sum(own.get(x, 0.0) for x in names)

    applies = n("operators.apply")
    dofs = sum(e["dofs"] for e in s.observed("operators.apply"))
    per_assembly = s.under("operators.apply", "solver.assemble_explicit")
    probed = sum(per_assembly[i] * s.extra[i]["rows"] for i in per_assembly)
    nnz = sum(s.extra[i]["nnz"] for i in per_assembly)
    return {
        "config.build_s": t("config.load_config", "config.build_problem"),
        "mesh.build_s": t("mesh.build"),
        "mesh.topology_calls": n("mesh.topology"),
        "mesh.topology_s": t("mesh.topology"),
        "mesh.jacobian_calls": n("mesh.jacobian"),
        "mesh.jacobian_s": t("mesh.jacobian"),
        "mortars.fit_calls": n("mortars.fit"),
        "mortars.fit_s": t("mortars.fit"),
        "mortars.prolongation_calls": n("mortars.prolongation"),
        "systems.flux_calls": n("systems.flux"),
        "systems.flux_s": t("systems.flux"),
        "systems.flux_calls_per_apply": n("systems.flux") / applies if applies else 0.0,
        "systems.source_calls": n("systems.source"),
        "systems.source_s": t("systems.source"),
        "systems.background_fields_calls": n("systems.background_fields"),
        "systems.background_fields_s": t("systems.background_fields"),
        "boundaries.values_calls": n("boundaries.values"),
        "boundaries.values_s": t("boundaries.values"),
        "operators.setup_s": t("operators.setup"),
        "operators.apply_calls": applies,
        "operators.apply_s": t("operators.apply"),
        "operators.apply_us_per_dof": 1e6 * incl.get("operators.apply", 0.0) / dofs if dofs else 0.0,
        "operators.layout_s": t("operators.layout"),
        "operators.face_flux_calls": n("operators.face_flux"),
        "operators.face_flux_s": t("operators.face_flux"),
        "operators.ghost_calls": n("operators.ghost"),
        "operators.ghost_s": t("operators.ghost"),
        "operators.mass_calls": n("operators.mass"),
        "operators.symmetry_defect": values.get("symmetry_defect", 0.0),
        "solver.krylov_iterations": c["solver.krylov_iterations"],
        "solver.matvecs": n("operators.matvec"),
        "solver.krylov_self_s": t("solver.solve_linear"),
        "solver.newton_steps": c["solver.newton_steps"],
        "solver.assemble_applies": c["solver.assemble_applies"],
        "solver.assemble_self_s": t("solver.assemble_explicit"),
        "solver.assemble_useful_ratio": nnz / probed if probed else 0.0,
        "solver.schur_s": t("solver.schur_eliminate"),
        "solver.write_s": t("solver.write"),
        "solver.write_bytes": sum(e["bytes"] for e in s.observed("solver.write")),
        "analysis.l2_error_s": t("analysis.l2_error"),
        "cli.self_s": t("cli.main"),
        "trace.spans": s.n_spans,
    }


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def environment(seed):
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as f:
                for line in f:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ipdg")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    revision = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "revision": revision,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    def log(line):
        print(line, flush=True)

    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    tracer = tracing.Tracer()
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        workload.warm_up()  # fills per-process caches (quadrature, mortar matrices)
        tracer.install(tracing.TOP)
        start = perf_counter()
        if args.trace:
            untraced = run_phase(workload, tracer, start + args.seconds / 2, 1, False, log)
            tracer.uninstall()
            tracer.install(tracing.LAYERS)
            traced = run_phase(workload, tracer, start + args.seconds, 1, True, log)
        else:
            clock = speed.Clock()
            tracer.hook = clock.tick
            untraced = run_phase(workload, tracer, start + args.seconds, MIN_PASSES, False,
                                 log, clock)
            tracer.hook = None
            traced = []
        tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = untraced + traced
    # the solver reports of every pass must repeat those of the first one
    for r in records[1:]:
        same = r["solves"] == records[0]["solves"]
        r["result"].op("solver-counts-repeat", same, f"{r['solves']} vs {records[0]['solves']}")
    for r in traced[1:]:
        same = r["counts"] == traced[0]["counts"]
        r["result"].op("traced-counts-repeat", same, "traced call counts differ between passes")
    ops = [o for r in records for o in r["result"].ops]
    failed = [o for o in ops if not o[1]]

    if args.trace:
        metrics = {}
        for key in traced[0]["layers"]:
            values = [r["layers"][key] for r in traced]
            metrics[key] = statistics.median(values) if key.endswith(("_s", "_per_dof")) else values[0]
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
        trace_dir = os.path.join(ROOT, ".bench_traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.csv.gz")
        tracer.write(path, tracer.spans[0][1] if tracer.spans else 0.0)
        log(f"spans of the last traced pass written to {os.path.relpath(path, ROOT)}")
        log("time waited: not applicable (one thread, no queue between layers)")
    else:
        log(f"median measured wall: {median_of(records, 'measured_s'):.4f} s")
        metrics = {
            "wall_s": median_of(records, "wall_s"),
            "setup_s": median_of(records, "setup_s"),
            "solver_s": median_of(records, "solver_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    last = records[-1]["result"]
    for key, value in sorted(last.values.items()):
        log(f"reported {key}: {value!r}")
    print(json.dumps({
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [f"{name}: {detail}" for name, _, detail in failed],
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "metrics": metrics,
        "counts": traced[-1]["counts"] if traced else {},
        "dofs": last.dofs,
        "environment": environment(args.seed),
    }))


if __name__ == "__main__":
    main()
