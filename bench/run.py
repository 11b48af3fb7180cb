"""Benchmark of ipdg: three workloads, end-to-end metrics or a traced layer split.

Run from the root of a checkout:

    python3 bench/run.py --workload poisson-hconv --seed 1 --seconds 40 --trace 0

The run happens in a child process (bench/worker.py) that imports ipdg from
this checkout's `src/`, with BLAS pinned to one thread. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`.

`--self-check` instead runs the traced pass three times, twice with the given
seed and once with the next one, and checks that the exact counts repeat for
the same seed and that the DoF counts do not depend on the seed.

Exit codes: 0 on a completed run (the JSON says whether outputs were
correct), 1 when the worker fails or times out, 2 when the checkout has no
`src/ipdg` or no BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("poisson-hconv", "nonconforming-assemble", "puncture-newton")
BLAS_PIN = {v: "1" for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
TIMEOUT_S = 170


class WorkerError(Exception):
    pass


def run_worker(workload, seed, seconds, trace, timeout=TIMEOUT_S):
    """Run one worker; relay its report lines and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1", **BLAS_PIN)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout} s and was stopped") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(f"[{workload}] {line}")
    return json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args, spec):
    out = run_worker(args.workload, args.seed, args.seconds, args.trace)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        raise WorkerError(f"worker did not report {missing}")
    for failure in out["failures"]:
        print(f"FAILED {failure}")
    print("environment: " + json.dumps(out["environment"], sort_keys=True))
    print(f"passes: {out['passes']}, dofs: {json.dumps(out['dofs'])}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def self_check(args):
    first = run_worker(args.workload, args.seed, 1, 1)
    again = run_worker(args.workload, args.seed, 1, 1)
    other = run_worker(args.workload, args.seed + 1, 1, 1)
    ok = True
    diffs = {k: (first["counts"].get(k), again["counts"].get(k))
             for k in set(first["counts"]) | set(again["counts"])
             if first["counts"].get(k) != again["counts"].get(k)}
    if diffs:
        ok = False
        print(f"self-check: counts differ between two runs of seed {args.seed}: {diffs}")
    else:
        print(f"self-check: {len(first['counts'])} counts repeat exactly for seed {args.seed}")
    if first["dofs"] != other["dofs"]:
        ok = False
        print(f"self-check: DoF counts differ between seeds: {first['dofs']} vs {other['dofs']}")
    else:
        print(f"self-check: seeds {args.seed} and {args.seed + 1} have the same DoF counts {first['dofs']}")
    for out in (first, again, other):
        if out["failed"]:
            ok = False
            print(f"self-check: failed operations {out['failures']}")
    print("self-check: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "ipdg", "__init__.py")):
        print(f"no ipdg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    try:
        return self_check(args) if args.self_check else measure(args, spec)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
