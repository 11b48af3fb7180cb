"""Record the finest-level error of poisson-hconv for every Gaussian centre.

Run from the repository root after a change that is meant to alter the
discretization error (the benchmark gate compares against these values):

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \
        python3 bench/record_reference.py

It rewrites bench/reference_errors.json and fails if any centre breaks the
rate gate of the workload.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main():
    errors = {}
    workdir = tempfile.mkdtemp(prefix=".bench-record-", dir=os.getcwd())
    try:
        for centre in workloads.CENTRES:
            config = workloads.write_poisson_config(centre, workdir)
            code, rows = workloads.run_study(config, workloads.PoissonHConv.levels)
            if code != 0:
                raise SystemExit(f"centre {centre}: CLI exit code {code}")
            error, rate = float(rows[-1]["error"]), float(rows[-1]["rate"])
            print(f"centre {centre}: finest error {error:.6e}, last rate {rate:.3f}")
            if rate < 4.0:
                raise SystemExit(f"centre {centre}: last rate {rate:.3f} < 4")
            errors[workloads.centre_key(centre)] = error
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_ERRORS, "w") as f:
        json.dump({"poisson-hconv": errors}, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
