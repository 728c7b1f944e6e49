"""Regenerate the benchmark's accuracy reference table, reference.json.

Each problem of the ``reference`` and ``stress`` workloads is integrated
once with the library at ``rel_tol = 1e-11``.  The table keeps the blow-up
radius ``R0_ref`` and ``v_ref = v(r_star)`` at a fixed interior radius:
0.9 * R0_ref for blow-up runs, half the target radius otherwise.  A problem
whose tight run raises keeps its error message instead, and the benchmark
reports no accuracy for it.

Run from the repository root (about half a minute):

    python3 radbench/make_reference.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from radlab import SolverError, load_config, march  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

REFERENCE_REL_TOL = 1e-11
TABLE = os.path.join(HERE, "reference.json")


def reference_entry(config_path: str) -> dict:
    config = load_config(os.path.join(ROOT, config_path))
    options = dataclasses.replace(config.solver_options(), rel_tol=REFERENCE_REL_TOL)
    try:
        run = march(config.spec(), config.u0, config.v0, options)
    except (SolverError, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    if run.R0 is not None:
        r_star = 0.9 * run.R0
    else:
        r_star = 0.5 * config.target_radius
    return {
        "termination": run.terminated.value,
        "R0_ref": run.R0,
        "r_star": r_star,
        "v_ref": float(run.sample([r_star])["v"][0]),
        "nodes": int(len(run.r)),
    }


def main() -> None:
    configs = sorted(
        {
            op.config
            for name in ("reference", "stress")
            for op in WORKLOADS[name].ops
            if op.kind == "solve"
        }
    )
    table = {"rel_tol": REFERENCE_REL_TOL, "problems": {}}
    for path in configs:
        table["problems"][path] = reference_entry(path)
        print(path, table["problems"][path], flush=True)
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(table, indent=2) + "\n")


if __name__ == "__main__":
    main()
