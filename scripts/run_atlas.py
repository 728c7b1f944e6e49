#!/usr/bin/env python3
"""Build a classification atlas over the power-law parameter grid.

For every combination of (p, alpha, m, beta, q) the script evaluates both
convergence criteria, predicts the boundary class, and (optionally, with
--solve) integrates the system to confirm the label numerically.  The
result lands in a CSV plus a compact per-(p, alpha) class map on stdout.

Examples:
    python3 scripts/run_atlas.py --out atlas.csv
    python3 scripts/run_atlas.py --solve --qmax 6 --out atlas_solved.csv
"""

import argparse
import csv
import sys
import time

from radlab.classify import Domain, numeric_classify, predict, reconcile
from radlab.criteria import CriterionKind, criterion
from radlab.expressions import parse_expr
from radlab.problem import ProblemSpec
from radlab.solver import SolverError, SolverOptions, march


def power_spec(p: float, alpha: float, m: int, beta: int, q: int) -> ProblemSpec:
    return ProblemSpec(
        p=p, alpha=alpha, n=3,
        f1=parse_expr("1"), f2=parse_expr("1"),
        g1=parse_expr("t" if m == 1 else f"t^{m}"),
        g2=parse_expr("1" if beta == 0 else f"t^{beta}"),
        h=parse_expr("t" if q == 1 else f"t^{q}"),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="atlas.csv", help="output CSV path")
    parser.add_argument("--solve", action="store_true",
                        help="numerically confirm each prediction")
    parser.add_argument("--qmax", type=int, default=8, help="largest q")
    parser.add_argument("--target-radius", type=float, default=20.0)
    parser.add_argument("--rel-tol", type=float, default=1e-8)
    args = parser.parse_args(argv)

    grid = [
        (p, alpha, m, beta, q)
        for p in (1.5, 2.0, 3.0)
        for alpha in (0.0, (p - 1.0) / 2.0)
        for m in (1, 2)
        for beta in range(0, m + 1)
        for q in range(1, args.qmax + 1)
    ]

    rows = []
    start = time.perf_counter()
    for p, alpha, m, beta, q in grid:
        spec = power_spec(p, alpha, m, beta, q)
        row = {
            "p": p, "alpha": alpha, "m": m, "beta": beta, "q": q,
            "unweighted": "", "weighted": "", "predicted": "",
            "numeric": "", "agree": "", "error": "",
        }
        row["unweighted"] = criterion(spec, CriterionKind.UNWEIGHTED).verdict.value
        row["weighted"] = criterion(spec, CriterionKind.WEIGHTED).verdict.value
        predicted = predict(spec, Domain.BALL)
        row["predicted"] = predicted.label.value
        if args.solve:
            try:
                run = march(spec, 1.0, 1.0, SolverOptions(
                    target_radius=args.target_radius, rel_tol=args.rel_tol))
                numeric = numeric_classify(run, Domain.BALL)
                row["numeric"] = numeric.label.value
                row["agree"] = str(reconcile(predicted, numeric)["agree"]).lower()
            except SolverError as exc:
                row["error"] = str(exc)
        rows.append(row)

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    elapsed = time.perf_counter() - start

    # compact map: one block per (p, alpha), rows (m, beta), columns q
    symbol = {"B1": ".", "B2": "v", "B3": "X", "": "?"}
    for p in (1.5, 2.0, 3.0):
        for alpha in (0.0, (p - 1.0) / 2.0):
            block = [r for r in rows if r["p"] == p and r["alpha"] == alpha]
            if not block:
                continue
            print(f"p = {p}, alpha = {alpha}   (. = B1, v = B2, X = B3)")
            for m in (1, 2):
                for beta in range(0, m + 1):
                    line = [r for r in block if r["m"] == m and r["beta"] == beta]
                    line.sort(key=lambda r: r["q"])
                    cells = "".join(symbol.get(r["predicted"], "?") for r in line)
                    print(f"  m={m} beta={beta}  q=1..{args.qmax}: {cells}")
            print()

    disagreements = [r for r in rows if args.solve and r["agree"] == "false"]
    print(f"{len(rows)} grid points in {elapsed:.1f}s -> {args.out}")
    if args.solve:
        print(f"numeric agreement: {len(rows) - len(disagreements)}/{len(rows)}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
