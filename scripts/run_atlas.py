#!/usr/bin/env python3
"""Build a classification atlas over the power-law parameter grid.

For every combination of (p, alpha, m, beta, q) the script runs the
``radlab sweep`` row: both convergence criteria and the predicted boundary
class, plus (with --solve) a numerical run that confirms the label.  The
result lands in a CSV plus a compact per-(p, alpha) class map on stdout.

Examples:
    python3 scripts/run_atlas.py --out atlas.csv
    python3 scripts/run_atlas.py --solve --qmax 6 --out atlas_solved.csv
"""

import argparse
import csv
import sys
import time

from radlab.cli import sweep_row
from radlab.config import RunConfig

#: The sweep row's columns and their names in the atlas CSV.
COLUMNS = {"unweighted": "unweighted", "weighted": "weighted",
           "predicted_class": "predicted", "numeric_class": "numeric",
           "agree": "agree", "error": "error"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="atlas.csv", help="output CSV path")
    parser.add_argument("--solve", action="store_true",
                        help="numerically confirm each prediction")
    parser.add_argument("--qmax", type=int, default=8, help="largest q")
    parser.add_argument("--target-radius", type=float, default=20.0)
    parser.add_argument("--rel-tol", type=float, default=RunConfig.rel_tol)
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
        config = RunConfig(
            p=p, alpha=alpha, n=3, f1="1", f2="1",
            g1=f"t^{m}", g2=f"t^{beta}", h=f"t^{q}", omega="ball",
            u0=1.0, v0=1.0, target_radius=args.target_radius, rel_tol=args.rel_tol,
        )
        row = sweep_row(config, "", None, args.solve)
        rows.append({"p": p, "alpha": alpha, "m": m, "beta": beta, "q": q,
                     **{name: row[key] for key, name in COLUMNS.items()}})

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
