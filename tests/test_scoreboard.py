"""The correctness scoreboard: how the 120-problem sample and the
150-problem corpus reconcile, as committed data.

``tests/data/scoreboard.csv`` holds one row per problem and target: the
set, the problem's index in it (counted from 0), p, alpha, n, the texts of
f1, f2, g1, g2 and h, u0, v0 and the target radius.  It also holds the
expected outcome of a march on a ball at the default rel_tol: its
termination, its numeric class and the reconcile status against the
predicted class, or the termination "solver failed" when the start
refuses the problem.  A change that turns a row rewrites the outcomes in
the same commit with ``PYTHONPATH=src python tests/test_scoreboard.py``,
updates ``TALLIES``, and names the rows and the reason in CHANGES.md.

The problems were drawn with numpy's generator by the recipes below.  The
table keeps them, so it does not depend on numpy's random stream.

*Sample:* ``rng = numpy.random.default_rng(1)``, and per problem, in this
order::

    p = round(rng.uniform(1.3, 4), 2)
    alpha = round(rng.uniform(0, 0.95 * (p - 1)), 2)
    n = int(rng.choice([2, 3, 5]))
    m = round(rng.uniform(0.2, 3), 2)
    beta = round(rng.uniform(0, m), 2)
    q = round(rng.uniform(0.3, 8), 2)

with f1 = f2 = 1, g1 = t^m, g2 = t^beta and h = t^q, each exponent
written with ``:g``, and u0 = v0 = 1, at targets 20 and 1e4.

*Corpus:* ``rng = numpy.random.default_rng(7)``, and per problem p, alpha
and n drawn as above, then for g1, f1, f2, g2 and h in that order::

    k = int(rng.integers(1, 3))
    exponents = numpy.sort(numpy.round(rng.uniform(lo, hi, k), 2))
    coefficients = numpy.round(rng.uniform(0.2, 3, k), 2)
    text = " + ".join(f"{c:g}*t^{e:g}" for c, e in zip(coefficients, exponents))

with [lo, hi] = [0.2, 3] for g1, [0, 2] for f1 and f2, [0, the largest
exponent of g1] for g2 and [0.3, 8] for h; then
``v0 = float(f"{10 ** rng.uniform(-3, 3):.3g}")``, with u0 = 1 and
target 20.
"""

from __future__ import annotations

import csv
import pathlib
import warnings
from collections import Counter

import pytest

from radlab import (
    Domain,
    ProblemSpec,
    SolverError,
    SolverOptions,
    march,
    numeric_classify,
    parse_expr,
    predict,
    reconcile,
)

TABLE = pathlib.Path(__file__).resolve().parent / "data" / "scoreboard.csv"
OUTCOME = ("termination", "numeric_class", "status")

#: The table's rows by set and target, and by reconcile status, or
#: "solver failed" for a start that refuses.
TALLIES = {
    ("sample", 20.0): {"agree": 114, "indeterminate": 6},
    ("sample", 1e4): {"agree": 120},
    ("corpus", 20.0): {"agree": 127, "indeterminate": 17, "solver failed": 6},
}


def _rows() -> list[dict[str, str]]:
    with TABLE.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _outcome(row: dict[str, str]) -> tuple[str, str, str]:
    """The termination, numeric class and reconcile status of a row's march."""
    spec = ProblemSpec(
        p=float(row["p"]), alpha=float(row["alpha"]), n=int(row["n"]),
        **{name: parse_expr(row[name]) for name in ("f1", "f2", "g1", "g2", "h")},
    )
    options = SolverOptions(target_radius=float(row["target"]))
    try:
        run = march(spec, float(row["u0"]), float(row["v0"]), options)
    except SolverError:
        return "solver failed", "", ""
    numeric = numeric_classify(run, Domain.BALL)
    status = reconcile(predict(spec, Domain.BALL), numeric)["status"]
    return run.terminated.value, numeric.label.value, status


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scoreboard_holds_its_table():
    rows = _rows()
    turned = [
        f"{row['set']} row {row['row']} at target {row['target']}: {want} -> {got}"
        for row in rows
        if (got := _outcome(row)) != (want := tuple(row[name] for name in OUTCOME))
    ]
    assert not turned, "\n".join(turned)
    tallies = Counter(
        (row["set"], float(row["target"]), row["status"] or row["termination"]) for row in rows
    )
    got = {key: {} for key in TALLIES}
    for (name, target, status), count in tallies.items():
        got.setdefault((name, target), {})[status] = count
    assert got == TALLIES


if __name__ == "__main__":
    # Rewrite the outcome columns from the current code; the inputs stay.
    warnings.simplefilter("error", RuntimeWarning)
    table = _rows()
    for entry in table:
        entry.update(zip(OUTCOME, _outcome(entry)))
    with TABLE.open("w", newline="") as out:
        writer = csv.DictWriter(out, fieldnames=list(table[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)
