"""Command-line entry points.

Four subcommands drive the package end to end, all reading the same run
file format (see :mod:`radlab.config`):

``classify``
    Evaluate both convergence criteria and print the predicted boundary
    class as JSON.
``solve``
    Integrate the radial system, write ``trajectory.csv`` and
    ``report.json`` into ``--out``, and print the report.
``sweep``
    Evaluate the configured parameter sweep row by row, printing and
    writing ``atlas.csv``; ``--solve`` adds a numerical run per row.
``verify``
    Run every inequality check against a solved (or supplied) trajectory
    and exit nonzero when any check fails.

Output is deterministic for a fixed config: floats print in
shortest round-trip form, JSON keys keep a fixed order, and CSV rows
follow the sweep order given in the file.  JSON and ``atlas.csv`` spell
floats as ``repr`` does; ``trajectory.csv`` has the same digits in
``orjson``'s notation (``1e-9``, ``1e16``, ``0.0000729``) and writes a
non-finite residual as ``nan``.

``--seed``, like the run file's top-level ``seed``, is validated as a
non-negative integer and then ignored: no output depends on a random draw.

Exit codes: 0 on success, 1 when validation or verification fails,
2 on configuration errors and on an ``--out`` that cannot be made or
written, which is checked before any work is done.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import warnings
from typing import BinaryIO

import numpy as np
import orjson

from .classify import numeric_classify, predict, reconcile
from .config import ConfigError, RunConfig, load_config
from .criteria import CriterionDiverges, CriterionKind, criterion
from .expressions import ExpressionError
from .problem import InvalidProblem, ProblemSpec, validate_assumptions
from .solver import SolverError, TerminationReason, blowup_envelope_check, march
from .verify import (
    SANDWICH_GRID,
    TrajectoryData,
    check_sandwich,
    relative_residuals,
    trajectory_reports,
)

__all__ = ["main", "sweep_row"]

_TRAJECTORY_COLUMNS = ("r", "u", "v", "du", "dv", "res_eq1", "res_eq2")
_TRAJECTORY_HEADER = ",".join(_TRAJECTORY_COLUMNS).encode() + b"\n"
#: A header line the one-call reader takes: r,u,v,du,dv and more plain names.
_OWN_HEADER = re.compile(rb"r,u,v,du,dv(?:,\w*)*\n")
#: Every byte a trajectory body in radlab's notation may hold.
_OWN_BODY_BYTES = b"0123456789.eE+-,\n"
#: The byte values of the two separators of a trajectory body.
_COMMA, _NEWLINE = b",\n"


def _fmt(value: float) -> str:
    """Shortest exact decimal form of a float (native, not numpy, repr)."""
    return repr(float(value))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _problem_echo(config: RunConfig) -> dict:
    return {
        "p": config.p,
        "alpha": config.alpha,
        "n": config.n,
        "f1": config.f1,
        "f2": config.f2,
        "g1": config.g1,
        "g2": config.g2,
        "h": config.h,
        "omega": config.omega,
    }


def _rejected(config: RunConfig, spec: ProblemSpec) -> bool:
    """Whether ``spec`` fails validation, printing the problem and the
    validation report when it does: a command's whole output then."""
    report = validate_assumptions(spec)
    if not report.ok:
        _print_json({
            "problem": _problem_echo(config),
            "validation": {
                "ok": report.ok,
                "errors": list(report.errors),
                "k1": report.k1,
                "k2": report.k2,
            },
        })
    return not report.ok


# --------------------------------------------------------------------------
# classify


def cmd_classify(config: RunConfig) -> int:
    spec = config.spec()
    if _rejected(config, spec):
        return 1

    balanced = spec.gradient_balanced
    criteria: dict[str, dict | None] = {"unweighted": None, "weighted": None}
    if balanced:
        criteria["unweighted"] = criterion(spec, CriterionKind.UNWEIGHTED).to_dict()
        criteria["weighted"] = criterion(spec, CriterionKind.WEIGHTED).to_dict()

    classification = predict(spec, config.domain())
    payload = {
        "problem": _problem_echo(config),
        "theta": spec.theta if balanced else None,
        "delta": spec.delta if balanced else None,
        "k1": spec.k1,
        "k2": spec.k2,
        "criterion_unweighted": criteria["unweighted"],
        "criterion_weighted": criteria["weighted"],
        "predicted_class": classification.label.value,
        "notes": list(classification.details),
    }
    _print_json(payload)
    return 0


# --------------------------------------------------------------------------
# solve


def _write_trajectory(fh: BinaryIO, table: np.ndarray) -> None:
    """Write a C-contiguous (N, 7) float64 ``table`` as the trajectory CSV.

    One ``orjson`` call formats the flattened table with Ryu's shortest
    round-trip digits (those of ``repr``, in JSON notation: ``1e-9``, not
    ``1e-09``) as one flat JSON array.  That array becomes CSV in place:
    every ``width``-th comma turns into a newline through a numpy view of
    the text, the closing bracket into the last newline, and the opening
    bracket is not written.  ``orjson`` writes nan and +-inf alike as
    ``null``, so every ``null`` is written as ``nan``, in the rare table
    that holds one; the rest skip that scan of the text.  That is exact
    here: the march keeps the five state columns finite, and a residual
    |a+b-c| / (|a|+|b|+|c|+1e-300) is, by monotone rounding, either in
    [0, 1] or nan (an overflowed term gives inf/inf), never +-inf.
    """
    text = bytearray(orjson.dumps(table.ravel(), option=orjson.OPT_SERIALIZE_NUMPY))
    codes = np.frombuffer(text, dtype=np.uint8)
    width = table.shape[1]
    codes[np.flatnonzero(codes == _COMMA)[width - 1::width]] = _NEWLINE
    codes[-1] = _NEWLINE
    if not np.isfinite(table).all():
        text = text.replace(b"null", b"nan")
    fh.write(_TRAJECTORY_HEADER)
    fh.write(memoryview(text)[1:])


def cmd_solve(config: RunConfig, out_dir: str) -> int:
    """Solve into the existing directory ``out_dir``; :func:`main` makes it."""
    spec = config.spec()
    if _rejected(config, spec):
        return 1

    domain = config.domain()
    predicted = predict(spec, domain)
    payload: dict = {
        "problem": _problem_echo(config),
        "termination": None,
        "R0": None,
        "r_end": None,
        "v_final": None,
        "numeric_class": None,
        "predicted_class": predicted.label.value,
        "reconcile": None,
        "verify": None,
        "envelope": None,
        "stats": None,
        "notes": [],
        "trajectory_csv": None,
    }

    try:
        solution = march(spec, config.u0, config.v0, config.solver_options())
    except (SolverError, InvalidProblem) as exc:
        payload["notes"] = [f"solver failed: {exc}"]
        _emit_report(out_dir, payload)
        return 0

    numeric = numeric_classify(solution, domain)
    res1, res2 = relative_residuals(
        spec, solution.r, solution.v, solution.w, solution.dv
    )
    table = np.column_stack(
        (solution.r, solution.u, solution.v, solution.w, solution.dv, res1, res2)
    )
    with open(os.path.join(out_dir, "trajectory.csv"), "wb") as fh:
        _write_trajectory(fh, table)

    checks = trajectory_reports(solution)
    checks.append(check_sandwich(spec.h, spec.p, SANDWICH_GRID))

    envelope = None
    if solution.terminated is TerminationReason.BLOW_UP:
        try:
            envelope = blowup_envelope_check(solution, spec).to_dict()
        except (SolverError, CriterionDiverges) as exc:
            payload["notes"].append(f"envelope fit unavailable: {exc}")

    payload.update(
        termination=solution.terminated.value,
        R0=solution.R0,
        r_end=solution.r_end,
        v_final=solution.v_final,
        numeric_class=numeric.label.value,
        reconcile=reconcile(predicted, numeric),
        verify=[check.to_dict() for check in checks],
        envelope=envelope,
        stats={
            "nodes": int(len(solution.r)),
            "bootstrap_nodes": int(solution.bootstrap_nodes),
            "start_radius": solution.start_radius,
            "rhs_evals": int(solution.rhs_evals),
            "accepted_steps": int(solution.accepted_steps),
            "rejected_steps": int(solution.rejected_steps),
            "dt_min": solution.dt_min,
            "dt_max": solution.dt_max,
            "b_hat": solution.b_hat,
            "sigma_hat": solution.sigma_hat,
        },
        notes=payload["notes"] + list(solution.notes),
        trajectory_csv="trajectory.csv",
    )
    _emit_report(out_dir, payload)
    return 0


def _emit_report(out_dir: str, payload: dict) -> None:
    """Write ``report.json`` and print the same text."""
    text = json.dumps(payload, indent=2)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)


# --------------------------------------------------------------------------
# sweep


def sweep_row(
    config: RunConfig, parameter: str, value: float | None, solve: bool
) -> dict[str, str]:
    """One row of ``atlas.csv``: criteria, predicted class and, with
    ``solve``, the numeric class of a march and whether the two agree.

    A problem that fails to parse or validate, or a run the solver refuses
    or cannot finish, leaves its reason in the row's ``error`` cell.
    """
    row = {
        "parameter": parameter,
        "value": "" if value is None else _fmt(value),
        "unweighted": "",
        "weighted": "",
        "predicted_class": "",
        "numeric_class": "",
        "agree": "",
        "error": "",
    }
    try:
        spec = config.spec()
    except (InvalidProblem, ExpressionError) as exc:
        row["error"] = str(exc)
        return row
    report = validate_assumptions(spec)
    if not report.ok:
        row["error"] = "; ".join(report.errors)
        return row

    if spec.gradient_balanced:
        row["unweighted"] = criterion(spec, CriterionKind.UNWEIGHTED).verdict.value
        row["weighted"] = criterion(spec, CriterionKind.WEIGHTED).verdict.value

    predicted = predict(spec, config.domain())
    row["predicted_class"] = predicted.label.value

    if solve:
        try:
            solution = march(spec, config.u0, config.v0, config.solver_options())
        except (SolverError, ValueError) as exc:
            row["error"] = str(exc)
            return row
        numeric = numeric_classify(solution, config.domain())
        row["numeric_class"] = numeric.label.value
        row["agree"] = "true" if reconcile(predicted, numeric)["agree"] else "false"
    return row


def cmd_sweep(config: RunConfig, out_dir: str, solve: bool) -> int:
    """Sweep into the existing directory ``out_dir``; :func:`main` makes it."""
    if config.sweep_parameter is None:
        rows = [sweep_row(config, "", None, solve)]
    else:
        rows = [
            sweep_row(
                config.with_value(config.sweep_parameter, value),
                config.sweep_parameter, value, solve,
            )
            for value in config.sweep_values
        ]

    fieldnames = ["parameter", "value", "unweighted", "weighted", "predicted_class"]
    if solve:
        fieldnames += ["numeric_class", "agree"]
    fieldnames.append("error")

    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=fieldnames, extrasaction="ignore", lineterminator="\n"
    )
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()

    with open(os.path.join(out_dir, "atlas.csv"), "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------------
# verify


def _load_trajectory(path: str, spec: ProblemSpec) -> TrajectoryData:
    """Read a trajectory CSV: the first five columns must be r,u,v,du,dv.

    A file in the notation :func:`_write_trajectory` emits is read with one
    ``orjson`` call; any other goes through :func:`_read_general`, which
    gives the same values for the files both can read.
    """
    with open(path, "rb") as fh:
        table = _read_own_notation(fh.read())
    if table is None:
        table = _read_general(path)
    try:
        return TrajectoryData(spec, *table.T)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_own_notation(data: bytes) -> np.ndarray | None:
    """The (N, 5) r,u,v,du,dv columns of a trajectory CSV in radlab's
    notation, or None for any other file.

    That notation is a header of plain names and a body of JSON numbers
    only (the bytes of ``_OWN_BODY_BYTES``), each row ending in a newline
    and holding as many cells as the first, at least five.  numpy checks
    that framing on the body's bytes: in the sequence of its commas and
    newlines, exactly every ``width``-th is a newline.  The body is then
    one flat JSON array once those newlines are commas, which one
    ``orjson`` call reads and numpy reshapes to ``width`` columns.  A JSON
    number spells a decimal that ``float`` reads alike, rounded correctly
    by both, so the bits are those of ``np.loadtxt``; the one exception is
    the integer ``-0``, which ``orjson`` reads as the int 0.  Rows of
    unequal width, like any other file, return None.
    """
    header = _OWN_HEADER.match(data)
    if header is None or header.end() == len(data) or not data.endswith(b"\n"):
        return None
    text = bytearray(b"[") + memoryview(data)[header.end():]
    if text.translate(None, _OWN_BODY_BYTES) != b"[":
        return None
    width = text.count(b",", 0, text.index(b"\n")) + 1
    codes = np.frombuffer(text, dtype=np.uint8)
    is_separator = codes == _COMMA
    is_separator |= codes == _NEWLINE
    separators = np.flatnonzero(is_separator)
    if width < 5 or len(separators) % width:
        return None
    ends = codes[separators].reshape(-1, width) == _NEWLINE
    if ends[:, :-1].any() or not ends[:, -1].all():
        return None
    codes[separators[width - 1::width]] = _COMMA
    codes[-1] = ord("]")
    try:
        cells = orjson.loads(text)
    except orjson.JSONDecodeError:
        return None
    table = np.fromiter(cells, dtype=float, count=len(cells)).reshape(-1, width)[:, :5]
    for i, j in zip(*np.nonzero(table == 0.0)):
        if type(cells[i * width + j]) is int:  # maybe -0, whose sign orjson drops
            return None
    return table


def _read_general(path: str) -> np.ndarray:
    """The (N, 5) r,u,v,du,dv columns of any trajectory CSV numpy can read,
    with the line of the first bad row in the error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError(f"{path}: empty trajectory file")
            if tuple(header[:5]) != _TRAJECTORY_COLUMNS[:5]:
                raise ValueError(
                    f"{path}: expected columns r,u,v,du,dv, got {','.join(header[:5])}"
                )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # no rows: TrajectoryData says so
                    return np.loadtxt(fh, delimiter=",", usecols=range(5), ndmin=2,
                                      comments=None, quotechar='"')
            except ValueError as exc:
                fh.seek(0)
                raise ValueError(f"{path}: {_first_bad_row(fh) or exc}") from None
    except UnicodeDecodeError as exc:  # not UTF-8
        raise ValueError(f"{path}: {exc}") from None


def _first_bad_row(fh) -> str | None:
    """Where a trajectory CSV that numpy rejected goes wrong; read only then."""
    rows = csv.reader(fh)
    next(rows)
    for lineno, cells in enumerate(rows, start=2):
        if cells and len(cells) < 5:
            return f"line {lineno}: fewer than 5 columns"
        for cell in cells[:5]:
            try:
                float(cell)
            except ValueError:
                return f"line {lineno}: non-numeric value {cell!r}"


def cmd_verify(config: RunConfig, trajectory_path: str | None) -> int:
    spec = config.spec()
    if _rejected(config, spec):
        return 1

    try:
        if trajectory_path is not None:
            subject = _load_trajectory(trajectory_path, spec)
        else:
            subject = march(spec, config.u0, config.v0, config.solver_options())
        checks = trajectory_reports(subject)
    except (SolverError, InvalidProblem, OSError, ValueError) as exc:
        _print_json({"reports": [], "pass": False, "error": str(exc)})
        return 1

    checks.append(check_sandwich(spec.h, spec.p, SANDWICH_GRID))
    payload = {
        "reports": [check.to_dict() for check in checks],
        "pass": all(check.passed for check in checks),
    }
    _print_json(payload)
    return 0 if payload["pass"] else 1


# --------------------------------------------------------------------------
# argument parsing


def _seed(text: str) -> int:
    """The type of ``--seed``: a non-negative integer, as in the run file,
    accepted and ignored."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="radlab",
        description="Positive radial solutions of a quasilinear elliptic "
        "system: criteria, integration, classification, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a run file")
        cmd.add_argument(
            "--seed", type=_seed, default=None,
            help="accepted and ignored (no output depends on a seed)",
        )
        return cmd

    add("classify", "evaluate the convergence criteria and predict the class")

    solve = add("solve", "integrate the system and write trajectory + report")
    solve.add_argument(
        "--out", default=".", help="directory for trajectory.csv and report.json"
    )

    sweep = add("sweep", "evaluate the configured parameter sweep")
    sweep.add_argument("--out", default=".", help="directory for atlas.csv")
    sweep.add_argument(
        "--solve", action="store_true",
        help="also integrate each row and record the numeric class",
    )

    verify = add("verify", "run every inequality check; nonzero exit on failure")
    verify.add_argument(
        "--trajectory", default=None,
        help="check this trajectory CSV instead of solving first",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print("error: invalid run configuration", file=sys.stderr)
        for error in exc.errors:
            print(f"  {error}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.command in ("solve", "sweep"):
        try:
            os.makedirs(args.out, exist_ok=True)
            if not os.access(args.out, os.W_OK | os.X_OK):
                raise PermissionError(f"{args.out!r} is not writable")
        except OSError as exc:
            print(f"error: cannot write output directory: {exc}", file=sys.stderr)
            return 2

    if args.command == "classify":
        return cmd_classify(config)
    if args.command == "solve":
        return cmd_solve(config, args.out)
    if args.command == "sweep":
        return cmd_sweep(config, args.out, args.solve)
    return cmd_verify(config, args.trajectory)
