"""Correctness checks on the CLI's outputs, independent of radlab's own code.

Each ``judge_*`` function returns the failure reasons of one op (empty when
the op is correct).  A reason starting with one of :data:`ERROR_REASONS`
counts towards ``error_frac`` (the op raised, exited with an unexpected
code, or reported that the solver failed); every other reason means the op
completed with a wrong output and counts towards ``wrong_frac``.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

import numpy as np

ERROR_REASONS = ("raised", "exit code", "solver failed", "row error")

TRAJECTORY_HEADER = "r,u,v,du,dv,res_eq1,res_eq2"

_POWER = re.compile(r"^\s*(?:t(?:\s*\^\s*(\d+))?|1)\s*$")


def is_error(reason: str) -> bool:
    return reason.startswith(ERROR_REASONS)


def _exponent(text: str) -> int | None:
    """The exponent k of a pure power ``t^k`` (``t`` is 1, ``1`` is 0)."""
    match = _POWER.match(text)
    if match is None:
        return None
    if text.strip() == "1":
        return 0
    return int(match.group(1) or 1)


def closed_form_class(config) -> str | None:
    """The boundary class of a pure-power problem by exponent arithmetic,
    or None when the problem is not a pure power.

    For f1 = f2 = 1, g1 = t^m, g2 = t^beta, h = t^q the criteria reduce to
    B1 <=> q m <= (p-1-alpha)(p-1-beta) and
    B2 <=> q m > m p + (p-alpha)(p-1-beta); the whole space has a global
    solution exactly in the B1 case, and alpha >= p-1 admits none at all.
    """
    m, beta, q = (_exponent(getattr(config, key)) for key in ("g1", "g2", "h"))
    if None in (m, beta, q) or _exponent(config.f1) != 0 or _exponent(config.f2) != 0:
        return None
    p = Fraction(repr(config.p))
    alpha = Fraction(repr(config.alpha))
    if alpha >= p - 1:
        return "NoSolution"
    bounded = q * m <= (p - 1 - alpha) * (p - 1 - beta)
    if config.omega != "ball":
        return "Global" if bounded else "NoSolution"
    if bounded:
        return "B1"
    if q * m > m * p + (p - alpha) * (p - 1 - beta):
        return "B2"
    return "B3"


def _is_closed_form(config, predicted: str, numeric: str) -> bool:
    """Both labels equal the closed-form class (True for non-pure powers).
    A finite run can only show a global solution as a ball run that reached
    its target, so on the whole space numeric B1 stands for Global."""
    expected = closed_form_class(config)
    if expected is None:
        return True
    if config.omega != "ball" and numeric == "B1":
        numeric = "Global"
    return predicted == expected == numeric


def parse_trajectory(text: str) -> np.ndarray:
    """Rows of a trajectory CSV as an (N, 7) array; raises ValueError."""
    lines = text.splitlines()
    if not lines or lines[0] != TRAJECTORY_HEADER:
        raise ValueError("unexpected trajectory header")
    data = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    if data.ndim != 2 or data.shape[1] != 7 or len(data) < 2:
        raise ValueError("trajectory rows must have 7 columns")
    return data


def hermite_v(data: np.ndarray, r_star: float) -> float | None:
    """v at ``r_star`` by cubic Hermite interpolation of the trajectory's
    (v, dv) columns, or None when the trajectory ends before ``r_star``."""
    r, v, dv = data[:, 0], data[:, 2], data[:, 4]
    if not r[0] <= r_star <= r[-1]:
        return None
    i = min(int(np.searchsorted(r, r_star, side="right")) - 1, len(r) - 2)
    h = r[i + 1] - r[i]
    t = (r_star - r[i]) / h
    h00 = 2 * t**3 - 3 * t**2 + 1
    h10 = t**3 - 2 * t**2 + t
    h11 = t**3 - t**2
    return float(h00 * v[i] + h10 * h * dv[i] + (1 - h00) * v[i + 1] + h11 * h * dv[i + 1])


def _failed_checks(entries) -> list[str]:
    return [f"check {entry['name']} failed" for entry in entries if not entry["pass"]]


def judge_solve(config, rc, report_text, trajectory_text, reference):
    """Reasons a solve op failed, and its accuracy against ``reference``
    (a reference-table entry or None) as ``{"r0": err, "v": err}``."""
    accuracy: dict[str, float] = {}
    if rc != 0:
        return [f"exit code {rc}"], accuracy
    try:
        report = json.loads(report_text)
    except (TypeError, ValueError):
        return ["unparseable report.json"], accuracy
    reasons = [
        "solver failed" for note in report["notes"] if note.startswith("solver failed")
    ]
    if report["trajectory_csv"] is None:
        return reasons or ["no trajectory written"], accuracy
    try:
        data = parse_trajectory(trajectory_text)
    except (TypeError, ValueError):
        return reasons + ["unparseable trajectory.csv"], accuracy

    reasons += _failed_checks(report["verify"])
    envelope = report["envelope"]
    if envelope is not None and not envelope["pass"]:
        reasons.append("envelope failed")
    if report["reconcile"]["status"] != "agree":
        reasons.append(
            f"classes {report['reconcile']['status']} (predicted "
            f"{report['predicted_class']}, numeric {report['numeric_class']})"
        )
    if not _is_closed_form(config, report["predicted_class"], report["numeric_class"]):
        reasons.append(f"not the closed-form class {closed_form_class(config)}")

    if reference is not None and "v_ref" in reference:
        if reference["R0_ref"] is not None and report["R0"] is not None:
            accuracy["r0"] = abs(report["R0"] - reference["R0_ref"]) / reference["R0_ref"]
        v = hermite_v(data, reference["r_star"])
        if v is not None:
            accuracy["v"] = abs(v - reference["v_ref"]) / abs(reference["v_ref"])
    return reasons, accuracy


def judge_verify(rc, stdout):
    """Reasons a ``verify --trajectory`` op failed."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"exit code {rc}" if rc else "unparseable verify output"]
    if payload.get("error") or "reports" not in payload:
        return [f"exit code {rc}: {payload.get('error', 'no check reports')}"]
    reasons = _failed_checks(payload["reports"])
    if rc != (0 if payload["pass"] else 1) or (not payload["pass"] and not reasons):
        reasons.append(f"exit code {rc}")
    return reasons


def judge_sweep(rc, atlas_text, row_configs):
    """Reasons a ``sweep --solve`` op failed; ``row_configs`` holds the
    config of each row in sweep order."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rows = list(csv.DictReader(io.StringIO(atlas_text)))
    except (TypeError, csv.Error):
        return ["unparseable atlas.csv"]
    if len(rows) != len(row_configs):
        return [f"atlas.csv has {len(rows)} rows, expected {len(row_configs)}"]
    reasons = []
    for row, row_config in zip(rows, row_configs):
        label = f"{row['parameter']}={row['value']}"
        if row["error"]:
            reasons.append(f"row error at {label}: {row['error']}")
            continue
        if row["agree"] != "true":
            reasons.append(
                f"classes disagree at {label} (predicted {row['predicted_class']}, "
                f"numeric {row['numeric_class']})"
            )
        if not _is_closed_form(row_config, row["predicted_class"], row["numeric_class"]):
            reasons.append(
                f"not the closed-form class {closed_form_class(row_config)} at {label}"
            )
    return reasons
