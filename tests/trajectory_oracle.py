"""Reference trajectory reader for the tests, independent of radlab's
one-call reader.

:func:`load_trajectory` reads every file the general way: ``csv`` for the
header, one ``np.loadtxt`` call for the body, and a row-by-row rescan to
name the first bad line when numpy rejects the file.  ``radlab verify``
must give the same array bits, or the same error, for every file.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from radlab.problem import ProblemSpec
from radlab.verify import TrajectoryData

_COLUMNS = ("r", "u", "v", "du", "dv")


def load_trajectory(path: str, spec: ProblemSpec) -> TrajectoryData:
    """Read a trajectory CSV: the first five columns must be r,u,v,du,dv."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty trajectory file")
        if tuple(header[:5]) != _COLUMNS:
            raise ValueError(
                f"{path}: expected columns r,u,v,du,dv, got {','.join(header[:5])}"
            )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # no rows: TrajectoryData says so
                table = np.loadtxt(fh, delimiter=",", usecols=range(5), ndmin=2,
                                   comments=None, quotechar='"')
        except ValueError as exc:
            fh.seek(0)
            raise ValueError(f"{path}: {_first_bad_row(fh) or exc}") from None
    try:
        return TrajectoryData(spec, *table.T)
    except ValueError as exc:
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
