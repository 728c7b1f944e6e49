"""Run configuration: a small line-oriented config format and its loader.

A run file describes one problem together with solver settings and an
optional parameter sweep::

    # spec A
    seed = 7

    [problem]
    p = 2
    alpha = 0
    n = 3
    f1 = "1"
    f2 = "1"
    g1 = "t"
    g2 = "1"
    h = "t"
    omega = "ball"

    [solver]
    u0 = 1
    v0 = 1
    target_radius = 50
    rel_tol = 1e-8

    [sweep]
    parameter = q
    values = 1, 2, 3, 4

Rules: ``key = value`` lines grouped under ``[section]`` headers, ``#``
starts a comment (outside quotes), expression values must be quoted.
The only key allowed before the first section header is ``seed``.
Validation is exhaustive: every problem found is reported, each tagged
with the line it came from, rather than stopping at the first.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from .classify import Domain
from .expressions import ExpressionError, parse_expr
from .problem import ProblemSpec
from .solver import SolverOptions

__all__ = [
    "ConfigError",
    "RunConfig",
    "SWEEPABLE_PARAMETERS",
    "load_config",
    "parse_config_text",
]


class ConfigError(ValueError):
    """Raised when a run file cannot be parsed or fails validation.

    ``errors`` collects every individual problem as a human-readable
    string, most prefixed with the offending line number.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid run configuration:\n  " + "\n  ".join(self.errors))


#: Parameters accepted by ``[sweep] parameter``.  ``m``, ``beta`` and ``q``
#: replace g1, g2 and h respectively with the pure power ``t^value`` and
#: therefore require integer values >= 0; ``n`` sweeps require integers.
SWEEPABLE_PARAMETERS = (
    "p",
    "alpha",
    "n",
    "u0",
    "v0",
    "target_radius",
    "m",
    "beta",
    "q",
)

_INTEGER_PARAMETERS = frozenset({"n", "m", "beta", "q"})


@dataclass(frozen=True)
class RunConfig:
    """One fully-specified run: problem, domain, solver settings, sweep."""

    p: float
    alpha: float
    n: int
    f1: str
    f2: str
    g1: str
    g2: str
    h: str
    omega: str
    u0: float
    v0: float
    target_radius: float
    rel_tol: float = SolverOptions.rel_tol
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()
    seed: int = 0

    def spec(self) -> ProblemSpec:
        """Build the problem description (parses the expression strings)."""
        return ProblemSpec(
            p=self.p,
            alpha=self.alpha,
            n=self.n,
            f1=parse_expr(self.f1),
            f2=parse_expr(self.f2),
            g1=parse_expr(self.g1),
            g2=parse_expr(self.g2),
            h=parse_expr(self.h),
        )

    def domain(self) -> Domain:
        return Domain.BALL if self.omega == "ball" else Domain.WHOLE_SPACE

    def solver_options(self) -> SolverOptions:
        return SolverOptions(target_radius=self.target_radius, rel_tol=self.rel_tol)

    def with_value(self, parameter: str, value: float) -> "RunConfig":
        """Return a copy with one sweepable parameter replaced.

        ``m``/``beta``/``q`` rewrite the g1/g2/h expression to the pure
        power ``t^value``; the other parameters are plain field updates.
        The copy is not re-validated: an out-of-range value (say a swept
        ``alpha`` crossing ``p - 1``) surfaces when the problem is built
        or classified, which lets a sweep record the failure per row.
        """
        if parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"cannot sweep {parameter!r}; choose one of "
                + ", ".join(SWEEPABLE_PARAMETERS)
            )
        if parameter in _INTEGER_PARAMETERS:
            k = int(round(value))
            if not math.isclose(value, k, rel_tol=0.0, abs_tol=1e-12):
                raise ValueError(f"{parameter} must be an integer, got {value!r}")
            if parameter == "n":
                return dataclasses.replace(self, n=k)
            field = {"m": "g1", "beta": "g2", "q": "h"}[parameter]
            return dataclasses.replace(self, **{field: f"t^{k}"})
        return dataclasses.replace(self, **{parameter: float(value)})


# --------------------------------------------------------------------------
# parsing


def _strip_comment(line: str) -> str:
    """Remove a ``#`` comment, ignoring ``#`` inside double quotes."""
    in_quotes = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quotes = not in_quotes
        elif ch == "#" and not in_quotes:
            return line[:i]
    return line


_SECTIONS = ("problem", "solver", "sweep")

_SECTION_KEYS: dict[str, tuple[str, ...]] = {
    "problem": ("p", "alpha", "n", "f1", "f2", "g1", "g2", "h", "omega"),
    "solver": ("u0", "v0", "target_radius", "rel_tol"),
    "sweep": ("parameter", "values"),
}

_REQUIRED_KEYS: dict[str, tuple[str, ...]] = {
    "problem": ("p", "alpha", "n", "f1", "f2", "g1", "g2", "h", "omega"),
    "solver": ("u0", "v0", "target_radius"),
    "sweep": (),
}

_EXPRESSION_KEYS = ("f1", "f2", "g1", "g2", "h")


def _parse_lines(text: str, errors: list[str]) -> dict[str, dict[str, tuple[str, int]]]:
    """First pass: split into sections of ``key -> (raw value, line no)``."""
    tables: dict[str, dict[str, tuple[str, int]]] = {"": {}}
    section = ""
    seen_sections: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {lineno}: malformed section header {line!r}")
                continue
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{name}]")
                section = name  # swallow its keys; they are reported once
                tables.setdefault(name, {})
                continue
            if name in seen_sections:
                errors.append(
                    f"line {lineno}: duplicate section [{name}] "
                    f"(first opened on line {seen_sections[name]})"
                )
            seen_sections.setdefault(name, lineno)
            section = name
            tables.setdefault(name, {})
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            errors.append(f"line {lineno}: missing key before '='")
            continue
        table = tables[section]
        if key in table:
            errors.append(
                f"line {lineno}: duplicate key {key!r} "
                f"(first set on line {table[key][1]})"
            )
            continue
        table[key] = (value, lineno)
    return tables


def _unquote(raw: str) -> str | None:
    """Return the contents of a double-quoted value, or None if unquoted."""
    if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
        inner = raw[1:-1]
        if '"' not in inner:
            return inner
    return None


def _take_number(
    table: dict[str, tuple[str, int]],
    key: str,
    errors: list[str],
    *,
    convert: Callable[[str], float] = float,
    kind: str = "a number",
) -> float | None:
    if key not in table:
        return None
    raw, lineno = table[key]
    if _unquote(raw) is not None:
        errors.append(f"line {lineno}: {key} must be {kind}, not a quoted string")
        return None
    try:
        value = convert(raw)
    except ValueError:
        errors.append(f"line {lineno}: {key} must be {kind}, got {raw!r}")
        return None
    if isinstance(value, float) and not math.isfinite(value):
        errors.append(f"line {lineno}: {key} must be finite, got {raw!r}")
        return None
    return value


def _int_literal(raw: str) -> int:
    value = float(raw)
    k = int(round(value))
    if value != k:
        raise ValueError(raw)
    return k


def _take_string(
    table: dict[str, tuple[str, int]],
    key: str,
    errors: list[str],
    *,
    require_quotes: bool,
) -> str | None:
    if key not in table:
        return None
    raw, lineno = table[key]
    inner = _unquote(raw)
    if inner is not None:
        return inner
    if require_quotes:
        errors.append(
            f"line {lineno}: {key} must be a quoted expression, e.g. {key} = \"t\""
        )
        return None
    return raw


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate run-file text; raise ConfigError listing *all* faults."""
    errors: list[str] = []
    tables = _parse_lines(text, errors)

    # ---------------- top level
    top = tables[""]
    seed = 0
    for key, (raw, lineno) in top.items():
        if key != "seed":
            errors.append(
                f"line {lineno}: key {key!r} appears before any section "
                "(only 'seed' is allowed at top level)"
            )
    if "seed" in top:
        got = _take_number(top, "seed", errors, convert=_int_literal, kind="an integer")
        if got is not None and got < 0:  # numpy rejects a negative seed
            errors.append(f"line {top['seed'][1]}: seed must be non-negative, got {got}")
        seed = got or 0

    for name in ("problem", "solver"):
        if name not in tables:
            errors.append(f"missing required section [{name}]")
    for name in _SECTIONS:
        table = tables.get(name)
        if table is None:
            continue
        for key, (_, lineno) in table.items():
            if key not in _SECTION_KEYS[name]:
                errors.append(f"line {lineno}: unknown key {key!r} in [{name}]")
        for key in _REQUIRED_KEYS[name]:
            if key not in table:
                errors.append(f"missing required key {key!r} in [{name}]")

    problem = tables.get("problem", {})
    solver = tables.get("solver", {})
    sweep = tables.get("sweep", {})

    # ---------------- [problem]
    p = _take_number(problem, "p", errors)
    alpha = _take_number(problem, "alpha", errors)
    n = _take_number(problem, "n", errors, convert=_int_literal, kind="an integer")
    exprs: dict[str, str] = {}
    for key in _EXPRESSION_KEYS:
        got = _take_string(problem, key, errors, require_quotes=True)
        if got is not None:
            line = problem[key][1]
            try:
                parse_expr(got)
            except ExpressionError as exc:
                errors.append(f"line {line}: {key}: {exc}")
            else:
                exprs[key] = got
    omega = _take_string(problem, "omega", errors, require_quotes=False)
    if omega is not None and omega not in ("ball", "wholespace"):
        errors.append(
            f"line {problem['omega'][1]}: omega must be \"ball\" or \"wholespace\", "
            f"got {omega!r}"
        )

    if p is not None and p <= 1.0:
        errors.append(f"line {problem['p'][1]}: p must exceed 1")
    if alpha is not None and alpha < 0.0:
        errors.append(f"line {problem['alpha'][1]}: alpha must be non-negative")
    if n is not None and n < 2:
        errors.append(f"line {problem['n'][1]}: the dimension n must be at least 2")

    # ---------------- [solver]
    # target_radius and rel_tol must pass SolverOptions' own checks.
    reals = {"rel_tol": SolverOptions.rel_tol}
    for key in _SECTION_KEYS["solver"]:
        got = _take_number(solver, key, errors)
        if got is None:
            continue
        try:
            if key in ("u0", "v0"):
                if got <= 0.0:
                    raise ValueError(f"{key} must be positive")
            else:
                SolverOptions(**{"target_radius": 1.0, key: got})
        except ValueError as exc:
            errors.append(f"line {solver[key][1]}: {exc}")
        else:
            reals[key] = got

    # ---------------- [sweep]
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()
    if sweep:
        if "parameter" not in sweep:
            errors.append("missing required key 'parameter' in [sweep]")
        if "values" not in sweep:
            errors.append("missing required key 'values' in [sweep]")
    if "parameter" in sweep:
        raw, lineno = sweep["parameter"]
        name = _unquote(raw) or raw
        if name not in SWEEPABLE_PARAMETERS:
            errors.append(
                f"line {lineno}: cannot sweep {name!r}; choose one of "
                + ", ".join(SWEEPABLE_PARAMETERS)
            )
        else:
            sweep_parameter = name
    if "values" in sweep:
        raw, lineno = sweep["values"]
        parts = [part.strip() for part in raw.split(",")]
        values: list[float] = []
        ok = bool(parts) and all(parts)
        if ok:
            for part in parts:
                try:
                    value = float(part)
                except ValueError:
                    ok = False
                    break
                if not math.isfinite(value):
                    ok = False
                    break
                values.append(value)
        if not ok:
            errors.append(
                f"line {lineno}: values must be a comma-separated list of "
                f"finite numbers, got {raw!r}"
            )
        else:
            # m, beta and q become the power t^value, so they must be >= 0.
            if sweep_parameter in _INTEGER_PARAMETERS:
                power = sweep_parameter != "n"
                for value in values:
                    if value != int(value) or (power and value < 0):
                        errors.append(
                            f"line {lineno}: sweeping {sweep_parameter!r} needs "
                            f"integer values{' >= 0' if power else ''}, got {value!r}"
                        )
            sweep_values = tuple(values)
    if sweep_parameter is None:
        sweep_values = ()

    if errors:
        raise ConfigError(errors)

    assert p is not None and alpha is not None and n is not None
    assert omega is not None
    return RunConfig(
        p=float(p),
        alpha=float(alpha),
        n=int(n),
        f1=exprs["f1"],
        f2=exprs["f2"],
        g1=exprs["g1"],
        g2=exprs["g2"],
        h=exprs["h"],
        omega=omega,
        u0=reals["u0"],
        v0=reals["v0"],
        target_radius=reals["target_radius"],
        rel_tol=reals["rel_tol"],
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        seed=seed,
    )


def load_config(path: str) -> RunConfig:
    """Load and validate a run file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text)
