"""Run configuration: a small line-oriented config format and its loader.

A run file describes one problem together with solver settings and an
optional parameter sweep::

    # spec A

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
The only key allowed before the first section header is ``seed``: a
non-negative integer, validated and then ignored, as the CLI's ``--seed``
is (no output depends on a random draw).

One table, ``_KEYS``, gives each section's keys, each with whether it is
required and its rule: a function from the raw text to the value that
raises ``ValueError`` with the reason.  p, alpha and n take their ranges
from :func:`radlab.problem.check_range`, target_radius and rel_tol from
:class:`SolverOptions`; a sweep value has one rule, ``_swept``, which
:meth:`RunConfig.with_value` applies too.

Validation is exhaustive and tags most faults with their line, in this
order: syntax errors (malformed lines, unknown or duplicate sections,
duplicate keys) by line; missing sections; each section in file order,
its keys' errors by line and then its missing keys; last, the sweep values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from .classify import Domain
from .expressions import ExpressionError, parse_expr
from .problem import ProblemSpec, check_range
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
#: replace g1, g2 and h respectively with the pure power ``t^value``.
SWEEPABLE_PARAMETERS = ("p", "alpha", "n", "u0", "v0", "target_radius", "m", "beta", "q")

_POWER_FIELDS = {"m": "g1", "beta": "g2", "q": "h"}


def _sweepable(parameter: str) -> str:
    if parameter not in SWEEPABLE_PARAMETERS:
        choices = ", ".join(SWEEPABLE_PARAMETERS)
        raise ValueError(f"cannot sweep {parameter!r}; choose one of {choices}")
    return parameter


def _swept(parameter: str, value: float) -> dict[str, object]:
    """The fields of a :class:`RunConfig` that one sweep value sets.

    This is the one rule for a sweep value: ``n`` takes an integer, and
    ``m``/``beta``/``q`` an integer >= 0, which becomes the pure power
    ``t^value`` in g1/g2/h (the expression language has no negative
    power); every other parameter takes any number.
    """
    value = float(value)
    if _sweepable(parameter) not in ("n", *_POWER_FIELDS):
        return {parameter: value}
    power = parameter != "n"
    if not value.is_integer() or (power and value < 0):
        raise ValueError(
            f"sweeping {parameter!r} needs integer values"
            f"{' >= 0' if power else ''}, got {value!r}"
        )
    return {_POWER_FIELDS[parameter]: f"t^{int(value)}"} if power else {"n": int(value)}


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

        The value must pass the run file's rule for a sweep value (see
        ``_swept``), or this raises ``ValueError`` with the parser's message;
        ``m``/``beta``/``q`` rewrite g1/g2/h to the pure power ``t^value``.
        The copy is not re-validated: an out-of-range value (say a swept
        ``alpha`` crossing ``p - 1``) surfaces when the problem is built or
        classified, which lets a sweep record the failure per row.
        """
        return dataclasses.replace(self, **_swept(parameter, value))


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


def _parse_lines(
    text: str, errors: list[str]
) -> dict[str | None, dict[str, tuple[str, int]]]:
    """First pass: split into sections of ``key -> (raw value, line no)``.

    The top level, before any header, is the section ``""``; the keys of an
    unknown section, ``[]`` included, are filed under None, which no rule
    reads.
    """
    tables: dict[str | None, dict[str, tuple[str, int]]] = {"": {}}
    section: str | None = ""
    seen_sections: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(f"line {lineno}: malformed section header {line!r}")
                continue
            section = line[1:-1].strip()
            if not section or section not in _KEYS:
                # its keys are swallowed: the section is reported once
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            elif section in seen_sections:
                errors.append(
                    f"line {lineno}: duplicate section [{section}] "
                    f"(first opened on line {seen_sections[section]})"
                )
            else:
                seen_sections[section] = lineno
            tables.setdefault(section, {})
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
    if len(raw) >= 2 and raw[0] == raw[-1] == '"' and '"' not in raw[1:-1]:
        return raw[1:-1]
    return None


#: A key's rule: (key, raw text) -> the value, or ValueError with the reason.
Rule = Callable[[str, str], object]


def _number(check: Callable[[str, float], None], *, integer: bool = False) -> Rule:
    """The rule for a finite number, or an integer, that passes ``check``."""
    kind = "an integer" if integer else "a number"

    def rule(key: str, raw: str) -> float:
        if _unquote(raw) is not None:
            raise ValueError(f"{key} must be {kind}, not a quoted string")
        try:
            value = float(raw)
            if integer:
                if not value.is_integer():  # false for inf and nan too
                    raise ValueError(raw)
                value = int(value)
        except ValueError:
            raise ValueError(f"{key} must be {kind}, got {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {raw!r}")
        check(key, value)
        return value

    return rule


def _positive(key: str, value: float) -> None:
    if value <= 0.0:
        raise ValueError(f"{key} must be positive")


def _non_negative(key: str, value: int) -> None:
    if value < 0:  # the seed is ignored, yet keeps its rule: the same files load
        raise ValueError(f"{key} must be non-negative, got {value}")


def _solver_option(key: str, value: float) -> None:
    SolverOptions(**{"target_radius": 1.0, key: value})


def _expression(key: str, raw: str) -> str:
    inner = _unquote(raw)
    if inner is None:
        raise ValueError(f"{key} must be a quoted expression, e.g. {key} = \"t\"")
    try:
        parse_expr(inner)
    except ExpressionError as exc:
        raise ValueError(f"{key}: {exc}") from None
    return inner


def _omega(key: str, raw: str) -> str:
    inner = _unquote(raw)
    omega = raw if inner is None else inner
    if omega not in ("ball", "wholespace"):
        raise ValueError(f"omega must be \"ball\" or \"wholespace\", got {omega!r}")
    return omega


def _sweep_values(key: str, raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError:
        values = ()
    if not values or not all(map(math.isfinite, values)):
        raise ValueError(
            f"values must be a comma-separated list of finite numbers, got {raw!r}"
        )
    return values


#: section -> key -> (required, rule).  An optional section may be left out
#: or left empty; a present, non-empty one needs its required keys.
_KEYS: dict[str, dict[str, tuple[bool, Rule]]] = {
    "": {"seed": (False, _number(_non_negative, integer=True))},
    "problem": {
        "p": (True, _number(check_range)),
        "alpha": (True, _number(check_range)),
        "n": (True, _number(check_range, integer=True)),
        **{key: (True, _expression) for key in ("f1", "f2", "g1", "g2", "h")},
        "omega": (True, _omega),
    },
    "solver": {
        "u0": (True, _number(_positive)),
        "v0": (True, _number(_positive)),
        "target_radius": (True, _number(_solver_option)),
        "rel_tol": (False, _number(_solver_option)),
    },
    "sweep": {
        "parameter": (True, lambda key, raw: _sweepable(_unquote(raw) or raw)),
        "values": (True, _sweep_values),
    },
}

_OPTIONAL_SECTIONS = ("", "sweep")


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate run-file text; raise ConfigError listing *all* faults."""
    errors: list[str] = []
    tables = _parse_lines(text, errors)
    errors += [
        f"missing required section [{name}]"
        for name in _KEYS
        if name not in tables and name not in _OPTIONAL_SECTIONS
    ]
    values: dict[str, dict[str, object]] = {}
    for name, table in tables.items():
        keys = _KEYS.get(name)
        if keys is None:  # an unknown section, reported at its header
            continue
        got = values[name] = {}
        for key, (raw, lineno) in table.items():
            try:
                if key not in keys:
                    raise ValueError(
                        f"unknown key {key!r} in [{name}]"
                        if name
                        else f"key {key!r} appears before any section "
                        "(only 'seed' is allowed at top level)"
                    )
                got[key] = keys[key][1](key, raw)
            except ValueError as exc:
                errors.append(f"line {lineno}: {exc}")
        if table or name not in _OPTIONAL_SECTIONS:
            errors += [
                f"missing required key {key!r} in [{name}]"
                for key, (required, _) in keys.items()
                if required and key not in table
            ]

    sweep = values.get("sweep", {})
    parameter = sweep.get("parameter")
    for value in sweep.get("values", ()) if parameter else ():
        try:
            _swept(parameter, value)
        except ValueError as exc:
            errors.append(f"line {tables['sweep']['values'][1]}: {exc}")

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        **values["problem"],
        **values["solver"],
        sweep_parameter=parameter,
        sweep_values=sweep.get("values", ()),
    )


def load_config(path: str) -> RunConfig:
    """Load and validate a run file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
