"""Problem data for the coupled radial system and its structural checks.

The system under study, posed on a ball or on the whole space, is

    div(|grad u|**(p-2) grad u) = f1(|x|) * g1(v) * |grad u|**alpha,
    div(|grad v|**(p-2) grad v) = f2(|x|) * g2(v) * h(|grad u|),

with p > 1, alpha >= 0, dimension n >= 2, and scalar data f1, f2, g1, g2, h
that are continuous, non-decreasing, and positive on (0, oo).  For radial
solutions the two derived exponents

    theta = 1 / (p - 1 - alpha),
    delta = (n - 1) * (p - 1 - alpha) / (p - 1),

govern the integrated first-order form used by the solver and the criteria.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .expressions import FuncExpr

__all__ = [
    "InvalidProblem",
    "ProblemSpec",
    "ValidationReport",
    "check_range",
    "validate_assumptions",
    "ensure_valid",
]


class InvalidProblem(ValueError):
    """Problem data violating a structural requirement."""


_FUNCTION_FIELDS = ("f1", "f2", "g1", "g2", "h")


def check_range(name: str, value: float) -> None:
    """Raise :class:`InvalidProblem` if ``p``, ``alpha`` or ``n`` (named by
    ``name``) lies outside its range: p > 1, alpha >= 0, n >= 2.  The run-file
    parser applies the same rule with the same messages."""
    if name == "p" and not value > 1.0:
        raise InvalidProblem("p must exceed 1")
    if name == "alpha" and value < 0.0:
        raise InvalidProblem("alpha must be non-negative")
    if name == "n" and value < 2.0:
        raise InvalidProblem("the dimension n must be at least 2")


@dataclass(frozen=True)
class ProblemSpec:
    """Full data of one problem instance.

    All five scalar functions are parsed power sums: the family the theory
    covers, whose growth orders, antiderivatives and rescalings have closed
    forms.  This is the only place that checks the data type.
    """

    p: float
    alpha: float
    n: float
    f1: FuncExpr
    f2: FuncExpr
    g1: FuncExpr
    g2: FuncExpr
    h: FuncExpr

    def __post_init__(self):
        for name in _FUNCTION_FIELDS:
            if not isinstance(getattr(self, name), FuncExpr):
                raise InvalidProblem(f"{name} must be a parsed power sum")
        for name in ("p", "alpha", "n"):
            check_range(name, getattr(self, name))

    @property
    def gradient_balanced(self) -> bool:
        """True when alpha < p - 1, the regime where radial solutions exist."""
        return self.alpha < self.p - 1.0

    @property
    def theta(self) -> float:
        if not self.gradient_balanced:
            raise InvalidProblem(
                "theta requires alpha < p - 1; no positive radial solutions exist otherwise"
            )
        return 1.0 / (self.p - 1.0 - self.alpha)

    @property
    def delta(self) -> float:
        if not self.gradient_balanced:
            raise InvalidProblem(
                "delta requires alpha < p - 1; no positive radial solutions exist otherwise"
            )
        return (self.n - 1.0) * (self.p - 1.0 - self.alpha) / (self.p - 1.0)

    @property
    def k1(self) -> float:
        """Growth order of g1."""
        return self.g1.leading_exponent

    @property
    def k2(self) -> float:
        """Growth order of g2."""
        return self.g2.leading_exponent

    @functools.cached_property
    def _validation(self) -> ValidationReport:
        """The report of :func:`validate_assumptions`, made on first read:
        the spec is frozen, so it never changes."""
        errors: list[str] = []
        k1, k2 = self.k1, self.k2
        if not k1 > 0.0:
            errors.append("the growth order k1 of g1 must be positive")
        if k2 > k1:
            errors.append("the growth order k2 of g2 must not exceed k1")
        for name in _FUNCTION_FIELDS:
            if not _finite_on_range(getattr(self, name)):
                errors.append(f"{name} produced non-finite values on the sampled grid")
        return ValidationReport(ok=not errors, errors=tuple(errors), k1=k1, k2=k2)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    errors: tuple[str, ...]
    k1: float
    k2: float


def _finite_on_range(f: FuncExpr) -> bool:
    """Whether the power sum f stays finite on [1e-3, 1e6]: f is
    non-decreasing, so whether f(1e6) is, in floats, where a power that
    leaves the float range raises OverflowError."""
    try:
        return math.isfinite(f(1e6))
    except OverflowError:
        return False


def validate_assumptions(spec: ProblemSpec) -> ValidationReport:
    """Check the standing structural requirements on the five scalar functions.

    Power sums are continuous, non-decreasing and positive by construction,
    but a large exponent can still overflow: each function must stay finite
    on [1e-3, 1e6], so at 1e6.  The growth orders must satisfy k1 > 0
    and 0 <= k2 <= k1.  A spec is validated once; later calls return the
    same report.
    """
    return spec._validation


def ensure_valid(spec: ProblemSpec) -> ValidationReport:
    """validate_assumptions, raising :class:`InvalidProblem` on any error."""
    report = validate_assumptions(spec)
    if not report.ok:
        raise InvalidProblem("; ".join(report.errors))
    return report
