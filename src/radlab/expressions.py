"""Finite sums of power terms with positive coefficients and non-negative exponents.

All scalar data of the radial system (radial weights, reaction factors, the
gradient nonlinearity) are drawn from the family

    f(t) = c_1 * t**e_1 + ... + c_k * t**e_k,    c_i > 0,  0 <= e_1 < ... < e_k,

which makes continuity, monotonicity and positivity on (0, oo) structural
properties, and gives growth orders and antiderivatives closed forms.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "ExpressionError",
    "FuncExpr",
    "GrowthProfile",
    "parse_expr",
    "derive_k",
]


class ExpressionError(ValueError):
    """Malformed or invalid expression text; carries the offending position."""

    def __init__(self, message: str, text: str = "", position: int | None = None):
        if position is not None:
            message = f"{message} (column {position + 1} in {text!r})"
        super().__init__(message)
        self.text = text
        self.position = position


def _merged(pairs: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Canonicalize (coeff, exponent) pairs: merge duplicates, drop zeros, sort."""
    by_exponent: dict[float, float] = {}
    for coeff, exponent in pairs:
        by_exponent[exponent] = by_exponent.get(exponent, 0.0) + coeff
    return tuple(
        (coeff, exponent)
        for exponent, coeff in sorted(by_exponent.items())
        if coeff != 0.0
    )


@dataclass(frozen=True)
class FuncExpr:
    """A canonical power sum: positive coefficients, strictly increasing exponents.

    ``terms`` holds ``(coefficient, exponent)`` pairs.  Constant terms use
    exponent 0 with the convention ``0**0 == 1``, so every member is defined
    and continuous on ``[0, oo)``, non-decreasing, and positive on ``(0, oo)``.
    """

    terms: tuple[tuple[float, float], ...]
    source_text: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.terms:
            raise ExpressionError("a power sum needs at least one positive term")
        previous = -1.0
        for coeff, exponent in self.terms:
            if not (coeff > 0.0 and math.isfinite(coeff)):
                raise ExpressionError(
                    f"coefficients must be positive and finite, got {coeff!r}"
                )
            if exponent < 0.0 or not math.isfinite(exponent):
                raise ExpressionError(
                    f"exponents must be non-negative and finite, got {exponent!r}"
                )
            if exponent <= previous:
                raise ExpressionError("exponents must be strictly increasing")
            previous = exponent

    @staticmethod
    def from_terms(pairs: Iterable[tuple[float, float]], source_text: str = "") -> "FuncExpr":
        """Build a canonical FuncExpr from arbitrary (coeff, exponent) pairs."""
        return FuncExpr(_merged(pairs), source_text)

    # -- evaluation ------------------------------------------------------

    def __call__(self, t):
        """Evaluate at a scalar or ndarray argument ``t >= 0`` (``0**0 == 1``)."""
        if isinstance(t, np.ndarray):
            total = np.zeros(t.shape, dtype=float)
            for coeff, exponent in self.terms:
                if exponent == 0.0:
                    total += coeff
                else:
                    total += coeff * t**exponent
            return total
        x = float(t)
        total = 0.0
        for coeff, exponent in self.terms:
            if exponent == 0.0:
                total += coeff
            else:
                total += coeff * x**exponent
        return total

    def scalar_fn(self) -> Callable[[float], float]:
        """A specialized scalar closure, for tight evaluation loops."""
        if len(self.terms) == 1:
            coeff, exponent = self.terms[0]
            if exponent == 0.0:
                return lambda t: coeff
            if exponent == 1.0:
                return lambda t: coeff * t
            return lambda t: coeff * t**exponent
        terms = self.terms

        def call(t: float) -> float:
            total = 0.0
            for coeff, exponent in terms:
                total += coeff * t**exponent if exponent != 0.0 else coeff
            return total

        return call

    # -- structure -------------------------------------------------------

    @property
    def leading_exponent(self) -> float:
        """Exponent of the dominant term as t -> oo."""
        return self.terms[-1][1]

    @property
    def leading_coeff(self) -> float:
        return self.terms[-1][0]

    @property
    def smallest_exponent(self) -> float:
        """Exponent of the dominant term as t -> 0+."""
        return self.terms[0][1]

    @property
    def is_constant(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][1] == 0.0

    # -- calculus and transforms (closed under the family) ----------------

    def antiderivative(self) -> "FuncExpr":
        """The antiderivative vanishing at 0:  c*t**e  ->  c/(e+1)*t**(e+1)."""
        return FuncExpr.from_terms(
            (coeff / (exponent + 1.0), exponent + 1.0) for coeff, exponent in self.terms
        )

    def compose_power(self, a: float) -> "FuncExpr":
        """The map t -> f(t**a) for a > 0."""
        if not a > 0.0:
            raise ValueError("power composition needs a positive exponent")
        return FuncExpr.from_terms(
            (coeff, exponent * a) for coeff, exponent in self.terms
        )

    def scale_argument(self, c: float) -> "FuncExpr":
        """The map t -> f(c*t) for c > 0."""
        if not c > 0.0:
            raise ValueError("argument scaling needs a positive factor")
        return FuncExpr.from_terms(
            (coeff * c**exponent, exponent) for coeff, exponent in self.terms
        )

    def scale_value(self, c: float) -> "FuncExpr":
        """The map t -> c*f(t) for c > 0."""
        if not c > 0.0:
            raise ValueError("value scaling needs a positive factor")
        return FuncExpr.from_terms(
            (coeff * c, exponent) for coeff, exponent in self.terms
        )

    def pointwise_power(self, x: float) -> "FuncExpr | None":
        """f**x as a power sum, or None when it leaves the family (multi-term)."""
        if len(self.terms) != 1:
            return None
        coeff, exponent = self.terms[0]
        if exponent * x < 0.0:
            return None
        return FuncExpr.from_terms([(coeff**x, exponent * x)])

    # -- printing ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form; ``parse_expr(f.to_text())`` reproduces ``f``."""
        parts = []
        for coeff, exponent in self.terms:
            if exponent == 0.0:
                parts.append(repr(coeff))
                continue
            factor = "t" if exponent == 1.0 else f"t^{exponent!r}"
            parts.append(factor if coeff == 1.0 else f"{coeff!r}*{factor}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class GrowthProfile:
    """Asymptotic degree of a power sum: f(t) ~ leading_coeff * t**leading_exponent."""

    leading_exponent: float
    leading_coeff: float


def derive_k(g: FuncExpr) -> GrowthProfile:
    """Growth order of a power sum: the unique k with g(t)/t**k non-increasing
    on (0, oo) and a positive limit at infinity.

    For this family that is the largest exponent: every other term contributes
    c*t**(e-k) with e - k <= 0, so the quotient is non-increasing and tends to
    the leading coefficient.  Identically-zero functions are unrepresentable,
    so no separate rejection is needed here.
    """
    if not isinstance(g, FuncExpr):
        raise TypeError("growth order needs a parsed power sum")
    coeff, exponent = g.terms[-1]
    return GrowthProfile(leading_exponent=exponent, leading_coeff=coeff)


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")


def parse_expr(text: str) -> FuncExpr:
    """Parse ``term ('+' term)*`` where term is ``NUM``, ``NUM '*' t ['^' NUM]``,
    ``t ['^' NUM]`` and NUM is a non-negative decimal literal (scientific
    notation allowed).  Duplicate exponents are merged; the result is canonical.

    Raises :class:`ExpressionError` with the offending column for syntax
    errors, negative literals, and identically-zero expressions.
    """
    if not isinstance(text, str):
        raise ExpressionError("expression must be a string")
    n = len(text)

    def skip_ws(i: int) -> int:
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_exponent(i: int) -> tuple[float, int]:
        j = skip_ws(i)
        if j < n and text[j] == "^":
            j = skip_ws(j + 1)
            if j < n and text[j] == "-":
                raise ExpressionError("negative values are not allowed", text, j)
            match = _NUMBER.match(text, j)
            if not match:
                raise ExpressionError("expected an exponent after '^'", text, j)
            return float(match.group()), match.end()
        return 1.0, i

    def read_term(i: int) -> tuple[float, float, int]:
        i = skip_ws(i)
        if i >= n:
            raise ExpressionError("expected a term", text, i)
        if text[i] == "-":
            raise ExpressionError("negative values are not allowed", text, i)
        if text[i] == "t":
            exponent, j = read_exponent(i + 1)
            return 1.0, exponent, j
        match = _NUMBER.match(text, i)
        if not match:
            raise ExpressionError("expected a number or 't'", text, i)
        coeff = float(match.group())
        j = skip_ws(match.end())
        if j < n and text[j] == "*":
            j = skip_ws(j + 1)
            if j >= n or text[j] != "t":
                raise ExpressionError("expected 't' after '*'", text, j)
            exponent, j = read_exponent(j + 1)
            return coeff, exponent, j
        return coeff, 0.0, match.end()

    pos = skip_ws(0)
    if pos >= n:
        raise ExpressionError("empty expression", text, pos)

    pairs: list[tuple[float, float]] = []
    while True:
        coeff, exponent, pos = read_term(pos)
        pairs.append((coeff, exponent))
        pos = skip_ws(pos)
        if pos >= n:
            break
        if text[pos] != "+":
            raise ExpressionError("expected '+'", text, pos)
        pos += 1

    terms = _merged(pairs)
    if not terms:
        raise ExpressionError("expression is identically zero", text, 0)
    return FuncExpr(terms, text)
