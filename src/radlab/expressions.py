"""Finite sums of power terms with positive coefficients and non-negative exponents.

All scalar data of the radial system (radial weights, reaction factors, the
gradient nonlinearity) are drawn from the family

    f(t) = c_1 * t**e_1 + ... + c_k * t**e_k,    c_i > 0,  0 <= e_1 < ... < e_k,

which makes continuity, monotonicity and positivity on (0, oo) structural
properties, and gives growth orders and antiderivatives closed forms.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "ExpressionError",
    "FuncExpr",
    "parse_expr",
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
    def from_terms(pairs: Iterable[tuple[float, float]]) -> "FuncExpr":
        """Build a canonical FuncExpr from arbitrary (coeff, exponent) pairs."""
        return FuncExpr(_merged(pairs))

    # -- evaluation ------------------------------------------------------

    def __call__(self, t):
        """Evaluate at a float or an ndarray ``t >= 0`` (``0**0 == 1``)."""
        return sum(coeff * t**exponent for coeff, exponent in self.terms)

    # -- structure -------------------------------------------------------

    @property
    def leading_exponent(self) -> float:
        """Exponent of the dominant term as t -> oo: the growth order, the
        unique k with f(t)/t**k non-increasing on (0, oo) and a positive
        limit at infinity (every other term contributes c*t**(e-k) with
        e - k < 0)."""
        return self.terms[-1][1]

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


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")


def parse_expr(text: str) -> FuncExpr:
    """Parse ``term ('+' term)*`` where term is ``NUM``, ``NUM '*' t ['^' NUM]``,
    ``t ['^' NUM]`` and NUM is a non-negative decimal literal (scientific
    notation allowed).  Duplicate exponents are merged; the result is canonical.

    Raises :class:`ExpressionError` with the offending column for syntax
    errors, negative literals, and identically-zero expressions.  A text is
    parsed once: a FuncExpr is immutable, so later calls share it.
    """
    if not isinstance(text, str):
        raise ExpressionError("expression must be a string")
    return _parse(text)


# Bounded: a sweep's rows share a few texts.
@functools.lru_cache(maxsize=256)
def _parse(text: str) -> FuncExpr:
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
    return FuncExpr(terms)
