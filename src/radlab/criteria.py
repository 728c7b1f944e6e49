"""Convergence criteria deciding boundary behaviour of the radial system.

Everything here revolves around the improper integrals

    J_w  =  integral_1^oo  s**w / ( integral_0^s h(t**theta)**(1/p) dt )**nu  ds,

with weight w = 0 ("Unweighted") or w = theta ("Weighted") and outer power
nu = k1*p / (k1*p + p - 1 - k2).  Their finiteness decides whether solutions
stay bounded, blow up in one component, or blow up in both; the tail integral
Phi and its inverse give the gradient envelope near a blow-up radius; and the
sandwich inequalities tie the h-form integrals to their cumulative H-form
equivalents.

Every ``h`` is a power sum, so the verdicts are exact exponent arithmetic
("Symbolic").
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .expressions import FuncExpr
from .problem import InvalidProblem, ProblemSpec
from .quadrature import integral_to_infinity, integral_with_endpoint_power

# Unused here, but radbench/spans.py traces quadrature by wrapping this name.
from .quadrature import adaptive_quad  # noqa: F401

__all__ = [
    "Verdict",
    "Method",
    "CriterionKind",
    "ConvergenceVerdict",
    "CriterionDiverges",
    "outer_power",
    "tail_exponent_verdict",
    "h_theta",
    "inner_integral",
    "criterion",
    "phi",
    "phi_inverse",
    "sandwich_quantities",
    "sandwich_check",
]

# Exponent arithmetic runs in floating point, so a tail exponent that equals
# the borderline -1 in exact rationals can land a few ulps to either side.
# Exponents within this band of -1 are treated as the (divergent) borderline.
_EXPONENT_SNAP = 1e-9


class Verdict(str, Enum):
    FINITE = "Finite"
    INFINITE = "Infinite"


class Method(str, Enum):
    SYMBOLIC = "Symbolic"


class CriterionKind(str, Enum):
    UNWEIGHTED = "Unweighted"
    WEIGHTED = "Weighted"


class CriterionDiverges(ValueError):
    """An operation requiring a finite criterion integral met a divergent one."""


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of one improper-integral decision.

    Exactly one of ``value`` (the integral from 1 to infinity, present when
    Finite) and ``divergence_exponent`` (the outer integrand's log-log slope,
    present when Infinite) is set.
    """

    verdict: Verdict
    method: Method
    value: float | None = None
    divergence_exponent: float | None = None

    def __post_init__(self):
        if (self.value is None) == (self.divergence_exponent is None):
            raise ValueError(
                "exactly one of value and divergence_exponent must be present"
            )
        if self.verdict is Verdict.FINITE and self.value is None:
            raise ValueError("a Finite verdict carries the integral value")
        if self.verdict is Verdict.INFINITE and self.divergence_exponent is None:
            raise ValueError("an Infinite verdict carries the divergence exponent")

    def to_dict(self) -> dict:
        """JSON form: the finite value appears as ``value``, the divergent
        outer integrand's log-log slope as ``slope``."""
        out: dict = {"verdict": self.verdict.value}
        if self.value is not None:
            out["value"] = self.value
        else:
            out["slope"] = self.divergence_exponent
        out["method"] = self.method.value
        return out


def outer_power(spec: ProblemSpec) -> float:
    """The criterion's outer power nu = k1*p / (k1*p + p - 1 - k2)."""
    k1, k2, p = spec.k1, spec.k2, spec.p
    denominator = k1 * p + p - 1.0 - k2
    if not denominator > 0.0:
        raise InvalidProblem("the growth orders must satisfy k2 <= k1 with k1 > 0")
    return k1 * p / denominator


def tail_exponent_verdict(
    integrand_growth: float, power: float, weight: float = 0.0
) -> tuple[Verdict, float]:
    """Decide  integral_1^oo s**weight / (integral_0^s t**a dt)**power ds
    by exponent arithmetic for an inner integrand of asymptotic degree ``a``.

    Returns the verdict together with the outer integrand's asymptotic
    exponent E = weight - power * (a + 1); the integral diverges exactly when
    E >= -1 (logarithmically at equality).  Because E is computed in floating
    point, values within 1e-9 of -1 are classified as the divergent borderline
    so that exact-rational equality cases cannot flip on rounding noise.
    """
    exponent = weight - power * (integrand_growth + 1.0)
    verdict = (
        Verdict.INFINITE if exponent >= -1.0 - _EXPONENT_SNAP else Verdict.FINITE
    )
    return verdict, exponent


def h_theta(h: FuncExpr, theta_value: float, t: float) -> float:
    """The cumulative transform  H_theta(t) = integral_0^t h(s**theta) ds."""
    if t < 0.0:
        raise ValueError("the argument must be non-negative")
    if t == 0.0:
        return 0.0
    return h.compose_power(theta_value).antiderivative()(t)


def _root_integral(f: FuncExpr, power: float) -> Callable[[float], float]:
    """The map s -> integral_0^s f(t)**power dt.

    When f**power is a power sum again (single-term ``f``) this is its
    closed-form antiderivative; otherwise substitution-assisted quadrature
    keyed to the behaviour of f**power at 0.
    """
    root = f.pointwise_power(power)
    if root is not None:
        return root.antiderivative().scalar_fn()
    fn = f.scalar_fn()
    zero_exponent = f.smallest_exponent * power

    def integral(s: float) -> float:
        return integral_with_endpoint_power(lambda t: fn(t) ** power, s, zero_exponent)

    return integral


def inner_integral(h: FuncExpr, theta_value: float, p: float, s: float) -> float:
    """The criterion's inner integral  integral_0^s h(t**theta)**(1/p) dt.

    Single-term ``h`` uses the closed form; other power sums use
    substitution-assisted quadrature keyed to their behaviour at 0.
    """
    if s < 0.0:
        raise ValueError("the upper limit must be non-negative")
    if s == 0.0:
        return 0.0
    return _root_integral(h.compose_power(theta_value), 1.0 / p)(float(s))


def _single_term_inner(spec: ProblemSpec) -> tuple[float, float] | None:
    """For single-term h return (A, b) with inner(s) = A * s**b, else None."""
    h = spec.h
    if len(h.terms) != 1:
        return None
    coeff, exponent = h.terms[0]
    b = exponent * spec.theta / spec.p + 1.0
    return coeff ** (1.0 / spec.p) / b, b


def _outer_integrand(spec: ProblemSpec, weight: float, power: float):
    """The outer integrand  s -> s**weight / inner(s)**power  as a callable."""
    closed = _single_term_inner(spec)
    if closed is not None:
        inner_coeff, inner_growth = closed
        scale = inner_coeff**-power

        def integrand(s: float) -> float:
            return scale * s ** (weight - inner_growth * power)

        return integrand

    theta_value, p = spec.theta, spec.p
    h = spec.h

    def integrand(s: float) -> float:
        inner = inner_integral(h, theta_value, p, s)
        return s**weight * inner**-power

    return integrand


def _finite_value(spec: ProblemSpec, weight: float, power: float, decay: float) -> float:
    """Value of the outer integral from 1, given its tail decay gamma > 1.

    For single-term ``h`` the integrand is exactly ``A**-power * s**-gamma``,
    so the value has the closed form ``A**-power / (gamma - 1)`` (exact, and
    immune to the slow-convergence regime gamma -> 1).  Otherwise adaptive
    quadrature of the transformed tail.
    """
    closed = _single_term_inner(spec)
    if closed is not None:
        inner_coeff, _ = closed
        return inner_coeff**-power / (decay - 1.0)
    integrand = _outer_integrand(spec, weight, power)
    return integral_to_infinity(integrand, 1.0, tail_exponent=decay, rel_tol=1e-9)


def criterion(spec: ProblemSpec, kind: CriterionKind) -> ConvergenceVerdict:
    """Convergence verdict for the Unweighted (w = 0) or Weighted (w = theta)
    criterion integral of ``spec``.

    The verdict is exact exponent arithmetic and, when Finite, the value is
    computed in closed form or by adaptive quadrature.
    """
    kind = CriterionKind(kind)
    theta_value = spec.theta
    power = outer_power(spec)
    weight = 0.0 if kind is CriterionKind.UNWEIGHTED else theta_value

    growth = spec.h.leading_exponent * theta_value / spec.p
    verdict, exponent = tail_exponent_verdict(growth, power, weight)
    if verdict is Verdict.INFINITE:
        return ConvergenceVerdict(
            verdict, Method.SYMBOLIC, divergence_exponent=exponent
        )
    value = _finite_value(spec, weight, power, decay=-exponent)
    return ConvergenceVerdict(verdict, Method.SYMBOLIC, value=value)


def _tail_decay(spec: ProblemSpec, power: float) -> float:
    """Asymptotic decay rate gamma of the unweighted outer integrand, i.e.
    integrand(s) ~ s**-gamma; raises :class:`CriterionDiverges` unless
    gamma > 1 (the Finite case, which makes the tail integral exist)."""
    growth = spec.h.leading_exponent * spec.theta / spec.p
    verdict, exponent = tail_exponent_verdict(growth, power, 0.0)
    if verdict is Verdict.INFINITE:
        raise CriterionDiverges(
            "the unweighted criterion integral diverges, so the tail "
            "function is undefined"
        )
    return -exponent


def phi(spec: ProblemSpec, t: float) -> float:
    """The tail integral  Phi(t) = integral_t^oo ds / inner(s)**nu , strictly
    decreasing with limit 0; defined only when the unweighted criterion is
    Finite."""
    if not t > 0.0:
        raise ValueError("the argument must be positive")
    power = outer_power(spec)
    closed = _single_term_inner(spec)
    if closed is not None:
        inner_coeff, inner_growth = closed
        decay = inner_growth * power
        if decay <= 1.0 + _EXPONENT_SNAP:
            raise CriterionDiverges(
                "the unweighted criterion integral diverges, so the tail "
                "function is undefined"
            )
        return inner_coeff**-power * t ** (1.0 - decay) / (decay - 1.0)
    decay = _tail_decay(spec, power)
    integrand = _outer_integrand(spec, 0.0, power)
    return integral_to_infinity(integrand, t, tail_exponent=decay, rel_tol=1e-9)


def phi_inverse(spec: ProblemSpec, y: float) -> float:
    """Inverse of :func:`phi`: closed form for single-term h, otherwise
    Newton's method in ln t with phi'(t) = -inner(t)**-nu, kept inside a
    bracket by bisection, run until the iterate moves by no more than a few
    ulps."""
    if not y > 0.0:
        raise ValueError("the argument must be positive")
    power = outer_power(spec)
    closed = _single_term_inner(spec)
    if closed is not None:
        inner_coeff, inner_growth = closed
        decay = inner_growth * power
        if decay <= 1.0 + _EXPONENT_SNAP:
            raise CriterionDiverges(
                "the unweighted criterion integral diverges, so the tail "
                "function is undefined"
            )
        return (y * (decay - 1.0) * inner_coeff**power) ** (1.0 / (1.0 - decay))
    _tail_decay(spec, power)

    lo = hi = 1.0
    while phi(spec, hi) > y:
        hi *= 4.0
        if hi > 1e280:
            raise ValueError("no inverse within the floating-point range")
    while phi(spec, lo) < y:
        lo /= 4.0
        if lo < 1e-280:
            raise ValueError("no inverse within the floating-point range")
    t = math.sqrt(lo * hi)
    for _ in range(100):  # bisection alone reaches roundoff in ~55 halvings
        value = phi(spec, t)
        if value > y:
            lo = t
        else:
            hi = t
        inner = inner_integral(spec.h, spec.theta, spec.p, t)
        step = (value - y) * inner**power / t  # the Newton step in ln t
        if math.log(lo / t) < step < math.log(hi / t):
            t_new = t * math.exp(step)
        else:
            t_new = math.sqrt(lo * hi)
        if abs(t_new - t) <= 4.0 * sys.float_info.epsilon * t:
            return t_new
        t = t_new
    return t


def sandwich_quantities(
    h: FuncExpr, p: float
) -> Callable[[float], tuple[float, float, float]]:
    """The map s -> (lhs, mid, rhs) of :func:`sandwich_check` for one (h, p),
    with its integrals set up once for any number of sample points.

    For single-term ``h`` both integrands, H**(1/(p-1)) and h**(1/p), are
    power sums again, so their integrals are closed-form antiderivatives;
    other power sums use substitution-assisted quadrature keyed to their
    behaviour at 0.
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    integral_H_root = _root_integral(h.antiderivative(), 1.0 / (p - 1.0))
    integral_h_root = _root_integral(h, 1.0 / p)

    def quantities(s: float) -> tuple[float, float, float]:
        lhs = (p - 1.0) ** (2.0 * p - 1.0) * integral_H_root(s) ** (p - 1.0)
        mid = (p - 1.0) ** (p - 1.0) * integral_h_root(p * s) ** p
        rhs = integral_H_root(p * p * s) ** (p - 1.0)
        return lhs, mid, rhs

    return quantities


def sandwich_check(h: FuncExpr, p: float, s: float) -> tuple[float, float, float]:
    """The three quantities of the cumulative-transform sandwich at ``s > 0``:

        lhs = (p-1)**(2p-1) * ( integral_0^s     H**(1/(p-1)) )**(p-1)
        mid = (p-1)**(p-1)  * ( integral_0^(p*s) h**(1/p)     )**p
        rhs =                 ( integral_0^(p^2*s) H**(1/(p-1)) )**(p-1)

    with H(t) = integral_0^t h; the contract is lhs <= mid <= rhs.
    """
    if not s > 0.0:
        raise ValueError("the sample point must be positive")
    return sandwich_quantities(h, p)(s)
