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
("Symbolic").  The values are closed forms for single-term ``h``; for other
power sums every integral goes through one fixed rule: Gauss–Legendre
panels in x = ln t, tabulated once per integrand, with the closed forms of
the smallest and the leading term beyond the panels.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .expressions import FuncExpr
from .problem import InvalidProblem, ProblemSpec, check_range

# Unused here, but radbench/spans.py traces quadrature by wrapping this name.
from .quadrature import adaptive_quad  # noqa: F401

__all__ = [
    "Verdict",
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
    "log_sandwich_quantities",
    "sandwich_check",
]

# Exponent arithmetic runs in floating point, so a tail exponent that equals
# the borderline -1 in exact rationals can land a few ulps to either side.
# Exponents within this band of -1 are treated as the (divergent) borderline.
_EXPONENT_SNAP = 1e-9

# The fixed rule for multi-term power sums (:class:`_LogRule`): Gauss–Legendre
# points per panel; the relative size below which the other terms of a sum
# are dropped beyond the panels; a bound on panel width times the steepest
# log-slope of the integrand (16 points integrate exp(g*x) over a panel to
# 2e-15 at g * width = 16, to 1e-11 at 32); and ln of the largest magnitude a
# table end may hold, far enough below ln(float max) = 709.8 that growth over
# one more panel cannot overflow.
_GAUSS_POINTS = 16
_NEGLIGIBLE = 1e-17
_MAX_PANEL_GROWTH = 16.0
_LOG_RANGE = 680.0


class Verdict(str, Enum):
    FINITE = "Finite"
    INFINITE = "Infinite"


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
        out["method"] = "Symbolic"
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


def _gauss(integrand: Callable[[np.ndarray], np.ndarray], a, b) -> np.ndarray:
    """integral_a^b integrand(x) dx by one Gauss–Legendre panel, elementwise
    over arrays of limits."""
    nodes, weights = _gauss_rule(_GAUSS_POINTS)
    a = np.asarray(a, dtype=float)
    span = np.asarray(b, dtype=float) - a
    return span * (integrand(a[..., None] + span[..., None] * nodes) @ weights)


@functools.cache
def _gauss_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [0, 1]."""
    from numpy.polynomial.legendre import leggauss  # deferred: ~3 ms to import

    nodes, weights = leggauss(points)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _panel_edges(lo: float, hi: float, width: float) -> np.ndarray:
    return lo + width * np.arange(max(1, math.ceil((hi - lo) / width)) + 1)


class _LogRule:
    """s -> integral_0^s f(t)**k dt for a multi-term power sum f and k > 0,
    as a function of x = ln s.

    In x the integrand f(e**x)**k * e**x is smooth, with no endpoint
    singularity.  Below the first panel edge the smallest term of f, and
    above the last its leading term, is f to within ``_NEGLIGIBLE``, so the
    integral continues in closed form there.  In between, Gauss–Legendre
    panels carry it.  Their width is at most 1 and pi/(a_max - a_min), the
    distance from the real axis to the nearest zero of f(e**z): closer in,
    the phases of its terms span less than a half-turn.  The cumulative
    values on the edges are summed once; a query adds one partial panel.
    The values, for ``__call__``, are tabulated on first use, within the
    float range; their logarithms, for :meth:`log`, are tabulated per query
    and leave no range.
    """

    def __init__(self, f: FuncExpr, k: float):
        (c0, a0), (cm, am) = f.terms[0], f.terms[-1]
        self._log_coeffs = np.log([c for c, _ in f.terms])
        self._exponents = np.array([a for _, a in f.terms])
        self._k = k
        self.low_power, self.lead_power = a0 * k + 1.0, am * k + 1.0
        # ln A of the closed forms A * s**b of the smallest and leading terms
        self.log_low = k * math.log(c0) - math.log(self.low_power)
        self.log_lead = k * math.log(cm) - math.log(self.lead_power)
        tiny = math.log(_NEGLIGIBLE)
        self._lo = min((tiny - math.log(c / c0)) / (a - a0) for c, a in f.terms[1:])
        self._hi = max((math.log(c / cm) - tiny) / (am - a) for c, a in f.terms[:-1])
        self.width = min(1.0, math.pi / (am - a0), _MAX_PANEL_GROWTH / self.lead_power)
        self.edges = _panel_edges(
            max(self._lo, (-_LOG_RANGE - self.log_low) / self.low_power),
            min(self._hi, (_LOG_RANGE - self.log_lead) / self.lead_power),
            self.width,
        )

    @functools.cached_property
    def cum(self) -> np.ndarray:
        """The value table: the integral up to each edge.

        It is built on first use, so that :meth:`log` never builds it: its
        edges keep the leading term within the float range, not the sum,
        and at large k the other terms carry its top panel beyond it (for
        0.5 t**2 + 0.25 t**3 at k = 100 by e**12, an overflow)."""
        panels = _gauss(self.integrand, self.edges[:-1], self.edges[1:])
        start = math.exp(self.log_low + self.low_power * self.edges[0])
        return start + np.concatenate(([0.0], np.cumsum(panels)))

    def log_integrand(self, x: np.ndarray) -> np.ndarray:
        """ln(f(e**x)**k * e**x), with f summed relative to its dominant term."""
        top = np.where(x > 0.0, self._exponents[-1], self._exponents[0]) * x
        terms = np.exp(x[..., None] * self._exponents + self._log_coeffs - top[..., None])
        return self._k * (top + np.log(terms.sum(axis=-1))) + x

    def integrand(self, x: np.ndarray) -> np.ndarray:
        """f(e**x)**k * e**x."""
        return np.exp(self.log_integrand(x))

    def __call__(self, x) -> np.ndarray:
        """The integral up to s = e**x, elementwise."""
        x = np.asarray(x, dtype=float)
        edges = self.edges
        j = np.clip(((x - edges[0]) // self.width).astype(int), 0, len(edges) - 2)
        inside = self.cum[j] + _gauss(self.integrand, edges[j], np.clip(x, edges[0], edges[-1]))
        below = np.exp(self.log_low + self.low_power * x)
        lead_at_top = math.exp(self.log_lead + self.lead_power * edges[-1])
        above = self.cum[-1] - lead_at_top + np.exp(self.log_lead + self.lead_power * x)
        return np.where(x < edges[0], below, np.where(x > edges[-1], above, inside))

    def log(self, x) -> np.ndarray:
        """The logarithm of the integral up to s = e**x, elementwise, held
        in logs throughout, so that no value leaves the float range.

        The value table stops where the integral nears the float range;
        these panels run on into [lo, hi], beyond which the closed forms
        hold, but only over the part the queries need.  They start where
        what lies below the smallest query (or lo) is negligible, since the
        integrand's log-slope in x is at least ``low_power``, and end past
        the largest (or hi).  Each panel is summed relative to the
        integrand at its top, where it is largest, and the panels in logs.
        """
        x = np.asarray(x, dtype=float)
        lo, width = self._lo, self.width
        floor = min(x.min(), self._hi) + math.log(_NEGLIGIBLE) / self.low_power
        first = max(0, math.floor((floor - lo) / width))
        last = max(first + 1, math.ceil((min(x.max(), self._hi) - lo) / width))
        edges = lo + width * np.arange(first, last + 1)

        def relative(peak):
            return lambda y: np.exp(self.log_integrand(y) - peak[..., None])

        tops = self.log_integrand(edges[1:])
        panels = tops + np.log(_gauss(relative(tops), edges[:-1], edges[1:]))
        start = self.log_low + self.low_power * edges[0]
        cum = np.logaddexp.accumulate(np.concatenate(([start], panels)))
        at = np.clip(x, edges[0], edges[-1])
        j = np.minimum(((at - edges[0]) // width).astype(int), len(edges) - 2)
        peak = self.log_integrand(at)
        part = _gauss(relative(peak), edges[j], at)
        inside = cum[j] + np.log1p(part * np.exp(peak - cum[j]))
        below = self.log_low + self.low_power * x
        above = self.log_lead + self.lead_power * x
        # what the other terms add to the leading one's integral
        lead_at_top = self.log_lead + self.lead_power * edges[-1]
        if lead_at_top < cum[-1]:
            offset = cum[-1] + math.log1p(-math.exp(lead_at_top - cum[-1]))
            above = np.logaddexp(above, offset)
        return np.where(x < edges[0], below, np.where(x > edges[-1], above, inside))


class _TailRule:
    """x -> integral_{e**x}^oo s**w / inner(s)**nu ds for a multi-term
    inner integral and a finite tail (w + 1 < nu * inner.lead_power).

    The panels of :class:`_LogRule` carry it as a reverse cumulative sum,
    the closed forms of the smallest and leading terms of the inner
    integral beyond them.  The panels run on until the inner integral's
    offset from its leading term, and not only the other terms of its
    integrand, is negligible.
    """

    def __init__(self, inner: _LogRule, nu: float, weight: float):
        self._inner, self._nu, self._weight = inner, nu, weight
        self.low_rate = weight + 1.0 - nu * inner.low_power
        self.lead_rate = weight + 1.0 - nu * inner.lead_power
        # ln of the coefficients of the integrand beyond the panels, in x
        self.log_low, self.log_lead = -nu * inner.log_low, -nu * inner.log_lead
        start, top = inner.edges[0], inner.edges[-1]
        offset = inner.cum[-1] - math.exp(inner.log_lead + inner.lead_power * top)
        if offset > 0.0:
            need = math.log(offset) - inner.log_lead - math.log(_NEGLIGIBLE)
            top = min(
                max(top, need / inner.lead_power),
                (_LOG_RANGE - inner.log_lead) / inner.lead_power,
            )
        if self.low_rate < 0.0:  # phi grows without bound as x -> -oo
            start = max(start, (_LOG_RANGE - self.log_low) / self.low_rate)
        steepest = max(abs(self.low_rate), abs(self.lead_rate))
        self.width = min(inner.width, _MAX_PANEL_GROWTH / steepest)
        self.edges = _panel_edges(start, top, self.width)
        panels = _gauss(self.integrand, self.edges[:-1], self.edges[1:])
        from_edges = np.append(np.cumsum(panels[::-1])[::-1], 0.0)
        self.rev = self._beyond(self.edges[-1]) + from_edges
        self.at_zero = math.inf
        if self.low_rate > 0.0:
            below = math.exp(self.log_low + self.low_rate * self.edges[0]) / self.low_rate
            self.at_zero = self.rev[0] + below

    def _beyond(self, x: float) -> float:
        return math.exp(self.log_lead + self.lead_rate * x) / -self.lead_rate

    def integrand(self, x: np.ndarray) -> np.ndarray:
        return np.exp((self._weight + 1.0) * x - self._nu * np.log(self._inner(x)))

    def density(self, x: float) -> float:
        """-d/dx of the tail integral, from the same pieces as its value."""
        if x >= self.edges[-1]:
            return math.exp(self.log_lead + self.lead_rate * x)
        if x < self.edges[0]:
            return math.exp(self.log_low + self.low_rate * x)
        return float(self.integrand(np.array(x)))

    def __call__(self, x: float) -> float:
        edges = self.edges
        if x >= edges[-1]:
            return self._beyond(x)
        if x < edges[0]:  # integral_x^edge exp(log_low + low_rate * u) du
            span, z = edges[0] - x, self.low_rate * (edges[0] - x)
            below = math.exp(self.log_low + self.low_rate * x) * span
            return float(self.rev[0] + below * (math.expm1(z) / z if z else 1.0))
        j = min(int((x - edges[0]) // self.width), len(edges) - 2)
        return float(self.rev[j + 1] + _gauss(self.integrand, x, edges[j + 1]))


@functools.lru_cache(maxsize=32)
def _log_rule(f: FuncExpr, k: float) -> _LogRule:
    return _LogRule(f, k)


@functools.lru_cache(maxsize=32)
def _tail_rule(spec: ProblemSpec, nu: float, weight: float) -> _TailRule:
    """The tail integral of a multi-term ``h``."""
    return _TailRule(_log_rule(spec.h.compose_power(spec.theta), 1.0 / spec.p), nu, weight)


def _root_integral(f: FuncExpr, power: float) -> Callable:
    """The map s -> integral_0^s f(t)**power dt for s > 0, elementwise.

    When f**power is a power sum again (single-term ``f``) this is its
    closed-form antiderivative; otherwise the fixed rule of :class:`_LogRule`.
    """
    root = f.pointwise_power(power)
    if root is not None:
        return root.antiderivative()
    rule = _log_rule(f, power)
    return lambda s: rule(np.log(s))


def _log_root_integral(f: FuncExpr, power: float) -> Callable:
    """The map x -> ln integral_0^(e**x) f(t)**power dt, elementwise.

    For single-term ``f`` = c t**a it is the closed form power ln c - ln b
    + b x with b = a power + 1; otherwise :meth:`_LogRule.log`.
    """
    if len(f.terms) == 1:
        ((c, a),) = f.terms
        b = a * power + 1.0
        log_c = power * math.log(c) - math.log(b)
        return lambda x: log_c + b * x
    return _log_rule(f, power).log


def inner_integral(h: FuncExpr, theta_value: float, p: float, s: float) -> float:
    """The criterion's inner integral  integral_0^s h(t**theta)**(1/p) dt.

    Single-term ``h`` uses the closed form; other power sums the fixed rule
    of :class:`_LogRule`.
    """
    if s < 0.0:
        raise ValueError("the upper limit must be non-negative")
    if s == 0.0:
        return 0.0
    return float(_root_integral(h.compose_power(theta_value), 1.0 / p)(float(s)))


def _single_term_coeff(spec: ProblemSpec) -> float | None:
    """For single-term h the A with inner(s) = A * s**b, else None."""
    if len(spec.h.terms) != 1:
        return None
    coeff, exponent = spec.h.terms[0]
    return coeff ** (1.0 / spec.p) / (exponent * spec.theta / spec.p + 1.0)


def _tail_integral(
    spec: ProblemSpec, power: float, weight: float, decay: float, t: float
) -> float:
    """integral_t^oo s**weight / inner(s)**power ds, given the decay gamma > 1
    of its integrand.

    For single-term ``h`` the integrand is exactly ``A**-power * s**-gamma``,
    so the value has a closed form (exact, and immune to the slow-convergence
    regime gamma -> 1); otherwise the fixed rule of :class:`_TailRule`.
    """
    inner_coeff = _single_term_coeff(spec)
    if inner_coeff is not None:
        return inner_coeff**-power * t ** (1.0 - decay) / (decay - 1.0)
    return _tail_rule(spec, power, weight)(math.log(t))


def criterion(spec: ProblemSpec, kind: CriterionKind) -> ConvergenceVerdict:
    """Convergence verdict for the Unweighted (w = 0) or Weighted (w = theta)
    criterion integral of ``spec``.

    The verdict is exact exponent arithmetic and, when Finite, the value is
    computed in closed form or by the fixed rule of :class:`_TailRule`.
    """
    kind = CriterionKind(kind)
    theta_value = spec.theta
    power = outer_power(spec)
    weight = 0.0 if kind is CriterionKind.UNWEIGHTED else theta_value

    growth = spec.h.leading_exponent * theta_value / spec.p
    verdict, exponent = tail_exponent_verdict(growth, power, weight)
    if verdict is Verdict.INFINITE:
        return ConvergenceVerdict(verdict, divergence_exponent=exponent)
    value = _tail_integral(spec, power, weight, -exponent, 1.0)
    return ConvergenceVerdict(verdict, value=value)


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
    return _tail_integral(spec, power, 0.0, _tail_decay(spec, power), t)


def phi_inverse(spec: ProblemSpec, y: float) -> float:
    """Inverse of :func:`phi`: closed form for single-term h, otherwise
    Newton's method on ln phi in x = ln t with phi'(t) = -inner(t)**-nu,
    from the closed-form inverse of the leading term's tail, run until x
    moves by no more than a few ulps."""
    if not y > 0.0:
        raise ValueError("the argument must be positive")
    power = outer_power(spec)
    decay = _tail_decay(spec, power)
    inner_coeff = _single_term_coeff(spec)
    if inner_coeff is not None:
        return (y * (decay - 1.0) * inner_coeff**power) ** (1.0 / (1.0 - decay))
    tail = _tail_rule(spec, power, 0.0)
    if not y < tail.at_zero:
        raise ValueError("no inverse: phi stays below this value")
    # ln phi is concave in ln t and lies below the leading term's tail, so
    # the iterates fall monotonically onto the root.
    x = (math.log(y * -tail.lead_rate) - tail.log_lead) / tail.lead_rate
    for _ in range(100):
        value = tail(x)
        step = math.log(value / y) * value / tail.density(x)
        x += step
        if abs(step) <= 4.0 * sys.float_info.epsilon * max(1.0, abs(x)):
            break
    return math.exp(x)


def log_sandwich_quantities(h: FuncExpr, p: float) -> Callable:
    """The map s -> (ln lhs, ln mid, ln rhs) of the quantities of
    :func:`sandwich_check` for one (h, p), elementwise over an array of
    sample points.

    They are taken in logarithms because near p = 1 the power 1/(p-1)
    carries the quantities far beyond the float range, while their
    ordering holds with margin.  For single-term ``h`` both integrands,
    H**(1/(p-1)) and h**(1/p), are single powers, so the logs of their
    integrals are closed forms; other power sums use the fixed rule of
    :class:`_LogRule`, its closed forms beyond the panels taken in logs.
    """
    check_range("p", p)
    log_H_root = _log_root_integral(h.antiderivative(), 1.0 / (p - 1.0))
    log_h_root = _log_root_integral(h, 1.0 / p)
    log_pm1 = math.log(p - 1.0)

    def quantities(s):
        lhs = (2.0 * p - 1.0) * log_pm1 + (p - 1.0) * log_H_root(np.log(s))
        mid = (p - 1.0) * log_pm1 + p * log_h_root(np.log(p * s))
        rhs = (p - 1.0) * log_H_root(np.log(p * p * s))
        return lhs, mid, rhs

    return quantities


def sandwich_check(h: FuncExpr, p: float, s: float) -> tuple[float, float, float]:
    """The three quantities of the cumulative-transform sandwich at ``s > 0``:

        lhs = (p-1)**(2p-1) * ( integral_0^s     H**(1/(p-1)) )**(p-1)
        mid = (p-1)**(p-1)  * ( integral_0^(p*s) h**(1/p)     )**p
        rhs =                 ( integral_0^(p^2*s) H**(1/(p-1)) )**(p-1)

    with H(t) = integral_0^t h; the contract is lhs <= mid <= rhs.  They
    are the exponentials of :func:`log_sandwich_quantities`.
    """
    if not s > 0.0:
        raise ValueError("the sample point must be positive")
    return tuple(float(np.exp(q)) for q in log_sandwich_quantities(h, p)(s))
