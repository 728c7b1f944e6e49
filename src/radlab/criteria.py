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
("Symbolic").  The values are closed forms for single-term ``h``.  For
other power sums each integral is one table held in logarithms: the logs
of Gauss–Legendre panels of exp(g) in x = ln t, made once each when a
query first needs them and accumulated from -oo with ``logaddexp``, with
the closed forms of the smallest and the leading term beyond the panels.
It gives the inner integrals and the sandwich; in u = -ln t, where the
tail Phi is an integral from -oo, Phi, the criterion values and the
inverse of Phi.

The commands read :func:`criterion` (through the prediction of
:mod:`radlab.classify`), :func:`phi` (the blow-up envelope) and
:func:`log_sandwich_quantities` (the sandwich check).  Nothing in the
package calls :func:`phi_inverse`; it stays because the benchmark's span
tracer wraps it, as it wraps ``adaptive_quad`` by the import below.
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
    "criterion",
    "phi",
    "phi_inverse",
    "log_sandwich_quantities",
]

# Exponent arithmetic runs in floating point, so a tail exponent that equals
# the borderline -1 in exact rationals can land a few ulps to either side.
# Exponents within this band of -1 are treated as the (divergent) borderline.
_EXPONENT_SNAP = 1e-9

# The tables of multi-term power sums (:class:`_LogTable`): Gauss–Legendre
# points per panel; the relative size below which the other terms of a sum
# are dropped beyond the panels; and a bound on panel width times the
# steepest log-slope of the integrand (16 points integrate exp(g*x) over a
# panel to 2e-15 at g * width = 16, to 1e-11 at 32).
_GAUSS_POINTS = 16
_NEGLIGIBLE = 1e-17
_MAX_PANEL_GROWTH = 16.0
#: The log of the largest float.
_LOG_MAX = math.log(sys.float_info.max)


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


def _gauss(g: Callable[[np.ndarray], np.ndarray], a, b, peak: np.ndarray) -> np.ndarray:
    """integral_a^b exp(g(x) - peak) dx by one Gauss–Legendre panel,
    elementwise over arrays of limits and peaks."""
    nodes, weights = _gauss_rule(_GAUSS_POINTS)
    a = np.asarray(a, dtype=float)
    span = np.asarray(b, dtype=float) - a
    points = a[..., None] + span[..., None] * nodes
    return span * (np.exp(g(points) - peak[..., None]) @ weights)


@functools.cache
def _gauss_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Legendre nodes and weights on [0, 1]."""
    from numpy.polynomial.legendre import leggauss  # deferred: ~3 ms to import

    nodes, weights = leggauss(points)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _log_ramp(log_start: np.ndarray, rate: float, span: np.ndarray) -> np.ndarray:
    """ln integral_0^span exp(log_start + rate * u) du for span > 0,
    elementwise, with no value leaving the logs."""
    if not rate:
        return log_start + np.log(span)
    z = rate * span
    return log_start + np.maximum(z, 0.0) + np.log(-np.expm1(-np.abs(z))) - math.log(abs(rate))


class _LogTable:
    """x -> the logarithm of integral_-oo^x exp(g(y)) dy, elementwise, for
    a smooth log-integrand g that is affine beyond [lo, hi]: g(y) = A + r y
    with (A, r) = ``below`` (r > 0) below lo, and ``above`` above hi.

    Gauss–Legendre panels between the edges lo + j * ``width`` carry the
    integral, each summed relative to exp(g) at the larger of its ends and
    held as its logarithm.  They span what the queries so far need: from
    ``margin`` below the smallest (or lo), beneath which the integral is
    negligible, up to the largest (or hi), and are accumulated with
    ``logaddexp`` from the closed form of the affine g below the first.  A
    query adds one partial panel, relative to exp(g) at its lower edge (g
    changes by at most ``_MAX_PANEL_GROWTH`` over a panel).  Below lo it
    takes the closed form, above hi the whole table and the closed form
    from hi on.  No value leaves the logs.
    """

    def __init__(self, g, lo, hi, width, below, above, margin):
        self.g, self.width, self.below, self.above = g, width, below, above
        self.lo, self._margin = lo, margin
        self._count = max(1, math.ceil((hi - lo) / width))
        self.hi = lo + width * self._count
        self._span = None

    def _cover(self, x: np.ndarray) -> None:
        """Make the panels that queries at ``x`` need, if the table lacks any."""
        lo, width = self.lo, self.width
        at = x.clip(lo, self.hi)
        first = math.floor((max(lo, at.min() - self._margin) - lo) / width)
        last = min(self._count, max(first + 1, math.ceil((at.max() - lo) / width)))
        if self._span is not None:
            first, last = min(first, self._span[0]), max(last, self._span[1])
            if (first, last) == self._span:
                return
        self._span, self.edges = (first, last), lo + width * np.arange(first, last + 1)
        self._g_edges = g_edges = self.g(self.edges)
        peaks = np.maximum(g_edges[:-1], g_edges[1:])
        panels = peaks + np.log(_gauss(self.g, self.edges[:-1], self.edges[1:], peaks))
        log_start, rate = self.below
        head = log_start + rate * self.edges[0] - math.log(rate)
        self.cum = np.logaddexp.accumulate(np.concatenate(([head], panels)))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not x.size:
            return x.copy()
        flat = x.reshape(-1)
        self._cover(flat)
        edges, g_edges, cum = self.edges, self._g_edges, self.cum
        at = flat.clip(edges[0], edges[-1])
        j = np.minimum(((at - edges[0]) // self.width).astype(int), len(edges) - 2)
        part = _gauss(self.g, edges[j], at, g_edges[j])
        value = cum[j] + np.log1p(part * np.exp(g_edges[j] - cum[j]))
        below, above = flat < self.lo, flat > self.hi
        log_start, rate = self.below
        value[below] = log_start + rate * flat[below] - math.log(rate)
        log_start, rate = self.above
        ramp = _log_ramp(log_start + rate * self.hi, rate, flat[above] - self.hi)
        value[above] = np.logaddexp(cum[-1], ramp)
        return value.reshape(x.shape)


def _log_power_sum(f: FuncExpr, k: float) -> Callable[[np.ndarray], np.ndarray]:
    """x -> ln(f(e**x)**k * e**x), with f summed relative to its dominant term."""
    log_coeffs = np.log([c for c, _ in f.terms])
    exponents = np.array([a for _, a in f.terms])

    def g(x: np.ndarray) -> np.ndarray:
        top = np.where(x > 0.0, exponents[-1], exponents[0]) * x
        terms = np.exp(x[..., None] * exponents + log_coeffs - top[..., None])
        return k * (top + np.log(terms.sum(axis=-1))) + x

    return g


@functools.lru_cache(maxsize=32)
def _integral_table(f: FuncExpr, k: float) -> _LogTable:
    """x -> ln integral_0^(e**x) f(t)**k dt for a multi-term power sum f and
    k > 0: the table of g = k ln f(e**x) + x.

    In x the integrand has no endpoint singularity.  Below lo the smallest
    term of f, and above hi its leading term, is f to within
    ``_NEGLIGIBLE``, so g is affine there.  Everywhere g rises at least as
    fast as below lo, so the panels need start only ln(1/_NEGLIGIBLE) over
    that rate below a query, and never lower than that below the smallest
    float s, however far out close exponents put lo.  They are at most 1
    wide, and pi/(a_max - a_min), the distance from the real axis to the
    nearest zero of f(e**z): closer in, the phases of its terms span less
    than a half-turn.
    """
    (c0, a0), (cm, am) = f.terms[0], f.terms[-1]
    tiny = math.log(_NEGLIGIBLE)
    low_power, lead_power = a0 * k + 1.0, am * k + 1.0
    margin = -tiny / low_power
    # Logs of the ratios of terms, which may lie beyond the floats.
    lo = min((tiny - (math.log(c) - math.log(c0))) / (a - a0) for c, a in f.terms[1:])
    lo = max(lo, math.log(math.ulp(0.0)) - margin)
    hi = max((math.log(c) - math.log(cm) - tiny) / (am - a) for c, a in f.terms[:-1])
    width = min(1.0, math.pi / (am - a0), _MAX_PANEL_GROWTH / lead_power)
    below, above = (k * math.log(c0), low_power), (k * math.log(cm), lead_power)
    return _LogTable(_log_power_sum(f, k), lo, hi, width, below, above, margin)


@functools.lru_cache(maxsize=32)
def _tail_table(spec: ProblemSpec, nu: float, weight: float) -> _LogTable:
    """u -> ln integral_(e**-u)^oo s**w / inner(s)**nu ds for a multi-term
    ``h`` and a finite tail.  In u = -ln s the tail is an integral from
    -oo: the table of g(u) = -(w + 1) u - nu ln inner(e**-u), read from
    inner's table.

    Beyond inner's edges the closed forms of its smallest and leading
    terms make g affine, but at large s only once inner's offset from its
    leading term is negligible too; that offset is at most inner's
    integrand at hi over its least log-slope.  The panels start there,
    since elsewhere the leading term's closed form only bounds the tail
    above, but not beyond the largest float s, nor where that bound has
    fallen below the smallest float by ``_NEGLIGIBLE``.
    """
    inner = _integral_table(spec.h.compose_power(spec.theta), 1.0 / spec.p)
    (low_coeff, low_power), (lead_coeff, lead_power) = inner.below, inner.above
    log_low, log_lead = low_coeff - math.log(low_power), lead_coeff - math.log(lead_power)
    low = (-nu * log_low, nu * low_power - weight - 1.0)
    lead = (-nu * log_lead, nu * lead_power - weight - 1.0)
    tiny = math.log(_NEGLIGIBLE)
    offset = float(inner.g(np.array(inner.hi))) - math.log(low_power)
    top = min(
        max(inner.hi, (offset - log_lead - tiny) / lead_power),
        math.log(sys.float_info.max),
        (lead[0] - math.log(lead[1]) - math.log(math.ulp(0.0)) - tiny) / lead[1],
    )
    steepest = max(abs(low[1]), abs(lead[1]))
    width = min(inner.width, _MAX_PANEL_GROWTH / steepest)

    def g(u: np.ndarray) -> np.ndarray:
        return -(weight + 1.0) * u - nu * inner(-u)

    return _LogTable(g, -top, -inner.lo, width, lead, low, math.inf)


def _log_root_integral(f: FuncExpr, power: float) -> Callable:
    """The map x -> ln integral_0^(e**x) f(t)**power dt, elementwise.

    For single-term ``f`` = c t**a it is the closed form power ln c - ln b
    + b x with b = a power + 1; otherwise the table of
    :func:`_integral_table`.
    """
    if len(f.terms) == 1:
        ((c, a),) = f.terms
        b = a * power + 1.0
        log_c = power * math.log(c) - math.log(b)
        return lambda x: log_c + b * x
    return _integral_table(f, power)


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
    regime gamma -> 1), taken in logarithms where a factor of it overflows;
    otherwise the exponential of the table of :func:`_tail_table` at -ln t.
    A value beyond the largest float is inf.
    """
    inner_coeff = _single_term_coeff(spec)
    if inner_coeff is None:
        log_value = float(_tail_table(spec, power, weight)(-math.log(t)))
    else:
        try:
            return inner_coeff**-power * t ** (1.0 - decay) / (decay - 1.0)
        except OverflowError:
            log_value = (1.0 - decay) * math.log(t) - power * math.log(inner_coeff)
            log_value -= math.log(decay - 1.0)
    return float(np.exp(log_value)) if log_value < _LOG_MAX else math.inf


def criterion(spec: ProblemSpec, kind: CriterionKind) -> ConvergenceVerdict:
    """Convergence verdict for the Unweighted (w = 0) or Weighted (w = theta)
    criterion integral of ``spec``.

    The verdict is exact exponent arithmetic and, when Finite, the value is
    computed in closed form or from the table of :func:`_tail_table`.
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
    """Inverse of :func:`phi` on the positive floats: closed form for
    single-term h, taken in logarithms, since inner_coeff**power may lie
    below the floats; otherwise Newton's method on ln phi in u = -ln t,
    whose slope is exp(g - ln phi) with g the log-integrand of
    :func:`_tail_table`, from the leading term's inverse until u moves by a
    few ulps at most."""
    if not y > 0.0:
        raise ValueError("the argument must be positive")
    power = outer_power(spec)
    decay = _tail_decay(spec, power)
    inner_coeff = _single_term_coeff(spec)
    if inner_coeff is not None:
        log_base = math.log(y) + math.log(decay - 1.0) + power * math.log(inner_coeff)
        return math.exp(log_base / (1.0 - decay))
    tail = _tail_table(spec, power, 0.0)
    log_y = math.log(y)
    lead_coeff, lead_rate = tail.below
    # ln phi is concave and increasing in u and lies below the leading
    # term's tail, so the iterates rise monotonically onto the root.
    u = (log_y - lead_coeff + math.log(lead_rate)) / lead_rate
    for _ in range(100):
        log_phi = float(tail(u))
        try:
            step = (log_y - log_phi) * math.exp(log_phi - float(tail.g(u)))
        except OverflowError:  # phi is flat: it stays below y
            step = math.inf
        u += step
        if u > -math.log(math.ulp(0.0)):
            raise ValueError("no inverse: phi stays below this value")
        if abs(step) <= 4.0 * sys.float_info.epsilon * max(1.0, abs(u)):
            break
    return math.exp(-u)


def log_sandwich_quantities(h: FuncExpr, p: float) -> Callable:
    """The map s -> (ln lhs, ln mid, ln rhs) of the three quantities of the
    cumulative-transform sandwich for one (h, p), elementwise over an array
    of sample points s > 0:

        lhs = (p-1)**(2p-1) * ( integral_0^s     H**(1/(p-1)) )**(p-1)
        mid = (p-1)**(p-1)  * ( integral_0^(p*s) h**(1/p)     )**p
        rhs =                 ( integral_0^(p^2*s) H**(1/(p-1)) )**(p-1)

    with H(t) = integral_0^t h; the contract is lhs <= mid <= rhs.

    They are taken in logarithms because near p = 1 the power 1/(p-1)
    carries the quantities far beyond the float range, while their
    ordering holds with margin.  For single-term ``h`` both integrands,
    H**(1/(p-1)) and h**(1/p), are single powers, so the logs of their
    integrals are closed forms; other power sums read the tables of
    :func:`_integral_table`.
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
