"""Outward integrator for the radial system.

The march advances the state (u, v, I1, I2), where

    I1(r) = integral_0^r t**d     f1(t) g1(v) dt,
    I2(r) = integral_0^r t**(n-1) f2(t) g2(v) h(w) dt,

recovering w = u' = ((d/(n-1)) I1 / r**d)**theta and v' = (I2 /
r**(n-1))**(1/(p-1)) algebraically, so positivity and monotonicity are
structural.

The origin is a singularity of the first kind (de Hoog & Weiss, SIAM J.
Numer. Anal. 13, 1976), so the trajectory starts from a closed form on
[0, r0].  While v is v0 to within a hundredth of rel_tol, freezing it there
turns every integrand into a power sum: I1 = g1(v0) * integral t**d f1 is
exact, w follows algebraically, and the powers of a multi-term W that enter
u and I2 = g2(v0) * integral t**(n-1) f2 h(w) are binomial series.  r0 is
the largest radius at which neither the growth of v nor the remainder of a
cut series exceeds that hundredth of rel_tol.

From r0 each step is a Dormand-Prince 8(5,3) pair, the code DOP853
(Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10): twelve stages
and a thirteenth at the new point, reused as the first of the next step;
per component, Hairer's combination h * e5**2 / sqrt(e5**2 + 0.01 * e3**2)
of the embedded fifth- and third-order error estimates, held below
0.05 * rel_tol; and the step-size factor 0.9 * err**(-1/8) clamped to
[0.2, 5].  Every accepted step keeps its stages.  After the march, three
more stages per step, evaluated for all steps at once on arrays, give the
seventh-order continuous extension, and each step is emitted as 14 equal
sub-panels, so the trajectory is dense enough for finite-difference
residuals, panel quotients and tail fits at any step size.

Near a pole the march changes its independent variable to s = ln v (Stuart
& Floater, Eur. J. Appl. Math. 1, 1990) once the pole dominates, that is
once dr/ds = v/v' is below r and falling: power growth v ~ r**k has
v/v' = r/k, which rises, while a pole has v/v' ~ (R0 - r)/b, which falls
to 0 whatever the rate b.  The same stepper then advances
(r, u, ln I1, ln I2) in s, so the accumulators, which grow exponentially
in s, are held to an absolute error in their logarithms, as in the
rescaling of Berger & Kohn (CPAM 41, 1988).  R0 is the limit of r(s),
estimated at each step as r + b * dr/ds with b = -1 / (d ln(dr/ds)/ds);
the estimate's error contracts geometrically in s, and the run ends once
the sum of the remaining contractions bounds it.  Power growth keeps
dr/ds from decaying geometrically, so the estimate keeps moving with r and
unbounded-but-global solutions are not mislabelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import dop853
from .criteria import phi, phi_inverse
from .problem import InvalidProblem, ProblemSpec, ensure_valid

__all__ = [
    "TerminationReason",
    "SolverError",
    "SolverOptions",
    "BootstrapSegment",
    "RadialSolution",
    "picard_bootstrap",
    "march",
    "scale_problem",
    "ScalingReport",
    "check_scaling_identity",
    "EnvelopeReport",
    "blowup_envelope_check",
    "fd_derivative",
    "relative_residuals",
]

#: The closed-form start ends where the growth of v, or the remainder of a
#: cut binomial series, reaches this fraction of rel_tol.
_START_TOL = 0.01
#: ... and at most at this fraction of the target radius.
_START_CAP = 0.5
#: Binomial series of multi-term powers are cut after this power.
_SERIES_ORDER = 8
#: The start segment is emitted at the origin and on a geometric grid of
#: this many nodes over [1e-3 * r0, r0]: finite differences of a power of r
#: lose accuracy with the relative spacing, which this keeps at 0.7%.
_START_NODES = 1024
_START_SPAN = 1e-3
#: The first trial step of the march, as a fraction of r0.
_FIRST_STEP = 0.1
#: A rejected step may shrink its increment in r to no less than this
#: fraction of r, and a march within this fraction of the target radius has
#: arrived.
_MIN_STEP = 1e-14
#: Accepted steps allowed in one march.
_MAX_STEPS = 2_000_000


class TerminationReason(str, Enum):
    REACHED_TARGET = "ReachedTarget"
    BLOW_UP = "BlowUp"
    STEP_UNDERFLOW = "StepUnderflow"


class SolverError(RuntimeError):
    """The integrator could not produce a trajectory."""


@dataclass(frozen=True)
class SolverOptions:
    """Numeric knobs for :func:`march`.

    ``rel_tol`` bounds the local error of each Dormand-Prince 8(5,3) step,
    per component, at 0.05 * rel_tol relative to the state (absolute on the
    logarithms of the accumulators near a pole); the closed-form start holds
    its truncations to 0.01 * rel_tol, and a blow-up radius is resolved to
    about 0.05 * rel_tol.  The march stops at ``target_radius``.
    """

    target_radius: float
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not self.target_radius > 0.0:
            raise ValueError("target_radius must be positive")
        if not 0.0 < self.rel_tol < 0.1:
            raise ValueError("rel_tol must lie in (0, 0.1)")


@dataclass(frozen=True)
class BootstrapSegment:
    """The closed-form start: the origin and its geometric grid up to r0."""

    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    dv: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    fI1: np.ndarray
    fI2: np.ndarray

    @property
    def r0(self) -> float:
        return float(self.r[-1])

    @property
    def sweeps(self) -> int:
        """Applications of the integral maps: the closed form is one."""
        return 1


# Power sums near the origin are lists of (multiplier, log scale, exponent)
# triples c * exp(lc) * r**e: the log scales hold coefficients far outside
# the float range, like those of w**q for steep h, and the multipliers the
# signed coefficients of binomial series, 1 elsewhere.


def _terms(f, shift=0.0, log_scale=0.0):
    """The power sum ``exp(log_scale) * t**shift * f(t)`` of a FuncExpr f."""
    return [(1.0, math.log(c) + log_scale, e + shift) for c, e in f.terms]


def _log_at(f, x):
    """log f(x) for a FuncExpr f and x > 0."""
    return float(np.logaddexp.reduce([lc + e * math.log(x) for _, lc, e in _terms(f)]))


def _integrated(terms):
    """The antiderivative vanishing at 0."""
    return [(c, lc - math.log(e + 1.0), e + 1.0) for c, lc, e in terms]


def _evaluate(terms, r):
    """A power sum at radii r > 0."""
    log_r = np.log(r)
    return sum(c * np.exp(lc + e * log_r) for c, lc, e in terms)


def _binomial(eps, y, budget):
    """(1 + eps)**y for eps a sum of (coefficient, exponent > 0) pairs, cut
    after eps**_SERIES_ORDER, as (coefficient, exponent) pairs; and the log
    of the largest radius at which the Lagrange remainder, at most
    |binom(y, K+1)| * eps**(K+1) * e, stays within ``budget`` (inf when the
    series ends before the cut)."""
    series = {0.0: 1.0}
    power = {0.0: 1.0}
    binom = 1.0
    for k in range(1, _SERIES_ORDER + 1):
        binom *= (y - k + 1.0) / k
        product: dict[float, float] = {}
        for e1, c1 in power.items():
            for c2, e2 in eps:
                product[e1 + e2] = product.get(e1 + e2, 0.0) + c1 * c2
        power = product
        for e, c in power.items():
            series[e] = series.get(e, 0.0) + binom * c
    binom *= (y - _SERIES_ORDER) / (_SERIES_ORDER + 1.0)
    if not eps or binom == 0.0:
        return [(c, e) for e, c in series.items() if c != 0.0], math.inf
    # (1 + xi)**(y - K - 1) <= e once eps <= 1/y
    log_eps = math.log(budget / (math.e * abs(binom))) / (_SERIES_ORDER + 1.0)
    if y > _SERIES_ORDER + 1.0:
        log_eps = min(log_eps, -math.log(y))
    log_radius = min(
        (log_eps - math.log(len(eps) * c)) / e for c, e in eps
    )
    return [(c, e) for e, c in series.items() if c != 0.0], log_radius


def picard_bootstrap(
    spec: ProblemSpec, u0: float, v0: float, options: SolverOptions
) -> BootstrapSegment:
    """The trajectory on [0, r0]: one application of both integral maps to
    the constant pair (u0, v0), in closed form.

    With v frozen at v0, I1 = g1(v0) * integral_0^r t**d f1 is a power sum
    and gives W = (d/(n-1)) I1 / r**d and w = W**theta exactly.  Written as
    W0 * (1 + eps) with W0 its leading term, w and each power of w in h
    are binomial series in eps, cut after eps**8, so I2 = g2(v0) *
    integral_0^r t**(n-1) f2 h(w) and u are power sums too.  v grows by at
    most the integral of a power-sum bound on v' = (I2 / r**(n-1))**(1/(p-1)),
    and is emitted as v0 plus that bound.  r0 is the largest radius where
    the bound stays within 0.01 * rel_tol of v0 and every cut series within
    0.01 * rel_tol of its sum, capped at half the target radius.  The
    segment is the origin and 1024 geometrically spaced nodes over
    [1e-3 * r0, r0], less the lowest of them where a profile is not yet a
    positive normal float; :class:`SolverError` is raised when r0 itself is
    one of them.
    """
    if not (u0 > 0.0 and v0 > 0.0):
        raise ValueError("u0 and v0 must be positive")
    budget = _START_TOL * options.rel_tol
    n = spec.n
    delta = spec.delta
    theta = spec.theta
    inv_pm1 = 1.0 / (spec.p - 1.0)
    c1 = delta / (n - 1.0)

    I1_terms = _integrated(_terms(spec.f1, delta, _log_at(spec.g1, v0)))
    (lW, eW), *rest = sorted(
        ((math.log(c * c1) + lc, e - delta) for c, lc, e in I1_terms),
        key=lambda term: term[1],
    )
    eps = [(math.exp(lc - lW), e - eW) for lc, e in rest]
    radii = [math.log(_START_CAP * options.target_radius)]

    def power_of_W(y, log_scale=0.0):
        series, log_radius = _binomial(eps, y, budget)
        radii.append(log_radius)
        return [(c, log_scale + y * lW, y * eW + e) for c, e in series]

    w_terms = power_of_W(theta)
    h_of_w = [
        term
        for c, q in spec.h.terms
        for term in power_of_W(theta * q, math.log(c))
    ]
    I2_terms = _integrated([
        (cf * ch, lf + lh, ef + eh)
        for cf, lf, ef in _terms(spec.f2, n - 1.0, _log_at(spec.g2, v0))
        for ch, lh, eh in h_of_w
    ])
    # v' = Z**x with Z = I2 / r**(n-1) and x = 1/(p-1); over J terms,
    # Z**x <= J**max(0, x-1) * sum |term|**x.
    J = len(I2_terms)
    log_factor = max(0.0, inv_pm1 - 1.0) * math.log(J)
    growth = _integrated([
        (1.0, log_factor + inv_pm1 * (math.log(abs(c)) + lc), inv_pm1 * (e - n + 1.0))
        for c, lc, e in I2_terms
    ])
    log_share = math.log(budget) + math.log(v0) - math.log(J)
    radii += [(log_share - lc) / e for _, lc, e in growth]
    r0 = math.exp(min(radii))

    r = np.geomspace(_START_SPAN * r0, r0, _START_NODES)
    # Profiles that leave the float range are not kept, so their
    # overflows are no error.
    with np.errstate(all="ignore"):
        I1 = _evaluate(I1_terms, r)
        I2 = _evaluate(I2_terms, r)
        v = v0 + _evaluate(growth, r)
        w, dv, fI1, fI2 = _rhs_arrays(spec, r, v, I1, I2)
        W = w ** (spec.p - 1.0 - spec.alpha)
        Z = dv ** (spec.p - 1.0)
        u = u0 + _evaluate(_integrated(w_terms), r)
    profiles = [u, v, I1, I2, w, dv, fI1, fI2, W, Z]
    keep = (np.minimum.reduce(profiles) >= np.finfo(float).tiny) & (
        np.maximum.reduce(profiles) < np.inf
    )
    if not keep[-1]:
        raise SolverError(f"the start profiles are not normal floats at r0={r0!r}")
    origin = (0.0, u0, v0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    columns = (r, u, v, w, dv, I1, I2, fI1, fI2)
    return BootstrapSegment(*(
        np.concatenate(([at0], col[keep])) for at0, col in zip(origin, columns)
    ))


@dataclass(frozen=True)
class RadialSolution:
    """Discrete trajectory of the radial system.

    ``w`` is u' and ``dv`` is v'.  ``I1``/``I2`` are the accumulated source
    integrals, with node derivatives ``fI1``/``fI2`` retained so the
    trajectory supports cubic-Hermite resampling.  ``R0`` is the blow-up
    radius, the limit of r(s) as s = ln v grows, when ``terminated`` is
    BlowUp and None otherwise; it lies beyond the last node.
    ``pole_switch_r`` is the radius at which the march changed to s, or
    None if it never did.  ``start_radius`` is r0, where the closed-form
    start hands over to the march, and ``bootstrap_nodes`` counts the nodes
    of that start, the origin included.

    ``rhs_evals`` counts every evaluation of the right-hand side: the
    march's stages, the three dense-output stages of every step, evaluated
    on arrays after the march, and the vectorised pass over its emitted
    nodes.
    ``accepted_steps`` and ``rejected_steps`` count the march's steps, and
    ``dt_min``/``dt_max`` bound the increments in r of its accepted steps
    (None when no step was accepted).
    """

    spec: ProblemSpec
    options: SolverOptions
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    dv: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    fI1: np.ndarray
    fI2: np.ndarray
    terminated: TerminationReason
    R0: float | None
    bootstrap_nodes: int
    start_radius: float
    rhs_evals: int
    accepted_steps: int
    rejected_steps: int
    dt_min: float | None
    dt_max: float | None
    pole_switch_r: float | None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        r, u, v, w, dv = self.r, self.u, self.v, self.w, self.dv
        if not (r[0] == 0.0 and np.all(np.diff(r) > 0.0)):
            raise ValueError("the grid must increase strictly from 0")
        if not (u[0] > 0.0 and v[0] > 0.0):
            raise ValueError("u(0) and v(0) must be positive")
        if not (w[0] == 0.0 and dv[0] == 0.0):
            raise ValueError("u'(0) and v'(0) must vanish")
        for name, series in (("u", u), ("v", v), ("w", w), ("dv", dv)):
            if np.any(np.diff(series) < 0.0):
                raise ValueError(f"{name} must be non-decreasing")
        if (self.R0 is not None) != (self.terminated is TerminationReason.BLOW_UP):
            raise ValueError("R0 is set exactly for a blow-up trajectory")
        if self.R0 is not None and not self.R0 > r[-1]:
            raise ValueError("a blow-up radius must lie beyond the last node")

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    @property
    def v_final(self) -> float:
        return float(self.v[-1])

    def sample(self, rs) -> dict[str, np.ndarray]:
        """Cubic-Hermite resample of the trajectory at radii ``rs``
        (clipped to the computed range).  u' and v' are recovered from the
        interpolated accumulators, so the sampled points satisfy the same
        algebraic relations as the nodes."""
        rs = np.clip(np.asarray(rs, dtype=float), 0.0, self.r_end)
        i = np.clip(np.searchsorted(self.r, rs, side="right") - 1, 0, len(self.r) - 2)
        x0 = self.r[i]
        hseg = self.r[i + 1] - x0
        t = (rs - x0) / hseg
        t2 = t * t
        t3 = t2 * t
        b00 = 2.0 * t3 - 3.0 * t2 + 1.0
        b10 = t3 - 2.0 * t2 + t
        b01 = 1.0 - b00
        b11 = t3 - t2

        def hermite(y, d):
            return (
                b00 * y[i] + b10 * hseg * d[i] + b01 * y[i + 1] + b11 * hseg * d[i + 1]
            )

        u = hermite(self.u, self.w)
        v = hermite(self.v, self.dv)
        I1 = np.maximum(hermite(self.I1, self.fI1), 0.0)
        I2 = np.maximum(hermite(self.I2, self.fI2), 0.0)
        n = self.spec.n
        delta = self.spec.delta
        c1 = delta / (n - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            W = c1 * I1 / rs**delta
            Z = I2 / rs ** float(n - 1)
        W = np.where(rs > 0.0, W, 0.0)
        Z = np.where(rs > 0.0, Z, 0.0)
        return {
            "u": u,
            "v": v,
            "du": W**self.spec.theta,
            "dv": Z ** (1.0 / (self.spec.p - 1.0)),
            "W": W,
            "Z": Z,
        }


def _rhs_factory(spec: ProblemSpec):
    theta = spec.theta
    delta = spec.delta
    c1 = delta / (spec.n - 1.0)
    inv_pm1 = 1.0 / (spec.p - 1.0)
    nm1 = float(spec.n - 1)
    f1 = spec.f1.scalar_fn()
    g1 = spec.g1.scalar_fn()
    f2 = spec.f2.scalar_fn()
    g2 = spec.g2.scalar_fn()
    h = spec.h.scalar_fn()

    def rhs(r, u, v, I1, I2):
        rd = r**delta
        rn = r**nm1
        w = (c1 * I1 / rd) ** theta if I1 > 0.0 else 0.0
        dv = (I2 / rn) ** inv_pm1 if I2 > 0.0 else 0.0
        return w, dv, rd * f1(r) * g1(v), rn * f2(r) * g2(v) * h(w)

    return rhs


def _rhs_arrays(spec: ProblemSpec, r, v, I1, I2):
    """The right-hand side (w, dv, fI1, fI2) at arrays of nodes with r > 0."""
    delta = spec.delta
    rd = r**delta
    rn = r ** float(spec.n - 1)
    w = (delta / (spec.n - 1.0) * I1 / rd) ** spec.theta
    dv = (I2 / rn) ** (1.0 / (spec.p - 1.0))
    fI1 = rd * spec.f1(r) * spec.g1(v)
    fI2 = rn * spec.f2(r) * spec.g2(v) * spec.h(w)
    return w, dv, fI1, fI2


#: The local error is held below this fraction of rel_tol: the emitted
#: nodes feed finite-difference checks that amplify interpolation error.
_ERR_SCALE = 0.05
#: Each accepted step is emitted as this many equal sub-panels, the interior
#: nodes taken from the continuous extension.
_SUBPANELS = 14


def _first_slope(f, x, y, r):
    """f(x, *y) at the start of a phase, or :class:`SolverError` when the
    right-hand side leaves the float range there."""
    try:
        k = f(x, *y)
    except (OverflowError, ZeroDivisionError):
        k = (math.inf,)
    if not all(map(math.isfinite, k)):
        raise SolverError(f"the right-hand side is not finite at r={r!r}")
    return k


def march(
    spec: ProblemSpec, u0: float, v0: float, options: SolverOptions
) -> RadialSolution:
    """Integrate outward from the origin until the target radius, a resolved
    blow-up, or step underflow.

    The closed-form start (:func:`picard_bootstrap`) covers [0, r0]; from
    there, with a first trial step of 0.1 * r0, Dormand-Prince 8(5,3) steps
    advance the state (u, v, I1, I2) in r.  An accepted step that ends with
    I1, I2 > 0 and dr/ds = v/v' below r and below its value at the step's
    start switches the march to the state
    (r, u, ln I1, ln I2) in s = ln v; both values of v/v' come from the
    step's first and last stages, so the test costs no evaluation.  A step
    is accepted when its combined error estimate lies below 0.05 * rel_tol
    times max(|y|, |y_new|) in every component, or below 0.05 * rel_tol
    itself for the two logarithms; the next step size is the current one
    times 0.9 * err**(-1/8), clamped to [0.2, 5].  Each accepted step keeps
    its stages, and after the march :func:`_emit_nodes` emits it as 14 equal
    sub-panels whose interior nodes come from the seventh-order continuous
    extension.

    The run ends as ReachedTarget once r is within 1e-14 * target_radius
    of the target; in s a step that would overshoot it by more than that is
    shrunk onto it.  It ends as BlowUp on the pole estimate
    R0 = r + b * dr/ds, with b = -1 / (d ln(dr/ds)/ds) = -1 / slope taken
    across the last step of size h.  The estimate's error, like
    (R0 - r)**2, contracts by rho = exp(2 * h * slope) per step, so the run
    stops once |change of R0| * rho / (1 - rho) <= 0.05 * rel_tol * R0.  It
    ends as StepUnderflow, with a note, when a rejection shrinks the step's
    increment in r below 1e-14 * r, or when the sub-nodes of a step no
    longer advance r strictly; that step and every later one are dropped.
    :class:`SolverError` is raised when the right-hand side is not finite
    where a phase starts.
    """
    ensure_valid(spec)
    if not spec.gradient_balanced:
        raise InvalidProblem(
            "the gradient exponent must satisfy alpha < p - 1 for radial "
            "solutions to exist"
        )
    boot = picard_bootstrap(spec, u0, v0, options)

    rhs = _rhs_factory(spec)

    def pole_rhs(s, r, u, L1, L2):
        v = math.exp(s)
        I1 = math.exp(L1)
        I2 = math.exp(L2)
        w, dv, fI1, fI2 = rhs(r, u, v, I1, I2)
        drds = v / dv
        return drds, drds * w, drds * fI1 / I1, drds * fI2 / I2

    tol = _ERR_SCALE * options.rel_tol
    target = options.target_radius
    arrival = _MIN_STEP * target
    notes: list[str] = []

    # x is r and y is (u, v, I1, I2) until the pole dominates; from then on
    # x is s = ln v and y is (r, u, ln I1, ln I2).
    f = rhs
    absolute = (False, False, False, False)
    x = float(boot.r[-1])
    y = (float(boot.u[-1]), float(boot.v[-1]), float(boot.I1[-1]), float(boot.I2[-1]))
    k1 = _first_slope(f, x, y, x)
    evals = 1
    rejected = 0
    h = _FIRST_STEP * x
    # Per accepted step: its row for the dense output, in r and then in s,
    # and the radii where it starts and ends.
    radial_steps: list[tuple] = []
    pole_steps: list[tuple] = []
    spans: list[tuple[float, float]] = []
    R0 = None
    pole_switch_r = None
    terminated = None

    while True:
        in_pole = f is pole_rhs
        r = y[0] if in_pole else x
        if target - r <= arrival:
            terminated = TerminationReason.REACHED_TARGET
            break
        if len(spans) >= _MAX_STEPS:
            raise SolverError(f"step budget of {_MAX_STEPS} exhausted at r={r!r}")
        h = min(h, (target - r) / k1[0] if in_pole else target - r)
        y_new, k13, row, err = dop853.step(f, x, h, y, k1, tol, absolute)
        evals += 12
        factor = min(5.0, max(0.2, 0.9 * err ** -0.125)) if err > 0.0 else 5.0
        if not err <= 1.0 or (in_pole and y_new[0] - target > arrival):
            rejected += 1
            h *= (target - r) / (y_new[0] - r) if err <= 1.0 else factor
            dr = h * k1[0] if in_pole else h
            if dr < _MIN_STEP * r:
                notes.append(
                    f"step underflow at r={r:.12g} (increment in r {dr:.3g} "
                    f"< {_MIN_STEP * r:.3g})"
                )
                terminated = TerminationReason.STEP_UNDERFLOW
                break
            continue

        (pole_steps if in_pole else radial_steps).append(row)
        spans.append((r, y_new[0] if in_pole else x + h))
        if in_pole:
            slope = math.log(k13[0] / k1[0]) / h
            previous, R0 = R0, (y_new[0] - k13[0] / slope if slope < 0.0 else None)
            if R0 is not None and previous is not None:
                # The estimate's error, like (R0 - r)**2, contracts by rho per
                # step, so what remains after this step is about
                # |R0 - previous| * rho / (1 - rho).
                rho = math.exp(2.0 * h * slope)
                if abs(R0 - previous) * rho / (1.0 - rho) <= tol * R0:
                    terminated = TerminationReason.BLOW_UP
                    break
        # dr/ds = v/v' is r/k under power growth r**k and (R0 - r)/b near a
        # pole: the pole dominates once it is below r and falling.
        switch = not in_pole and (
            y_new[2] > 0.0 and y_new[3] > 0.0 and k1[1] > 0.0 and k13[1] > 0.0
            and y_new[1] / k13[1] < min(x + h, y[1] / k1[1])
        )
        x, y, k1 = x + h, y_new, k13
        h *= factor
        if switch:
            # From here march in s = ln v; the next increment in r is kept.
            f = pole_rhs
            absolute = (False, False, True, True)
            pole_switch_r = x
            x, y = math.log(y[1]), (x, y[0], math.log(y[2]), math.log(y[3]))
            k1 = _first_slope(f, x, y, pole_switch_r)
            evals += 1
            h /= k1[0]

    columns, kept, dense_evals = _emit_nodes(spec, boot, radial_steps, pole_steps)
    evals += dense_evals
    if kept < len(spans):
        start, end = spans[kept]
        notes.append(
            f"step underflow at r={start:.12g}: dt={end - start:.3g} no longer "
            f"advances r through its {_SUBPANELS} sub-panels"
        )
        terminated = TerminationReason.STEP_UNDERFLOW
        if kept < len(radial_steps):
            pole_switch_r = None
    sizes = [end - start for start, end in spans[:kept]]
    return RadialSolution(
        spec=spec,
        options=options,
        **columns,
        terminated=terminated,
        R0=R0 if terminated is TerminationReason.BLOW_UP else None,
        bootstrap_nodes=len(boot.r),
        start_radius=boot.r0,
        rhs_evals=evals,
        accepted_steps=len(sizes),
        rejected_steps=rejected,
        dt_min=min(sizes) if sizes else None,
        dt_max=max(sizes) if sizes else None,
        pole_switch_r=pole_switch_r,
        notes=tuple(notes),
    )


def _emit_nodes(spec: ProblemSpec, boot: BootstrapSegment, radial_steps, pole_steps):
    """The trajectory columns, the number of steps kept, and the evaluations
    of the right-hand side this pass makes.

    The columns are the closed-form start, then every accepted step as the
    13 interior nodes of its continuous extension and its end node, the
    steps in s = ln v mapped back to (r, u, v = e**s, I1 = e**ln I1,
    I2 = e**ln I2).  The three extra stages of the extension are evaluated
    for all steps of a phase at once, and the first step whose nodes are not
    finite or do not advance r strictly is dropped with every later one.
    Roundoff-level dips of the dense output are clamped so every profile
    stays nondecreasing, and the right-hand side is evaluated in one
    vectorised pass over the march's nodes."""

    def radial_rhs(r, u, v, I1, I2):
        return _rhs_arrays(spec, r, v, np.maximum(I1, 0.0), np.maximum(I2, 0.0))

    def pole_rhs(s, r, u, L1, L2):
        v, I1, I2 = np.exp(s), np.exp(L1), np.exp(L2)
        w, dv, fI1, fI2 = _rhs_arrays(spec, r, v, I1, I2)
        drds = v / dv
        return drds, drds * w, drds * fI1 / I1, drds * fI2 / I2

    parts = [(boot.r, boot.u, boot.v, boot.I1, boot.I2)]
    thetas = np.arange(1, _SUBPANELS) / _SUBPANELS
    kept = evals = 0
    for steps, f in ((radial_steps, radial_rhs), (pole_steps, pole_rhs)):
        if not steps:
            continue
        steps = np.array(steps)
        # Extra stages that leave the float range are caught below, as
        # nodes that are not finite.
        with np.errstate(all="ignore"):
            sub = dop853.dense_output(f, steps, thetas)
        evals += 3 * len(steps)
        states = np.concatenate([sub, steps[:, None, 6:10]], axis=1)
        x = steps[:, :1] + steps[:, 1:2] * np.append(thetas, 1.0)
        in_pole = f is pole_rhs
        start, r = (steps[:, 2], states[:, :, 0]) if in_pole else (steps[:, 0], x)
        advances = np.diff(np.concatenate([start[:, None], r], axis=1), axis=1) > 0.0
        bad = np.flatnonzero(~(advances.all(axis=1) & np.isfinite(states).all(axis=(1, 2))))
        end = bad[0] if len(bad) else len(steps)
        kept += end
        states = states[:end].reshape(-1, 4).T
        x = x[:end].ravel()
        if in_pole:
            r, u, L1, L2 = states
            parts.append((r, u, np.exp(x), np.exp(L1), np.exp(L2)))
        else:
            parts.append((x, *states))
        if len(bad):
            break
    r, u, v, I1, I2 = (np.concatenate(col) for col in zip(*parts))
    columns = {"r": r}
    for key, col in (("u", u), ("v", v), ("I1", I1), ("I2", I2)):
        columns[key] = np.maximum.accumulate(col)
    m = len(boot.r)
    w, dv, fI1, fI2 = _rhs_arrays(
        spec, r[m:], columns["v"][m:], columns["I1"][m:], columns["I2"][m:]
    )
    columns["w"] = np.maximum.accumulate(np.concatenate([boot.w, w]))
    columns["dv"] = np.maximum.accumulate(np.concatenate([boot.dv, dv]))
    columns["fI1"] = np.concatenate([boot.fI1, fI1])
    columns["fI2"] = np.concatenate([boot.fI2, fI2])
    return columns, kept, evals + len(r) - m


def scale_problem(spec: ProblemSpec, lam: float) -> ProblemSpec:
    """The rescaled problem whose solution (u~, v~) satisfies
    u(r) = u~(r/lam), v(r) = v~(r/lam) against the original problem:

        f1~(r) = lam**(p-alpha) f1(lam r),   f2~(r) = lam**p f2(lam r),
        g~j = gj,                            h~(t) = h(t/lam).

    Closed under the power-sum family.
    """
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    return ProblemSpec(
        p=spec.p,
        alpha=spec.alpha,
        n=spec.n,
        f1=spec.f1.scale_argument(lam).scale_value(lam ** (spec.p - spec.alpha)),
        f2=spec.f2.scale_argument(lam).scale_value(lam**spec.p),
        g1=spec.g1,
        g2=spec.g2,
        h=spec.h.scale_argument(1.0 / lam),
    )


@dataclass(frozen=True)
class ScalingReport:
    """Sup-norm comparison of a solution against its rescaled counterpart."""

    lam: float
    radius: float
    sup_diff_u: float
    sup_diff_v: float
    bound: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": "scaling_identity",
            "lambda": self.lam,
            "radius": self.radius,
            "sup_diff_u": self.sup_diff_u,
            "sup_diff_v": self.sup_diff_v,
            "bound": self.bound,
            "pass": self.passed,
        }


def check_scaling_identity(
    spec: ProblemSpec,
    lam: float,
    u0: float,
    v0: float,
    *,
    radius: float = 1.0,
    rel_tol: float = 1e-8,
    points: int = 201,
) -> ScalingReport:
    """Solve the problem on [0, radius] and its rescaling on [0, radius/lam],
    then compare u(r) with u~(r/lam) (and v likewise) on a shared grid.

    Both runs use a tolerance 30x tighter than ``rel_tol`` so the reported
    gap reflects the identity rather than integrator drift; the pass bound
    stays at 10 * rel_tol * (1 + sup|u|).  The window must end before any
    blow-up; otherwise the solver failure propagates.
    """
    tilde = scale_problem(spec, lam)
    tight = rel_tol / 30.0
    orig = march(spec, u0, v0, SolverOptions(target_radius=radius, rel_tol=tight))
    scaled = march(
        tilde, u0, v0, SolverOptions(target_radius=radius / lam, rel_tol=tight)
    )
    for run, label in ((orig, "original"), (scaled, "rescaled")):
        if run.terminated is not TerminationReason.REACHED_TARGET:
            raise SolverError(
                f"the {label} run terminated {run.terminated.value} inside the "
                "comparison window; pick a radius below the blow-up radius"
            )
    grid = np.linspace(0.0, radius, points)
    so = orig.sample(grid)
    st = scaled.sample(grid / lam)
    sup_u = float(np.max(so["u"]))
    diff_u = float(np.max(np.abs(so["u"] - st["u"])))
    diff_v = float(np.max(np.abs(so["v"] - st["v"])))
    bound = 10.0 * rel_tol * (1.0 + sup_u)
    return ScalingReport(
        lam=lam,
        radius=radius,
        sup_diff_u=diff_u,
        sup_diff_v=diff_v,
        bound=bound,
        passed=max(diff_u, diff_v) <= bound,
    )


@dataclass(frozen=True)
class EnvelopeReport:
    """Fitted tail-envelope constants for a blow-up trajectory."""

    C1: float
    C2: float
    points_checked: int
    max_violation: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": "blowup_envelope",
            "C1": self.C1,
            "C2": self.C2,
            "points_checked": self.points_checked,
            "max_violation": self.max_violation,
            "pass": self.passed,
        }


def blowup_envelope_check(
    solution: RadialSolution, spec: ProblemSpec
) -> EnvelopeReport:
    """Near a blow-up radius the gradient of u is pinched between inverse
    tail integrals: there are constants 0 < C1 < C2 with

        phi_inverse(C2 (R0-r)) ** theta  <=  w(r)  <=  phi_inverse(C1 (R0-r)) ** theta

    on the approach.  The check computes C(r) = phi(w ** (p-1-alpha)) / (R0-r)
    over the last decade of grid before R0, takes C1 and C2 as its extremes
    (widened by a factor 1e-12 so re-inversion roundoff cannot manufacture
    spurious violations), and re-checks the pinch pointwise.

    Raises :class:`SolverError` unless the trajectory blew up, and
    :class:`radlab.criteria.CriterionDiverges` when the tail integral does
    not exist (unweighted criterion infinite).
    """
    if solution.terminated is not TerminationReason.BLOW_UP:
        raise SolverError("the envelope check requires a blow-up trajectory")
    d = solution.R0 - solution.r
    mask = (d <= 10.0 * d[-1]) & (solution.w > 0.0)
    count = int(mask.sum())
    if count < 4:
        raise SolverError("too few grid points in the final decade before R0")
    idx = np.nonzero(mask)[0]
    if len(spec.h.terms) > 1 and count > 257:
        # Each phi call costs a quadrature here; a spanning subsample keeps
        # the check O(1) without shrinking the fitted decade.
        idx = idx[np.unique(np.linspace(0, count - 1, 257).astype(int))]
    dm = d[idx]
    wm = solution.w[idx]
    gap = spec.p - 1.0 - spec.alpha
    C = np.array([phi(spec, wi**gap) for wi in wm]) / dm
    if not (np.all(np.isfinite(C)) and np.all(C > 0.0)):
        return EnvelopeReport(
            C1=float("nan"),
            C2=float("nan"),
            points_checked=len(idx),
            max_violation=float("inf"),
            passed=False,
        )
    C1 = float(np.min(C)) * (1.0 - 1e-12)
    C2 = float(np.max(C)) * (1.0 + 1e-12)
    theta = spec.theta
    lower = np.array([phi_inverse(spec, C2 * di) for di in dm]) ** theta
    upper = np.array([phi_inverse(spec, C1 * di) for di in dm]) ** theta
    worst = float(np.max(np.maximum((lower - wm) / wm, (wm - upper) / wm)))
    max_violation = max(0.0, worst)
    passed = bool(
        0.0 < C1 < C2 and math.isfinite(C2) and max_violation <= 0.0
    )
    return EnvelopeReport(
        C1=C1,
        C2=C2,
        points_checked=len(idx),
        max_violation=max_violation,
        passed=passed,
    )


def fd_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative of samples ``y`` on the strictly increasing grid ``x``: at
    x_i, that of the Lagrange interpolant through five nodes (all, on
    shorter grids), centred or shifted one-sided at the ends.  Its weights,
    k and j in the window (Fornberg, Math. Comp. 51, 1988), are w_i =
    sum_{k!=i} 1/(x_i-x_k), w_j = prod_{k!=i,j}(x_i-x_k) / prod_{k!=j}(x_j-x_k)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError("at least two samples are required")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("the grid must be strictly increasing")
    m = min(5, n)
    rows = np.arange(n)
    at = rows - np.clip(rows - m // 2, 0, n - m)  # where x_i sits in its window
    idx = (rows - at)[:, None] + np.arange(m)
    xw = x[idx]
    ahead = x[:, None] - xw  # x_i - x_k
    ahead[rows, at] = 1.0
    gaps = xw[:, :, None] - xw[:, None, :] + np.eye(m)  # x_j - x_k, 1 at k = j
    weights = np.prod(ahead, axis=1, keepdims=True) / (ahead * np.prod(gaps, axis=2))
    ahead[rows, at] = np.inf
    weights[rows, at] = np.sum(1.0 / ahead, axis=1)
    return np.einsum("ij,ij->i", weights, y[idx])


def relative_residuals(
    spec: ProblemSpec,
    r: np.ndarray,
    v: np.ndarray,
    du: np.ndarray,
    dv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise relative defects of a trajectory in the two differential
    relations

        [du**(p-1-a)]' + (d/r)  du**(p-1-a) = (d/(n-1)) f1 g1(v)
        [dv**(p-1)]'   + ((n-1)/r) dv**(p-1) =          f2 g2(v) h(du)

    in W = du**(p-1-a) and Z = dv**(p-1), each normalized by the sum of its
    term magnitudes.  W' and Z' come from :func:`fd_derivative` of the
    sampled values, not from the integrator, so this is an independent
    check.  At r = 0 the removable limits W/r -> W'(0) and Z/r -> Z'(0)
    turn the left sides into (1+d) W'(0) and n Z'(0).
    """
    r, v, du, dv = (np.asarray(a, dtype=float) for a in (r, v, du, dv))
    n, delta = spec.n, spec.delta
    W = du ** (spec.p - 1.0 - spec.alpha)
    Z = dv ** (spec.p - 1.0)
    dW, dZ = fd_derivative(r, W), fd_derivative(r, Z)
    if r[0] == 0.0:
        dW[0] *= 1.0 + delta
        dZ[0] *= n
    inner = r > 0.0
    sing1 = np.divide(delta * W, r, out=np.zeros_like(r), where=inner)
    sing2 = np.divide((n - 1.0) * Z, r, out=np.zeros_like(r), where=inner)
    src1 = delta / (n - 1.0) * spec.f1(r) * spec.g1(v)
    src2 = spec.f2(r) * spec.g2(v) * spec.h(du)

    def defect(d, sing, src):
        return np.abs(d + sing - src) / (np.abs(d) + np.abs(sing) + np.abs(src) + 1e-300)

    return defect(dW, sing1, src1), defect(dZ, sing2, src2)
