"""Outward integrator for the radial system and the envelope fit of its blow-ups.

The system is carried by its accumulated source integrals

    I1(r) = integral_0^r t**d     f1(t) g1(v) dt,
    I2(r) = integral_0^r t**(n-1) f2(t) g2(v) h(w) dt,

from which w = u' = ((d/(n-1)) I1 / r**d)**theta and v' = (I2 /
r**(n-1))**(1/(p-1)) follow algebraically, so positivity and monotonicity
are structural.

The origin is a singularity of the first kind (de Hoog & Weiss, SIAM J.
Numer. Anal. 13, 1976), so the trajectory starts from a closed form on
[0, r0].  While v is v0 to within a hundredth of rel_tol, freezing it there
turns every integrand into a power sum: I1 = g1(v0) * integral t**d f1 is
exact, w follows algebraically, and the powers of a multi-term W that enter
u and I2 = g2(v0) * integral t**(n-1) f2 h(w) are binomial series.  r0 is
the largest radius at which neither the growth of v nor the remainder of a
cut series exceeds that hundredth of rel_tol, or the target radius if that
is smaller; no blow-up can come before it, since v is still v0 there.  A
start that holds up to the target leaves the march nothing to do.
``march`` is that start followed by ``advance``, the one stepping loop,
which enters from any start, such as an exact solution's at any r0, and
reads its logarithms at r0 alone; the start's grid is evaluated with the
columns.

The march has one independent variable, tau = ln r + ln v, which rises
along every solution, since dtau/dr = D = 1/r + v'/v > 0: near the origin
it is ln r, near a pole ln v (Stuart & Floater, Eur. J. Appl. Math. 1,
1990), and under power or exponential growth its slopes stay bounded.  The
state is (ln r, ln I1, ln I2), and ln v = tau - ln r.  Each slope is a
rate over r D = 1 + r v'/v:

    d ln r / dtau = 1 / (r D),    d ln Ii / dtau = r fIi / Ii / (r D),

where fI1 = r**d f1 g1(v) and fI2 = r**(n-1) f2 g2(v) h(w) are the
integrands.  ln w, ln v', ln fI1 and ln fI2 are sums of logarithms, with
log-sum-exp over the terms of a multi-term power sum, so no stage forms v
or an accumulator, which may lie far beyond the float range, and the
error of each component is absolute in its logarithm, as in the rescaling
of Berger & Kohn (CPAM 41, 1988): relative in r, I1 and I2.

Each step is a Dormand-Prince 8(5,3) pair, the code DOP853 (Hairer,
Norsett & Wanner, Solving ODEs I, II.5 and II.10): twelve stages and a
thirteenth at the new point, reused as the first of the next step; per
component, Hairer's combination h * e5**2 / sqrt(e5**2 + 0.01 * e3**2) of
the embedded fifth- and third-order error estimates, held below 0.05 *
rel_tol; and the step-size factor 0.9 * err**(-1/8) clamped to [0.2, 5].
The right-hand side is one body for the shape of the problem's power sums
and of its constants that are neutral (a factor 1, a logarithm 0), which
it leaves out, written into one phase map; every kernel is rendered from
it, the step as straight-line code from the tableau with the body in
every stage.  u enters the system only through u', so the march steps
no u: no slope and no verdict reads it.

R0 is the limit of r(tau), estimated at each step as r + b * dr/dtau with
b = -1 / (d ln(dr/dtau)/dtau): near a pole dr/dtau ~ (R0 - r)/b, and the
estimate's error, like (R0 - r)**2, contracts geometrically in tau, so the
run ends once the sum of the remaining contractions bounds it.  The rates
b and sigma of v ~ (R0 - r)**(-b) and u' ~ (R0 - r)**(-sigma) are the
ratios of the log-slopes of v, v' and w at the ends of the last step,
extrapolated to R0.  Power and exponential growth keep dr/dtau from
decaying, as r/(1 + k) and 1/c do not, so the estimate keeps moving with r
and global solutions are not mislabelled.

Every accepted step keeps its 13 stages, and the verdict of a run needs
nothing more: its end, R0 and rates come from the last step.  The
trajectory is built from the kept steps when it is first read.  u - u0 is
r w q, where q = (u - u0) / (r w) solves the linear equation

    dq/dtau = d ln r/dtau - q d ln(r w)/dtau,

whose coefficients the kept stages give; q is smooth where u - u0 and
r w grow alike (1/2 at the origin, 1/(j+1) under w ~ r**j), where a
quadrature of du/dtau itself is not: near the origin it grows like
e**(2 tau) over steps that the march, blind to u, makes long.  The
march's own steps are taken again for q alone, on arrays, with no call
of a kernel, from its value at r0 by the start's closed form; its
largest error at the nodes against a rel_tol 1e-12 run is 3.2e-9 of
u - u0 at rel_tol 1e-8 on problems A, B, C and four stress runs.  Three
more stages per step, evaluated for all steps at once on arrays, give
the seventh-order continuous extension; it is linear in the step's
increment and stages, so each step is emitted as 14 equal sub-panels, or
more where they would be wider in ln r than the start grid's, by products
with rows of a node matrix, and the trajectory is dense enough for
finite-difference residuals, panel quotients and the blow-up envelope at
any step size.  The nodes are the exponentials of the logs; a node beyond
the float range is dropped, and so is one where ln I1 or ln I2 lies beyond
it, since the checks form W, Z and the sources in floats.  Between nodes a run is
read from the same closed form and extensions, whose extra stages are
evaluated once per run, for the nodes and every sample alike.

The envelope fit of a blow-up takes C1 and C2 as the extremes of
C(r) = phi(w**(p-1-alpha)) / (R0 - r) over the last decade before R0, so
the pinch they define holds by construction: its ``max_violation`` is 0
whenever C is finite and positive.
"""

from __future__ import annotations

import functools
import math
import sys
import textwrap
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from . import dop853
# phi_inverse is unused here, but radbench/spans.py wraps this name.
from .criteria import phi, phi_inverse  # noqa: F401
from .problem import InvalidProblem, ProblemSpec, ensure_valid

__all__ = [
    "TerminationReason",
    "SolverError",
    "SolverOptions",
    "BootstrapSegment",
    "RadialSolution",
    "picard_bootstrap",
    "march",
    "advance",
    "EnvelopeReport",
    "blowup_envelope_check",
]

#: The closed-form start ends where the growth of v, or the remainder of a
#: cut binomial series, reaches this fraction of rel_tol, or at the target.
_START_TOL = 0.01
#: Binomial series of multi-term powers are cut after this power.
_SERIES_ORDER = 8
#: The start segment is emitted at the origin and on a geometric grid of
#: this many nodes over [1e-3 * r0, r0]: finite differences of a power of r
#: lose accuracy with the relative spacing, which this keeps at 0.7%.
_START_NODES = 1024
_START_SPAN = 1e-3
#: The first trial step of the march moves ln r by this much.
_FIRST_STEP = 0.1
#: A rejected step may shrink its increment in ln r to no less than this,
#: and a march within this of the target's ln r has arrived.
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
    """Numeric knobs for :func:`march` and :func:`advance`.

    ``rel_tol`` bounds the local error of each Dormand-Prince 8(5,3) step,
    per component, at 0.05 * rel_tol absolute in the logarithms of r, I1
    and I2, the state (ln r, ln I1, ln I2) of the march, so relative in
    those quantities; the closed-form start holds its truncations to 0.01 *
    rel_tol.  The march stops at ``target_radius``.  A blow-up radius at
    rel_tol 1e-8 lies within 4.8e-10 (problem B) and 4.3e-10 (problem C),
    relative, of a rel_tol 1e-12 run, which a test holds to 0.1 * rel_tol;
    over the scoreboard's blow-ups ROADMAP item 21 measured up to 1.2e-9 on
    pure powers and 2.6e-8 on multi-term sums.  u - u0 is not stepped but
    formed when the trajectory is built, to the accuracy the module
    docstring states.
    """

    target_radius: float
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not self.target_radius > 0.0:
            raise ValueError("target_radius must be positive")
        if not 0.0 < self.rel_tol <= 0.01:
            raise ValueError("rel_tol must lie in (0, 0.01]")


def _column(name: str) -> property:
    return property(
        lambda self: self._columns[name],
        doc=f"The ``{name}`` column, built on first read.",
    )


class _Columns:
    """The columns r, u, v, w (u') and dv (v') of a trajectory, each read
    from the dict ``_columns`` that a subclass builds on first read."""

    r = _column("r")
    u = _column("u")
    v = _column("v")
    w = _column("w")
    dv = _column("dv")


@dataclass(frozen=True)
class BootstrapSegment(_Columns):
    """The closed-form start on [0, r0]: ``profiles(r, exp, log)`` gives (u,
    v, w, dv, I1, I2, fI1, fI2, W, Z) at radii 0 <= r <= r0, by numpy's exp
    and log, the defaults, on arrays under the caller's error state, or by
    math's at a float, which raise where a profile leaves the floats.
    ``state`` is (ln v, ln I1, ln I2, ln(u - u0)) at r0, where :func:`advance`
    takes over: the march steps from the first three, and u - u0 is formed
    from the fourth when the trajectory is built.  ``kernels`` is the
    problem's compiled right-hand side, which the march goes on with.  The
    columns, built on first read, are the profiles on the grid of
    :func:`picard_bootstrap`."""

    r0: float
    u0: float
    state: tuple[float, float, float, float]
    profiles: Callable = field(repr=False, compare=False)
    kernels: _Kernels = field(repr=False, compare=False)

    @property
    def sweeps(self) -> int:
        """Applications of the integral maps: the closed form is one."""
        return 1

    @functools.cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        r = np.append(0.0, np.geomspace(_START_SPAN * self.r0, self.r0, _START_NODES))
        # Profiles that leave the float range are not kept, so their
        # overflows are no error.
        with np.errstate(all="ignore"):
            values = self.profiles(r)
        keep = _normal(values) | (r == 0.0)
        names = ("r", "u", "v", "w", "dv")
        return {name: column[keep] for name, column in zip(names, (r, *values[:4]))}


#: The least positive normal float.
_TINY = sys.float_info.min
#: The largest logarithm whose exponential is a float.
_LOG_MAX = math.log(sys.float_info.max)


def _normal(values) -> np.ndarray:
    """Where every one of ``values`` is a positive normal float."""
    return (np.minimum.reduce(values) >= _TINY) & (np.maximum.reduce(values) < np.inf)


# Power sums near the origin are lists of (multiplier, log scale, exponent)
# triples c * exp(lc) * r**e: the log scales hold coefficients far outside
# the float range, like those of w**q for steep h, and the multipliers the
# signed coefficients of binomial series, 1 elsewhere.


def _terms(f, shift=0.0, log_scale=0.0):
    """The power sum ``exp(log_scale) * t**shift * f(t)`` of a FuncExpr f."""
    return [(1.0, math.log(c) + log_scale, e + shift) for c, e in f.terms]


def _integrated(terms):
    """The antiderivative vanishing at 0."""
    return [(c, lc - math.log(e + 1.0), e + 1.0) for c, lc, e in terms]


def _evaluate(terms, log_r, exp):
    """A power sum at the radii e**log_r, by ``exp``: numpy's on arrays, or
    math's on floats, which raises OverflowError where a term leaves the
    float range."""
    return sum(c * exp(lc + e * log_r) for c, lc, e in terms)


def _log_evaluate(terms, log_r):
    """The log of a power sum at the radius e**log_r: a reference term's,
    plus log1p of the others over it.  The reference is the term of least
    exponent, whose multiplier is positive, or the largest term where
    another one exceeds that by more than the float range."""
    terms = sorted(terms, key=lambda term: term[2])

    def relative_to(k):
        (c0, lc0, e0), others = terms[k], terms[:k] + terms[k + 1:]
        rest = sum(c / c0 * math.exp(lc - lc0 + (e - e0) * log_r) for c, lc, e in others)
        return math.log(c0) + lc0 + e0 * log_r + math.log1p(rest)

    try:
        return relative_to(0)
    except OverflowError:
        return relative_to(max(range(len(terms)), key=lambda k: terms[k][1] + terms[k][2] * log_r))


def _binomial(eps, y, budget):
    """(1 + eps)**y for eps a sum of (coefficient, exponent > 0) pairs, cut
    after eps**_SERIES_ORDER, as (coefficient, exponent) pairs; and the log
    of the largest radius at which the Lagrange remainder, at most
    |binom(y, K+1)| * eps**(K+1) * e, stays within ``budget`` (inf when the
    series ends before the cut)."""
    if not eps:
        return [(1.0, 0.0)], math.inf
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
    if binom == 0.0:
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
    """The start on [0, r0]: one application of both integral maps to the
    constant pair (u0, v0), in closed form, as a function of r.

    With v frozen at v0, I1 = g1(v0) * integral_0^r t**d f1 is a power sum
    and gives W = (d/(n-1)) I1 / r**d and w = W**theta exactly.  Written as
    W0 * (1 + eps) with W0 its leading term, w and each power of w in h
    are binomial series in eps, cut after eps**8, so I2 = g2(v0) *
    integral_0^r t**(n-1) f2 h(w) and u are power sums too.  v grows by at
    most the integral of a power-sum bound on v' = (I2 / r**(n-1))**(1/(p-1)),
    and is emitted as v0 plus that bound.  r0 is the largest radius where
    the bound stays within 0.01 * rel_tol of v0 and every cut series within
    0.01 * rel_tol of its sum, or the target radius itself if that is
    smaller.  The profiles are evaluated here at r0 alone, in floats, and
    :class:`SolverError` is raised when they, or the slopes of I1 and I2,
    are not positive normal floats there, when r0 itself is below the
    smallest float, or when a coefficient of a binomial series is beyond
    the float range or below it.  The state it hands over, (ln v, ln I1,
    ln I2, ln(u - u0)) at r0, is taken in logarithms from the same power
    sums (:func:`_log_evaluate`), not from differences of floats; the march
    steps from the first three, and the trajectory's u - u0 starts from
    the fourth.  The segment's columns, built on first read, are the origin
    and 1024 geometrically spaced nodes over [1e-3 * r0, r0], less the
    lowest of them where a profile or slope is not yet a positive normal
    float, as when h(w) underflows for large theta.  The segment carries
    the problem's kernels (:func:`_kernels`), which the march steps with,
    so a problem compiles them once.
    """
    if not (u0 > 0.0 and v0 > 0.0):
        raise ValueError("u0 and v0 must be positive")
    budget = _START_TOL * options.rel_tol
    n = spec.n
    delta = spec.delta
    theta = spec.theta
    inv_pm1 = 1.0 / (spec.p - 1.0)
    c1 = delta / (n - 1.0)
    lv0 = math.log(v0)

    I1_terms = _integrated(_terms(spec.f1, delta, _log_evaluate(_terms(spec.g1), lv0)))
    (lW, eW), *rest = sorted(
        ((math.log(c * c1) + lc, e - delta) for c, lc, e in I1_terms),
        key=lambda term: term[1],
    )
    radii = []  # log radii to which each cut series and the growth of v keep budget

    def power_of_W(y, log_scale=0.0):
        series, log_radius = _binomial(eps, y, budget)
        radii.append(log_radius)
        return [(c, log_scale + y * lW, y * eW + e) for c, e in series]

    try:
        eps = [(math.exp(lc - lW), e - eW) for lc, e in rest]
        u_terms = _integrated(power_of_W(theta))
        h_of_w = [
            term
            for c, q in spec.h.terms
            for term in power_of_W(theta * q, math.log(c))
        ]
    except (ArithmeticError, ValueError):
        raise SolverError("the start's series in W have coefficients beyond the floats") from None
    I2_terms = _integrated([
        (cf * ch, lf + lh, ef + eh)
        for cf, lf, ef in _terms(spec.f2, n - 1.0, _log_evaluate(_terms(spec.g2), lv0))
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
    log_target = math.log(options.target_radius)
    log_r0 = min(log_target, *radii)
    r0 = options.target_radius if log_r0 == log_target else math.exp(log_r0)
    if r0 == 0.0:
        raise SolverError(f"the start radius r0 = e**{log_r0!r} is below the smallest float")

    def profiles(r, exp=np.exp, log=np.log):
        lr = log(r)
        I1 = _evaluate(I1_terms, lr, exp)
        I2 = _evaluate(I2_terms, lr, exp)
        v = v0 + _evaluate(growth, lr, exp)
        u = u0 + _evaluate(u_terms, lr, exp)
        # At the origin, where every power of r vanishes, w and dv are 0/0:
        # their logarithms are -inf there.
        w, dv = (
            exp(np.where(r > 0.0, value, -math.inf))
            for value in _log_gradients(spec, lr, log(I1), log(I2))
        )
        fI1 = r**delta * spec.f1(r) * spec.g1(v)
        fI2 = r ** (n - 1.0) * spec.f2(r) * spec.g2(v) * spec.h(w)
        W = w ** (spec.p - 1.0 - spec.alpha)
        Z = dv ** (spec.p - 1.0)
        return u, v, w, dv, I1, I2, fI1, fI2, W, Z

    # At r0 in floats: where numpy's profiles leave the float range or take
    # the log of 0, math's raise; either way some profile is not a positive
    # normal float.
    try:
        normal = all(_TINY <= value < math.inf for value in profiles(r0, math.exp, math.log))
    except (ArithmeticError, ValueError):
        normal = False
    if not normal:
        raise SolverError(f"the start profiles are not normal floats at r0={r0!r}")
    lr0 = math.log(r0)
    state = (
        lv0 + math.log1p(math.exp(_log_evaluate(growth, lr0) - lv0)),
        _log_evaluate(I1_terms, lr0),
        _log_evaluate(I2_terms, lr0),
        _log_evaluate(u_terms, lr0),
    )
    return BootstrapSegment(r0, u0, state, profiles, _kernels(spec))


class _MarchSteps(NamedTuple):
    """What the columns of a :class:`RadialSolution` are emitted from: the
    start, with the problem's kernels, and the rows of the march's
    accepted steps."""

    boot: BootstrapSegment
    rows: list


@dataclass(frozen=True)
class RadialSolution(_Columns):
    """The verdict of a march and, built when first read, its discrete
    trajectory.

    The verdict is read without the trajectory.  ``r_end`` and
    ``v_final`` are r and v at the end of the march's last accepted step (at
    r0 when it took none); ``v_final`` is inf where v lies beyond the float
    range.  ``R0`` is the blow-up radius, the limit of r(tau) as tau = ln r
    + ln v grows, when ``terminated`` is BlowUp and None otherwise; it lies
    beyond ``r_end``.  ``b_hat`` and ``sigma_hat`` are the rates of
    v ~ (R0 - r)**(-b) and u' ~ (R0 - r)**(-sigma) read off the march's last
    step, set and unset with ``R0``.  ``start_radius`` is r0, where the
    start hands over to the steps of :func:`advance`.

    The columns ``r``, ``u``, ``v``, ``w`` (u') and ``dv`` (v') are
    emitted by :func:`_emit_nodes` from ``steps`` when one of them is first
    read, once: for a march, their radii increase strictly from 0 and end
    at ``r_end``, unless the node there is dropped as past the float range.
    :meth:`sample` reads the run between them.  Both read the one dense
    pass of the run, ``_dense``, made when first needed.

    ``rhs_evals`` counts the evaluations of the right-hand side made so
    far: the march's stages of (ln r, ln I1, ln I2) and, once the dense
    pass is made, the three extra stages of every step, evaluated on
    arrays.  u - u0 is formed there as r w q, q = (u - u0) / (r w), with
    no call of a kernel, so it adds no evaluation; the module docstring
    states its accuracy.
    ``accepted_steps`` and ``rejected_steps`` count the march's steps, and
    ``dt_min``/``dt_max`` bound the increments in r of its accepted steps
    (None when no step was accepted), whatever nodes those steps emit;
    they are read off the step rows when first asked for.
    """

    spec: ProblemSpec
    options: SolverOptions
    terminated: TerminationReason
    R0: float | None
    b_hat: float | None
    sigma_hat: float | None
    r_end: float
    v_final: float
    start_radius: float
    rhs_evals: int
    accepted_steps: int
    rejected_steps: int
    steps: _MarchSteps = field(repr=False, compare=False)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        unset = (self.R0, self.b_hat, self.sigma_hat).count(None)
        if unset != (0 if self.terminated is TerminationReason.BLOW_UP else 3):
            raise ValueError("R0, b_hat and sigma_hat are set exactly for a blow-up run")
        if self.R0 is not None and not self.R0 > self.r_end:
            raise ValueError("a blow-up radius must lie beyond the last node")

    @functools.cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        """The step rows as an array with q = (u - u0) / (r w) appended by
        :func:`dop853.appended`, from its value at r0 by the start's state
        and with the coefficients of :func:`_u_rates` at the kept stages,
        which calls no kernel; and their :func:`dop853.dense_stages`, by the
        array kernel with the slope of q appended, which ``rhs_evals``
        counts here, once.  Values beyond the float range are not finite,
        and the nodes drop them."""
        spec, (boot, rows) = self.spec, self.steps
        rates = functools.partial(_u_rates, spec)
        _, lI1, lI2, lU = boot.state
        lr0 = math.log(boot.r0)
        q0 = math.exp(lU - lr0 - _log_gradients(spec, lr0, lI1, lI2)[0])

        def rhs_arrays(x, lr, lI1, lI2, q):
            k = boot.kernels.rhs_arrays(x, lr, lI1, lI2)
            a, m = rates(k)
            return (*k, a - m * q)

        width = len(rows[0])
        steps = np.fromiter(chain.from_iterable(rows), float, len(rows) * width)
        with np.errstate(all="ignore"):
            steps = dop853.appended(steps.reshape(-1, width), rates, q0)
            V = dop853.dense_stages(rhs_arrays, steps)
        object.__setattr__(self, "rhs_evals", self.rhs_evals + 3 * len(steps))
        return steps, V

    @functools.cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        boot, rows = self.steps
        return _emit_nodes(self.spec, boot, self._dense if rows else None)

    @functools.cached_property
    def _dt_bounds(self) -> tuple[float | None, float | None]:
        # Each accepted step starts at the ln r where the one before it ended.
        rows = self.steps.rows
        radii = [math.exp(row[2]) for row in rows] + [math.exp(row[5]) for row in rows[-1:]]
        increments = [b - a for a, b in zip(radii, radii[1:])]
        return min(increments, default=None), max(increments, default=None)

    dt_min = property(lambda self: self._dt_bounds[0])
    dt_max = property(lambda self: self._dt_bounds[1])

    @property
    def bootstrap_nodes(self) -> int:
        """The start's nodes, the origin included: reading it builds its grid."""
        return len(self.steps.boot.r)

    def sample(self, rs) -> dict[str, np.ndarray]:
        """u, v, u' (``du``) and v' at the radii ``rs``, clipped to [0,
        r_end], as the nodes are made: the start's profiles up to r0, and
        beyond it the extension of the step that holds the radius, at the
        fraction where its ln r is ln(rs), which bisection finds, since ln r
        rises along every step, from the run's one dense pass."""
        boot = self.steps.boot
        rs = np.clip(np.asarray(rs, dtype=float), 0.0, self.r_end)
        out = np.empty((4, len(rs)))
        mine = rs > boot.r0
        # Values beyond the float range are not finite.
        with np.errstate(all="ignore"):
            out[:, ~mine] = boot.profiles(rs[~mine])[:4]
            if np.any(mine):
                log_r = np.log(rs[mine])
                steps, V = self._dense
                at = np.maximum(np.searchsorted(steps[:, 2], log_r, side="right") - 1, 0)
                steps, V = steps[at], V[:, at]
                # 53 halvings take the fraction to the float spacing below 1.
                lo, hi = np.zeros_like(log_r), np.ones_like(log_r)
                for _ in range(53):
                    theta = 0.5 * (lo + hi)
                    below = dop853.dense_nodes(steps, V, theta)[:, 0] < log_r
                    lo, hi = np.where(below, theta, lo), np.where(below, hi, theta)
                y = dop853.dense_nodes(steps, V, theta).T
                _, u, v, w, dv = _nodes(self.spec, boot.u0, steps, theta, y)
                out[:, mine] = [u, v, w, dv]
        return dict(zip(("u", "v", "du", "dv"), out))


class _Kernels(NamedTuple):
    """The right-hand side of one problem, compiled: each kernel is the one
    body written into the phase map in tau for (ln r, ln I1, ln I2), and
    takes (x, *y).  On floats, for the march: ``rhs`` gives
    the first slope, and ``step(x, h, y, k1, tol)`` is the Dormand-Prince
    8(5,3) step of :func:`dop853._step_source` with the body written into
    every stage: it returns, to the bit, what the same step returns with
    stages that call ``rhs``, with every component's error in units of
    tol, absolute in its logarithm.  On
    arrays: ``rhs_arrays``, for the dense stages.  No kernel reads u."""

    rhs: Callable
    step: Callable
    rhs_arrays: Callable


# The body, in logarithms: with ln W = ln c1 + ln I1 - delta ln r and
# ln Z = ln I2 - (n-1) ln r, ln w = theta ln W, ln dv = ln Z / (p-1),
# ln fI1 = delta ln r + ln f1(r) + ln g1(v) and ln fI2 = (n-1) ln r +
# ln f2(r) + ln g2(v) + ln h(w).  A power sum's logarithm is lc + e * x for
# a single term c * t**e, with x the logarithm of its variable, and the
# log-sum-exp of its terms otherwise; the constant 1 is left out.  The
# forms on floats and on arrays differ in the name of exp and in how they
# add two logarithms a and b: log1p of the exponential of the smaller less
# the larger, or numpy's logaddexp.  A constant that is neutral, a factor
# 1.0 or ln c1 = 0.0, is left out with its operation, and where delta is
# n - 1 one product serves both.
_FLOATS = ("exp", "({a} if {a} > {b} else {b}) + log1p(exp(-abs({a} - {b})))")
_ARRAYS = ("np.exp", "np.logaddexp({a}, {b})")
# The phase map: the body's inputs bound to a stage's arguments, and the
# stage's slopes k<s>_0..2 from its results, each a rate over r D, where
# r D = r dtau/dr = 1 + r v'/v.
_STAGE = """\
        lr = {y[0]}
        lv = {x} - lr
        lI1 = {y[1]}
        lI2 = {y[2]}
{body}\
        k{s}_0 = 1.0 / (1.0 + {exp}(lr + ldv - lv))
        k{s}_1 = {exp}(lr + lfI1 - lI1) * k{s}_0
        k{s}_2 = {exp}(lr + lfI2 - lI2) * k{s}_0
"""
# A kernel that is not a step is stage 1 of the phase map at its arguments.
_STAGE_KERNEL = """\
def {name}(x, y0, y1, y2):
{stage}\
        return k1_0, k1_1, k1_2
"""
#: The constants of the body and the value at which each is left out.
_NEUTRAL = {"lc1": 0.0, "delta": 1.0, "nm1": 1.0, "theta": 1.0, "inv_pm1": 1.0}
#: The power sums of the body and the logarithms of their variables.
_SUMS = (("f1", "lr"), ("g1", "lv"), ("f2", "lr"), ("g2", "lv"), ("h", "lw"))
#: Compiled kernel factories by shape: the terms of each power sum, the
#: neutral constants and whether delta is n - 1.  Problems of one shape
#: share one.
_KERNEL_FACTORIES: dict[tuple, Callable] = {}


def _body(shape: tuple, add: str) -> str:
    """The body of ``shape``, in the form whose sum of two logarithms is the
    template ``add``."""
    sums, neutral, rn_is_rd = shape

    def times(constant, value):
        if constant in neutral:
            return value
        return f"{constant} * {value if value.isidentifier() else f'({value})'}"

    lines = [
        ("lrd", times("delta", "lr")),
        ("lrn", "lrd" if rn_is_rd else times("nm1", "lr")),
        ("lw", times("theta", "lI1 - lrd" if "lc1" in neutral else "lc1 + lI1 - lrd")),
        ("ldv", times("inv_pm1", "lI2 - lrn")),
    ]
    logs = {}
    for (name, _), terms in zip(_SUMS, sums):
        if len(terms) == 1:
            logs[name] = terms[0]
        elif terms:
            names = [f"{name}_{i}" for i in range(len(terms))]
            lines += zip(names, terms)
            total = names[0]
            for other in names[1:]:
                lines.append((f"l{name}", add.format(a=total, b=other)))
                total = f"l{name}"
            logs[name] = total
    lines += [
        ("lfI1", " + ".join(["lrd", *(logs[s] for s in ("f1", "g1") if s in logs)])),
        ("lfI2", " + ".join(["lrn", *(logs[s] for s in ("f2", "g2", "h") if s in logs)])),
    ]
    return "".join(f"        {name} = {value}\n" for name, value in lines)


def _log_power_sum(name: str, f, t: str, constants: dict) -> tuple[str, ...]:
    """The logarithms of the terms of the power sum f, at the logarithm t of
    its variable, as expressions over constants named <name>_l<i> (ln c)
    and <name>_e<i>, which are added to ``constants``: lc + e * t, with
    lc left out for c = 1 and e * t for e = 0, and t alone for e = 1; no
    term for the constant 1."""
    if f.terms == ((1.0, 0.0),):
        return ()
    terms = []
    for i, (coeff, exponent) in enumerate(f.terms):
        parts = []
        if coeff != 1.0:
            constants[f"{name}_l{i}"] = math.log(coeff)
            parts.append(f"{name}_l{i}")
        if exponent == 1.0:
            parts.append(t)
        elif exponent != 0.0:
            constants[f"{name}_e{i}"] = exponent
            parts.append(f"{name}_e{i} * {t}")
        terms.append(" + ".join(parts) or "0.0")
    return tuple(terms)


def _kernel_factory(constants: dict, shape: tuple) -> Callable:
    """Compile the kernels of one shape: ``make(**constants)`` binds them to
    a problem's constants, in the order of :class:`_Kernels`.  The body of
    the shape, in a kernel's form and with its neutral constants left out,
    is written into the phase map as every stage of the step and as stage 1
    of the other kernels.  The step is about 16 KB of source, so the
    kernels are generated and compiled once per shape."""
    source = f"def make({', '.join(constants)}):\n"
    for name in _Kernels._fields:
        exp, add = _ARRAYS if name == "rhs_arrays" else _FLOATS
        stage = functools.partial(_STAGE.format, body=_body(shape, add), exp=exp)
        if name == "step":
            kernel = dop853._step_source("step(x, h, y, k1, tol)", stage, 3)
        else:
            y = ["y0", "y1", "y2"]
            kernel = _STAGE_KERNEL.format(name=name, stage=stage(s=1, x="x", y=y))
        source += textwrap.indent(kernel, "    ")
    source += f"    return {', '.join(_Kernels._fields)}\n"
    namespace = {"exp": math.exp, "log1p": math.log1p, "np": np, **dop853._STEP_GLOBALS}
    exec(compile(source, "<radlab rhs kernels>", "exec"), namespace)
    return namespace["make"]


def _kernels(spec: ProblemSpec) -> _Kernels:
    """Compile the right-hand side of ``spec`` into straight-line kernels.

    Its power sums are written out in logarithms as Python source over
    named constants.  The constants ln c1, delta, n - 1, theta and 1/(p-1)
    that are neutral (0.0 for ln c1, 1.0 for the factors) are left out with
    their sum or product, and where delta is n - 1 one product serves both.
    The source depends only on the shape, that is on the terms of the sums
    and on which constants are neutral, so it is generated and compiled
    once for all problems that share it; the constants are bound per
    problem."""
    constants = {
        "lc1": math.log(spec.delta / (spec.n - 1.0)),
        "delta": spec.delta,
        "nm1": float(spec.n - 1),
        "theta": spec.theta,
        "inv_pm1": 1.0 / (spec.p - 1.0),
    }
    shape = (
        tuple(_log_power_sum(name, getattr(spec, name), t, constants) for name, t in _SUMS),
        tuple(name for name, value in _NEUTRAL.items() if constants[name] == value),
        constants["delta"] == constants["nm1"],
    )
    make = _KERNEL_FACTORIES.get(shape)
    if make is None:
        make = _KERNEL_FACTORIES[shape] = _kernel_factory(constants, shape)
    return _Kernels(*make(**constants))


#: The local error is held below this fraction of rel_tol: the emitted
#: nodes feed finite-difference checks that amplify interpolation error.
_ERR_SCALE = 0.05
#: Each accepted step is emitted as at least this many equal sub-panels in
#: tau, the interior nodes taken from the continuous extension, and as more
#: where they would be wider in ln r than the start grid's spacing, which
#: finite differences of powers of r need.
_SUBPANELS = 14
_SPACING = math.log(1.0 / _START_SPAN) / (_START_NODES - 1)


def _first_slope(f, x, y, r):
    """f(x, *y) where the march starts, or :class:`SolverError` when the
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
    """Integrate outward from the origin: validate ``spec`` (raising
    :class:`InvalidProblem`, also for alpha >= p - 1), take the closed-form
    start on [0, r0] of :func:`picard_bootstrap` and :func:`advance` from it."""
    ensure_valid(spec)
    if not spec.gradient_balanced:
        raise InvalidProblem(
            "the gradient exponent must satisfy alpha < p - 1 for radial "
            "solutions to exist"
        )
    return advance(spec, picard_bootstrap(spec, u0, v0, options), options)


def advance(
    spec: ProblemSpec, start: BootstrapSegment, options: SolverOptions
) -> RadialSolution:
    """Step outward in tau = ln r + ln v from ``start`` until the target
    radius, a resolved blow-up, or step underflow.

    ``start`` is the closed-form start of :func:`march` or any other
    segment with ``state`` (ln v, ln I1, ln I2, ln(u - u0)) at ``r0`` and
    the ``kernels`` of ``spec``, such as an exact solution's; its ``u0``,
    its ``profiles`` and the state's ln(u - u0), which must be finite, are
    read only for the columns and samples.  ``spec`` is taken as valid,
    with alpha < p - 1, as :func:`march` checks; the
    columns keep the invariants :func:`_emit_nodes` states for the
    closed-form start only when the start's own columns keep them.  From
    tau = ln r0 + ln v, with a first trial step that moves ln r by 0.1,
    Dormand-Prince 8(5,3) steps advance (ln r, ln I1, ln I2): the march
    computes nothing for u, which is formed when the columns are built,
    to the accuracy the module docstring states.
    A step is accepted when its combined error estimate, absolute in each
    logarithm, lies below 0.05 * rel_tol in every component; the next step
    size is the current one times 0.9 * err**(-1/8), clamped to [0.2, 5].
    The march takes the fused step of :func:`_kernels`, straight-line code
    with the right-hand side written into every stage, so it returns the
    bits of the same step with stages that call the scalar kernel, which
    gives the first slope.
    Each accepted step keeps its 13 stages.  The run's columns are not
    built here: on their first read :func:`_emit_nodes` emits each step as
    equal sub-panels whose interior nodes come from the seventh-order continuous
    extension; emission drops the nodes that are not finite or do not
    advance r, and changes nothing else.  ``r_end`` and ``v_final`` are
    taken from the last step with the float operations that give its end
    node; nothing else is computed beyond what the verdict reads.

    The run ends as ReachedTarget once ln r is within 1e-14 of the target's;
    a step that would overshoot it by more than that is shrunk onto it.  It
    ends as BlowUp on the pole estimate R0 = r + b * dr/dtau, with
    dr/dtau = r * dln r/dtau and b = -1 / (d ln(dr/dtau)/dtau) = -1 / slope
    taken across the last step of size h.  The estimate's error, like
    (R0 - r)**2, contracts by rho = exp(2 * h * slope) per step, so the run
    stops once |change of R0| * rho / (1 - rho) <= 0.05 * rel_tol * R0,
    with the rates b_hat and sigma_hat of :func:`_rates` at that step.  It
    ends as StepUnderflow, with a note, when a rejection shrinks the step's
    increment in ln r below 1e-14; no other place ends a run.
    :class:`SolverError` is raised when r0 is not a positive normal float
    or the state is not finite, when the right-hand side is not finite at
    the start, and when 2,000,000 steps (``_MAX_STEPS``) have been
    accepted without an end.
    """
    if not (_TINY <= start.r0 < math.inf and all(map(math.isfinite, start.state))):
        raise SolverError(
            f"the start is not a positive normal r0 with finite logarithms: "
            f"r0={start.r0!r}, state={start.state!r}"
        )
    step = start.kernels.step
    tol = _ERR_SCALE * options.rel_tol
    log_target = math.log(options.target_radius)
    notes: list[str] = []
    rows: list[tuple] = []
    keep = rows.append

    # x is tau and y is (ln r, ln I1, ln I2).
    lr = math.log(start.r0)
    x = lr + start.state[0]
    y = (lr, *start.state[1:3])
    k1 = _first_slope(start.kernels.rhs, x, y, start.r0)
    accepted = rejected = 0
    h = _FIRST_STEP / k1[0]
    estimate = R0 = b_hat = sigma_hat = None

    while True:
        room = log_target - y[0]
        if room <= _MIN_STEP:
            terminated = TerminationReason.REACHED_TARGET
            break
        if accepted >= _MAX_STEPS:
            raise SolverError(f"step budget of {_MAX_STEPS} exhausted at r={math.exp(y[0])!r}")
        # h = min(h, room / k1[0]) and factor = min(5, max(0.2, ...)) as the
        # comparisons that min and max make, which give the same floats.
        if room < h * k1[0]:
            h = room / k1[0]
        y_new, k13, row, err = step(x, h, y, k1, tol)
        factor = 0.9 * err ** -0.125 if err > 0.0 else 5.0
        factor = (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2
        if not err <= 1.0 or y_new[0] - log_target > _MIN_STEP:
            rejected += 1
            h *= room / (y_new[0] - y[0]) if err <= 1.0 else factor
            if h * k1[0] < _MIN_STEP:
                r = math.exp(y[0])
                notes.append(
                    f"step underflow at r={r:.12g} (increment in r "
                    f"{h * k1[0] * r:.3g} < {_MIN_STEP * r:.3g})"
                )
                terminated = TerminationReason.STEP_UNDERFLOW
                break
            continue

        keep(row)
        accepted += 1
        # ln(dr/dtau) = ln r + ln(dln r/dtau): its slope across the step.
        slope = (y_new[0] - y[0] + math.log(k13[0] / k1[0])) / h
        previous = estimate
        estimate = math.exp(y_new[0]) * (1.0 - k13[0] / slope) if slope < 0.0 else None
        if estimate is not None and previous is not None:
            # The estimate's error, like (R0 - r)**2, contracts by rho per
            # step, so what remains after this step is about
            # |estimate - previous| * rho / (1 - rho).
            rho = math.exp(2.0 * h * slope)
            if abs(estimate - previous) * rho / (1.0 - rho) <= tol * estimate:
                R0 = estimate
                ends = ((math.exp(y[0]), k1), (math.exp(y_new[0]), k13))
                b_hat, sigma_hat = _rates(spec, R0, ends)
                terminated = TerminationReason.BLOW_UP
                break
        x, y, k1 = x + h, y_new, k13
        h *= factor

    # numpy's elementwise results do not depend on the length of the array,
    # so r and v at the end alone have the bits of the trajectory's last node.
    if rows:
        # The end of the last step as _nodes makes it, from the row's x, h
        # and end state: ln r, and ln v = x + h * 1.0 - ln r.
        last = rows[-1]
        with np.errstate(over="ignore"):
            r_end, v_final = np.exp((last[5], last[0] + last[1] - last[5]))
    else:
        r_end, v_final = start.r0, start.profiles(np.array([start.r0]))[1][0]
    return RadialSolution(
        spec=spec,
        options=options,
        terminated=terminated,
        R0=R0,
        b_hat=b_hat,
        sigma_hat=sigma_hat,
        r_end=float(r_end),
        v_final=float(v_final),
        start_radius=start.r0,
        # Twelve evaluations per step tried, and the first slope.
        rhs_evals=12 * (accepted + rejected) + 1,
        accepted_steps=accepted,
        rejected_steps=rejected,
        steps=_MarchSteps(start, rows),
        notes=tuple(notes),
    )


def _rates(spec: ProblemSpec, R0: float, ends) -> tuple[float, float]:
    """The rates b and sigma of v ~ (R0 - r)**(-b) and u' ~ (R0 - r)**(-sigma).

    At a radius they are b = (ln v)' / ((ln v')' - (ln v)') and sigma =
    (ln w)' / ((ln v')' - (ln v)'), exact for a pure pole and with a
    deviation of first order in R0 - r otherwise.  They are read off the
    slopes k in tau at the two ends of the last step, given as (r, k)
    pairs in ``ends``, and extrapolated linearly in R0 - r to 0."""
    points = []
    for r, k in ends:
        lv = 1.0 - k[0]
        ldv = (k[2] - (spec.n - 1.0) * k[0]) / (spec.p - 1.0)
        lw = spec.theta * (k[1] - spec.delta * k[0])
        points.append((R0 - r, lv / (ldv - lv), lw / (ldv - lv)))
    (e0, b0, s0), (e1, b1, s1) = points
    return (b1 * e0 - b0 * e1) / (e0 - e1), (s1 * e0 - s0 * e1) / (e0 - e1)


def _log_gradients(spec: ProblemSpec, lr, lI1, lI2) -> tuple:
    """ln w and ln v' from ln r, ln I1 and ln I2: w = (c1 I1 / r**delta)**theta
    and v' = (I2 / r**(n-1))**(1/(p-1))."""
    lw = spec.theta * (math.log(spec.delta / (spec.n - 1.0)) + lI1 - spec.delta * lr)
    return lw, (lI2 - (spec.n - 1.0) * lr) / (spec.p - 1.0)


def _nodes(spec: ProblemSpec, u0: float, steps: np.ndarray, theta, y) -> tuple:
    """(r, u, v, w, dv) where the step rows ``steps`` of a dense pass
    reach the state y, four arrays (ln r, ln I1, ln I2, q), at the
    fractions theta of their steps, one each: with tau = x0 + h * theta,
    the exponentials of ln r, tau - ln r, ln w and ln dv, and u = u0 +
    e**(ln r + ln w + ln q)."""
    lr, lI1, lI2, q = y
    x = steps[:, 0] + steps[:, 1] * theta
    lw, ldv = _log_gradients(spec, lr, lI1, lI2)
    r, v, w, dv, U = (np.exp(value) for value in (lr, x - lr, lw, ldv, lr + lw + np.log(q)))
    return r, u0 + U, v, w, dv


def _u_rates(spec: ProblemSpec, k) -> tuple:
    """The coefficients (a, m) of dq/dtau = a - m q, where q = (u - u0) /
    (r w), at slopes k of (ln r, ln I1, ln I2): with u' = w, du/dtau = r w
    k0, so a = k0 = d ln r/dtau and m = d ln(r w)/dtau = k0 + theta (k1 -
    delta k0)."""
    k0, k1 = k[0], k[1]
    return k0, k0 + spec.theta * (k1 - spec.delta * k0)


def _emit_nodes(spec: ProblemSpec, boot: BootstrapSegment, dense):
    """The trajectory columns, from the start and the run's dense pass
    ``dense`` (:attr:`RadialSolution._dense`), None when it took no step.

    The columns are the start's, then every accepted step as the interior
    nodes of its continuous extension at the ends of K equal sub-panels in
    tau, K the larger of 14 and the number that keeps them no wider in ln r
    than the start grid's spacing, and its end node, mapped to (r, u, v, w,
    dv) by :func:`_nodes`; each interior node is the extension of its step
    at its own fraction, by :func:`dop853.dense_nodes`.
    A node that is not finite, as past the float range, or whose radius
    does not exceed every earlier one, is dropped; so is a march node where
    ln I1 or ln I2 lies beyond the float range, since the checks form W =
    c1 I1 / r**delta, Z = I2 / r**(n-1) and the sources in floats from the
    columns.  When every node is kept nothing is copied.
    Roundoff-level dips of the dense output are clamped so every profile
    stays nondecreasing.  So, from the closed-form start of
    :func:`picard_bootstrap`, r starts at 0, on its origin row (u0, v0 > 0
    and w = dv = 0), and increases strictly, and u, v, w and dv never
    decrease; another start's columns must hold its own part of that,
    which nothing here re-checks.  Over the scoreboard's runs that start
    and the committed configs, the clamps change v alone, on 31 of 438
    runs: the march's first nodes sit up to 2.8e-14 below the start's
    float v0 + growth, and v is held flat over up to 5,893 nodes (corpus
    row 21)."""
    parts = [(boot.r, boot.u, boot.v, boot.w, boot.dv)]
    # The start's nodes are normal floats, I1 and I2 among its profiles.
    inside = [np.ones(len(boot.r), dtype=bool)]
    if dense is not None:
        steps, V = dense
        # Nodes that leave the float range are not finite, and are dropped
        # below.
        with np.errstate(all="ignore"):
            counts = np.ceil((steps[:, 6] - steps[:, 2]) / _SPACING).astype(int)
            counts = np.maximum(counts, _SUBPANELS)
            # Node j of a step of K sub-panels lies at the fraction j / K, j = 1..K.
            at = np.repeat(np.arange(len(steps)), counts)
            j = np.arange(1, len(at) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
            theta = j / counts[at]
            states = dop853.dense_nodes(steps[at], V[:, at], theta).T
            # A step's end node is its end state.
            states[:, theta == 1.0] = steps[:, 6:10].T
            parts.append(_nodes(spec, boot.u0, steps[at], theta, states))
            inside.append((states[1:3] <= _LOG_MAX).all(axis=0))
    r, u, v, w, dv = nodes = [np.concatenate(col) for col in zip(*parts)]
    # A finite node is kept when its radius exceeds every earlier finite one.
    finite = np.isfinite(nodes).all(axis=0) & np.concatenate(inside)
    highest = np.maximum.accumulate(np.where(finite, r, -np.inf))
    keep = finite & np.append(True, r[1:] > highest[:-1])
    if not keep.all():
        r, u, v, w, dv = (col[keep] for col in nodes)
    u, v, w, dv = (np.maximum.accumulate(col) for col in (u, v, w, dv))
    return dict(r=r, u=u, v=v, w=w, dv=dv)


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
    over the last decade of grid before R0 and takes C1 and C2 as its
    extremes, widened by a factor 1e-12.  phi is decreasing, so the pinch
    then holds at every node by construction: ``max_violation`` is 0 and
    the check passes.

    Raises :class:`SolverError` unless the trajectory blew up, or where C
    is not a positive float, as where phi leaves the float range, and
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
    gap = spec.p - 1.0 - spec.alpha
    with np.errstate(over="ignore"):  # C past the floats is refused below
        C = np.array([phi(spec, wi**gap) for wi in solution.w[mask]]) / d[mask]
    if not (np.all(np.isfinite(C)) and np.all(C > 0.0)):
        raise SolverError("phi(w**(p-1-alpha)) / (R0 - r) is not a positive float near R0")
    C1 = float(np.min(C)) * (1.0 - 1e-12)
    C2 = float(np.max(C)) * (1.0 + 1e-12)
    return EnvelopeReport(
        C1=C1,
        C2=C2,
        points_checked=count,
        max_violation=0.0,
        passed=bool(0.0 < C1 < C2 and math.isfinite(C2)),
    )
