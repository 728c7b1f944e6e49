"""Outward integrator for the radial system and the envelope fit of its blow-ups.

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
cut series exceeds that hundredth of rel_tol, or the target radius if that
is smaller; no blow-up can come before it, since v is still v0 there.  A
start that holds up to the target leaves the march nothing to do.
``march`` is that start followed by ``advance``, the one stepping loop,
which enters from any start, such as an exact solution's at any r0, and
reads it at r0 alone; the start's grid is evaluated with the columns.

From r0 each step is a Dormand-Prince 8(5,3) pair, the code DOP853
(Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10): twelve stages
and a thirteenth at the new point, reused as the first of the next step;
per component, Hairer's combination h * e5**2 / sqrt(e5**2 + 0.01 * e3**2)
of the embedded fifth- and third-order error estimates, held below
0.05 * rel_tol; and the step-size factor 0.9 * err**(-1/8) clamped to
[0.2, 5].  The right-hand side is one body for the shape of the
problem's power sums and of its constants that are exactly 1, which it
leaves out, and two phase maps bind it to the state in r and in s below;
every kernel is rendered from them, each phase's step as straight-line
code from the tableau with the body in every stage.  u
enters the system only through u', so no kernel reads u's argument.
Every accepted step keeps its stages, and the verdict of a run needs
nothing more: its end, R0 and rates come from the last step.  The
trajectory is built from the kept steps when it is first read: three
more stages per step, evaluated for all steps at once on arrays, give
the seventh-order continuous extension; it is linear in the step's
increment and stages, so each step is emitted as 14 equal sub-panels by
one product with a constant node matrix, and the trajectory is dense
enough for finite-difference residuals, panel quotients and the blow-up
envelope at any step size.  Between nodes a run is read from the same
closed form and extensions.

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
the sum of the remaining contractions bounds it.  The last step's
log-slopes of dr/ds and du/ds also give the rates b and sigma of
v ~ (R0 - r)**(-b) and u' ~ (R0 - r)**(-sigma).  Power growth keeps
dr/ds from decaying geometrically, so the estimate keeps moving with r and
unbounded-but-global solutions are not mislabelled.

The envelope fit of a blow-up takes C1 and C2 as the extremes of
C(r) = phi(w**(p-1-alpha)) / (R0 - r) over the last decade before R0, so
the pinch they define holds by construction: its ``max_violation`` is 0
whenever C is finite and positive.
"""

from __future__ import annotations

import functools
import math
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
    """Numeric knobs for :func:`march` and :func:`advance`.

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


def _column(name: str) -> property:
    return property(
        lambda self: self._columns[name],
        doc=f"The ``{name}`` column, built on first read.",
    )


class _Columns:
    """The columns r, u, v, w (u'), dv (v'), I1 and I2 of a trajectory, each
    read from the dict ``_columns`` that a subclass builds on first read."""

    r = _column("r")
    u = _column("u")
    v = _column("v")
    w = _column("w")
    dv = _column("dv")
    I1 = _column("I1")
    I2 = _column("I2")


@dataclass(frozen=True)
class BootstrapSegment(_Columns):
    """The closed-form start on [0, r0]: ``profiles(r)`` gives (u, v, w, dv,
    I1, I2, fI1, fI2, W, Z) at radii 0 <= r <= r0, and ``state`` is (u, v,
    I1, I2) at r0, where :func:`advance` takes over.  ``kernels`` is the
    problem's compiled right-hand side, which the profiles evaluate and the
    march goes on with.  The columns, built on first read, are the profiles
    on the grid of :func:`picard_bootstrap`."""

    r0: float
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
        values = self.profiles(r)
        keep = _normal(values) | (r == 0.0)
        names = ("r", "u", "v", "w", "dv", "I1", "I2")
        return {name: column[keep] for name, column in zip(names, (r, *values[:6]))}


def _normal(values) -> np.ndarray:
    """Where every one of ``values`` is a positive normal float."""
    return (np.minimum.reduce(values) >= np.finfo(float).tiny) & (
        np.maximum.reduce(values) < np.inf
    )


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
    smaller.  The profiles are evaluated here at r0 alone, for the state
    the march starts from; :class:`SolverError` is raised when they, or the
    slopes of I1 and I2, are not positive normal floats there.  The
    segment's columns, built on first read, are the origin and 1024
    geometrically spaced nodes over [1e-3 * r0, r0], less the lowest of
    them where a profile or slope is not yet a positive normal float, as
    when h(w) underflows for large theta.  The segment carries the
    problem's kernels (:func:`_kernels`), which its profiles evaluate and
    the march steps with, so a problem compiles them once.
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
    radii = []  # log radii to which each cut series and the growth of v keep budget

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
    log_target = math.log(options.target_radius)
    log_r0 = min(log_target, *radii)
    r0 = options.target_radius if log_r0 == log_target else math.exp(log_r0)

    kernels = _kernels(spec)
    rhs = kernels.radial_rhs

    def profiles(r):
        # Profiles that leave the float range are not kept, so their
        # overflows are no error.
        with np.errstate(all="ignore"):
            I1 = _evaluate(I1_terms, r)
            I2 = _evaluate(I2_terms, r)
            v = v0 + _evaluate(growth, r)
            u = u0 + _evaluate(_integrated(w_terms), r)
            w, dv, fI1, fI2 = rhs(r, u, v, I1, I2)
            # At the origin, where every power of r vanishes, w and dv are 0/0.
            w, dv = (np.where(r > 0.0, value, 0.0) for value in (w, dv))
            W = w ** (spec.p - 1.0 - spec.alpha)
            Z = dv ** (spec.p - 1.0)
        return u, v, w, dv, I1, I2, fI1, fI2, W, Z

    # numpy's elementwise results do not depend on the length of the array,
    # so the state at r0 has the bits of the grid's last node.
    at_r0 = profiles(np.array([r0]))
    if not _normal(at_r0)[0]:
        raise SolverError(f"the start profiles are not normal floats at r0={r0!r}")
    state = tuple(float(at_r0[i][0]) for i in (0, 1, 4, 5))  # u, v, I1, I2
    return BootstrapSegment(r0, state, profiles, kernels)


class _MarchSteps(NamedTuple):
    """What the columns of a :class:`RadialSolution` are emitted from: the
    start, with the problem's kernels, and the rows of the march's
    accepted steps, in r and then in s."""

    boot: BootstrapSegment
    radial: list
    pole: list


@dataclass(frozen=True)
class RadialSolution(_Columns):
    """The verdict of a march and, built when first read, its discrete
    trajectory.

    The verdict is read without the trajectory.  ``r_end`` and
    ``v_final`` are r and v at the end of the march's last accepted step (at
    r0 when it took none).  ``R0`` is the blow-up radius, the limit of r(s)
    as s = ln v grows, when ``terminated`` is BlowUp and None otherwise; it
    lies beyond ``r_end``.  ``b_hat`` and ``sigma_hat`` are the rates of
    v ~ (R0 - r)**(-b) and u' ~ (R0 - r)**(-sigma) read off the march's last
    step, set and unset with ``R0``.
    ``pole_switch_r`` is the radius at which the march changed to s, or
    None if it never did.  ``start_radius`` is r0, where the start hands
    over to the steps of :func:`advance`.

    The columns ``r``, ``u``, ``v``, ``w`` (u'), ``dv`` (v'), ``I1`` and
    ``I2`` (the accumulated source integrals) are emitted by
    :func:`_emit_nodes` from ``steps`` when one of them is first read, once:
    for a march, their radii increase strictly from 0 and end at ``r_end``,
    where v is ``v_final``.  :meth:`sample` reads the run between them.

    ``rhs_evals`` counts the evaluations of the right-hand side made so
    far: the march's stages and, once the columns are built, the three
    dense-output stages of every step, evaluated on arrays, and the
    vectorised pass over the emitted nodes.
    ``accepted_steps`` and ``rejected_steps`` count the march's steps, and
    ``dt_min``/``dt_max`` bound the increments in r of its accepted steps
    (None when no step was accepted), whatever nodes those steps emit.
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
    dt_min: float | None
    dt_max: float | None
    pole_switch_r: float | None
    steps: _MarchSteps = field(repr=False, compare=False)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        unset = (self.R0, self.b_hat, self.sigma_hat).count(None)
        if unset != (0 if self.terminated is TerminationReason.BLOW_UP else 3):
            raise ValueError("R0, b_hat and sigma_hat are set exactly for a blow-up run")
        if self.R0 is not None and not self.R0 > self.r_end:
            raise ValueError("a blow-up radius must lie beyond the last node")

    @functools.cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        columns, evals = _emit_nodes(*self.steps)
        object.__setattr__(self, "rhs_evals", self.rhs_evals + evals)
        return columns

    @property
    def bootstrap_nodes(self) -> int:
        """The start's nodes, the origin included: reading it builds its grid."""
        return len(self.steps.boot.r)

    def sample(self, rs) -> dict[str, np.ndarray]:
        """u, v, u' (``du``) and v' at the radii ``rs``, clipped to [0,
        r_end], as the nodes are made: the start's profiles up to r0, and
        beyond it the extension of the step that holds the radius, at the
        fraction (r - x) / h in r and, since r rises along a step in s (dr/ds
        = v/v' > 0), at the fraction bisection finds there.  Each phase's
        three extra stages are evaluated once, for every step that holds a
        radius, and its evaluations of the right-hand side are not counted
        in ``rhs_evals``."""
        boot, radial, pole = self.steps
        kernels = boot.kernels
        rs = np.clip(np.asarray(rs, dtype=float), 0.0, self.r_end)
        out = np.empty((4, len(rs)))
        todo = rs > boot.r0
        # Steps that leave the float range give values that are not finite.
        with np.errstate(all="ignore"):
            out[:, ~todo] = boot.profiles(rs[~todo])[:4]
            # The phase in s first.  A step's row holds its first radius at
            # ``at``: r in s, x itself in r.
            for rows, f, at in ((pole, kernels.pole_rhs, 2), (radial, kernels.radial_rhs, 0)):
                mine = todo & (rs > rows[0][at]) if rows else False
                if not np.any(mine):
                    continue
                todo &= ~mine
                r = rs[mine]
                steps = _stacked(rows)
                steps = steps[np.searchsorted(steps[:, at], r, side="right") - 1]
                V = dop853.dense_stages(f, steps)
                in_pole = f is kernels.pole_rhs
                if in_pole:
                    # 53 halvings take the fraction to the float spacing below 1.
                    lo, hi = np.zeros_like(r), np.ones_like(r)
                    for _ in range(53):
                        theta = 0.5 * (lo + hi)
                        below = dop853.dense_nodes(steps, V, theta[:, None])[:, 0, 0] < r
                        lo, hi = np.where(below, theta, lo), np.where(below, hi, theta)
                else:
                    theta = (r - steps[:, 0]) / steps[:, 1]
                y = dop853.dense_nodes(steps, V, theta[:, None])[:, 0].T
                r, u, v, I1, I2 = _radial_state(in_pole, steps, theta[:, None], y)
                out[:, mine] = [u, v, *kernels.radial_rhs(r, u, v, I1, I2)[:2]]
        return dict(zip(("u", "v", "du", "dv"), out))


class _Kernels(NamedTuple):
    """The right-hand side of one problem, compiled: each kernel is the one
    body written into the map of its phase, in r for (u, v, I1, I2) or in
    s = ln v for (r, u, ln I1, ln I2), and takes (x, *y).  On floats, for
    the march: ``radial`` and ``pole`` give a phase's first slope, and
    ``radial_step(x, h, y, k1, tol)`` and ``pole_step`` are the phases'
    Dormand-Prince 8(5,3) steps, with the body written into every stage and
    the absolute components, none in r and ln I1, ln I2 in s, fixed: each
    returns what :func:`dop853.step` returns for ``radial`` or ``pole``, to
    the bit.  On arrays: ``radial_rhs`` and ``pole_rhs``, for the dense
    stages and the nodes.  No kernel reads u."""

    radial: Callable
    pole: Callable
    radial_step: Callable
    pole_step: Callable
    radial_rhs: Callable
    pole_rhs: Callable


# The body: with W = c1 * I1 / r**delta and Z = I2 / r**(n-1), the
# right-hand side is w = W**theta, dv = Z**(1/(p-1)), fI1 = r**delta f1(r)
# g1(v) and fI2 = r**(n-1) f2(r) g2(v) h(w).  An accumulator at or below
# zero is clamped to zero (a negative float to a fractional power is complex
# in Python, nan in numpy); the forms on floats and on arrays differ only in
# that clamp and in the name of exp.  A constant that is exactly 1.0 is left
# out with its operation, which returns its other operand unchanged: x * 1.0
# is x, and so is x ** 1.0, from the C library's pow (within 0.52 ulp of the
# exact power) and numpy's fast path alike.  Where delta is n - 1, rn is rd.
# Other exponents keep their pow: x ** 2.0 and x ** 0.5 may round apart
# from x * x and sqrt(x).
_FLOATS = ("(I1 if I1 > 0.0 else 0.0)", "(I2 if I2 > 0.0 else 0.0)", "exp")
_ARRAYS = ("np.maximum(I1, 0.0)", "np.maximum(I2, 0.0)", "np.exp")
# The phase maps: the body's inputs bound to a stage's arguments, and the
# stage's slopes k<s>_0..3 from its results.  u's argument, y[0] in r and
# y[1] in s, is never read.
_RADIAL_STAGE = """\
        r = {x}
        v = {y[1]}
        I1 = {y[2]}
        I2 = {y[3]}
{body}\
        k{s}_0 = w
        k{s}_1 = dv
        k{s}_2 = fI1
        k{s}_3 = fI2
"""
_POLE_STAGE = """\
        r = {y[0]}
        v = {exp}({x})
        I1 = {exp}({y[2]})
        I2 = {exp}({y[3]})
{body}\
        drds = v / dv
        k{s}_0 = drds
        k{s}_1 = drds * w
        k{s}_2 = drds * fI1 / I1
        k{s}_3 = drds * fI2 / I2
"""
# A kernel that is not a step is stage 1 of its phase map at its arguments.
_STAGE_KERNEL = """\
def {name}(x, y0, y1, y2, y3):
{stage}\
        return k1_0, k1_1, k1_2, k1_3
"""
#: The constants of the body that are left out where they are exactly 1.0.
_UNIT_CONSTANTS = ("c1", "delta", "nm1", "theta", "inv_pm1")
#: Compiled kernel factories by shape: the source expressions of fI1 and
#: fI2, the constants that are 1.0 and whether delta is n - 1.  Problems of
#: one shape share one.
_KERNEL_FACTORIES: dict[tuple, Callable] = {}


def _body(shape: tuple, I1: str, I2: str) -> str:
    """The body of ``shape``, in the form whose clamped accumulators are the
    expressions I1 and I2."""
    fI1, fI2, ones, rn_is_rd = shape

    def power(base, exponent):
        if exponent in ones:
            return base
        return f"{base if base.isidentifier() else f'({base})'} ** {exponent}"

    W = f"{I1} / rd" if "c1" in ones else f"c1 * {I1} / rd"
    lines = (
        ("rd", power("r", "delta")),
        ("rn", "rd" if rn_is_rd else power("r", "nm1")),
        ("w", power(W, "theta")),
        ("dv", power(f"{I2} / rn", "inv_pm1")),
        ("fI1", fI1),
        ("fI2", fI2),
    )
    return "".join(f"        {name} = {value}\n" for name, value in lines)


def _power_sum(name: str, f, t: str, constants: dict) -> str | None:
    """The power sum f at the variable t as an expression over constants
    named <name>_c<i> and <name>_e<i>, which are added to ``constants``; None
    for the constant 1.  The terms are summed in order, c * t**e each, c
    alone for e = 0 and c * t for e = 1, with exact factors 1.0 left out:
    the float operations of :meth:`FuncExpr.__call__`."""
    if f.terms == ((1.0, 0.0),):
        return None
    terms = []
    for i, (coeff, exponent) in enumerate(f.terms):
        factors = []
        if coeff != 1.0 or exponent == 0.0:
            constants[f"{name}_c{i}"] = coeff
            factors.append(f"{name}_c{i}")
        if exponent == 1.0:
            factors.append(t)
        elif exponent != 0.0:
            constants[f"{name}_e{i}"] = exponent
            factors.append(f"{t} ** {name}_e{i}")
        terms.append(" * ".join(factors))
    total = " + ".join(terms)
    return total if total.isidentifier() else f"({total})"


def _kernel_factory(constants: dict, shape: tuple) -> Callable:
    """Compile the kernels of one shape: ``make(**constants)`` binds them to
    a problem's constants, in the order of :class:`_Kernels`.  The body of
    the shape, in a kernel's form and with its constants that are 1.0 left
    out, is written into its phase map as every stage of a step and as
    stage 1 of the other kernels.  The two steps are about 27 KB of source,
    so they are generated and compiled once per shape (about 6 ms)."""
    phases = {
        "radial": (_RADIAL_STAGE, (False, False, False, False)),
        "pole": (_POLE_STAGE, (False, False, True, True)),
    }
    source = f"def make({', '.join(constants)}):\n"
    for name in _Kernels._fields:
        phase, _, kind = name.partition("_")
        template, absolute = phases[phase]
        I1, I2, exp = _ARRAYS if kind == "rhs" else _FLOATS
        stage = functools.partial(template.format, body=_body(shape, I1, I2), exp=exp)
        if kind == "step":
            kernel = dop853._step_source(f"{name}(x, h, y, k1, tol)", stage, absolute)
        else:
            y = ["y0", "y1", "y2", "y3"]
            kernel = _STAGE_KERNEL.format(name=name, stage=stage(s=1, x="x", y=y))
        source += textwrap.indent(kernel, "    ")
    source += f"    return {', '.join(_Kernels._fields)}\n"
    namespace = {"exp": math.exp, "np": np, **dop853._STEP_GLOBALS}
    exec(compile(source, "<radlab rhs kernels>", "exec"), namespace)
    return namespace["make"]


def _kernels(spec: ProblemSpec) -> _Kernels:
    """Compile the right-hand side of ``spec`` into straight-line kernels.

    Its power sums are written out as Python source over named constants,
    with the float operations of the closures they replace in the same
    order, so every result keeps its bits.  The constants c1, delta, n - 1,
    theta and 1/(p-1) that are exactly 1.0 are left out with their product
    or power, which would return the other operand unchanged, and where
    delta is n - 1 one power of r serves both.  The source depends only on
    the shape, that is on the shape of the sums and on which constants are
    exactly 1.0, so it is generated and compiled once for all problems that
    share it; the constants are bound per problem."""
    constants = {
        "c1": spec.delta / (spec.n - 1.0),
        "delta": spec.delta,
        "nm1": float(spec.n - 1),
        "theta": spec.theta,
        "inv_pm1": 1.0 / (spec.p - 1.0),
    }

    def product(*factors):
        return " * ".join(f for f in factors if f is not None)

    sums = {
        name: _power_sum(name, getattr(spec, name), t, constants)
        for name, t in (("f1", "r"), ("g1", "v"), ("f2", "r"), ("g2", "v"), ("h", "w"))
    }
    shape = (
        product("rd", sums["f1"], sums["g1"]),
        product("rn", sums["f2"], sums["g2"], sums["h"]),
        tuple(name for name in _UNIT_CONSTANTS if constants[name] == 1.0),
        constants["delta"] == constants["nm1"],
    )
    make = _KERNEL_FACTORIES.get(shape)
    if make is None:
        make = _KERNEL_FACTORIES[shape] = _kernel_factory(constants, shape)
    return _Kernels(*make(**constants))


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
    """Step outward in r from ``start`` until the target radius, a resolved
    blow-up, or step underflow.

    ``start`` is the closed-form start of :func:`march` or any other
    segment with ``state`` (u, v, I1, I2) at ``r0`` and the ``kernels`` of
    ``spec``, such as an exact solution's; its ``profiles`` are read only
    for the columns and samples below r0.  ``spec`` is taken as valid, with
    alpha < p - 1, as :func:`march` checks; the columns keep the invariants
    :func:`_emit_nodes` states for the closed-form start only when the
    start's own columns keep them.  From r0, with a first trial step of
    0.1 * r0, Dormand-Prince 8(5,3) steps advance the state (u, v, I1, I2)
    in r.  An accepted step that ends with I1, I2 > 0 and dr/ds = v/v'
    below r and below its value at the step's start switches the march to
    the state (r, u, ln I1, ln I2) in s = ln v; both values of v/v' come
    from the step's first and last stages, so the test costs no evaluation.
    A step is accepted when its combined error estimate lies below 0.05 *
    rel_tol times max(|y|, |y_new|) in every component, or below 0.05 *
    rel_tol itself for the two logarithms; the next step size is the current one
    times 0.9 * err**(-1/8), clamped to [0.2, 5].  Each phase takes its
    fused step of :func:`_kernels`, ``radial_step`` and then
    ``pole_step``: straight-line code with the right-hand side written into
    every stage, the float operations of the power sums and, in s, the
    exponentials and dr/ds products, so it returns the bits of
    :func:`dop853.step` on the scalar kernels, which give each phase's
    first slope.  Each accepted step keeps its stages.  The run's columns are
    not built here: on their first read :func:`_emit_nodes` emits each step
    as 14 equal sub-panels whose interior nodes come from the seventh-order
    continuous extension, one product with its node matrix; emission drops
    the nodes that are not finite or do not advance r, and changes nothing
    else.  ``r_end`` and ``v_final`` are taken from the last step with the
    float operations that give its end node.

    The run ends as ReachedTarget once r is within 1e-14 * target_radius
    of the target; in s a step that would overshoot it by more than that is
    shrunk onto it.  It ends as BlowUp on the pole estimate
    R0 = r + b * dr/ds, with b = -1 / (d ln(dr/ds)/ds) = -1 / slope taken
    across the last step of size h.  The estimate's error, like
    (R0 - r)**2, contracts by rho = exp(2 * h * slope) per step, so the run
    stops once |change of R0| * rho / (1 - rho) <= 0.05 * rel_tol * R0,
    with that step's rates b_hat = -1 / slope and sigma_hat = 1 - (the
    log-slope of du/ds over that of dr/ds).  It ends as StepUnderflow, with
    a note, when a rejection shrinks the step's increment in r below
    1e-14 * r; no other place ends a run.  :class:`SolverError` is raised
    when r0 or the state at r0 is not a positive normal float, when the
    right-hand side is not finite where a phase starts, and when 2,000,000
    steps (``_MAX_STEPS``) have been accepted without an end.
    """
    if not _normal((start.r0, *start.state)):
        raise SolverError(
            f"the start is not positive normal floats: r0={start.r0!r}, "
            f"state={start.state!r}"
        )
    kernels = start.kernels

    tol = _ERR_SCALE * options.rel_tol
    target = options.target_radius
    arrival = _MIN_STEP * target
    notes: list[str] = []

    # x is r and y is (u, v, I1, I2) until the pole dominates; from then on
    # x is s = ln v and y is (r, u, ln I1, ln I2).  Each phase has its step
    # and keeps the rows of its accepted steps for the dense output.
    in_pole = False
    radial_steps: list[tuple] = []
    pole_steps: list[tuple] = []
    step, keep = kernels.radial_step, radial_steps.append
    x = start.r0
    y = start.state
    k1 = _first_slope(kernels.radial, x, y, x)
    accepted = rejected = 0
    h = _FIRST_STEP * x
    estimate = R0 = b_hat = sigma_hat = None
    pole_switch_r = None
    terminated = None

    while True:
        r = y[0] if in_pole else x
        if target - r <= arrival:
            terminated = TerminationReason.REACHED_TARGET
            break
        if accepted >= _MAX_STEPS:
            raise SolverError(f"step budget of {_MAX_STEPS} exhausted at r={r!r}")
        # h = min(h, room) and factor = min(5, max(0.2, ...)) as the
        # comparisons that min and max make, which give the same floats.
        room = (target - r) / k1[0] if in_pole else target - r
        if room < h:
            h = room
        y_new, k13, row, err = step(x, h, y, k1, tol)
        factor = 0.9 * err ** -0.125 if err > 0.0 else 5.0
        factor = (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2
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

        keep(row)
        accepted += 1
        if in_pole:
            switch = False
            slope = math.log(k13[0] / k1[0]) / h
            previous, estimate = estimate, (y_new[0] - k13[0] / slope if slope < 0.0 else None)
            if estimate is not None and previous is not None:
                # The estimate's error, like (R0 - r)**2, contracts by rho per
                # step, so what remains after this step is about
                # |estimate - previous| * rho / (1 - rho).
                rho = math.exp(2.0 * h * slope)
                if abs(estimate - previous) * rho / (1.0 - rho) <= tol * estimate:
                    # dr/ds ~ (R0 - r)/b decays in s at the rate 1/b and
                    # du/ds = u' dr/ds ~ (R0 - r)**(1 - sigma) at (1 - sigma)/b.
                    R0 = estimate
                    b_hat = -1.0 / slope
                    sigma_hat = 1.0 - math.log(k13[1] / k1[1]) / h / slope
                    terminated = TerminationReason.BLOW_UP
                    break
        else:
            # dr/ds = v/v' is r/k under power growth r**k and (R0 - r)/b near
            # a pole: the pole dominates once it is below r and falling.
            switch = (
                y_new[2] > 0.0 and y_new[3] > 0.0 and k1[1] > 0.0 and k13[1] > 0.0
                and y_new[1] / k13[1] < min(x + h, y[1] / k1[1])
            )
        x, y, k1 = x + h, y_new, k13
        h *= factor
        if switch:
            # From here march in s = ln v; the next increment in r is kept.
            in_pole = True
            step, keep = kernels.pole_step, pole_steps.append
            pole_switch_r = x
            x, y = math.log(y[1]), (x, y[0], math.log(y[2]), math.log(y[3]))
            k1 = _first_slope(kernels.pole, x, y, pole_switch_r)
            h /= k1[0]

    # The end of the last step, (x, h, y, y_new, ...), as _emit_nodes makes
    # its last node; its exponentials are finite, since its last stage took them.
    rows = pole_steps or radial_steps
    if rows:
        last = _stacked(rows[-1:])
        end = _radial_state(rows is pole_steps, last, 1.0, last[:, 6:10].T)
        r_end, v_final = end[0][0], end[2][0]
    else:
        r_end, v_final = start.r0, start.state[1]
    # The accepted steps' increments in r, read off their rows.
    increments = [(row[0] + row[1]) - row[0] for row in radial_steps]
    increments += [row[6] - row[2] for row in pole_steps]
    # Twelve evaluations per step tried, and the first slope of each phase.
    evals = 12 * (accepted + rejected) + 1 + (pole_switch_r is not None)
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
        rhs_evals=evals,
        accepted_steps=accepted,
        rejected_steps=rejected,
        dt_min=min(increments) if increments else None,
        dt_max=max(increments) if increments else None,
        pole_switch_r=pole_switch_r,
        steps=_MarchSteps(start, radial_steps, pole_steps),
        notes=tuple(notes),
    )


def _radial_state(in_pole: bool, steps: np.ndarray, theta, y) -> tuple:
    """(r, u, v, I1, I2) where a phase's step rows ``steps`` reach the
    state y, four arrays, at the fractions theta of their steps, flattened:
    with x = x0 + h * theta, (x, *y) in r and (y0, y1, e**x, e**y2, e**y3)
    in s = ln v."""
    x = (steps[:, :1] + steps[:, 1:2] * theta).ravel()
    if in_pole:
        return y[0], y[1], np.exp(x), np.exp(y[2]), np.exp(y[3])
    return (x, *y)


def _stacked(rows) -> np.ndarray:
    """The step rows of one phase as an array, a row per step."""
    width = len(rows[0])
    return np.fromiter(chain.from_iterable(rows), float, len(rows) * width).reshape(-1, width)


def _emit_nodes(boot: BootstrapSegment, radial_steps, pole_steps):
    """The trajectory columns and the evaluations of the right-hand side this
    pass makes.

    The columns are the start's, then every accepted step as the 13
    interior nodes of its continuous extension and its end node, each
    phase's mapped to (r, u, v, I1, I2) by :func:`_radial_state`.  The step
    rows of a phase are read into one array, its three extra stages are
    evaluated for all of its steps at once by the compiled array kernels,
    and its interior nodes are one product with the node matrix of
    :func:`dop853.dense_nodes`.  A node that is not finite, or whose radius
    does not exceed every earlier one, is dropped; when every node is kept
    nothing is copied.  Roundoff-level dips of the dense output are clamped
    so every profile stays nondecreasing, and the right-hand side is
    evaluated in one vectorised pass over the march's nodes.  So, from the
    closed-form start of :func:`picard_bootstrap`, r starts at 0, on its
    origin row (u0, v0 > 0 and w = dv = 0), and increases strictly, and u,
    v, w and dv never decrease; another start's columns must hold its own
    part of that, which nothing here re-checks."""
    kernels = boot.kernels
    parts = [(boot.r, boot.u, boot.v, boot.I1, boot.I2)]
    thetas = np.arange(1, _SUBPANELS) / _SUBPANELS
    evals = 0
    for steps, f in ((radial_steps, kernels.radial_rhs), (pole_steps, kernels.pole_rhs)):
        if not steps:
            continue
        steps = _stacked(steps)
        # Extra stages that leave the float range give nodes that are not
        # finite, which are dropped below.
        with np.errstate(all="ignore"):
            sub = dop853.dense_output(f, steps, thetas)
        evals += 3 * len(steps)
        states = np.concatenate([sub, steps[:, None, 6:10]], axis=1).reshape(-1, 4).T
        in_pole = f is kernels.pole_rhs
        parts.append(_radial_state(in_pole, steps, np.append(thetas, 1.0), states))
    r, u, v, I1, I2 = nodes = [np.concatenate(col) for col in zip(*parts)]
    # A finite node is kept when its radius exceeds every earlier finite one.
    finite = np.isfinite(nodes).all(axis=0)
    highest = np.maximum.accumulate(np.where(finite, r, -np.inf))
    keep = finite & np.append(True, r[1:] > highest[:-1])
    if not keep.all():
        r, u, v, I1, I2 = (col[keep] for col in nodes)
    u, v, I1, I2 = (np.maximum.accumulate(col) for col in (u, v, I1, I2))
    m = len(boot.r)
    w, dv, _, _ = kernels.radial_rhs(r[m:], u[m:], v[m:], I1[m:], I2[m:])
    w = np.maximum.accumulate(np.concatenate([boot.w, w]))
    dv = np.maximum.accumulate(np.concatenate([boot.dv, dv]))
    return dict(r=r, u=u, v=v, w=w, dv=dv, I1=I1, I2=I2), evals + len(r) - m


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
    the check passes whenever C is finite and positive, and otherwise
    reports nan constants, an infinite violation and a failure.

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
    gap = spec.p - 1.0 - spec.alpha
    C = np.array([phi(spec, wi**gap) for wi in solution.w[mask]]) / d[mask]
    if not (np.all(np.isfinite(C)) and np.all(C > 0.0)):
        return EnvelopeReport(
            C1=float("nan"),
            C2=float("nan"),
            points_checked=count,
            max_violation=float("inf"),
            passed=False,
        )
    C1 = float(np.min(C)) * (1.0 - 1e-12)
    C2 = float(np.max(C)) * (1.0 + 1e-12)
    return EnvelopeReport(
        C1=C1,
        C2=C2,
        points_checked=count,
        max_violation=0.0,
        passed=bool(0.0 < C1 < C2 and math.isfinite(C2)),
    )
