"""Outward integrator for the radial system.

The trajectory is built in two stages.  A Picard stage iterates the integral
maps

    T1[v](r) = u0 + integral_0^r [ (d/(n-1)) s**-d * integral_0^s t**d f1 g1(v) dt ]**theta ds
    T2[v,w](r) = v0 + integral_0^r [ s**(1-n)  * integral_0^s t**(n-1) f2 g2(v) h(w) dt ]**(1/(p-1)) ds

to a fixed point on a graded grid over a small interval [0, rho], which
resolves the removable singularity at the origin.  From rho the march
advances the state (u, v, I1, I2), where

    I1(r) = integral_0^r t**d     f1(t) g1(v) dt,
    I2(r) = integral_0^r t**(n-1) f2(t) g2(v) h(w) dt,

recovering w = u' = ((d/(n-1)) I1 / r**d)**theta and v' = (I2 /
r**(n-1))**(1/(p-1)) algebraically, so positivity and monotonicity are
structural.  Each step is a Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6, 1980; Hairer, Norsett & Wanner, Solving ODEs I,
II.4-6): seven stages with the last reused as the first of the next step,
the embedded fourth-order solution as local error estimate, and the
step-size factor 0.9 * err**(-1/5) clamped to [0.2, 5].  Every accepted
step also emits interior nodes from the fourth-order continuous extension,
so the trajectory is dense enough for finite-difference residuals, panel
quotients and tail fits at any step size.

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

from .criteria import phi, phi_inverse
from .problem import InvalidProblem, ProblemSpec, ensure_valid
from .quadrature import CumulativeGrid

__all__ = [
    "TerminationReason",
    "SolverError",
    "SolverOptions",
    "BootstrapSegment",
    "RadialSolution",
    "picard_apply",
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

_FP_TOL_FACTOR = 0.02  # fixed-point stop at this fraction of rel_tol
_FP_MIN_SWEEPS = 2  # the first sweep sees u' = 0, so it never decides alone


class TerminationReason(str, Enum):
    REACHED_TARGET = "ReachedTarget"
    BLOW_UP = "BlowUp"
    STEP_UNDERFLOW = "StepUnderflow"


class SolverError(RuntimeError):
    """The integrator could not produce a trajectory."""


@dataclass(frozen=True)
class SolverOptions:
    """Numeric knobs for :func:`march`.

    ``rel_tol`` bounds the local error of each Dormand-Prince step, per
    component, at 0.1 * rel_tol relative to the state (absolute on the
    logarithms of the accumulators near a pole); the Picard stage stops at
    0.02 * rel_tol, and a blow-up radius is resolved to about
    0.1 * rel_tol.  ``blowup_threshold`` is the level of u above which
    :func:`radlab.verify.check_no_u_only_blowup` demands that v grew too;
    the march does not read it.  Defaults follow the target radius: the
    first trial step is 1e-4 * target_radius, a rejected step (in r, or in
    s) may shrink to no less than 1e-14 * target_radius, and the Picard
    stage covers [0, 1e-3 * target_radius].  ``max_steps`` caps the
    accepted steps.
    """

    target_radius: float
    rel_tol: float = 1e-8
    blowup_threshold: float = 1e8
    initial_step: float | None = None
    min_step: float | None = None
    max_steps: int = 2_000_000
    bootstrap_points: int = 1025
    bootstrap_radius: float | None = None

    def __post_init__(self):
        if not self.target_radius > 0.0:
            raise ValueError("target_radius must be positive")
        if not 0.0 < self.rel_tol < 0.1:
            raise ValueError("rel_tol must lie in (0, 0.1)")
        if not self.blowup_threshold > 0.0:
            raise ValueError("blowup_threshold must be positive")
        if self.initial_step is None:
            object.__setattr__(self, "initial_step", 1e-4 * self.target_radius)
        if self.min_step is None:
            object.__setattr__(self, "min_step", 1e-14 * self.target_radius)
        if self.bootstrap_radius is None:
            object.__setattr__(self, "bootstrap_radius", 1e-3 * self.target_radius)
        if not 0.0 < self.min_step < self.initial_step < self.target_radius:
            raise ValueError("steps must satisfy 0 < min_step < initial_step < target_radius")
        if not 0.0 < self.bootstrap_radius < self.target_radius:
            raise ValueError("bootstrap_radius must lie in (0, target_radius)")
        if self.bootstrap_points < 9:
            raise ValueError("bootstrap_points must be at least 9")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


@dataclass(frozen=True)
class BootstrapSegment:
    """Converged Picard trajectory on the graded grid over [0, rho]."""

    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    dv: np.ndarray
    I1: np.ndarray
    I2: np.ndarray
    fI1: np.ndarray
    fI2: np.ndarray
    rho: float
    sweeps: int
    shrinks: int


class _NonContraction(Exception):
    pass


def picard_bootstrap(
    spec: ProblemSpec,
    u0: float,
    v0: float,
    rho: float,
    *,
    rel_tol: float = 1e-8,
    n_points: int = 1025,
    max_sweeps: int = 100,
    max_shrinks: int = 20,
) -> BootstrapSegment:
    """Iterate the integral maps from the constant pair (u0, v0) on [0, rho]
    until the sup-relative change of u, v, u' and v' drops below
    0.02 * rel_tol, after at least two sweeps.

    Non-contraction (no convergence within ``max_sweeps`` sweeps, or a
    diverging iterate) shrinks rho by half and retries, up to ``max_shrinks``
    times.
    """
    if not (u0 > 0.0 and v0 > 0.0):
        raise ValueError("u0 and v0 must be positive")
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    for shrink in range(max_shrinks + 1):
        try:
            return _picard_on_grid(
                spec, u0, v0, rho, rel_tol, n_points, max_sweeps, shrink
            )
        except _NonContraction:
            rho *= 0.5
    raise SolverError(
        "the Picard stage failed to contract even after shrinking the "
        f"start interval {max_shrinks} times (final rho {rho!r})"
    )


def picard_apply(
    spec: ProblemSpec,
    u0: float,
    v0: float,
    grid: CumulativeGrid,
    v: np.ndarray,
    w: np.ndarray,
):
    """One application of the integral maps to the state (v, w = u') on the
    radii ``grid.x``: the first map uses the given v, the second the given v
    and w (so applying it to the constant pair, w = 0, leaves v unchanged
    whenever h(0) = 0).  The grid keeps its panel weights across calls.

    Returns (u_new, v_new, w_new, dv_new, I1, I2, fI1, fI2).
    """
    r = grid.x
    n = spec.n
    theta = spec.theta
    delta = spec.delta
    c1 = delta / (n - 1.0)
    inv_pm1 = 1.0 / (spec.p - 1.0)
    rd = r**delta
    rn = r ** float(n - 1)

    fI1 = rd * spec.f1(r) * spec.g1(v)
    I1 = np.maximum.accumulate(np.maximum(grid.power_graded(fI1), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        W = c1 * I1 / rd
    W[0] = 0.0
    w_new = np.maximum.accumulate(W**theta)
    u_new = np.maximum.accumulate(u0 + grid.quadratic(w_new))

    fI2 = rn * spec.f2(r) * spec.g2(v) * spec.h(w)
    I2 = np.maximum.accumulate(np.maximum(grid.power_graded(fI2), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        Z = I2 / rn
    Z[0] = 0.0
    dv_new = np.maximum.accumulate(Z**inv_pm1)
    v_new = np.maximum.accumulate(v0 + grid.quadratic(dv_new))
    return u_new, v_new, w_new, dv_new, I1, I2, fI1, fI2


def _picard_on_grid(spec, u0, v0, rho, rel_tol, n_points, max_sweeps, shrinks):
    fp_tol = _FP_TOL_FACTOR * rel_tol
    idx = np.arange(n_points, dtype=float)
    r = rho * (idx / (n_points - 1)) ** 2
    grid = CumulativeGrid(r)

    v_cap = max(1e12, 1e6 * v0)
    u = np.full(n_points, float(u0))
    v = np.full(n_points, float(v0))
    w = np.zeros(n_points)
    dv = np.zeros(n_points)
    for sweep in range(1, max_sweeps + 1):
        u_new, v_new, w_new, dv_new, I1, I2, fI1, fI2 = picard_apply(
            spec, u0, v0, grid, v, w
        )
        if not (np.isfinite(u_new[-1]) and np.isfinite(v_new[-1])):
            raise _NonContraction
        if v_new[-1] > v_cap:
            raise _NonContraction
        change = max(
            _sup_relative_change(u_new, u),
            _sup_relative_change(v_new, v),
            _sup_relative_change(w_new, w),
            _sup_relative_change(dv_new, dv),
        )
        u, v, w, dv = u_new, v_new, w_new, dv_new
        if sweep >= _FP_MIN_SWEEPS and change < fp_tol:
            return BootstrapSegment(
                r=r, u=u, v=v, w=w, dv=dv, I1=I1, I2=I2, fI1=fI1, fI2=fI2,
                rho=rho, sweeps=sweep, shrinks=shrinks,
            )
    raise _NonContraction


def _sup_relative_change(new: np.ndarray, old: np.ndarray) -> float:
    """sup |new - old| over the larger end value of two nondecreasing
    profiles (0 when both vanish identically)."""
    scale = max(float(new[-1]), float(old[-1]))
    return float(np.max(np.abs(new - old))) / scale if scale > 0.0 else 0.0


@dataclass(frozen=True)
class RadialSolution:
    """Discrete trajectory of the radial system.

    ``w`` is u' and ``dv`` is v'.  ``I1``/``I2`` are the accumulated source
    integrals, with node derivatives ``fI1``/``fI2`` retained so the
    trajectory supports cubic-Hermite resampling.  ``R0`` is the blow-up
    radius, the limit of r(s) as s = ln v grows, when ``terminated`` is
    BlowUp and None otherwise; it lies beyond the last node.
    ``pole_switch_r`` is the radius at which the march changed to s, or
    None if it never did.

    ``rhs_evals`` counts every evaluation of the right-hand side: the
    march's stages and the vectorised pass over its emitted nodes.
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
    sweeps: int
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


# Dormand-Prince 5(4): nodes, stage weights, the fifth-order weights (equal
# to the last stage row, which makes the pair first-same-as-last), the
# error weights b - b*, and Shampine's dense-output weights (Hairer, Norsett
# & Wanner, Solving ODEs I, Table II.5.2 and the code DOPRI5).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)
_D1, _D3, _D4, _D5, _D6, _D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)

#: The local error is held below this fraction of rel_tol: the emitted
#: nodes feed finite-difference checks that amplify interpolation error.
_ERR_SCALE = 0.1
#: Each accepted step is emitted as this many equal sub-panels, the interior
#: nodes taken from the continuous extension.
_SUBPANELS = 4
_SUB_THETAS = tuple(k / _SUBPANELS for k in range(1, _SUBPANELS))


def _dense(theta, h, y0, y1, k1, k7, kd):
    """The fourth-order continuous extension of one step of size h from y0
    to y1 (slopes k1 at the start, k7 at the end, kd = h * sum D_i k_i),
    evaluated at the fraction theta of the step.  Works on floats and on
    broadcasting arrays with the same arithmetic, so both give equal bits."""
    dy = y1 - y0
    b = h * k1 - dy
    c = dy - h * k7 - b
    return y0 + theta * (dy + (1.0 - theta) * (b + theta * (c + (1.0 - theta) * kd)))


def _dp_step(f, x, h, y, k1, tol, absolute):
    """One Dormand-Prince 5(4) step of size h for y' = f(x, *y) from (x, y),
    where k1 = f(x, *y).  Returns the fifth-order solution, its slope k7,
    the dense-output term kd = h * sum D_i k_i, and the error estimate in
    units of tol * max(|y|, |y_new|), or of tol alone for the components
    flagged in ``absolute``; err is inf, with no solution, when a stage
    overflows or leaves the finite range.

    The four state components are written out: this is the march's inner
    loop, and per-component loops cost more than the arithmetic.  Stage j of
    component i is the name s<j><i>."""
    y0, y1, y2, y3 = y
    s10, s11, s12, s13 = k1
    isfinite = math.isfinite
    try:
        s20, s21, s22, s23 = f(
            x + _C2 * h,
            y0 + h * (_A21 * s10),
            y1 + h * (_A21 * s11),
            y2 + h * (_A21 * s12),
            y3 + h * (_A21 * s13),
        )
        s30, s31, s32, s33 = f(
            x + _C3 * h,
            y0 + h * (_A31 * s10 + _A32 * s20),
            y1 + h * (_A31 * s11 + _A32 * s21),
            y2 + h * (_A31 * s12 + _A32 * s22),
            y3 + h * (_A31 * s13 + _A32 * s23),
        )
        s40, s41, s42, s43 = f(
            x + _C4 * h,
            y0 + h * (_A41 * s10 + _A42 * s20 + _A43 * s30),
            y1 + h * (_A41 * s11 + _A42 * s21 + _A43 * s31),
            y2 + h * (_A41 * s12 + _A42 * s22 + _A43 * s32),
            y3 + h * (_A41 * s13 + _A42 * s23 + _A43 * s33),
        )
        s50, s51, s52, s53 = f(
            x + _C5 * h,
            y0 + h * (_A51 * s10 + _A52 * s20 + _A53 * s30 + _A54 * s40),
            y1 + h * (_A51 * s11 + _A52 * s21 + _A53 * s31 + _A54 * s41),
            y2 + h * (_A51 * s12 + _A52 * s22 + _A53 * s32 + _A54 * s42),
            y3 + h * (_A51 * s13 + _A52 * s23 + _A53 * s33 + _A54 * s43),
        )
        s60, s61, s62, s63 = f(
            x + h,
            y0 + h * (_A61 * s10 + _A62 * s20 + _A63 * s30 + _A64 * s40 + _A65 * s50),
            y1 + h * (_A61 * s11 + _A62 * s21 + _A63 * s31 + _A64 * s41 + _A65 * s51),
            y2 + h * (_A61 * s12 + _A62 * s22 + _A63 * s32 + _A64 * s42 + _A65 * s52),
            y3 + h * (_A61 * s13 + _A62 * s23 + _A63 * s33 + _A64 * s43 + _A65 * s53),
        )
        n0 = y0 + h * (_B1 * s10 + _B3 * s30 + _B4 * s40 + _B5 * s50 + _B6 * s60)
        n1 = y1 + h * (_B1 * s11 + _B3 * s31 + _B4 * s41 + _B5 * s51 + _B6 * s61)
        n2 = y2 + h * (_B1 * s12 + _B3 * s32 + _B4 * s42 + _B5 * s52 + _B6 * s62)
        n3 = y3 + h * (_B1 * s13 + _B3 * s33 + _B4 * s43 + _B5 * s53 + _B6 * s63)
        k7 = s70, s71, s72, s73 = f(x + h, n0, n1, n2, n3)
    except (OverflowError, ZeroDivisionError):
        return None, None, None, math.inf
    if not (isfinite(n0) and isfinite(n1) and isfinite(n2) and isfinite(n3)
            and isfinite(s70) and isfinite(s71) and isfinite(s72)
            and isfinite(s73)):
        return None, None, None, math.inf
    a0, a1, a2, a3 = absolute
    err = max(
        abs(h * (_E1 * s10 + _E3 * s30 + _E4 * s40 + _E5 * s50 + _E6 * s60 + _E7 * s70))
        / (tol * (1.0 if a0 else max(abs(y0), abs(n0))) + 1e-300),
        abs(h * (_E1 * s11 + _E3 * s31 + _E4 * s41 + _E5 * s51 + _E6 * s61 + _E7 * s71))
        / (tol * (1.0 if a1 else max(abs(y1), abs(n1))) + 1e-300),
        abs(h * (_E1 * s12 + _E3 * s32 + _E4 * s42 + _E5 * s52 + _E6 * s62 + _E7 * s72))
        / (tol * (1.0 if a2 else max(abs(y2), abs(n2))) + 1e-300),
        abs(h * (_E1 * s13 + _E3 * s33 + _E4 * s43 + _E5 * s53 + _E6 * s63 + _E7 * s73))
        / (tol * (1.0 if a3 else max(abs(y3), abs(n3))) + 1e-300),
    )
    kd = (
        h * (_D1 * s10 + _D3 * s30 + _D4 * s40 + _D5 * s50 + _D6 * s60 + _D7 * s70),
        h * (_D1 * s11 + _D3 * s31 + _D4 * s41 + _D5 * s51 + _D6 * s61 + _D7 * s71),
        h * (_D1 * s12 + _D3 * s32 + _D4 * s42 + _D5 * s52 + _D6 * s62 + _D7 * s72),
        h * (_D1 * s13 + _D3 * s33 + _D4 * s43 + _D5 * s53 + _D6 * s63 + _D7 * s73),
    )
    return (n0, n1, n2, n3), k7, kd, err


def march(
    spec: ProblemSpec, u0: float, v0: float, options: SolverOptions
) -> RadialSolution:
    """Integrate outward from the origin until the target radius, a resolved
    blow-up, or step underflow.

    The Picard stage covers [0, bootstrap_radius]; from there Dormand-Prince
    5(4) steps advance the state (u, v, I1, I2) in r.  An accepted step
    that ends with I1, I2 > 0 and dr/ds = v/v' below r and below its value
    at the step's start switches the march to the state
    (r, u, ln I1, ln I2) in s = ln v; both values of v/v' come from the
    step's first and last stages, so the test costs no evaluation.  A step
    is accepted when its embedded error estimate lies below 0.1 * rel_tol
    times max(|y|, |y_new|) in every component, or below 0.1 * rel_tol
    itself for the two logarithms; the next step size is the current one
    times 0.9 * err**(-1/5), clamped to [0.2, 5].  Each accepted step is
    emitted as four equal sub-panels whose interior nodes come from the
    continuous extension.

    The run ends as ReachedTarget once r is within ``min_step`` of the
    target; in s a step that would overshoot it by more than that is
    shrunk onto it.  It ends as BlowUp on the pole estimate
    R0 = r + b * dr/ds, with b = -1 / (d ln(dr/ds)/ds) = -1 / slope taken
    across the last step of size h.  The estimate's error, like
    (R0 - r)**2, contracts by rho = exp(2 * h * slope) per step, so the run
    stops once |change of R0| * rho / (1 - rho) <= 0.1 * rel_tol * R0.  It
    ends as StepUnderflow, with a note, when a rejection shrinks the step
    below ``min_step`` or when a step or one of its sub-nodes would no
    longer advance r strictly.
    """
    ensure_valid(spec)
    if not spec.gradient_balanced:
        raise InvalidProblem(
            "the gradient exponent must satisfy alpha < p - 1 for radial "
            "solutions to exist"
        )
    boot = picard_bootstrap(
        spec,
        u0,
        v0,
        options.bootstrap_radius,
        rel_tol=options.rel_tol,
        n_points=options.bootstrap_points,
    )

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
    notes: list[str] = []

    # x is r and y is (u, v, I1, I2) until the pole dominates; from then on
    # x is s = ln v and y is (r, u, ln I1, ln I2).
    f = rhs
    absolute = (False, False, False, False)
    x = float(boot.r[-1])
    y = (float(boot.u[-1]), float(boot.v[-1]), float(boot.I1[-1]), float(boot.I2[-1]))
    k1 = f(x, *y)
    evals = 1
    rejected = 0
    h = min(options.initial_step, target - x)
    # Per accepted step: start, size, and the data of its dense output.
    radial_steps: list[tuple] = []
    pole_steps: list[tuple] = []
    R0 = None
    pole_switch_r = None
    terminated = None
    th1, th2, th3 = _SUB_THETAS

    while True:
        in_pole = f is pole_rhs
        r = y[0] if in_pole else x
        if target - r <= options.min_step:
            terminated = TerminationReason.REACHED_TARGET
            break
        if len(radial_steps) + len(pole_steps) >= options.max_steps:
            raise SolverError(
                f"step budget of {options.max_steps} exhausted at r={r!r}"
            )
        h = min(h, (target - r) / k1[0] if in_pole else target - r)
        y_new, k7, kd, err = _dp_step(f, x, h, y, k1, tol, absolute)
        evals += 6
        factor = min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 else 5.0
        if err > 1.0 or (in_pole and y_new[0] - target > options.min_step):
            rejected += 1
            h *= factor if err > 1.0 else (target - r) / (y_new[0] - r)
            if h < options.min_step:
                notes.append(f"step underflow at r={r:.12g} (step {h:.3g} < min_step)")
                terminated = TerminationReason.STEP_UNDERFLOW
                break
            continue

        if in_pole:
            r_end = y_new[0]
            r1, r2, r3 = (_dense(th, h, r, r_end, k1[0], k7[0], kd[0])
                          for th in _SUB_THETAS)
        else:
            r_end = x + h
            r1, r2, r3 = x + h * th1, x + h * th2, x + h * th3
        if not r < r1 < r2 < r3 < r_end:
            notes.append(
                f"step underflow at r={r:.12g}: dt={r_end - r:.3g} no longer "
                f"advances r through its {_SUBPANELS} sub-panels"
            )
            terminated = TerminationReason.STEP_UNDERFLOW
            break

        (pole_steps if in_pole else radial_steps).append(
            (x, h, y, y_new, k1, k7, kd))
        if in_pole:
            slope = math.log(k7[0] / k1[0]) / h
            previous, R0 = R0, (y_new[0] - k7[0] / slope if slope < 0.0 else None)
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
            y_new[2] > 0.0 and y_new[3] > 0.0 and k1[1] > 0.0 and k7[1] > 0.0
            and y_new[1] / k7[1] < min(x + h, y[1] / k1[1])
        )
        x, y, k1 = x + h, y_new, k7
        h *= factor
        if switch:
            # From here march in s = ln v; the next increment in r is kept.
            f = pole_rhs
            absolute = (False, False, True, True)
            pole_switch_r = x
            x, y = math.log(y[1]), (x, y[0], math.log(y[2]), math.log(y[3]))
            k1 = f(x, *y)
            evals += 1
            h /= k1[0]

    columns = _emit_nodes(spec, boot, radial_steps, pole_steps)
    evals += len(columns["r"]) - len(boot.r)
    sizes = [step[1] for step in radial_steps] + [
        step[3][0] - step[2][0] for step in pole_steps
    ]
    return RadialSolution(
        spec=spec,
        options=options,
        **columns,
        terminated=terminated,
        R0=R0 if terminated is TerminationReason.BLOW_UP else None,
        bootstrap_nodes=len(boot.r),
        sweeps=boot.sweeps,
        rhs_evals=evals,
        accepted_steps=len(sizes),
        rejected_steps=rejected,
        dt_min=min(sizes) if sizes else None,
        dt_max=max(sizes) if sizes else None,
        pole_switch_r=pole_switch_r,
        notes=tuple(notes),
    )


def _emit_nodes(
    spec: ProblemSpec, boot: BootstrapSegment, radial_steps, pole_steps
) -> dict:
    """The trajectory columns: the bootstrap segment, then every accepted
    step as its sub-nodes from the continuous extension and its end node,
    the steps in s = ln v mapped back to (r, u, v = e**s, I1 = e**ln I1,
    I2 = e**ln I2).
    Roundoff-level dips of the dense output are clamped so every profile
    stays nondecreasing, and the right-hand side is evaluated in one
    vectorised pass over the march's nodes."""
    parts = [(boot.r, boot.u, boot.v, boot.I1, boot.I2)]
    theta = np.array(_SUB_THETAS)[None, :, None]
    for steps, in_pole in ((radial_steps, False), (pole_steps, True)):
        if not steps:
            continue
        x0, h, y0, y1, k1, k7, kd = (np.array(col) for col in zip(*steps))
        sub = _dense(theta, h[:, None, None], y0[:, None, :], y1[:, None, :],
                     k1[:, None, :], k7[:, None, :], kd[:, None, :])
        states = np.concatenate([sub, y1[:, None, :]], axis=1).reshape(-1, 4).T
        x = np.concatenate(
            [x0[:, None] + h[:, None] * theta[:, :, 0], (x0 + h)[:, None]], axis=1
        ).ravel()
        if in_pole:
            r, u, L1, L2 = states
            parts.append((r, u, np.exp(x), np.exp(L1), np.exp(L2)))
        else:
            parts.append((x, *states))
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
    return columns


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
