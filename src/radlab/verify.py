"""Trajectory-level inequality checks.

Every structural fact the theory guarantees about a positive radial
solution — strict interior monotonicity, two-sided convexity bounds on the
flux derivatives, the gradient estimate, the cumulative-transform sandwich,
and the impossibility of u blowing up alone — is recast here as a check on
a computed (or externally supplied) trajectory.  Each check returns an
:class:`InequalityReport` with the worst relative violation seen, so a
failure pinpoints both the inequality and its margin.

The slacks encode discretization error only: finite differences for the
convexity bounds, and rounding in the sandwich integrals (closed forms for a
single-term h, the fixed Gauss–Legendre rule in ln t of
:mod:`radlab.criteria` for other power sums).  A structural violation
(wrong sign, wrong ordering) fails regardless of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import sandwich_quantities
from .expressions import FuncExpr
from .problem import ProblemSpec

__all__ = [
    "MONOTONE_SLACK",
    "CONVEXITY_SLACK",
    "UPRIME_SLACK",
    "SANDWICH_SLACK",
    "InequalityReport",
    "TrajectoryData",
    "check_monotone",
    "check_convexity_bounds",
    "check_uprime_estimate",
    "check_sandwich",
    "check_no_u_only_blowup",
    "trajectory_reports",
]

MONOTONE_SLACK = 0.0
CONVEXITY_SLACK = 1e-4
UPRIME_SLACK = 1e-6
SANDWICH_SLACK = 1e-9

#: Fraction of the trajectory span the convexity window keeps; the excluded
#: tail is where finite differences of a blow-up trajectory lose accuracy.
_CONVEXITY_WINDOW = 0.9

#: u above this level counts as "u blown up", and v staying below this
#: multiple of v(0) as "v bounded", when testing that u never diverges alone.
_U_BLOWUP_LEVEL = 1e8
_V_BOUNDED_FACTOR = 1e3


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one inequality check over a trajectory or sample set.

    ``max_relative_violation`` is the worst signed excess over the
    inequality, normalized by the local scale of its sides and clamped at
    zero; ``passed`` holds exactly when that violation is within the
    check's slack.
    """

    name: str
    points_checked: int
    max_relative_violation: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points_checked": self.points_checked,
            "max_relative_violation": self.max_relative_violation,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class TrajectoryData:
    """A bare trajectory, e.g. loaded from CSV, carrying just enough for
    the inequality checks: the problem and the sampled columns (``w`` is
    u')."""

    spec: ProblemSpec
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        lengths = {
            len(arr) for arr in (self.r, self.u, self.v, self.w, self.dv)
        }
        if len(lengths) != 1:
            raise ValueError("all trajectory columns must share one length")
        if len(self.r) < 2:
            raise ValueError("a trajectory needs at least two points")
        # Every comparison with nan is false, so the checks below and in
        # each inequality would pass a nan; an inf breaks their differences.
        if not all(
            np.isfinite(arr).all() for arr in (self.r, self.u, self.v, self.w, self.dv)
        ):
            raise ValueError("trajectory values must be finite")
        if np.any(np.diff(self.r) <= 0.0):
            raise ValueError("the grid must be strictly increasing")


def _positivity_violation(values: np.ndarray) -> float:
    """Relative violation of strict positivity: 0 when all entries are
    positive, otherwise the worst non-positive entry normalized by the
    array scale (with a floor so exact zeros still register)."""
    scale = float(np.max(np.abs(values)))
    worst = float(np.min(values))
    if worst > 0.0:
        return 0.0
    if scale == 0.0:
        scale = 1.0
    return max(-worst / scale, float(np.finfo(float).eps))


def check_monotone(solution) -> InequalityReport:
    """Strict interior monotonicity: u' > 0 and v' > 0 wherever r > 0.

    Slack is zero — a single non-positive derivative fails the check.
    """
    interior = solution.r > 0.0
    w = solution.w[interior]
    dv = solution.dv[interior]
    violation = max(_positivity_violation(w), _positivity_violation(dv))
    return InequalityReport(
        name="monotone",
        points_checked=2 * int(interior.sum()),
        max_relative_violation=violation,
        passed=violation <= MONOTONE_SLACK,
    )


def check_convexity_bounds(solution) -> InequalityReport:
    """Two-sided bounds on the flux derivatives.

    With W = (u')**(p-1-alpha) and Z = (v')**(p-1), a solution satisfies

        (c1/(1+delta)) f1 g1(v)  <=  W'  <=  c1 f1 g1(v),
        (1/n)  f2 g2(v) h(u')    <=  Z'  <=  f2 g2(v) h(u'),

    where c1 = delta/(n-1); the lower bounds are strictly positive, which
    is exactly convexity of u and v with a quantitative modulus.  Each
    derivative is formed as the central first difference over a grid panel
    and compared against the range of the bound functions over that panel:
    by the mean value theorem the difference quotient equals the true
    derivative somewhere inside the panel, so the comparison carries no
    truncation error — higher-order stencils lose all accuracy on the
    strongly graded startup panels, where the profiles behave like high
    powers of r.  The remaining finite-difference error estimate is the
    roundoff floor of the difference quotient; the 1e-4 slack covers
    bound-function variation sampled only at panel endpoints.  Checked on
    the window (0, 0.9 * r_end].
    """
    r = solution.r
    if len(r) < 10:
        raise ValueError("the convexity check needs at least 10 grid points")
    spec = solution.spec
    n = spec.n
    delta = spec.delta
    c1 = delta / (n - 1.0)

    W = solution.w ** (spec.p - 1.0 - spec.alpha)
    Z = solution.dv ** (spec.p - 1.0)
    dr = np.diff(r)

    # Panels [r_i, r_{i+1}] whose closure lies in the window (0, 0.9*r_end];
    # the first panel touches r = 0 but tests the derivative on its interior.
    panels = r[1:] <= _CONVEXITY_WINDOW * r[-1]
    src1 = c1 * spec.f1(r) * spec.g1(solution.v)
    src2 = spec.f2(r) * spec.g2(solution.v) * spec.h(solution.w)

    eps = float(np.finfo(float).eps)
    worst = 0.0
    for Y, upper, lower_factor in (
        (W, src1, 1.0 / (1.0 + delta)),
        (Z, src2, 1.0 / n),
    ):
        dY = np.diff(Y) / dr
        fd_err = eps * (np.abs(Y[:-1]) + np.abs(Y[1:])) / dr
        hi = np.maximum(upper[:-1], upper[1:])
        lo = lower_factor * np.minimum(upper[:-1], upper[1:])
        scale = np.maximum(hi, np.abs(dY)) + 1e-300
        low_viol = (lo - dY - fd_err) / scale
        up_viol = (dY - hi - fd_err) / scale
        worst = max(
            worst,
            float(np.max(low_viol[panels])),
            float(np.max(up_viol[panels])),
        )
    violation = max(0.0, worst)
    return InequalityReport(
        name="convexity_bounds",
        points_checked=2 * int(panels.sum()),
        max_relative_violation=violation,
        passed=violation <= CONVEXITY_SLACK,
    )


def check_uprime_estimate(solution) -> InequalityReport:
    """The integral estimate  (1/r) (u')**(p-1-alpha) <= (delta/((delta+1)(n-1))) f1 g1(v)
    at every interior grid point.

    This is exact mathematics with no derivative approximation involved,
    so the slack only absorbs accumulated integrator roundoff; near the
    origin the two sides coincide in the limit, which is where the margin
    gets used.
    """
    spec = solution.spec
    delta = spec.delta
    bound_factor = delta / ((delta + 1.0) * (spec.n - 1.0))
    interior = solution.r > 0.0
    r = solution.r[interior]
    W = solution.w[interior] ** (spec.p - 1.0 - spec.alpha)
    lhs = W / r
    rhs = bound_factor * spec.f1(r) * spec.g1(solution.v[interior])
    violation = float(np.max((lhs - rhs) / (np.maximum(lhs, rhs) + 1e-300)))
    violation = max(0.0, violation)
    return InequalityReport(
        name="uprime_estimate",
        points_checked=int(interior.sum()),
        max_relative_violation=violation,
        passed=violation <= UPRIME_SLACK,
    )


def check_sandwich(h: FuncExpr, p: float, samples) -> InequalityReport:
    """Ordering of the three cumulative-transform quantities at every
    sample point s > 0 (slack covers rounding in their integrals only:
    closed forms for single-term h, the fixed rule in ln t otherwise)."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("at least one sample point is required")
    if np.any(samples <= 0.0):
        raise ValueError("sample points must be positive")
    quantities = sandwich_quantities(h, p)
    worst = 0.0
    for s in samples:
        lhs, mid, rhs = quantities(float(s))
        scale = max(abs(lhs), abs(mid), abs(rhs), 1e-300)
        worst = max(worst, (lhs - mid) / scale, (mid - rhs) / scale)
    violation = max(0.0, worst)
    return InequalityReport(
        name="sandwich",
        points_checked=2 * int(samples.size),
        max_relative_violation=violation,
        passed=violation <= SANDWICH_SLACK,
    )


def check_no_u_only_blowup(solution) -> InequalityReport:
    """u can never diverge while v stays bounded: a trajectory with
    max u above 1e8 but max v below 1e3 * v(0) is structurally impossible
    and fails outright."""
    u_max = float(np.max(solution.u))
    v_max = float(np.max(solution.v))
    v0 = float(solution.v[0])
    bad = u_max > _U_BLOWUP_LEVEL and v_max < _V_BOUNDED_FACTOR * v0
    return InequalityReport(
        name="no_u_only_blowup",
        points_checked=len(solution.u),
        max_relative_violation=1.0 if bad else 0.0,
        passed=not bad,
    )


def trajectory_reports(solution) -> list[InequalityReport]:
    """The four trajectory checks in report order (the sandwich check needs
    its own sample set and is composed separately)."""
    return [
        check_monotone(solution),
        check_convexity_bounds(solution),
        check_uprime_estimate(solution),
        check_no_u_only_blowup(solution),
    ]
