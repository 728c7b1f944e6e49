"""Checks of a trajectory against the radial system.

Every structural fact the theory guarantees about a positive radial
solution — strict interior monotonicity, two-sided convexity bounds on the
flux derivatives, the gradient estimate, the cumulative-transform sandwich,
and the impossibility of u blowing up alone — is recast here as a check on
a computed (or externally supplied) trajectory.  Each check returns an
:class:`InequalityReport` with the worst relative violation seen, so a
failure pinpoints both the inequality and its margin.

The slacks encode discretization error only: finite differences for the
convexity bounds, and rounding in the sandwich integrals (closed forms for a
single-term h; for other power sums the tables of :mod:`radlab.criteria`,
held in logarithms: Gauss–Legendre panels in ln t, each made once, when
a query first needs it).  A structural violation (wrong sign, wrong ordering) fails
regardless of magnitude.

Beside them sit the residuals of the system's two relations, whose terms
:func:`_relations` writes once for them and the convexity bounds, and the
radial-scaling identity, checked by solving a problem and its rescaling.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .criteria import log_sandwich_quantities
from .expressions import FuncExpr
from .problem import ProblemSpec
from .solver import SolverError, SolverOptions, TerminationReason, march

__all__ = [
    "MONOTONE_SLACK",
    "CONVEXITY_SLACK",
    "UPRIME_SLACK",
    "SANDWICH_SLACK",
    "SANDWICH_GRID",
    "InequalityReport",
    "TrajectoryData",
    "check_monotone",
    "check_convexity_bounds",
    "check_uprime_estimate",
    "check_sandwich",
    "check_no_u_only_blowup",
    "trajectory_reports",
    "fd_derivative",
    "relative_residuals",
    "scale_problem",
    "ScalingReport",
    "check_scaling_identity",
]

MONOTONE_SLACK = 0.0
CONVEXITY_SLACK = 1e-4
UPRIME_SLACK = 1e-6
SANDWICH_SLACK = 1e-9

#: The sample points of the sandwich check in every solve and verify: the
#: ordering depends on (h, p) alone, so one fixed grid serves every run.
SANDWICH_GRID = np.geomspace(1e-2, 1e2, 64)

#: Fraction of the trajectory span the convexity window keeps; the excluded
#: tail is where finite differences of a blow-up trajectory lose accuracy.
_CONVEXITY_WINDOW = 0.9

#: u growing past this level over u(0) counts as "u blown up", and v staying
#: below this multiple of v(0) as "v bounded", when testing that u never
#: diverges alone.
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
        if np.any(self.r[1:] <= self.r[:-1]):  # np.diff would overflow on +-1e308
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


def _relations(spec: ProblemSpec, r, v, du, dv):
    """W = du**(p-1-alpha), Z = dv**(p-1) and their sources c1 f1 g1(v) and
    f2 g2(v) h(du), c1 = delta/(n-1), in the system's two relations
    W' + (delta/r) W = c1 f1 g1(v) and Z' + ((n-1)/r) Z = f2 g2(v) h(du)."""
    c1 = spec.delta / (spec.n - 1.0)
    W = du ** (spec.p - 1.0 - spec.alpha)
    Z = dv ** (spec.p - 1.0)
    return W, Z, c1 * spec.f1(r) * spec.g1(v), spec.f2(r) * spec.g2(v) * spec.h(du)


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
    the panels of the window (0, 0.9 * r_end], however few the trajectory
    has.
    """
    r = solution.r
    spec = solution.spec
    W, Z, src1, src2 = _relations(spec, r, solution.v, solution.w, solution.dv)
    # A panel wider than the float range is inf wide; it fails on its bounds.
    with np.errstate(over="ignore"):
        dr = np.diff(r)

    # Panels [r_i, r_{i+1}] whose closure lies in the window (0, 0.9*r_end];
    # the first panel touches r = 0 but tests the derivative on its interior.
    # A window that holds no panel checks nothing and so passes.
    panels = r[1:] <= _CONVEXITY_WINDOW * r[-1]

    eps = float(np.finfo(float).eps)
    worst = 0.0
    for Y, upper, lower_factor in (
        (W, src1, 1.0 / (1.0 + spec.delta)),
        (Z, src2, 1.0 / spec.n),
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
            float(np.max(low_viol[panels], initial=0.0)),
            float(np.max(up_viol[panels], initial=0.0)),
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
    sample point 0 < s < inf (slack covers rounding in their integrals
    only: closed forms for single-term h, a table in logs otherwise).
    The quantities are compared in logarithms, on the whole sample array at
    once, so none overflows near p = 1; the violation is the relative
    excess 1 - smaller/larger of the worse of the two orderings, and a nan
    fails."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("at least one sample point is required")
    if not np.all((samples > 0.0) & (samples < np.inf)):  # false for nan too
        raise ValueError("sample points must be positive and finite")
    lhs, mid, rhs = log_sandwich_quantities(h, p)(samples)
    excess = np.max(np.maximum(lhs - mid, mid - rhs), initial=0.0)
    violation = float(-np.expm1(-excess))
    return InequalityReport(
        name="sandwich",
        points_checked=2 * int(samples.size),
        max_relative_violation=violation,
        passed=violation <= SANDWICH_SLACK,
    )


def check_no_u_only_blowup(solution) -> InequalityReport:
    """u can never diverge while v stays bounded: a trajectory whose u
    grows by more than 1e8 over u(0) while max v stays below 1e3 * v(0)
    is structurally impossible and fails outright.  u enters the system
    only through u', so the growth u - u(0), not u itself, is measured: a
    large u(0) alone is no blow-up."""
    u_growth = float(np.max(solution.u - solution.u[0]))
    v_max = float(np.max(solution.v))
    v0 = float(solution.v[0])
    bad = u_growth > _U_BLOWUP_LEVEL and v_max < _V_BOUNDED_FACTOR * v0
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


def _fd_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights and sample indices of :func:`fd_derivative` on the grid x:
    the derivative of y is ``einsum("ij,ij->i", weights, y[idx])``.

    Every product and sum runs over 1-D columns of length n, one per node
    k of the windows, in increasing k.  That is the order in which
    ``np.prod`` and ``np.sum`` reduce the (n, m) array of x_i - x_k and
    the (n, m, m) array of x_j - x_k, so each weight keeps the bits of
    those reductions.  The factor 1 such arrays hold at k = j is left out,
    which changes no bits; the one at k = i stays.
    """
    n = len(x)
    if n < 2:
        raise ValueError("at least two samples are required")
    if np.any(x[1:] <= x[:-1]):
        raise ValueError("the grid must be strictly increasing")
    m = min(5, n)
    rows = np.arange(n)
    at = rows - np.clip(rows - m // 2, 0, n - m)  # where x_i sits in its window
    idx = (rows - at)[:, None] + np.arange(m)
    xw = x[idx.T]  # row k: node k of every window
    ahead = x - xw  # x_i - x_k
    ahead[at, rows] = 1.0
    gaps = np.empty_like(xw)  # row j: prod_{k != j} (x_j - x_k)
    for j in range(m):
        others = [xw[j] - xw[k] for k in range(m) if k != j]
        gaps[j] = functools.reduce(operator.mul, others)
    weights = functools.reduce(operator.mul, ahead) / (ahead * gaps)
    ahead[at, rows] = np.inf
    weights[at, rows] = functools.reduce(operator.add, 1.0 / ahead)
    return np.ascontiguousarray(weights.T), idx


def fd_derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative of samples ``y`` on the strictly increasing grid ``x``: at
    x_i, that of the Lagrange interpolant through five nodes (all, on
    shorter grids), centred or shifted one-sided at the ends.  Its weights,
    k and j in the window (Fornberg, Math. Comp. 51, 1988), are w_i =
    sum_{k!=i} 1/(x_i-x_k), w_j = prod_{k!=i,j}(x_i-x_k) / prod_{k!=j}(x_j-x_k)."""
    weights, idx = _fd_weights(np.asarray(x, dtype=float))
    return np.einsum("ij,ij->i", weights, np.asarray(y, dtype=float)[idx])


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

    in W = du**(p-1-a) and Z = dv**(p-1), formed with their sources by
    :func:`_relations` as for the convexity bounds, each normalized by the
    sum of its term magnitudes.  W' and Z' come from the weights of
    :func:`fd_derivative`, built once for both, on the sampled values, not
    from the integrator, so this is an independent check.  At r = 0 the
    removable limits W/r -> W'(0) and Z/r -> Z'(0) turn the left sides into
    (1+d) W'(0) and n Z'(0).
    """
    r, v, du, dv = (np.asarray(a, dtype=float) for a in (r, v, du, dv))
    n, delta = spec.n, spec.delta
    W, Z, src1, src2 = _relations(spec, r, v, du, dv)
    weights, idx = _fd_weights(r)
    dW, dZ = (np.einsum("ij,ij->i", weights, y[idx]) for y in (W, Z))
    if r[0] == 0.0:
        dW[0] *= 1.0 + delta
        dZ[0] *= n
    inner = r > 0.0
    sing1 = np.divide(delta * W, r, out=np.zeros_like(r), where=inner)
    sing2 = np.divide((n - 1.0) * Z, r, out=np.zeros_like(r), where=inner)

    def defect(d, sing, src):
        # Derivatives that overflow at the last nodes of a run give inf/inf,
        # a nan residual, which the trajectory CSV writes as nan.
        total = np.abs(d) + np.abs(sing) + np.abs(src) + 1e-300
        with np.errstate(invalid="ignore"):
            return np.abs(d + sing - src) / total

    return defect(dW, sing1, src1), defect(dZ, sing2, src2)


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

    sup_diff_u: float
    sup_diff_v: float
    bound: float
    passed: bool


def check_scaling_identity(
    spec: ProblemSpec,
    lam: float,
    u0: float,
    v0: float,
    *,
    radius: float = 1.0,
    rel_tol: float = SolverOptions.rel_tol,
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
        sup_diff_u=diff_u,
        sup_diff_v=diff_v,
        bound=bound,
        passed=max(diff_u, diff_v) <= bound,
    )
