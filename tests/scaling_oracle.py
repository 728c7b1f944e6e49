"""The radial-scaling identity, an oracle for the march.

If (u, v) solves a problem, then u(lam r), v(lam r) solves the rescaled
problem of :func:`scale_problem`.  :func:`check_scaling_identity` marches a
problem and its rescaling and compares the two runs on a shared grid, so it
tests the start and the march as a whole against an exact symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from radlab.expressions import FuncExpr
from radlab.problem import ProblemSpec
from radlab.solver import SolverError, SolverOptions, TerminationReason, march


def scale_argument(f: FuncExpr, c: float) -> FuncExpr:
    """The map t -> f(c*t) for c > 0."""
    if not c > 0.0:
        raise ValueError("argument scaling needs a positive factor")
    return FuncExpr.from_terms((coeff * c**exponent, exponent) for coeff, exponent in f.terms)


def scale_value(f: FuncExpr, c: float) -> FuncExpr:
    """The map t -> c*f(t) for c > 0."""
    if not c > 0.0:
        raise ValueError("value scaling needs a positive factor")
    return FuncExpr.from_terms((coeff * c, exponent) for coeff, exponent in f.terms)


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
        f1=scale_value(scale_argument(spec.f1, lam), lam ** (spec.p - spec.alpha)),
        f2=scale_value(scale_argument(spec.f2, lam), lam**spec.p),
        g1=spec.g1,
        g2=spec.g2,
        h=scale_argument(spec.h, 1.0 / lam),
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
    scaled = march(tilde, u0, v0, SolverOptions(target_radius=radius / lam, rel_tol=tight))
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
