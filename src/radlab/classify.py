"""Boundary classification of radial solutions.

Positive radial solutions of the coupled system fall into a small taxonomy
depending on the domain and on how the pair ``(u, v)`` behaves at the
boundary radius.  On a ball three regimes occur: both components stay
bounded up to the boundary (``B1``), ``v`` blows up while ``u`` stays
bounded (``B2``), or both components blow up together (``B3``).  On the
whole space the question is whether a global solution exists at all.

Two independent routes to a label are provided.  :func:`predict` works
purely from the problem data: the convergence criteria of
:mod:`radlab.criteria` decide the regime in general, and for power-law
nonlinearities the same boundaries reduce to explicit inequalities in the
exponents (recorded in the details).  :func:`numeric_classify` inspects an
actual integration from :func:`radlab.solver.march` and labels it from the
observed termination behaviour and blow-up asymptotics.  :func:`reconcile`
compares the two.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .criteria import CriterionKind, Verdict, criterion
from .problem import ProblemSpec
from .solver import RadialSolution, TerminationReason

__all__ = [
    "Basis",
    "BoundaryClass",
    "Classification",
    "Domain",
    "blow_up_rates",
    "numeric_classify",
    "power_exponents",
    "predict",
    "reconcile",
]

#: Minimum fitted tail exponent of ``ln u'`` against ``ln (R0 - r)`` for a
#: blow-up run to be labelled B3 (u unbounded) rather than B2 (u bounded).
#: The theoretical threshold is sigma >= 1; the slope fitted over a finite
#: tail undershoots slightly, so the cut sits below 1 but well above the
#: largest sub-critical sigma on the reference problems (5/7).
_SIGMA_CUT = 0.9


class Domain(str, enum.Enum):
    """Where the boundary-value problem is posed."""

    BALL = "Ball"
    WHOLE_SPACE = "WholeSpace"


class BoundaryClass(str, enum.Enum):
    """Possible labels for a positive radial solution."""

    B1 = "B1"  # ball: u and v both bounded at the boundary
    B2 = "B2"  # ball: v blows up, u stays bounded
    B3 = "B3"  # ball: u and v both blow up
    GLOBAL = "Global"  # whole space: entire solution exists
    NO_SOLUTION = "NoSolution"  # whole space: no global solution
    UNDECIDED = "Undecided"


class Basis(str, enum.Enum):
    """How a classification was reached."""

    THEOREM = "Theorem"
    NUMERIC = "Numeric"


@dataclass(frozen=True)
class Classification:
    """A boundary label together with its provenance.

    Parameters
    ----------
    label:
        The class assigned.
    omega:
        Domain the label refers to.
    basis:
        Whether the label came from a convergence criterion / exponent
        inequality (``Theorem``) or from inspecting a numerical run
        (``Numeric``).
    details:
        Human-readable remarks: which criterion or inequality fired,
        fitted exponents, termination data, and similar diagnostics.
    """

    label: BoundaryClass
    omega: Domain
    basis: Basis
    details: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "class": self.label.value,
            "omega": self.omega.value,
            "basis": self.basis.value,
            "details": list(self.details),
        }


def power_exponents(spec: ProblemSpec) -> tuple[float, float, float] | None:
    """Return ``(m, beta, q)`` when g1, g2 and h are single power laws.

    Only pure powers ``c * t**e`` with constant radial weights qualify; the
    exponent triple is what the closed-form regime inequalities consume.
    Returns None when any piece is a sum, or when the radial weights f1, f2
    are non-constant.
    """

    if any(len(w.terms) != 1 or w.terms[0][1] != 0.0 for w in (spec.f1, spec.f2)):
        return None
    pieces = (spec.g1, spec.g2, spec.h)
    if any(len(piece.terms) != 1 for piece in pieces):
        return None
    m, beta, q = (float(piece.terms[0][1]) for piece in pieces)
    return m, beta, q


def blow_up_rates(spec: ProblemSpec) -> tuple[float, float] | None:
    """Closed-form blow-up exponents ``(b, sigma)`` for power-law data.

    When v blows up at a finite radius R0 it does so like
    ``v ~ (R0 - r)**(-b)`` and the gradient of u like
    ``u' ~ (R0 - r)**(-sigma)``.  Defined only when the nonlinearities are
    pure powers and the coupling is strong enough that a blow-up regime
    exists (``q*m`` above the bounded-solution threshold); returns None
    otherwise.
    """

    powers = power_exponents(spec)
    return None if powers is None else _rates(spec, *powers)


def _rates(spec: ProblemSpec, m: float, beta: float, q: float) -> tuple[float, float] | None:
    """:func:`blow_up_rates` from the exponents ``(m, beta, q)``."""

    gap = spec.p - 1.0 - spec.alpha
    denom = q * m - gap * (spec.p - 1.0 - beta)
    if denom <= 0.0:
        return None
    b = (spec.p * gap + q) / denom
    sigma = (b * m - 1.0) / gap
    return b, sigma


def _power_law_details(spec: ProblemSpec) -> list[str]:
    """Diagnostic notes from the exponent inequalities, when they apply."""

    powers = power_exponents(spec)
    if powers is None:
        return []
    m, beta, q = powers
    bounded_at = (spec.p - 1.0 - spec.alpha) * (spec.p - 1.0 - beta)
    details = [
        f"power-law exponents m = {m:g}, beta = {beta:g}, q = {q:g}: "
        f"q*m = {q * m:g} vs bounded-regime threshold {bounded_at:g}"
    ]
    rates = _rates(spec, m, beta, q)
    if rates is not None:
        details.append(f"blow-up rates b = {rates[0]:g}, sigma = {rates[1]:g}")
    return details


def predict(spec: ProblemSpec, omega: Domain) -> Classification:
    """Classify from the problem data alone.

    On the whole space the unweighted convergence criterion decides: an
    infinite integral permits a global solution, a finite one forbids it.
    On a ball the pair of criteria splits the taxonomy three ways: the
    unweighted integral infinite means both components stay bounded
    (``B1``); the weighted integral finite means v blows up while u stays
    bounded (``B2``); unweighted finite with weighted infinite means both
    blow up (``B3``).  The fourth verdict pair (infinite, finite) cannot
    occur because the weighted integrand dominates the unweighted one on
    [1, inf).  For pure power nonlinearities these boundaries are the
    explicit inequalities ``q*m <= (p-1-alpha)(p-1-beta)`` (B1) and
    ``q*m > m*p + (p-alpha)(p-1-beta)`` (B2, equivalently sigma < 1),
    recorded in the details.

    A gradient exponent with ``alpha >= p - 1`` saturates the growth of
    the p-Laplacian and excludes positive radial solutions outright, on
    either domain.
    """

    details: list[str] = []
    if spec.alpha >= spec.p - 1.0:
        details.append(
            f"alpha = {spec.alpha:g} >= p - 1 = {spec.p - 1.0:g}: "
            "no positive radial solution exists"
        )
        label = BoundaryClass.NO_SOLUTION
    elif omega is Domain.WHOLE_SPACE:
        bounded = _verdict(spec, CriterionKind.UNWEIGHTED, details) is Verdict.INFINITE
        label = BoundaryClass.GLOBAL if bounded else BoundaryClass.NO_SOLUTION
    elif _verdict(spec, CriterionKind.UNWEIGHTED, details) is Verdict.INFINITE:
        label = BoundaryClass.B1
    elif _verdict(spec, CriterionKind.WEIGHTED, details) is Verdict.FINITE:
        label = BoundaryClass.B2
    else:
        label = BoundaryClass.B3
    if label in (BoundaryClass.B1, BoundaryClass.B2, BoundaryClass.B3):
        details.extend(_power_law_details(spec))
    return Classification(label, omega, Basis.THEOREM, tuple(details))


def _verdict(spec: ProblemSpec, kind: CriterionKind, details: list[str]) -> Verdict:
    """Evaluate one convergence criterion and note its verdict in ``details``."""

    result = criterion(spec, kind)
    details.append(
        f"{kind.value.lower()} criterion {result.verdict.value} ({result.method.value})"
    )
    return result.verdict


def _tail_slope(solution: RadialSolution) -> tuple[float, int] | None:
    """Fit d ln(u') / d ln(R0 - r) over the last decade before blow-up.

    Returns the fitted exponent negated -- so ``u' ~ (R0 - r)**(-sigma)``
    yields ``sigma > 0`` -- and the number of nodes used, or None when the
    run left too little resolved tail to fit.
    """

    d = solution.R0 - solution.r
    mask = (d <= 10.0 * d[-1]) & (solution.w > 0.0)
    if int(mask.sum()) < 8:
        # Fall back to the final stretch of nodes regardless of decade.
        tail = min(32, d.size)
        mask = np.zeros(d.shape, dtype=bool)
        mask[-tail:] = solution.w[-tail:] > 0.0
        if int(mask.sum()) < 8:
            return None
    x = np.log(d[mask])
    y = np.log(solution.w[mask])
    slope = float(np.polyfit(x, y, 1)[0])
    return -slope, int(mask.sum())


def numeric_classify(
    solution: RadialSolution, omega: Domain = Domain.BALL
) -> Classification:
    """Label a completed integration by its observed behaviour.

    A run that reached its target radius is ``B1`` on a ball (both
    components finite there) and ``Global`` on the whole space.  A blow-up
    at finite radius on the whole space means no global solution.  On a
    ball, a blow-up run is split by the growth of u: the exponent sigma of
    ``u' ~ (R0 - r)**(-sigma)`` is fitted over the last resolved decade of
    the approach.  sigma < 1 makes u' integrable up to R0, so u stays
    bounded (``B2``); sigma >= 1 makes u itself diverge (``B3``).

    A threshold on u itself cannot make this split.  u enters the system
    only through u', so u(0) shifts u without changing the run, and at the
    sigma = 1 boundary u diverges only logarithmically.  The fitted
    exponent alone decides, so the label does not depend on u(0); the
    numeric cut sits at 0.9 to absorb fit bias from the finite tail.
    """

    details: list[str] = []
    if solution.terminated is TerminationReason.REACHED_TARGET:
        details.append(f"reached r = {solution.r_end:g} with v = {solution.v_final:g}")
        label = BoundaryClass.GLOBAL if omega is Domain.WHOLE_SPACE else BoundaryClass.B1
    elif solution.terminated is TerminationReason.STEP_UNDERFLOW:
        details.append("step size underflowed before any verdict")
        label = BoundaryClass.UNDECIDED
    elif omega is Domain.WHOLE_SPACE:
        details.append(f"v blows up at finite radius R0 = {solution.R0:g}")
        label = BoundaryClass.NO_SOLUTION
    elif (fit := _tail_slope(solution)) is None:
        details.append("blow-up tail too short to fit a growth exponent")
        label = BoundaryClass.UNDECIDED
    else:
        sigma, used = fit
        bounded = sigma < _SIGMA_CUT
        details.append(
            f"fitted u' ~ (R0 - r)^(-sigma) with sigma = {sigma:.4g} "
            f"over {used} tail nodes"
        )
        details.append(
            f"sigma < {_SIGMA_CUT:g}: u remains bounded"
            if bounded
            else f"sigma >= {_SIGMA_CUT:g}: u unbounded alongside v"
        )
        label = BoundaryClass.B2 if bounded else BoundaryClass.B3
    return Classification(label, omega, Basis.NUMERIC, tuple(details))


def reconcile(predicted: Classification, numeric: Classification) -> dict:
    """Compare a data-driven prediction with a numerically observed label.

    Returns a report dict with an ``agree`` flag, a three-way ``status``
    (``"agree"`` / ``"disagree"`` / ``"indeterminate"``), and both
    classifications in full so a mismatch always carries its evidence
    (criterion verdicts on the predicted side, termination data on the
    numeric side).

    The labels agree when they are equal.  A predicted ``Global`` against
    a numeric run on a large ball that reached its target (hence labelled
    ``B1``) also counts as agreement: the ball run is a truncation of the
    global solution, which is the only observable evidence for ``Global``
    at any finite horizon.  ``Undecided`` on either side yields
    ``"indeterminate"`` rather than a hard disagreement, and so does a run
    that reached its target (``B1``) against a predicted blow-up (``B2`` or
    ``B3``): the blow-up radius may lie beyond the target, which the
    numeric details then record.
    """

    if (
        predicted.label is BoundaryClass.UNDECIDED
        or numeric.label is BoundaryClass.UNDECIDED
    ):
        status = "indeterminate"
    elif numeric.label is BoundaryClass.B1 and predicted.label in (
        BoundaryClass.B2, BoundaryClass.B3
    ):
        status = "indeterminate"
        numeric = replace(numeric, details=numeric.details + ("R0 > target",))
    elif predicted.label is numeric.label:
        status = "agree"
    elif {predicted.label, numeric.label} == {
        BoundaryClass.GLOBAL,
        BoundaryClass.B1,
    }:
        status = "agree"
    else:
        status = "disagree"
    return {
        "agree": status == "agree",
        "status": status,
        "predicted": predicted.to_dict(),
        "numeric": numeric.to_dict(),
    }
