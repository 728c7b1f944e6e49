"""Numerical laboratory for positive radial solutions of a quasilinear
elliptic system with gradient-dependent sources.

The package splits into six pieces:

- :mod:`radlab.expressions` — the tiny power-sum expression language used
  for the coefficient and nonlinearity functions;
- :mod:`radlab.criteria` — the two improper-integral convergence criteria
  and the gradient-bound (sandwich) machinery;
- :mod:`radlab.solver` — Picard bootstrap plus adaptive outward marching
  of the radial system, scaling and envelope diagnostics;
- :mod:`radlab.classify` — boundary-class prediction from the criteria and
  labelling of numerical runs, with reconciliation between the two;
- :mod:`radlab.verify` — a posteriori inequality checks on trajectories;
- :mod:`radlab.cli` / :mod:`radlab.config` — the ``radlab`` command and
  its run-file format.
"""

from .classify import (
    Basis,
    BoundaryClass,
    Classification,
    Domain,
    numeric_classify,
    predict,
    reconcile,
)
from .config import ConfigError, RunConfig, load_config
from .criteria import (
    ConvergenceVerdict,
    CriterionKind,
    Method,
    Verdict,
    criterion,
    phi,
    phi_inverse,
    sandwich_check,
)
from .expressions import ExpressionError, FuncExpr, parse_expr
from .problem import InvalidProblem, ProblemSpec, ValidationReport, validate_assumptions
from .solver import (
    RadialSolution,
    SolverError,
    SolverOptions,
    TerminationReason,
    blowup_envelope_check,
    check_scaling_identity,
    march,
    picard_bootstrap,
    relative_residuals,
)
from .verify import InequalityReport, TrajectoryData, trajectory_reports

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "BoundaryClass",
    "Classification",
    "ConfigError",
    "ConvergenceVerdict",
    "CriterionKind",
    "Domain",
    "ExpressionError",
    "FuncExpr",
    "InequalityReport",
    "InvalidProblem",
    "Method",
    "ProblemSpec",
    "RadialSolution",
    "RunConfig",
    "SolverError",
    "SolverOptions",
    "TerminationReason",
    "TrajectoryData",
    "ValidationReport",
    "Verdict",
    "blowup_envelope_check",
    "check_scaling_identity",
    "criterion",
    "load_config",
    "march",
    "numeric_classify",
    "parse_expr",
    "phi",
    "phi_inverse",
    "picard_bootstrap",
    "predict",
    "reconcile",
    "relative_residuals",
    "sandwich_check",
    "trajectory_reports",
    "validate_assumptions",
    "__version__",
]
