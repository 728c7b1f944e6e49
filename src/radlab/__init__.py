"""Numerical laboratory for positive radial solutions of a quasilinear
elliptic system with gradient-dependent sources.

The package's modules:

- :mod:`radlab.expressions` — the tiny power-sum expression language used
  for the coefficient and nonlinearity functions;
- :mod:`radlab.problem` — the problem data and its structural checks;
- :mod:`radlab.criteria` — the two improper-integral convergence criteria
  and the gradient-bound (sandwich) machinery;
- :mod:`radlab.quadrature` — adaptive Gauss–Kronrod quadrature, the
  reference the tests hold the criteria's integrals to;
- :mod:`radlab.solver` — a closed-form start at the origin plus adaptive
  outward marching of the radial system, and the blow-up envelope fit;
- :mod:`radlab.dop853` — the Dormand–Prince 8(5,3) step generated from its
  tableau, with a hook for how a stage evaluates the right-hand side, and
  its seventh-order dense output;
- :mod:`radlab.classify` — boundary-class prediction from the criteria and
  labelling of numerical runs, with reconciliation between the two;
- :mod:`radlab.verify` — a posteriori checks of trajectories: the
  inequalities and the system's residuals;
- :mod:`radlab.cli` / :mod:`radlab.config` — the ``radlab`` command and
  its run-file format.

The package holds what the ``radlab`` command, ``scripts/run_atlas.py``
and the benchmark run; the names below are that API.  The oracles the
tests hold it to (quadrature aside, which the benchmark traces) live under
``tests/``.
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
    Verdict,
    criterion,
    phi,
    phi_inverse,
)
from .expressions import ExpressionError, FuncExpr, parse_expr
from .problem import InvalidProblem, ProblemSpec, ValidationReport, validate_assumptions
from .solver import (
    RadialSolution,
    SolverError,
    SolverOptions,
    TerminationReason,
    blowup_envelope_check,
    march,
    picard_bootstrap,
)
from .verify import (
    InequalityReport,
    TrajectoryData,
    relative_residuals,
    trajectory_reports,
)

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
    "trajectory_reports",
    "validate_assumptions",
    "__version__",
]
