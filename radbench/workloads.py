"""The benchmark's workloads and the notes that explain them.

An op is one ``radlab.cli.main`` call; a problem is one (config, parameter
value) pair that gets integrated.  Every path is relative to the root of the
checkout.  The notes below are printed with each run, so a reader of a
result sees why a workload exists and which metric each layer should move.

BENCHMARK.json lists ``reference`` and ``atlas``.  ``stress`` runs the same
way by hand, but its times are not gated: its single-threaded multi-second
ops sit on one core for a whole run, and over sets of five 30 s runs on a
shared 2-core Intel Xeon VM its problems_per_s spread by 23-31% between
quartiles, above the largest bound the run-to-run gate allows (``atlas``,
whose sweep thread pool spreads over both cores, spread 3-12%).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    """One CLI call: ``solve`` and ``sweep`` write into the op's own output
    directory, ``verify`` reads the trajectory written by the solve op named
    in ``reads``."""

    name: str
    kind: str
    config: str
    problems: int
    reads: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    #: Failure reasons each op shows at the seed commit (ROADMAP item 3).
    #: They are counted as failures like any other; an op failing for a
    #: reason not listed here makes the whole run incorrect.
    known_defects: dict[str, frozenset[str]] = field(default_factory=dict)

    @property
    def problems(self) -> int:
        return sum(op.problems for op in self.ops)


def _solve(name: str, config: str) -> Op:
    return Op(name, "solve", config, 1)


def _reference_ops() -> tuple[Op, ...]:
    ops = []
    for key in "abc":
        config = f"configs/problem_{key}.cfg"
        ops.append(_solve(f"solve_{key}", config))
        ops.append(Op(f"verify_{key}", "verify", config, 0, reads=f"solve_{key}"))
    return tuple(ops)


_ATLAS_CONFIGS = (
    ("p2_alpha0", "configs/sweep_q.cfg"),
    ("p1.5_alpha0", "radbench/configs/atlas_p1.5_alpha0.cfg"),
    ("p3_alpha0", "radbench/configs/atlas_p3_alpha0.cfg"),
    ("p3_alpha1", "radbench/configs/atlas_p3_alpha1.cfg"),
    ("p2_alpha0.5", "radbench/configs/atlas_p2_alpha0.5.cfg"),
)

_STRESS = "radbench/configs/stress_"

WORKLOADS: dict[str, Workload] = {
    "reference": Workload(
        name="reference",
        why=(
            "the pinned golden path: solve problems A, B, C and verify each "
            "written trajectory; march is about half the time, CSV output and "
            "residuals about a third"
        ),
        ops=_reference_ops(),
    ),
    "atlas": Workload(
        name="atlas",
        why=(
            "sweep --solve over the q ladder 1..8 at five (p, alpha): "
            "march-bound throughput with no CSV, residuals or checks, through "
            "the sweep's thread pool"
        ),
        ops=tuple(
            Op(f"sweep_{label}", "sweep", config, 8)
            for label, config in _ATLAS_CONFIGS
        ),
    ),
    "stress": Workload(
        name="stress",
        why=(
            "configs off the reference path: a multi-term h whose envelope "
            "check is bound by phi and quadrature, the pole-stall, Picard and "
            "alpha = 0.99 defect repros, and f1 = 1 + t^2 near the pole"
        ),
        ops=(
            _solve("b3_multi", _STRESS + "b3_multi.cfg"),
            _solve("pole_stall", _STRESS + "pole_stall.cfg"),
            _solve("pole_stall_f1", _STRESS + "pole_stall_f1.cfg"),
            _solve("extreme_start", _STRESS + "extreme_start.cfg"),
            _solve("p15_alpha025", _STRESS + "p15_alpha025.cfg"),
            _solve("alpha099", _STRESS + "alpha099.cfg"),
        ),
        known_defects={
            "b3_multi": frozenset({"envelope failed"}),
            "pole_stall": frozenset(
                {"raised ValueError: the grid must increase strictly from 0"}
            ),
            "extreme_start": frozenset({
                "check monotone failed",
                "check convexity_bounds failed",
                "classes disagree (predicted B2, numeric B1)",
                "not the closed-form class B2",
            }),
            "p15_alpha025": frozenset(
                {"check monotone failed", "check convexity_bounds failed"}
            ),
            "alpha099": frozenset({
                "check monotone failed",
                "check convexity_bounds failed",
                "check uprime_estimate failed",
                "classes disagree (predicted B2, numeric B1)",
                "not the closed-form class B2",
            }),
        },
    ),
}


#: Layer -> per-layer metric -> the end-to-end metric and workload it should
#: move.  ``expressions`` has no span: it runs inside the march's RHS, and
#: wrapping it would swamp the measurement.
LAYER_NOTES: tuple[tuple[str, str, str], ...] = (
    ("config", "config.load_s", "setup_s on every workload"),
    ("problem", "problem.validate_s", "negligible everywhere (a guard)"),
    ("criteria", "criteria.predict_s",
     "problems_per_s on stress (tens of ms for multi-term h); ~0 elsewhere"),
    ("criteria", "criteria.phi_s, criteria.phi_calls, criteria.phi_inverse_calls",
     "problems_per_s on stress; no move on reference or atlas"),
    ("quadrature", "quadrature.s, quadrature.calls, quadrature.integrand_evals",
     "problems_per_s on stress; on reference only via the sandwich"),
    ("solver", "solver.picard_s, solver.picard_sweeps, solver.bootstrap_nodes",
     "a few % of the times on every workload"),
    ("solver", "solver.march_s, solver.rhs_evals, solver.nodes, solver.evals_per_node",
     "problems_per_s on atlas (most) and reference (about half), peak_rss_mb"),
    ("solver", "solver.residuals_s", "reference problems_per_s; does not run on atlas"),
    ("solver", "solver.envelope_s, solver.envelope_points",
     "problems_per_s on stress (most); small on reference"),
    ("classify", "classify.numeric_s, classify.reconcile_s",
     "negligible everywhere (a guard)"),
    ("verify", "verify.*_s, verify.points_checked",
     "reference problems_per_s (the verify ops) and stress"),
    ("cli", "cli.solve_self_s, cli.bytes_written", "reference problems_per_s"),
    ("cli", "cli.verify_self_s, cli.bytes_read", "reference problems_per_s"),
    ("cli", "cli.sweep_self_s", "atlas problems_per_s"),
)
