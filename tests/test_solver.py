"""The radial integrator: closed-form start, marching, diagnostics."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radlab import dop853, solver
from radlab.classify import (
    BoundaryClass,
    Domain,
    numeric_classify,
    predict,
    reconcile,
)
from radlab.config import load_config
from radlab.expressions import FuncExpr, parse_expr
from radlab.problem import InvalidProblem, ProblemSpec
from radlab.solver import (
    SolverError,
    SolverOptions,
    TerminationReason,
    blowup_envelope_check,
    check_scaling_identity,
    fd_derivative,
    march,
    picard_bootstrap,
    relative_residuals,
)

from radlab.verify import (
    check_convexity_bounds,
    check_monotone,
    check_sandwich,
    trajectory_reports,
)

from conftest import CASE_BY_NAME, power_spec


def test_bootstrap_matches_series_expansion():
    # For p = 2, linear coupling, n = 3, u0 = v0 = 1 the local expansion is
    # u = 1 + r^2/6 + r^5/1080 + ..., v = 1 + r^3/36 + ...  The start ends
    # where v - 1 = r^3/36 reaches 0.01 * rel_tol, and must reproduce both
    # expansions on its whole segment to roundoff.
    case = CASE_BY_NAME["A"]
    boot = picard_bootstrap(case.spec(), 1.0, 1.0, case.options())
    assert boot.sweeps == 1
    assert boot.r0 == pytest.approx((36.0 * 0.01 * 1e-8) ** (1.0 / 3.0), rel=1e-12)
    r = boot.r
    u_series = 1.0 + r**2 / 6.0 + r**5 / 1080.0
    v_series = 1.0 + r**3 / 36.0
    assert np.max(np.abs(boot.u - u_series)) < 1e-15
    assert np.max(np.abs(boot.v - v_series)) < 1e-15
    assert np.allclose(boot.w, r / 3.0, rtol=1e-13, atol=0.0)
    assert np.allclose(boot.dv, r**2 / 12.0, rtol=1e-13, atol=0.0)


def test_bootstrap_profiles_start_flat():
    case = CASE_BY_NAME["B"]
    boot = picard_bootstrap(case.spec(), 1.0, 1.0, case.options())
    assert boot.w[0] == 0.0
    assert boot.dv[0] == 0.0
    assert boot.u[0] == 1.0 and boot.v[0] == 1.0
    # no flat spots after the origin: the sources are strictly positive
    assert np.all(boot.w[1:] > 0.0)
    assert np.all(boot.dv[1:] > 0.0)


@pytest.mark.parametrize(
    "p, alpha, f1, h, min_r0",
    [
        # integer powers: the series end, and the growth of v alone sets r0
        (2.0, 0.0, "1 + t", "t^6", 0.1),
        (1.7, 0.3, "1 + 2*t^1.5", "t^2.5 + t^9", 0.0),
        (2.5, 1.2, "1 + t^0.3", "t^2 + t^5", 0.0),
    ],
)
def test_multi_term_start_is_a_solution(p, alpha, f1, h, min_r0):
    # Multi-term powers enter the start as cut binomial series.  Its profiles
    # must satisfy both differential relations and agree at r0 with a tight
    # run, which marches through r0.
    spec = ProblemSpec(
        p=p, alpha=alpha, n=3, f1=parse_expr(f1), f2=parse_expr("1 + t"),
        g1=parse_expr("t"), g2=parse_expr("1"), h=parse_expr(h),
    )
    boot = picard_bootstrap(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert boot.r0 > min_r0
    res1, res2 = relative_residuals(spec, boot.r, boot.v, boot.w, boot.dv)
    assert max(np.max(res1[5:]), np.max(res2[5:])) < 1e-6
    tight = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-11))
    assert tight.start_radius < boot.r0
    at = tight.sample([boot.r0])
    for key, column in (("u", boot.u), ("v", boot.v), ("du", boot.w), ("dv", boot.dv)):
        assert column[-1] == pytest.approx(at[key][0], rel=1e-7), key


def test_march_reaches_target_on_bounded_case(solved_cases):
    run = solved_cases["A"]
    assert run.terminated is TerminationReason.REACHED_TARGET
    assert run.r_end == pytest.approx(50.0)
    assert run.R0 is None


def test_march_detects_blowup(solved_cases):
    run = solved_cases["B"]
    assert run.terminated is TerminationReason.BLOW_UP
    assert run.R0 == pytest.approx(4.440015366348077, rel=1e-9)
    assert run.pole_switch_r is not None
    assert run.r_end < run.R0 < 1.02 * run.r_end


def test_march_rhs_budget_on_problem_c(solved_cases):
    # Dormand-Prince 8(5,3) with dense output needs ~2.6k evaluations here,
    # Dormand-Prince 5(4) needed 3,194, and the step-doubled Heun march
    # before it 56k.
    run = solved_cases["C"]
    assert run.options.rel_tol == 1e-8
    assert run.rhs_evals < 15_000


def test_sweep_ladder_step_count():
    # A machine-independent count of the march's work: the q = 1..8 ladder
    # of configs/sweep_q.cfg takes 724 accepted steps in all (Dormand-Prince
    # 5(4) took 2,534).
    config = load_config(
        pathlib.Path(__file__).resolve().parent.parent / "configs" / "sweep_q.cfg"
    )
    steps = 0
    for value in config.sweep_values:
        run = config.with_value(config.sweep_parameter, value)
        steps += march(run.spec(), run.u0, run.v0, run.solver_options()).accepted_steps
    assert steps < 1000


def test_march_step_diagnostics(solved_cases):
    for run in solved_cases.values():
        assert run.accepted_steps > 0 and run.rejected_steps >= 0
        assert 0.0 < run.dt_min <= run.dt_max < run.options.target_radius
        march_nodes = len(run.r) - run.bootstrap_nodes
        assert march_nodes == solver._SUBPANELS * run.accepted_steps


def test_stalled_sub_panels_end_the_run(monkeypatch, solved_cases):
    # The dense output is built after the march, so the guard that every
    # step's sub-nodes advance r runs there: the first step that fails it
    # ends the run StepUnderflow, and it and every later step are dropped.
    # Stall the eleventh step in s = ln v of problem B.
    dense_output = dop853.dense_output

    def stalled(f, steps, thetas):
        sub = dense_output(f, steps, thetas)
        if f.__name__ == "pole_rhs":
            sub[10, :, 0] = steps[10, 2]
        return sub

    monkeypatch.setattr(dop853, "dense_output", stalled)
    case = CASE_BY_NAME["B"]
    run = march(case.spec(), 1.0, 1.0, case.options())
    full = solved_cases["B"]
    pole_steps = np.count_nonzero(full.r > full.pole_switch_r) // solver._SUBPANELS
    assert run.terminated is TerminationReason.STEP_UNDERFLOW and run.R0 is None
    assert run.notes[-1].endswith(
        f"no longer advances r through its {solver._SUBPANELS} sub-panels"
    )
    assert run.accepted_steps == full.accepted_steps - pole_steps + 10
    assert len(run.r) == run.bootstrap_nodes + solver._SUBPANELS * run.accepted_steps
    assert np.array_equal(run.r, full.r[: len(run.r)])
    assert np.array_equal(run.v, full.v[: len(run.r)])
    assert run.pole_switch_r == full.pole_switch_r


def test_march_profiles_monotone(solved_cases):
    for run in solved_cases.values():
        for series in (run.u, run.v, run.w, run.dv):
            assert np.all(np.diff(series) >= 0.0)
        assert np.all(run.w[1:] > 0.0)
        assert np.all(run.dv[1:] > 0.0)


def test_march_rejects_unbalanced_gradient_exponent():
    spec = power_spec(2.0, 1.0, 1, 0, 1)  # alpha = p - 1
    with pytest.raises(InvalidProblem):
        march(spec, 1.0, 1.0, SolverOptions(target_radius=1.0))


def test_march_tolerance_convergence():
    # Halving the tolerance ladder must converge toward a fixed profile:
    # the loose-run error against a tight reference shrinks with rel_tol.
    spec = CASE_BY_NAME["C"].spec()
    probe = np.linspace(0.5, 2.0, 11)
    reference = march(spec, 1.0, 1.0, SolverOptions(target_radius=2.2, rel_tol=1e-11))
    ref_u = reference.sample(probe)["u"]
    errors = []
    for rel_tol in (1e-4, 1e-6, 1e-8):
        run = march(spec, 1.0, 1.0, SolverOptions(target_radius=2.2, rel_tol=rel_tol))
        errors.append(float(np.max(np.abs(run.sample(probe)["u"] - ref_u))))
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]
    assert errors[2] < 1e-7


def test_sample_reproduces_nodes(solved_cases):
    run = solved_cases["B"]
    idx = np.arange(0, len(run.r), 97)
    out = run.sample(run.r[idx])
    assert np.allclose(out["u"], run.u[idx], rtol=1e-13, atol=0.0)
    assert np.allclose(out["v"], run.v[idx], rtol=1e-13, atol=0.0)
    assert np.allclose(out["du"], run.w[idx], rtol=1e-13, atol=0.0)
    assert np.allclose(out["dv"], run.dv[idx], rtol=1e-13, atol=0.0)


def test_fd_derivative_exact_on_quartics():
    # Five-node weights differentiate degree-4 polynomials exactly, on the
    # centred windows and on the shifted one-sided windows at both ends.
    rng = np.random.default_rng(7)
    grids = {
        "random": np.sort(rng.uniform(1.0, 2.0, 200)),
        "geometric": np.geomspace(1e-3, 10.0, 60),
    }
    for name, x in grids.items():
        for degree in range(1, 5):
            coeffs = rng.normal(size=degree + 1)
            slope = np.polyder(coeffs)
            error = fd_derivative(x, np.polyval(coeffs, x)) - np.polyval(slope, x)
            # relative to the derivative's size without cancellation
            scale = np.polyval(np.abs(slope), np.abs(x))
            assert np.all(np.abs(error) <= 1e-9 * scale), (name, degree)


def test_fd_derivative_rejects_bad_grids():
    with pytest.raises(ValueError):
        fd_derivative(np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(4))
    with pytest.raises(ValueError):
        fd_derivative(np.array([0.0, 2.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        fd_derivative(np.array([1.0]), np.zeros(1))


def test_residuals_small_on_solved_runs(solved_cases):
    for name, run in solved_cases.items():
        res1, res2 = relative_residuals(
            run.spec, run.r, run.v, run.w, run.dv
        )
        window = (run.r >= 0.01) & (run.r <= 0.9 * run.r_end)
        sup = max(
            float(np.max(np.abs(res1[window]))),
            float(np.max(np.abs(res2[window]))),
        )
        assert sup < 1e-6, f"{name}: residual sup {sup:.3e}"


def test_residuals_catch_wrong_trajectory(solved_cases):
    run = solved_cases["B"]
    res1, _ = relative_residuals(run.spec, run.r, run.v, 1.1 * run.w, run.dv)
    window = (run.r >= 0.01) & (run.r <= 0.9 * run.r_end)
    assert np.max(np.abs(res1[window])) > 1e-3


def test_residuals_are_nan_or_in_unit_interval_under_overflow():
    # p - 1 - alpha = 2, so W = du^2 and h(du) = du^6 overflow near du = 1e300;
    # inf/inf then gives nan.  Rounding is monotone, so a finite defect never
    # leaves [0, 1]: the trajectory writer relies on nan being the only
    # non-finite residual.
    spec = power_spec(p=3.0, alpha=0.0, m=1, beta=0, q=6)
    r = np.linspace(0.0, 4.0, 25)
    v, du, dv = 1.0 + r, r.copy(), r**2
    du[10:13] = 1e150, 1e300, 1e308
    dv[11], v[12] = 1e308, 1e300
    du[2], dv[3], v[4], dv[20], du[21] = 5e-324, 0.0, 1e-300, 5e-324, 1e-160
    with np.errstate(all="ignore"):
        res1, res2 = relative_residuals(spec, r, v, du, dv)
    for res in (res1, res2):
        assert np.all(np.isnan(res) | ((res >= 0.0) & (res <= 1.0)))
    assert np.isnan(res1).any() and np.isnan(res2).any()
    assert not (np.isnan(res1).all() or np.isnan(res2).all())


def test_scaling_identity_holds():
    spec = CASE_BY_NAME["A"].spec()
    for lam in (0.5, 2.0):
        report = check_scaling_identity(spec, lam, 1.0, 1.0, radius=1.0)
        assert report.passed
        assert max(report.sup_diff_u, report.sup_diff_v) < 1e-6


def test_scaling_identity_rejects_blowup_window():
    spec = CASE_BY_NAME["B"].spec()  # blows up near 4.44
    with pytest.raises(SolverError):
        check_scaling_identity(spec, 2.0, 1.0, 1.0, radius=6.0)


def test_envelope_constants_ordered(solved_cases):
    for name in ("B", "C"):
        run = solved_cases[name]
        report = blowup_envelope_check(run, run.spec)
        assert report.passed, f"{name}: envelope violation {report.max_violation}"
        assert 0.0 < report.C1 <= report.C2
        assert report.points_checked > 50


def test_envelope_checks_every_final_decade_node_of_a_multi_term_blowup():
    # More than 257 nodes with w > 0 lie in the final decade before R0 here;
    # every one of them is checked, none dropped for cost.
    spec = ProblemSpec(
        p=3.0, alpha=0.0, n=3, f1=parse_expr("1"), f2=parse_expr("1"),
        g1=parse_expr("t^2"), g2=parse_expr("1"), h=parse_expr("1 + t^4"),
    )
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-12))
    assert run.terminated is TerminationReason.BLOW_UP
    d = run.R0 - run.r
    final_decade = int(np.sum((d <= 10.0 * d[-1]) & (run.w > 0.0)))
    assert final_decade > 257
    report = blowup_envelope_check(run, spec)
    assert report.points_checked == final_decade
    assert report.passed


def test_envelope_requires_blowup(solved_cases):
    run = solved_cases["A"]  # reached target, no R0
    with pytest.raises(SolverError):
        blowup_envelope_check(run, run.spec)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(target_radius=0.0)
    with pytest.raises(ValueError):
        SolverOptions(target_radius=1.0, rel_tol=0.0)


def test_pole_phase_resolves_steep_blowup():
    # With g1 = t + t^2 the pole is so steep that r is within 1e-11 of R0
    # when v reaches 1e8, where steps in r approach ulp(r); in s = ln v
    # the march still resolves R0.
    base = power_spec(2.0, 0.0, 1, 0, 6)
    spec = ProblemSpec(
        p=base.p, alpha=base.alpha, n=base.n, f1=base.f1, f2=base.f2,
        g1=parse_expr("t + t^2"), g2=base.g2, h=base.h,
    )
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.BLOW_UP
    assert run.R0 == pytest.approx(2.378450691, rel=1e-8)
    reports = trajectory_reports(run)
    reports.append(check_sandwich(spec.h, spec.p, [0.01, 0.3, 1.0, 7.0, 60.0]))
    for report in reports:
        assert report.passed, (
            f"{report.name} violated at {report.max_relative_violation:.3e}"
        )
    assert blowup_envelope_check(run, spec).passed
    assert numeric_classify(run).label is BoundaryClass.B2


@pytest.mark.parametrize(
    "g1, q", [("t", 6), ("t", 4), ("t + t^2", 6)], ids=["B", "C", "pole-stall"]
)
def test_blowup_radius_matches_tight_run(g1, q):
    # The pole phase stops once its remaining R0 correction is a tenth of
    # rel_tol; the R0 it returns must then hold to rel_tol against a run
    # a hundredfold tighter.
    base = power_spec(2.0, 0.0, 1, 0, q)
    spec = ProblemSpec(
        p=base.p, alpha=base.alpha, n=base.n, f1=base.f1, f2=base.f2,
        g1=parse_expr(g1), g2=base.g2, h=base.h,
    )
    options = SolverOptions(target_radius=20.0)
    run = march(spec, 1.0, 1.0, options)
    tight = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-10))
    assert run.terminated is tight.terminated is TerminationReason.BLOW_UP
    assert abs(run.R0 - tight.R0) <= options.rel_tol * tight.R0


def test_pole_phase_lands_on_target():
    # v/v' falls below r and keeps falling for a while here, so the march
    # enters s = ln v; r(s) is then convex and steps in s overshoot the
    # target radius until they are shrunk onto it.
    spec = power_spec(3.0, 0.0, 1, 0, 2)
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert run.pole_switch_r is not None
    assert run.terminated is TerminationReason.REACHED_TARGET
    assert run.r_end == pytest.approx(20.0, abs=1e-12)
    reference = march(
        spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-10)
    )
    probe = np.linspace(1.0, 20.0, 20)
    assert np.allclose(
        run.sample(probe)["v"], reference.sample(probe)["v"], rtol=1e-8, atol=0.0
    )


def test_power_growth_stays_in_r():
    # v grows like a power of r, so v/v' ~ r/k rises and the march never
    # changes its independent variable.
    spec = power_spec(3.0, 0.0, 1, 0, 1)
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.REACHED_TARGET
    assert run.pole_switch_r is None


@pytest.mark.parametrize(
    "p, alpha, n, m, beta, q",
    [
        (1.55, 0.33, 3, 1.93, 0.06, 6.52),
        (2.61, 1.5, 5, 2.23, 1.21, 2.43),
        (2.35, 1.25, 2, 1.95, 1.35, 4.32),
        (2.08, 0.99, 3, 2.2, 2.12, 6.17),
        (1.7, 0.64, 5, 1.32, 0.39, 6.82),
    ],
)
def test_slow_pole_ends_in_blowup(p, alpha, n, m, beta, q):
    # The blow-up rate b of v ~ (R0 - r)**-b is below 1 here, so v would
    # reach a fixed threshold like 1e8 only within a few ulps of R0; the
    # switch to s = ln v must not wait for it.  Near the origin v' grows
    # like r**k with k from 30 to 160, so the trajectory must hold no node
    # where v' has underflowed, and its first panels no quadrature error.
    spec = power_spec(p, alpha, m, beta, q, n=n)
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.BLOW_UP
    assert np.all(run.dv[run.r > 0.0] > 0.0)
    for report in trajectory_reports(run):
        assert report.passed, (
            f"{report.name} violated at {report.max_relative_violation:.3e}"
        )
    predicted = predict(spec, Domain.BALL)
    numeric = numeric_classify(run)
    assert numeric.label is predicted.label
    assert reconcile(predicted, numeric)["status"] == "agree"


def test_blowup_radius_consistent_under_refinement():
    spec = CASE_BY_NAME["B"].spec()
    coarse = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-6))
    fine = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-9))
    assert coarse.R0 == pytest.approx(fine.R0, rel=1e-4)


@pytest.mark.parametrize(
    "p, alpha, q, u0, v0",
    [(2.0, 0.0, 6, 1e6, 1e-6), (1.5, 0.25, 3, 1.0, 1.0)],
)
def test_picard_stage_does_not_stop_with_flat_v(p, alpha, q, u0, v0):
    # Fed u' = 0, the second map returns v' = 0 everywhere when h(0) = 0;
    # the start must feed it the u' of the first map instead, or v is flat
    # on the whole start segment, which the checks rightly reject.
    spec = power_spec(p, alpha, 1, 0, q)
    run = march(spec, u0, v0, SolverOptions(target_radius=20.0))
    assert np.all(run.dv[1 : run.bootstrap_nodes] > 0.0)
    for report in (check_monotone(run), check_convexity_bounds(run)):
        assert report.passed, (
            f"{report.name} violated at {report.max_relative_violation:.3e}"
        )


# The Dormand-Prince 8(5,3) tableau as the loop below reads it: the named
# coefficients of radlab.dop853, with 0 for every pair a stage does not use.
_STAGES = range(1, 13)
_C = [0.0] + [getattr(dop853, f"_C{i}") for i in range(2, 13)]
_A = [[getattr(dop853, f"_A{i}_{j}", 0.0) for j in range(1, i)] for i in _STAGES]
_B = [getattr(dop853, f"_B{j}", 0.0) for j in _STAGES]
_E5 = [getattr(dop853, f"_E{j}", 0.0) for j in _STAGES]
_BHH = [getattr(dop853, f"_BHH{j}", 0.0) for j in _STAGES]


def reference_dop853_step(f, x, h, y, tol, absolute):
    """One DOP853 step written as loops over the tableau above."""
    k = [f(x, *y)]
    for i in range(1, 12):
        stage = [y[c] + h * sum(a * k[j][c] for j, a in enumerate(_A[i])) for c in range(4)]
        k.append(f(x + _C[i] * h, *stage))
    d = [sum(b * kj[c] for b, kj in zip(_B, k)) for c in range(4)]
    y_new = [y[c] + h * d[c] for c in range(4)]
    scale = [tol * (1.0 if absolute[c] else max(abs(y[c]), abs(y_new[c]))) for c in range(4)]
    e5 = [abs(sum(e * kj[c] for e, kj in zip(_E5, k))) / scale[c] for c in range(4)]
    e3 = [abs(d[c] - sum(b * kj[c] for b, kj in zip(_BHH, k))) / scale[c] for c in range(4)]
    err = max(h * p**2 / math.sqrt(p**2 + 0.01 * q**2) for p, q in zip(e5, e3))
    k13 = f(x + h, *y_new)
    row = [x, h, *y, *y_new] + [kj[c] for kj in (k[0], *k[5:], k13) for c in range(4)]
    return y_new, k13, row, err


def _smooth_rhs(x, a, b, c, d):
    return (b + math.sin(x), -a * c, 0.5 * d + math.cos(a), a * b / (1.0 + c * c))


@pytest.mark.parametrize(
    # the march's two patterns, and one that tells every component apart
    "absolute", [(False,) * 4, (False, False, True, True), (True, False, True, False)]
)
@pytest.mark.parametrize("seed", range(8))
def test_dp_step_matches_loop_reference(seed, absolute):
    # Component sizes spread over six decades, so that which component sets
    # the error estimate, and whether it is scaled, varies with the seed.
    rng = np.random.default_rng(seed)
    x = float(rng.uniform(0.0, 2.0))
    h = float(rng.uniform(0.05, 0.5))
    y = tuple(float(v) for v in rng.uniform(0.5, 2.0, 4) * 10.0 ** rng.uniform(-3, 3, 4))
    tol = 1e-9
    got = dop853.step(_smooth_rhs, x, h, y, _smooth_rhs(x, *y), tol, absolute)
    want = reference_dop853_step(_smooth_rhs, x, h, y, tol, absolute)
    for name, g, w in zip(("y_new", "k13", "row"), got[:3], want[:3]):
        assert np.allclose(g, w, rtol=1e-13, atol=0.0), name
    assert got[3] == pytest.approx(want[3], rel=1e-13)
    assert got[3] > 0.0


def test_dp_step_overflow_gives_no_solution():
    # A stage argument past ~709.8 makes exp raise OverflowError; a product
    # past the float range turns into inf without raising.  k1 is finite in
    # both cases, and a step of size 1 reaches the overflow.
    def raising(x, a, b, c, d):
        return math.exp(a), 1.0, 1.0, 1.0

    def overflowing(x, a, b, c, d):
        return 1.0, a * 1e308, 1.0, 1.0

    for f, y in ((raising, (700.0, 1.0, 1.0, 1.0)), (overflowing, (1.0, 1.0, 1.0, 1.0))):
        k1 = f(0.0, *y)
        assert all(map(math.isfinite, k1))
        result = dop853.step(f, 0.0, 1.0, y, k1, 1e-9, (False,) * 4)
        assert result == (None, None, None, math.inf)


def test_dop853_tableau_is_consistent():
    # The first-order conditions: every stage's row sums to its node, the
    # weights of each solution sum to 1 and those of the fifth-order error
    # to 0, and each dense-output row of the last four terms sums to 0.  Any
    # one of the 155 tabulated coefficients scaled by 1 + 1e-6 breaks one.
    for i, row in enumerate(_A[1:], start=1):
        assert sum(row) == pytest.approx(_C[i], abs=1e-14 * sum(map(abs, row))), i
    for weights, total in ((_B, 1.0), (_BHH, 1.0), (_E5, 0.0)):
        assert sum(weights) == pytest.approx(total, abs=1e-14 * sum(map(abs, weights)))
    for row, c in zip(dop853._DENSE_A, dop853._DENSE_C):
        assert row.sum() == pytest.approx(c, abs=1e-14 * np.abs(row).sum())
    for row in dop853._DENSE_D:
        assert row.sum() == pytest.approx(0.0, abs=1e-14 * np.abs(row).sum())


def _rotation_rhs(x, a, b, c, d):
    # a = cos(ln(1+x)), b = sin(ln(1+x)), c = 1/(1+x), d = exp(b): coupled,
    # nonlinear and explicit in x; works on floats and on arrays.
    return -b * c, a * c, -c * c, d * a / (1.0 + x)


def _rotation_exact(x):
    angle = np.log1p(x)
    return np.stack([np.cos(angle), np.sin(angle), 1.0 / (1.0 + x), np.exp(np.sin(angle))], -1)


def _fixed_step_errors(steps, end=2.0):
    """Fixed-step DOP853 over [0, end]: the error at the end, that of the
    dense output at 13 interior fractions of every step, and the error
    estimate of the first step."""
    h = end / steps
    x, y = 0.0, tuple(_rotation_exact(0.0))
    k1 = _rotation_rhs(x, *y)
    rows, first_err = [], None
    for _ in range(steps):
        y_new, k13, row, err = dop853.step(_rotation_rhs, x, h, y, k1, 1.0, (True,) * 4)
        first_err = err if first_err is None else first_err
        rows.append(row)
        x, y, k1 = x + h, y_new, k13
    thetas = np.arange(1, 14) / 14.0
    rows = np.array(rows)
    sub = dop853.dense_output(_rotation_rhs, rows, thetas)
    xs = rows[:, :1] + rows[:, 1:2] * thetas
    return (
        float(np.max(np.abs(np.array(y) - _rotation_exact(end)))),
        float(np.max(np.abs(sub - _rotation_exact(xs)))),
        first_err,
    )


def test_dop853_convergence_orders():
    # Halving a fixed step cuts the global error by ~2**8, the dense output's
    # by ~2**7 (2**7.4 at these steps) and the error estimate, e5**2 / e3 ~
    # h**12 / h**4, by ~2**8.  Scaling any one of the 155 tabulated
    # coefficients by 1 + 1e-4 moves one of these orders out of its band,
    # except for a21, a31, c2 and c3 of the first stages and the three
    # third-order weights, which the consistency test above catches.
    coarse, fine = _fixed_step_errors(8), _fixed_step_errors(16)
    assert fine[0] < 1e-11
    global_order, dense_order, estimate_order = (
        math.log2(c / f) for c, f in zip(coarse, fine)
    )
    assert 7.5 < global_order < 8.5
    assert 7.0 < dense_order < 8.5
    assert 7.5 < estimate_order < 8.5


def test_dop853_tableau_matches_scipy():
    # An independent transcription of the same tableau, where available.
    dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    A = np.zeros((13, 13))
    for i in range(12):
        A[i, :i] = _A[i]
    A[12, :12] = _B
    assert np.allclose(_C, dop.C[:12], rtol=1e-15, atol=0.0)
    assert np.allclose(A, dop.A[:13, :13], rtol=1e-15, atol=0.0)
    assert np.allclose(_E5, dop.E5[:12], rtol=1e-15, atol=0.0)
    assert np.allclose(np.subtract(_B, _BHH), dop.E3[:12], rtol=1e-15, atol=1e-17)
    columns = [j - 1 for j in dop853._DENSE_STAGES]
    assert np.allclose(dop853._DENSE_C, dop.C[13:], rtol=1e-15, atol=0.0)
    assert np.allclose(dop853._DENSE_A, dop.A[13:][:, columns], rtol=1e-15, atol=0.0)
    assert np.allclose(dop853._DENSE_D, dop.D[:, columns], rtol=1e-15, atol=0.0)


def test_first_slope_of_a_phase_outside_the_float_range_is_a_solver_error():
    # The first evaluation of each phase sits outside the step's overflow
    # guard; where it raises or returns a non-finite slope, the run fails
    # with a SolverError, which the CLI reports as a "solver failed" note.
    def raising(x, a, b, c, d):
        return 1.0, 2.0**x, 1.0, 1.0  # OverflowError once x > 1023

    def overflowing(x, a, b, c, d):
        return 1.0, 1.0, a * 1e308, 1.0  # inf once a > 1.8

    for f in (raising, overflowing):
        y = (1.0,) * 4
        assert solver._first_slope(f, 1.0, y, 1.0) == f(1.0, *y)
        with pytest.raises(SolverError, match="not finite at r=3.0"):
            solver._first_slope(f, 2000.0, (10.0,) * 4, 3.0)


def test_start_runs_past_the_cap_to_normal_profiles():
    # alpha = 0.99 gives theta = 100, so h(u') = u'**4 and with it v' stay
    # below the normal floats until r ~ 18, past the cap of half the target
    # radius.  The start must end at the first radius where every profile is
    # a normal float, not fail, and the march must return a trajectory.
    spec = power_spec(2.0, 0.99, 1, 0, 4)
    options = SolverOptions(target_radius=20.0)
    boot = picard_bootstrap(spec, 1.0, 1.0, options)
    assert 10.0 < boot.r0 < 20.0
    tiny = np.finfo(float).tiny
    for column in (boot.u, boot.v, boot.w, boot.dv, boot.I1, boot.I2, boot.fI1, boot.fI2):
        assert np.all(column[1:] >= tiny) and np.all(np.isfinite(column))
    run = march(spec, 1.0, 1.0, options)
    assert run.start_radius == boot.r0
    assert run.r_end > boot.r0
    # Where the profiles stay subnormal up to the target there is no start.
    with pytest.raises(SolverError, match="not normal floats"):
        picard_bootstrap(spec, 1.0, 1.0, SolverOptions(target_radius=15.0))


def test_rejection_floor_does_not_depend_on_the_target():
    # The pole of this run lies at R0 ~ 1.6e-6, far inside either target, so
    # the target radius must not change a single step: the floor on a
    # rejected step is relative to r, in both phases.
    spec = power_spec(2.03, 0.97, 1.29, 0.64, 1.69, n=5)
    near, far = (
        march(spec, 1.0, 1e6, SolverOptions(target_radius=target))
        for target in (20.0, 1e6)
    )
    for run in (near, far):
        assert run.terminated is TerminationReason.BLOW_UP, run.notes
    assert near.R0 == far.R0
    assert near.rhs_evals == far.rhs_evals


# The closures and FuncExpr formulas that the compiled kernels replace: the
# reference for their bits.
def _scalar(f):
    terms = f.terms

    def call(t):
        total = 0.0
        for coeff, exponent in terms:
            total += coeff * t**exponent if exponent != 0.0 else coeff
        return total

    return call


def _closure_rhs(spec):
    theta, delta = spec.theta, spec.delta
    c1 = delta / (spec.n - 1.0)
    inv_pm1 = 1.0 / (spec.p - 1.0)
    nm1 = float(spec.n - 1)
    f1, g1, f2, g2, h = (_scalar(getattr(spec, k)) for k in ("f1", "g1", "f2", "g2", "h"))

    def radial(r, u, v, I1, I2):
        rd = r**delta
        rn = r**nm1
        w = (c1 * I1 / rd) ** theta if I1 > 0.0 else 0.0
        dv = (I2 / rn) ** inv_pm1 if I2 > 0.0 else 0.0
        return w, dv, rd * f1(r) * g1(v), rn * f2(r) * g2(v) * h(w)

    def pole(s, r, u, L1, L2):
        v, I1, I2 = math.exp(s), math.exp(L1), math.exp(L2)
        w, dv, fI1, fI2 = radial(r, u, v, I1, I2)
        drds = v / dv
        return drds, drds * w, drds * fI1 / I1, drds * fI2 / I2

    return radial, pole


def _funcexpr_arrays(spec, r, v, I1, I2):
    delta = spec.delta
    rd = r**delta
    rn = r ** float(spec.n - 1)
    w = (delta / (spec.n - 1.0) * I1 / rd) ** spec.theta
    dv = (I2 / rn) ** (1.0 / (spec.p - 1.0))
    return w, dv, rd * spec.f1(r) * spec.g1(v), rn * spec.f2(r) * spec.g2(v) * spec.h(w)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# Power sums of 1 to 3 terms whose coefficients are often exactly 1 and whose
# exponents are often exactly 0 or 1, the cases the kernels write out apart.
_power_sums = st.lists(
    st.tuples(
        st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 4.0)),
    ),
    min_size=1, max_size=3, unique_by=lambda term: term[1],
).map(FuncExpr.from_terms)


@settings(derandomize=True, max_examples=120)
@given(
    p=st.floats(1.5, 3.5),
    alpha_share=st.floats(0.0, 0.5),
    n=st.sampled_from([2, 3, 5]),
    sums=st.tuples(*[_power_sums] * 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_kernels_keep_the_bits_of_the_formulas(p, alpha_share, n, sums, seed):
    f1, f2, g1, g2, h = sums
    spec = ProblemSpec(
        p=p, alpha=alpha_share * (p - 1.0), n=n, f1=f1, f2=f2, g1=g1, g2=g2, h=h
    )
    kernels = solver._kernels(spec)
    radial, pole = _closure_rhs(spec)
    rng = np.random.default_rng(seed)
    r, u, v, I1, I2 = rng.uniform([0.5, 0.5, 0.5, 1e-3, 1e-3], [3.0, 3.0, 3.0, 5.0, 5.0], (8, 5)).T
    I1[0] = I2[1] = 0.0  # the zero branches of the scalar kernels
    s, L1, L2 = np.log(v), np.log(I1 + 0.5), np.log(I2 + 0.5)
    for i in range(len(r)):
        state = float(r[i]), float(u[i]), float(v[i]), float(I1[i]), float(I2[i])
        assert _bits(kernels.radial(*state)) == _bits(radial(*state))
        state = float(s[i]), float(r[i]), float(u[i]), float(L1[i]), float(L2[i])
        assert _bits(kernels.pole(*state)) == _bits(pole(*state))
    assert _bits(kernels.nodes(r, v, I1, I2)) == _bits(_funcexpr_arrays(spec, r, v, I1, I2))
    assert _bits(kernels.radial_rhs(r, u, v, I1, I2)) == _bits(
        _funcexpr_arrays(spec, r, v, I1, I2)
    )
    v, I1, I2 = np.exp(s), np.exp(L1), np.exp(L2)
    w, dv, fI1, fI2 = _funcexpr_arrays(spec, r, v, I1, I2)
    drds = v / dv
    assert _bits(kernels.pole_rhs(s, r, u, L1, L2)) == _bits(
        (drds, drds * w, drds * fI1 / I1, drds * fI2 / I2)
    )


def reference_dense_output(f, row, theta):
    """One step's continuous extension at theta, as loops over the named
    dense-output coefficients, in Horner form."""
    x, h, y0, y1 = row[0], row[1], row[2:6], row[6:10]
    K = [row[10 + 4 * j : 14 + 4 * j] for j in range(9)]  # stages 1, 6 to 13
    for c, a in zip(dop853._DENSE_C, dop853._DENSE_A):
        stage = [y0[i] + h * sum(a[j] * K[j][i] for j in range(len(K))) for i in range(4)]
        K.append(f(x + c * h, *stage))
    assert [1, 13] == [dop853._DENSE_STAGES[0], dop853._DENSE_STAGES[8]]
    out = []
    for i in range(4):
        dy = y1[i] - y0[i]
        F = [dy, h * K[0][i] - dy, 2.0 * dy - h * (K[8][i] + K[0][i])]
        F += [h * sum(d[j] * K[j][i] for j in range(12)) for d in dop853._DENSE_D]
        y = 0.0
        for k, Fk in enumerate(reversed(F)):
            y = (y + Fk) * (theta if k % 2 == 0 else 1.0 - theta)
        out.append(y0[i] + y)
    return out


def test_dense_output_node_matrix_matches_horner_reference():
    h = 0.25
    x, y = 0.0, tuple(_rotation_exact(0.0))
    k1 = _rotation_rhs(x, *y)
    rows = []
    for _ in range(8):
        y, k1, row, _ = dop853.step(_rotation_rhs, x, h, y, k1, 1.0, (True,) * 4)
        rows.append(row)
        x += h
    thetas = np.arange(1, 14) / 14.0
    got = dop853.dense_output(_rotation_rhs, np.array(rows), thetas)
    want = [[reference_dense_output(_rotation_rhs, row, t) for t in thetas] for row in rows]
    assert got.shape == (8, 13, 4)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_sweep_rows_share_one_compiled_kernel():
    # Nothing compiles at import; the sweep's rows differ only in the
    # exponent of h, so they share one compiled source, bound to their own
    # constants.
    script = """
import pathlib, sys
from radlab import solver
from radlab.config import load_config
assert not solver._KERNEL_FACTORIES
config = load_config(sys.argv[1])
two, three = (solver._kernels(config.with_value("q", q).spec()) for q in (2.0, 3.0))
assert len(solver._KERNEL_FACTORIES) == 1
for a, b in zip(two, three):
    assert a.__code__ is b.__code__ and a is not b
assert two.radial(1.5, 1.0, 1.0, 1.0, 1.0) != three.radial(1.5, 1.0, 1.0, 1.0, 1.0)
"""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "configs" / "sweep_q.cfg")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
