"""The radial integrator: closed-form start, marching, diagnostics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from radlab.classify import (
    BoundaryClass,
    Domain,
    numeric_classify,
    predict,
    reconcile,
)
from radlab.expressions import parse_expr
from radlab.problem import InvalidProblem, ProblemSpec
from radlab.solver import (
    _dp_step,
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
    # Dormand-Prince with dense output needs ~7k evaluations here; the
    # step-doubled Heun march it replaced needed 56k.
    run = solved_cases["C"]
    assert run.options.rel_tol == 1e-8
    assert run.rhs_evals < 15_000


def test_march_step_diagnostics(solved_cases):
    for run in solved_cases.values():
        assert run.accepted_steps > 0 and run.rejected_steps >= 0
        assert 0.0 < run.dt_min <= run.dt_max < run.options.target_radius
        march_nodes = len(run.r) - run.bootstrap_nodes
        assert march_nodes == 4 * run.accepted_steps


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


# Dormand-Prince 5(4) as published (Hairer, Norsett & Wanner, Solving ODEs I,
# Table II.5.2, and the dense output of the code DOPRI5), kept as exact
# fractions so that the error weights b - b* carry no extra rounding.
_DP_C = [Fraction(0), Fraction(1, 5), Fraction(3, 10), Fraction(4, 5), Fraction(8, 9), 1, 1]
_DP_A = [
    [],
    [Fraction(1, 5)],
    [Fraction(3, 40), Fraction(9, 40)],
    [Fraction(44, 45), Fraction(-56, 15), Fraction(32, 9)],
    [Fraction(19372, 6561), Fraction(-25360, 2187), Fraction(64448, 6561),
     Fraction(-212, 729)],
    [Fraction(9017, 3168), Fraction(-355, 33), Fraction(46732, 5247),
     Fraction(49, 176), Fraction(-5103, 18656)],
    [Fraction(35, 384), 0, Fraction(500, 1113), Fraction(125, 192),
     Fraction(-2187, 6784), Fraction(11, 84)],
]
_DP_B = _DP_A[6] + [0]
_DP_BSTAR = [Fraction(5179, 57600), 0, Fraction(7571, 16695), Fraction(393, 640),
             Fraction(-92097, 339200), Fraction(187, 2100), Fraction(1, 40)]
_DP_D = [Fraction(-12715105075, 11282082432), 0, Fraction(87487479700, 32700410799),
         Fraction(-10690763975, 1880347072), Fraction(701980252875, 199316789632),
         Fraction(-1453857185, 822651844), Fraction(69997945, 29380423)]


def reference_dp_step(f, x, h, y, tol, absolute):
    """One DP5 step written as loops over the tableau above."""
    k = [f(x, *y)]
    for i in range(1, 7):
        stage = [
            y[j] + h * sum(float(a) * k[m][j] for m, a in enumerate(_DP_A[i]))
            for j in range(4)
        ]
        k.append(f(x + float(_DP_C[i]) * h, *stage))
    y_new = [
        y[j] + h * sum(float(b) * k[m][j] for m, b in enumerate(_DP_B)) for j in range(4)
    ]
    err = max(
        abs(h * sum(float(b - bs) * k[m][j]
                    for m, (b, bs) in enumerate(zip(_DP_B, _DP_BSTAR))))
        / (tol * (1.0 if absolute[j] else max(abs(y[j]), abs(y_new[j]))))
        for j in range(4)
    )
    kd = [h * sum(float(d) * k[m][j] for m, d in enumerate(_DP_D)) for j in range(4)]
    return y_new, k[6], kd, err


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
    got = _dp_step(_smooth_rhs, x, h, y, _smooth_rhs(x, *y), tol, absolute)
    want = reference_dp_step(_smooth_rhs, x, h, y, tol, absolute)
    for name, g, w in zip(("y_new", "k7", "kd"), got[:3], want[:3]):
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
        result = _dp_step(f, 0.0, 1.0, y, k1, 1e-9, (False,) * 4)
        assert result == (None, None, None, math.inf)
