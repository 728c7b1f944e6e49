"""Inequality checks: they pass on honest runs and catch doctored ones."""

import numpy as np
import pytest

from radlab.criteria import log_sandwich_quantities
from radlab.expressions import parse_expr
from radlab.verify import (
    CONVEXITY_SLACK,
    MONOTONE_SLACK,
    SANDWICH_GRID,
    SANDWICH_SLACK,
    UPRIME_SLACK,
    _U_BLOWUP_LEVEL,
    TrajectoryData,
    check_convexity_bounds,
    check_monotone,
    check_no_u_only_blowup,
    check_sandwich,
    check_uprime_estimate,
    relative_residuals,
    trajectory_reports,
)

from conftest import REFERENCE_CASES, exact_power_solution


def as_data(run, **overrides) -> TrajectoryData:
    """Copy a solved run into a bare trajectory, optionally doctoring columns."""
    fields = dict(
        spec=run.spec, r=run.r, u=run.u, v=run.v, w=run.w, dv=run.dv,
    )
    fields.update(overrides)
    return TrajectoryData(**fields)


# ------------------------------------------------------------- honest runs


def test_all_checks_pass_on_reference_runs(solved_cases):
    for case in REFERENCE_CASES:
        for report in trajectory_reports(solved_cases[case.name]):
            assert report.passed, (
                f"{case.name}: {report.name} violated at "
                f"{report.max_relative_violation:.3e}"
            )


def test_trajectory_reports_names_and_order(solved_cases):
    reports = trajectory_reports(solved_cases["B"])
    assert [r.name for r in reports] == [
        "monotone",
        "convexity_bounds",
        "uprime_estimate",
        "no_u_only_blowup",
    ]


def test_checks_accept_bare_trajectory_data(solved_cases):
    data = as_data(solved_cases["C"])
    for report in trajectory_reports(data):
        assert report.passed, report.name


def test_sandwich_on_random_samples(solved_cases):
    rng = np.random.default_rng(42)
    samples = 10.0 ** rng.uniform(-2.0, 2.0, 64)
    for case in REFERENCE_CASES[:3]:
        spec = case.spec()
        report = check_sandwich(spec.h, spec.p, samples)
        assert report.passed
        assert report.points_checked == 128


@pytest.mark.parametrize("h, p", [("t^6", 2.0), ("t^2 + t^4", 2.0), ("t^2 + t^4", 3.0)])
def test_sandwich_array_pass_matches_the_pointwise_quantities(h, p):
    # One single-term h (closed forms) and one multi-term h, whose integrals
    # read a table in ln t: for h at p = 3, for H too.  The logs of
    # the quantities differ in rounding only, a relative 1e-14 at most in
    # the quantities.
    h = parse_expr(h)
    quantities = log_sandwich_quantities(h, p)
    whole = np.column_stack(quantities(SANDWICH_GRID))
    pointwise = np.array([quantities(s) for s in SANDWICH_GRID])
    np.testing.assert_allclose(whole, pointwise, rtol=0.0, atol=1e-14)
    report = check_sandwich(h, p, SANDWICH_GRID)
    assert report.passed and report.points_checked == 128


def test_report_to_dict_uses_pass_key(solved_cases):
    report = check_monotone(solved_cases["A"])
    d = report.to_dict()
    assert list(d) == ["name", "points_checked", "max_relative_violation", "pass"]
    assert d["pass"] is True


def test_slack_constants():
    assert MONOTONE_SLACK == 0.0
    assert CONVEXITY_SLACK == 1e-4
    assert UPRIME_SLACK == 1e-6
    assert SANDWICH_SLACK == 1e-9


# --------------------------------------------------------- doctored runs


def test_negative_dv_fails_monotone(solved_cases):
    run = solved_cases["B"]
    dv = run.dv.copy()
    dv[len(dv) // 2] = -abs(dv[len(dv) // 2])
    report = check_monotone(as_data(run, dv=dv))
    assert not report.passed


def test_flat_gradient_fails_monotone(solved_cases):
    run = solved_cases["B"]
    report = check_monotone(as_data(run, w=np.zeros_like(run.w)))
    assert not report.passed


def test_inflated_dv_fails_convexity_upper(solved_cases):
    run = solved_cases["B"]
    report = check_convexity_bounds(as_data(run, dv=5.0 * run.dv))
    assert not report.passed
    assert report.max_relative_violation > 0.1


def test_deflated_dv_fails_convexity_lower(solved_cases):
    run = solved_cases["B"]
    report = check_convexity_bounds(as_data(run, dv=0.1 * run.dv))
    assert not report.passed
    assert report.max_relative_violation > 0.1


def test_inflated_gradient_fails_uprime_estimate(solved_cases):
    run = solved_cases["B"]
    report = check_uprime_estimate(as_data(run, w=3.0 * run.w))
    assert not report.passed
    assert report.max_relative_violation > 0.1


def test_u_blowup_with_flat_v_is_structurally_rejected(solved_cases):
    run = solved_cases["B"]
    u_fake = np.linspace(1.0, 10.0 * _U_BLOWUP_LEVEL, len(run.u))
    v_flat = np.ones_like(run.v)
    data = as_data(run, u=u_fake, v=v_flat, dv=np.zeros_like(run.dv))
    report = check_no_u_only_blowup(data)
    assert not report.passed
    # and the honest pairing is accepted
    assert check_no_u_only_blowup(as_data(run)).passed


# --------------------------------------------------------- data validation


def test_trajectory_data_validates_shapes(solved_cases):
    run = solved_cases["A"]
    with pytest.raises(ValueError):
        as_data(run, u=run.u[:-1])


def test_trajectory_data_requires_increasing_grid(solved_cases):
    run = solved_cases["A"]
    r = run.r.copy()
    r[5] = r[4]
    with pytest.raises(ValueError):
        as_data(run, r=r)


def test_convexity_takes_the_panels_it_is_given(solved_cases):
    # No floor on the number of nodes: a short trajectory is checked on the
    # panels its window (0, 0.9 r_end] holds, and one that holds none passes.
    run = solved_cases["A"]
    for k in (2, 6, 10, 1100):
        short = TrajectoryData(
            spec=run.spec,
            r=run.r[:k], u=run.u[:k], v=run.v[:k], w=run.w[:k], dv=run.dv[:k],
        )
        report = check_convexity_bounds(short)
        assert report.passed
        assert report.points_checked == 2 * int(np.sum(short.r[1:] <= 0.9 * short.r[-1]))


def test_sandwich_rejects_empty_or_nonpositive_samples(solved_cases):
    spec = solved_cases["A"].spec
    with pytest.raises(ValueError):
        check_sandwich(spec.h, spec.p, np.array([]))
    with pytest.raises(ValueError):
        check_sandwich(spec.h, spec.p, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        check_sandwich(spec.h, spec.p, [np.nan])
    with pytest.raises(ValueError):
        check_sandwich(spec.h, spec.p, [1.0, np.inf])


# ---------------------------------------------------------- exact solutions


@pytest.mark.parametrize(
    "p, alpha, n, m, beta, q, closed_form_A",
    [
        (2.0, 0.0, 3, 1.0, 0.0, 0.5, 1.0 / 7200.0),
        (3.0, 0.5, 5, 1.2, 0.3, 1.0, 5.37992e-4),
        (3.57, 1.77, 3, 1.46, 0.54, 0.5, 1.15317e-3),
    ],
)
def test_exact_power_solutions_pass_the_residuals_and_checks(
    p, alpha, n, m, beta, q, closed_form_A
):
    # Below the B1 threshold, with f1 = f2 = 1, v = A r**k and u' = B r**j
    # solve the radial system exactly for r > 0.
    spec, k, j, A, B = exact_power_solution(p, alpha, n, m, beta, q)
    assert A == pytest.approx(closed_form_A, rel=1e-5)
    r = np.geomspace(1.0, 10.0, 2000)

    def trajectory(a):
        return TrajectoryData(
            spec=spec,
            r=r,
            u=1.0 + B * r ** (j + 1.0) / (j + 1.0),
            v=a * r**k,
            w=B * r**j,
            dv=a * k * r ** (k - 1.0),
        )

    exact = trajectory(A)
    for residual in relative_residuals(spec, r, exact.v, exact.w, exact.dv):
        assert np.max(residual) < 1e-9
    for report in trajectory_reports(exact):
        assert report.passed, report.name
    # v one percent off the exact prefactor, with u' kept, breaks both
    # relations at every node.
    off = trajectory(1.01 * A)
    for residual in relative_residuals(spec, r, off.v, off.w, off.dv):
        assert np.min(residual) > 1e-3
