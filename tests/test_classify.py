"""Boundary-class prediction, numeric labelling, and their reconciliation."""

import pathlib
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radlab.classify import (
    Basis,
    BoundaryClass,
    Classification,
    Domain,
    blow_up_rates,
    numeric_classify,
    power_exponents,
    predict,
    reconcile,
)

from radlab.config import load_config
from radlab.expressions import parse_expr
from radlab.solver import SolverOptions, TerminationReason, march

from conftest import CASE_BY_NAME, REFERENCE_CASES, power_spec

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_predict_matches_reference_table():
    for case in REFERENCE_CASES:
        result = predict(case.spec(), Domain.BALL)
        assert result.label.value == case.expected, (
            f"{case.name}: predicted {result.label.value}, expected {case.expected}"
        )
        assert result.basis is Basis.THEOREM


def test_numeric_matches_reference_table(solved_cases):
    for case in REFERENCE_CASES:
        result = numeric_classify(solved_cases[case.name], Domain.BALL)
        assert result.label.value == case.expected, (
            f"{case.name}: numeric {result.label.value}, expected {case.expected}"
        )
        assert result.basis is Basis.NUMERIC


def test_reconcile_agrees_on_reference_table(solved_cases):
    for case in REFERENCE_CASES:
        predicted = predict(case.spec(), Domain.BALL)
        numeric = numeric_classify(solved_cases[case.name], Domain.BALL)
        report = reconcile(predicted, numeric)
        assert report["agree"] is True
        assert report["status"] == "agree"


def test_whole_space_labels(solved_cases):
    # reaching the target on the whole space reads as a global solution
    run_a = solved_cases["A"]
    assert numeric_classify(run_a, Domain.WHOLE_SPACE).label is BoundaryClass.GLOBAL
    # finite-radius blow-up on the whole space rules one out
    run_b = solved_cases["B"]
    assert (
        numeric_classify(run_b, Domain.WHOLE_SPACE).label
        is BoundaryClass.NO_SOLUTION
    )


def test_global_iff_b1_on_reference_table():
    for case in REFERENCE_CASES:
        spec = case.spec()
        on_ball = predict(spec, Domain.BALL).label
        on_space = predict(spec, Domain.WHOLE_SPACE).label
        assert (on_space is BoundaryClass.GLOBAL) == (on_ball is BoundaryClass.B1)


@given(
    st.sampled_from([1.5, 2.0, 3.0]),
    st.sampled_from([0.0, 0.25, 0.9]),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(1, 8),
)
def test_global_iff_b1_property(p, alpha_frac, m, beta, q):
    alpha = alpha_frac * (p - 1.0)
    if beta > m:
        beta = m
    spec = power_spec(p, alpha, m, beta, q)
    on_ball = predict(spec, Domain.BALL).label
    on_space = predict(spec, Domain.WHOLE_SPACE).label
    assert (on_space is BoundaryClass.GLOBAL) == (on_ball is BoundaryClass.B1)


@given(
    st.sampled_from([1.5, 2.0, 3.0]),
    st.sampled_from([0.0, 0.25, 0.5]),
    st.integers(1, 2),
    st.integers(0, 2),
    st.integers(1, 8),
)
def test_bounded_class_exponent_inequality(p, alpha_frac, m, beta, q):
    alpha = alpha_frac * (p - 1.0)
    if beta > m:
        beta = m
    spec = power_spec(p, alpha, m, beta, q)
    label = predict(spec, Domain.BALL).label
    bounded = q * m <= (p - 1.0 - alpha) * (p - 1.0 - beta)
    assert (label is BoundaryClass.B1) == bounded


def test_unbalanced_gradient_exponent_is_no_solution():
    spec = power_spec(2.0, 1.0, 1, 0, 1)  # alpha = p - 1
    for domain in Domain:
        result = predict(spec, domain)
        assert result.label is BoundaryClass.NO_SOLUTION
        assert any("alpha" in note for note in result.details)
    steeper = power_spec(2.0, 1.5, 1, 0, 1)
    assert predict(steeper, Domain.BALL).label is BoundaryClass.NO_SOLUTION


def test_power_exponents_extraction():
    spec = power_spec(2.0, 0.0, 2, 1, 5)
    assert power_exponents(spec) == (2.0, 1.0, 5.0)


def test_blow_up_rates_reference_values():
    # p = 2, q = 4, m = 1, beta = 0: b = (2 + 4) / (4 - 1) = 2, sigma = 1
    spec = CASE_BY_NAME["C"].spec()
    rates = blow_up_rates(spec)
    assert rates is not None
    b, sigma = rates
    assert b == pytest.approx(2.0)
    assert sigma == pytest.approx(1.0)
    # p = 2, q = 6: b = (2 + 6) / (6 - 1) = 8/5, sigma = 3/5 < 1 (u bounded)
    b6, sigma6 = blow_up_rates(CASE_BY_NAME["B"].spec())
    assert b6 == pytest.approx(1.6)
    assert sigma6 == pytest.approx(0.6)


def test_blow_up_rates_from_leading_exponents_of_power_sums():
    # Near R0 only the leading terms of g1, g2 and h matter.
    b3_multi = replace(CASE_BY_NAME["C"].spec(), h=parse_expr("t^2 + t^4"))
    pole_stall = replace(CASE_BY_NAME["B"].spec(), g1=parse_expr("t + t^2"))
    for spec, (b, sigma) in ((b3_multi, (2.0, 1.0)), (pole_stall, (8 / 11, 5 / 11))):
        assert blow_up_rates(spec) == pytest.approx((b, sigma), rel=1e-12)
        run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
        assert run.terminated is TerminationReason.BLOW_UP
        assert abs(run.sigma_hat - sigma) < 1e-4
        assert abs(run.b_hat - b) < 1e-3 * b


#: (p, alpha) of the q ladders q = 1..8: sweep_q and the four atlas configs.
_LADDERS = ((2.0, 0.0), (1.5, 0.0), (2.0, 0.5), (3.0, 0.0), (3.0, 1.0))


def test_march_measures_the_closed_form_sigma_on_the_q_ladders(solved_cases):
    runs = [
        march(power_spec(p, alpha, 1, 0, q), 1.0, 1.0, SolverOptions(20.0))
        for p, alpha in _LADDERS
        for q in range(1, 9)
    ]
    blow_ups = [run for run in runs if run.terminated is TerminationReason.BLOW_UP]
    assert len(blow_ups) == 33
    for run in blow_ups + [solved_cases["B"], solved_cases["C"]]:
        sigma = blow_up_rates(run.spec)[1]
        assert abs(run.sigma_hat - sigma) < 1e-4, (run.spec, run.sigma_hat, sigma)


def test_sigma_below_one_exactly_for_v_only_blowup():
    for case in REFERENCE_CASES:
        spec = case.spec()
        rates = blow_up_rates(spec)
        if case.expected == "B2":
            assert rates is not None and rates[1] < 1.0, case.name
        if case.expected == "B3":
            assert rates is not None and rates[1] >= 1.0, case.name


@pytest.mark.parametrize(
    "rel_tol, cut", [(1e-4, "0.9"), (1e-6, "0.99"), (1e-8, "0.9999"), (1e-11, "0.9999999")]
)
def test_on_boundary_blow_ups_stay_b3_as_the_cut_follows_rel_tol(rel_tol, cut):
    # sigma = 1 exactly on C, on stress_b3_multi and on the ladders' rows
    # p = 2, q = 4 and p = 3, alpha = 1, q = 7.  The cut 1 - min(0.1, 1e4
    # rel_tol) nears 1 as rel_tol shrinks, and sigma_hat - 1 shrinks faster
    # (+1.3e-8 on the last row at 1e-11), so each stays B3; the details
    # print the cut.
    b3_multi = load_config(str(ROOT / "radbench" / "configs" / "stress_b3_multi.cfg"))
    for spec in (
        CASE_BY_NAME["C"].spec(),
        b3_multi.spec(),
        power_spec(2.0, 0.0, 1, 0, 4),
        power_spec(3.0, 1.0, 1, 0, 7),
    ):
        run = march(spec, 1.0, 1.0, SolverOptions(20.0, rel_tol=rel_tol))
        label = numeric_classify(run, Domain.BALL)
        assert label.label is BoundaryClass.B3, (spec, run.sigma_hat)
        assert label.details[-1] == f"sigma >= {cut}: u unbounded alongside v"


def test_reconcile_undecided_is_indeterminate():
    decided = Classification(
        label=BoundaryClass.B2, omega=Domain.BALL, basis=Basis.THEOREM
    )
    undecided = Classification(
        label=BoundaryClass.UNDECIDED, omega=Domain.BALL, basis=Basis.NUMERIC
    )
    report = reconcile(decided, undecided)
    assert report["status"] == "indeterminate"
    assert report["agree"] is False


@pytest.mark.parametrize("omega", [Domain.BALL, Domain.WHOLE_SPACE], ids=["ball", "wholespace"])
def test_reconcile_reached_target_against_blowup_is_indeterminate(omega):
    # From u0 = 1e6, v0 = 1e-6 the predicted blow-up (B2 on the ball,
    # NoSolution on the whole space) lies beyond r = 20, so the run reaches
    # its target; a finite run cannot refute the blow-up.
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    run = march(spec, 1e6, 1e-6, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.REACHED_TARGET
    report = reconcile(predict(spec, omega), numeric_classify(run, omega))
    assert report["status"] == "indeterminate"
    assert report["agree"] is False
    assert any(d.startswith("R0 > target") for d in report["numeric"]["details"])


def test_reconcile_global_vs_truncated_ball_run():
    predicted = Classification(
        label=BoundaryClass.GLOBAL, omega=Domain.WHOLE_SPACE, basis=Basis.THEOREM
    )
    numeric = Classification(
        label=BoundaryClass.B1, omega=Domain.BALL, basis=Basis.NUMERIC
    )
    assert reconcile(predicted, numeric)["agree"] is True


def test_classification_to_dict_fields():
    result = predict(CASE_BY_NAME["B"].spec(), Domain.BALL)
    d = result.to_dict()
    assert list(d) == ["class", "omega", "basis", "details"]
    assert d["class"] == "B2"
    assert d["omega"] == "Ball"
    assert d["basis"] == "Theorem"
    assert isinstance(d["details"], list) and d["details"]


def test_exact_borderline_is_b1_and_global():
    # nu * b = 1 in exact rationals here, so the unweighted integral diverges
    # at the borderline and the problem sits in B1 / Global.  Float rounding
    # puts the computed exponent a hair below -1; the classification must not
    # flip on that noise (and must not crash trying to evaluate the value).
    spec = power_spec(3.0, 0.5, 3, 0, 1)
    assert predict(spec, Domain.BALL).label is BoundaryClass.B1
    assert predict(spec, Domain.WHOLE_SPACE).label is BoundaryClass.GLOBAL
