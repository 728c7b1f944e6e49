"""Boundary-class prediction, numeric labelling, and their reconciliation."""

import numpy as np
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

from radlab.solver import SolverOptions, TerminationReason, march

from conftest import CASE_BY_NAME, REFERENCE_CASES, power_spec


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


def test_sigma_below_one_exactly_for_v_only_blowup():
    for case in REFERENCE_CASES:
        spec = case.spec()
        rates = blow_up_rates(spec)
        if case.expected == "B2":
            assert rates is not None and rates[1] < 1.0, case.name
        if case.expected == "B3":
            assert rates is not None and rates[1] >= 1.0, case.name


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


def test_reconcile_reached_target_against_blowup_is_indeterminate():
    # From u0 = 1e6, v0 = 1e-6 the predicted B2 blow-up lies beyond r = 20,
    # so the run reaches its target; a finite run cannot refute the blow-up.
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    run = march(spec, 1e6, 1e-6, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.REACHED_TARGET
    report = reconcile(predict(spec, Domain.BALL), numeric_classify(run))
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
