"""Convergence criteria: exponent arithmetic, closed forms, quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radlab.criteria import (
    CriterionDiverges,
    CriterionKind,
    Method,
    Verdict,
    criterion,
    h_theta,
    inner_integral,
    outer_power,
    phi,
    phi_inverse,
    sandwich_check,
)
from radlab.expressions import parse_expr
from radlab.quadrature import (
    adaptive_quad,
    integral_to_infinity,
    integral_with_endpoint_power,
)

from conftest import power_spec


def test_theta_and_outer_power_reference_values():
    spec = power_spec(2.0, 0.0, 1, 0, 1)
    assert spec.theta == pytest.approx(1.0)
    # nu = k1*p / (k1*p + p - 1 - k2) with k1 = 1, k2 = 0, p = 2
    assert outer_power(spec) == pytest.approx(2.0 / 3.0)


def test_outer_power_shifts_with_growth_orders():
    spec = power_spec(2.0, 0.0, 2, 1, 4)
    # k1 = 2, k2 = 1: nu = 4 / (4 + 1 - 1) = 1
    assert outer_power(spec) == pytest.approx(1.0)


def test_unweighted_closed_form_reference_value():
    # p = 2, q = 6: inner(s) = s^4/4, nu = 2/3, so the unweighted integral
    # is 4^(2/3) * integral_1^oo s^(-8/3) ds = 3 * 4^(2/3) / 5
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    verdict = criterion(spec, CriterionKind.UNWEIGHTED)
    assert verdict.verdict is Verdict.FINITE
    assert verdict.value == pytest.approx(3.0 * 4.0 ** (2.0 / 3.0) / 5.0, rel=1e-12)


def test_weighted_closed_form_reference_value():
    # same problem, weight theta = 1: 4^(2/3) * integral_1^oo s^(-5/3) ds
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    verdict = criterion(spec, CriterionKind.WEIGHTED)
    assert verdict.verdict is Verdict.FINITE
    assert verdict.value == pytest.approx(4.0 ** (2.0 / 3.0) * 1.5, rel=1e-12)


def test_linear_coupling_diverges_both_ways():
    spec = power_spec(2.0, 0.0, 1, 0, 1)
    for kind in CriterionKind:
        verdict = criterion(spec, kind)
        assert verdict.verdict is Verdict.INFINITE
        assert verdict.divergence_exponent >= -1.0


def test_divergence_exponent_arithmetic():
    # p = 2, q = 6: inner growth b = 4, nu = 2/3, E = w - b*nu
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    unweighted = criterion(spec, CriterionKind.UNWEIGHTED)
    weighted = criterion(spec, CriterionKind.WEIGHTED)
    assert unweighted.value is not None and weighted.value is not None
    spec_div = power_spec(2.0, 0.0, 1, 0, 1)  # b = 3/2, E = -1: borderline
    verdict = criterion(spec_div, CriterionKind.UNWEIGHTED)
    assert verdict.divergence_exponent == pytest.approx(-1.0)


def test_single_term_criterion_against_raw_quadrature():
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    nu = outer_power(spec)
    th = spec.theta

    def integrand(s: float) -> float:
        return inner_integral(spec.h, th, spec.p, s) ** -nu

    oracle = integral_to_infinity(integrand, 1.0, tail_exponent=8.0 / 3.0)
    value = criterion(spec, CriterionKind.UNWEIGHTED).value
    assert value == pytest.approx(oracle, rel=1e-8)


def test_multi_term_h_criterion_against_raw_quadrature():
    spec = power_spec(3.0, 0.5, 1, 0, 1)
    spec = type(spec)(
        p=spec.p, alpha=spec.alpha, n=spec.n,
        f1=spec.f1, f2=spec.f2, g1=spec.g1, g2=spec.g2,
        h=parse_expr("1 + t^2"),
    )
    result = criterion(spec, CriterionKind.UNWEIGHTED)
    if result.verdict is Verdict.FINITE:
        nu = outer_power(spec)
        th = spec.theta
        oracle = integral_to_infinity(
            lambda s: inner_integral(spec.h, th, spec.p, s) ** -nu,
            1.0,
            tail_exponent=None,
        )
        assert result.value == pytest.approx(oracle, rel=1e-6)


def test_h_theta_matches_quadrature():
    h = parse_expr("1 + t^3")
    th = 0.7
    for t in (0.5, 1.0, 4.0):
        oracle = adaptive_quad(lambda s: h(s**th), 0.0, t)
        assert h_theta(h, th, t) == pytest.approx(oracle, rel=1e-10)
    assert h_theta(h, th, 0.0) == 0.0


def test_inner_integral_matches_quadrature():
    h = parse_expr("2*t^3")
    th, p = 0.8, 2.5
    for s in (0.3, 1.0, 7.0):
        oracle = adaptive_quad(lambda t: h(t**th) ** (1.0 / p), 0.0, s)
        assert inner_integral(h, th, p, s) == pytest.approx(oracle, rel=1e-9)


def test_phi_matches_closed_form():
    # p = 2, q = 6: phi(t) = 4^(2/3) * (3/5) * t^(-5/3)
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    for t in (0.5, 1.0, 3.0, 10.0):
        expected = 4.0 ** (2.0 / 3.0) * 0.6 * t ** (-5.0 / 3.0)
        assert phi(spec, t) == pytest.approx(expected, rel=1e-12)


def test_phi_strictly_decreasing_to_zero():
    spec = power_spec(2.0, 0.0, 1, 0, 4)
    ts = np.logspace(-2, 6, 30)
    values = [phi(spec, t) for t in ts]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5


@given(st.floats(0.01, 100.0))
def test_phi_inverse_round_trip_closed_form(t):
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    assert phi_inverse(spec, phi(spec, t)) == pytest.approx(t, rel=1e-10)


def test_phi_inverse_round_trip_bisection_path():
    spec = power_spec(2.0, 0.0, 1, 0, 1)
    spec = type(spec)(
        p=spec.p, alpha=spec.alpha, n=spec.n,
        f1=spec.f1, f2=spec.f2, g1=spec.g1, g2=spec.g2,
        h=parse_expr("t^4 + t^6"),
    )
    for t in (0.5, 2.0, 20.0):
        y = phi(spec, t)
        assert phi_inverse(spec, y) == pytest.approx(t, rel=1e-6)


def test_phi_inverse_multi_term_round_trip_to_roundoff():
    # The envelope check widens its constants by only 1e-12, so the inverse
    # must undo phi far below that.
    base = power_spec(2.0, 0.0, 1, 0, 1)
    for h in ("t + t^6", "t^2 + t^4"):
        spec = type(base)(
            p=base.p, alpha=base.alpha, n=base.n,
            f1=base.f1, f2=base.f2, g1=base.g1, g2=base.g2,
            h=parse_expr(h),
        )
        for t in (0.01, 0.5, 2.0, 20.0):
            assert phi_inverse(spec, phi(spec, t)) == pytest.approx(t, rel=1e-12)


def test_phi_raises_on_divergent_unweighted():
    spec = power_spec(2.0, 0.0, 1, 0, 1)  # unweighted diverges
    with pytest.raises(CriterionDiverges):
        phi(spec, 1.0)


def test_criterion_method_tags():
    single = criterion(power_spec(2.0, 0.0, 1, 0, 6), CriterionKind.UNWEIGHTED)
    assert single.method is Method.SYMBOLIC


def test_verdict_to_dict_shape():
    finite = criterion(power_spec(2.0, 0.0, 1, 0, 6), CriterionKind.UNWEIGHTED)
    d = finite.to_dict()
    assert set(d) == {"verdict", "value", "method"}
    divergent = criterion(power_spec(2.0, 0.0, 1, 0, 1), CriterionKind.UNWEIGHTED)
    d = divergent.to_dict()
    assert set(d) == {"verdict", "slope", "method"}


@given(
    st.floats(1.5, 4.0),
    st.floats(0.05, 20.0),
    st.integers(1, 8),
    st.floats(0.2, 5.0),
)
def test_sandwich_ordering_property(p, s, exponent, coeff):
    h = parse_expr(f"{coeff}*t^{exponent}")
    lhs, mid, rhs = sandwich_check(h, p, s)
    slack = 1e-9 * max(abs(lhs), abs(mid), abs(rhs))
    assert lhs <= mid + slack
    assert mid <= rhs + slack


def _sandwich_by_quadrature(h, p, s):
    """The sandwich quantities with every integral by adaptive quadrature."""
    H = h.antiderivative()
    H_fn, h_fn = H.scalar_fn(), h.scalar_fn()
    root = 1.0 / (p - 1.0)

    def integral_H_root(upper):
        return integral_with_endpoint_power(
            lambda t: H_fn(t) ** root, upper, H.smallest_exponent * root, rel_tol=1e-12
        )

    h_integral = integral_with_endpoint_power(
        lambda t: h_fn(t) ** (1.0 / p), p * s, h.smallest_exponent / p, rel_tol=1e-12
    )
    return (
        (p - 1.0) ** (2.0 * p - 1.0) * integral_H_root(s) ** (p - 1.0),
        (p - 1.0) ** (p - 1.0) * h_integral**p,
        integral_H_root(p * p * s) ** (p - 1.0),
    )


@pytest.mark.parametrize("p", [1.3, 1.5, 2.0, 3.0, 4.5])
def test_sandwich_closed_forms_match_quadrature(p):
    # Single-term h takes the closed-form antiderivatives; the quadrature is
    # an independent oracle for them.
    for exponent in (0.0, 1.0, 2.5, 6.0):
        for coeff in (0.3, 4.0):
            h = parse_expr(f"{coeff}*t^{exponent}")
            for s in (0.05, 1.0, 30.0):
                got = sandwich_check(h, p, s)
                want = _sandwich_by_quadrature(h, p, s)
                assert got == pytest.approx(want, rel=1e-12), (exponent, coeff, s)


def test_sandwich_multi_term():
    h = parse_expr("1 + 0.5*t^2 + t^5")
    for s in (0.1, 1.0, 10.0):
        lhs, mid, rhs = sandwich_check(h, 2.0, s)
        assert lhs <= mid * (1.0 + 1e-9)
        assert mid <= rhs * (1.0 + 1e-9)


def test_sandwich_rejects_bad_arguments():
    h = parse_expr("t")
    with pytest.raises(ValueError):
        sandwich_check(h, 2.0, 0.0)
    with pytest.raises(ValueError):
        sandwich_check(h, 1.0, 1.0)


def test_borderline_survives_float_rounding_noise():
    # p = 3, alpha = 1/2, m = 3, q = 1 gives nu * b = (9/11)(11/9) = 1 in
    # exact rationals, so E = -1 exactly: the divergent borderline.  Computed
    # in floats the product lands a couple of ulps below -1; the snap band
    # must still classify both criteria as Infinite and keep phi undefined.
    spec = power_spec(3.0, 0.5, 3, 0, 1)
    for kind in (CriterionKind.UNWEIGHTED, CriterionKind.WEIGHTED):
        result = criterion(spec, kind)
        assert result.verdict is Verdict.INFINITE
    unweighted = criterion(spec, CriterionKind.UNWEIGHTED)
    assert abs(unweighted.divergence_exponent + 1.0) < 1e-9
    with pytest.raises(CriterionDiverges):
        phi(spec, 1.0)
    with pytest.raises(CriterionDiverges):
        phi_inverse(spec, 1.0)


def test_finite_single_term_value_is_closed_form_exact():
    # Finite single-term values come from the antiderivative, not quadrature,
    # so they must match the hand formula A**-nu / (nu*b - w - 1) to the ulp.
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    b = 6.0 / 2.0 + 1.0
    coeff = 1.0 / b
    nu = 2.0 / 3.0
    for weight, kind in ((0.0, CriterionKind.UNWEIGHTED), (1.0, CriterionKind.WEIGHTED)):
        expected = coeff**-nu / (nu * b - weight - 1.0)
        value = criterion(spec, kind).value
        assert math.isclose(value, expected, rel_tol=1e-15)
