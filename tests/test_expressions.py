"""The power-sum expression language: parsing, algebra, calculus."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radlab.expressions import ExpressionError, FuncExpr, derive_k, parse_expr


def test_parse_constants_and_powers():
    assert parse_expr("1")(5.0) == 1.0
    assert parse_expr("t")(3.0) == 3.0
    assert parse_expr("t^2")(4.0) == 16.0
    assert parse_expr("2*t^3")(2.0) == 16.0
    assert parse_expr("1 + t^2")(3.0) == 10.0
    assert parse_expr("0.5*t^1.5")(4.0) == pytest.approx(4.0)


def test_parse_whitespace_and_multiple_terms():
    f = parse_expr(" 2 + 3*t + 0.25*t^4 ")
    assert f(2.0) == pytest.approx(2.0 + 6.0 + 4.0)
    assert len(f.terms) == 3


def test_parse_rejects_malformed_input():
    for text in ("", "t^", "2*", "t**2", "sin(t)", "t + ", "-t", "1 - t", "t^-2"):
        with pytest.raises(ExpressionError):
            parse_expr(text)


def test_parse_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        parse_expr("s^2")
    assert "column" in str(err.value)


def test_vectorized_call():
    f = parse_expr("1 + t^2")
    out = f(np.array([0.0, 1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0, 5.0])


def test_terms_merge_duplicate_exponents():
    f = parse_expr("t^2 + 2*t^2")
    assert f.terms == ((3.0, 2.0),)


def test_leading_and_smallest_exponent():
    f = parse_expr("2*t + 5*t^3")
    assert f.leading_exponent == 3.0
    assert f.smallest_exponent == 1.0
    assert f.leading_coeff == 5.0
    assert parse_expr("4").is_constant


def test_antiderivative_matches_quadrature():
    f = parse_expr("1 + 2*t + 3*t^2")
    F = f.antiderivative()
    assert F(0.0) == 0.0
    assert F(2.0) == pytest.approx(2.0 + 4.0 + 8.0)


def test_compose_power():
    f = parse_expr("t^2")
    g = f.compose_power(3.0)  # t -> (t^3)^2 = t^6
    assert g(2.0) == pytest.approx(64.0)


def test_scale_argument_and_value():
    f = parse_expr("t^2")
    assert f.scale_argument(2.0)(3.0) == pytest.approx(36.0)
    assert f.scale_value(5.0)(3.0) == pytest.approx(45.0)


def test_pointwise_power_single_term():
    f = parse_expr("4*t^2")
    g = f.pointwise_power(0.5)  # (4*t^2)^0.5 = 2*t
    assert g is not None
    assert g(9.0) == pytest.approx(18.0)
    assert parse_expr("1 + t").pointwise_power(0.5) is None


def test_derive_k_growth_order():
    profile = derive_k(parse_expr("2 + 7*t^3"))
    assert profile.leading_exponent == 3.0
    assert profile.leading_coeff == 7.0


def test_to_text_round_trip():
    f = parse_expr("2 + 3*t^2.5")
    again = parse_expr(f.to_text())
    assert again.terms == f.terms


@given(
    st.lists(
        st.tuples(
            st.floats(0.1, 10.0, allow_nan=False),
            st.floats(0.0, 6.0, allow_nan=False),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(0.1, 50.0),
)
def test_from_terms_evaluates_as_power_sum(pairs, t):
    f = FuncExpr.from_terms(pairs)
    expected = sum(c * t**e for c, e in pairs)
    assert f(t) == pytest.approx(expected, rel=1e-12)


@given(st.floats(0.2, 5.0), st.floats(0.1, 20.0))
def test_compose_power_identity(a, t):
    f = parse_expr("1 + 2*t + t^3")
    assert f.compose_power(a)(t) == pytest.approx(f(t**a), rel=1e-9)


@given(st.floats(0.1, 10.0))
def test_antiderivative_derivative_round_trip(t):
    f = parse_expr("1 + 4*t^3")
    F = f.antiderivative()
    eps = max(t, 1.0) * 1e-6
    numeric = (F(t + eps) - F(t - eps)) / (2.0 * eps)
    assert numeric == pytest.approx(f(t), rel=1e-5)


def test_zero_to_the_zero_is_one():
    assert parse_expr("1")(0.0) == 1.0
    assert parse_expr("2 + t")(0.0) == 2.0
    assert parse_expr("t^2")(0.0) == 0.0


def test_monotone_in_each_coefficient():
    base = parse_expr("1 + t^2")
    bigger = parse_expr("1 + 2*t^2")
    ts = np.linspace(0.0, 10.0, 50)
    assert np.all(bigger(ts) >= base(ts))


def test_parse_expr_is_exported():
    import radlab

    assert "parse_expr" in radlab.__all__ and radlab.parse_expr is parse_expr
