"""Quadrature primitives against closed-form references: radlab's adaptive
rule and the substitutions the tests build on it as their reference."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radlab.quadrature import adaptive_quad

from quadrature_oracle import integral_to_infinity, integral_with_endpoint_power


# ---------------------------------------------------------------- adaptive


def test_adaptive_quad_polynomial():
    value = adaptive_quad(lambda t: 3.0 * t**2, 0.0, 2.0)
    assert value == pytest.approx(8.0, rel=1e-12)


def test_adaptive_quad_transcendental():
    value = adaptive_quad(math.sin, 0.0, math.pi)
    assert value == pytest.approx(2.0, rel=1e-10)


@given(st.floats(0.5, 4.0), st.floats(0.1, 3.0))
def test_adaptive_quad_power(k, upper):
    value = adaptive_quad(lambda t: t**k, 0.0, upper)
    assert value == pytest.approx(upper ** (k + 1.0) / (k + 1.0), rel=1e-8)


def test_endpoint_power_handles_integrable_singularity():
    # integral_0^1 t^(-1/2) dt = 2, infinite integrand at 0
    value = integral_with_endpoint_power(lambda t: t**-0.5, 1.0, -0.5)
    assert value == pytest.approx(2.0, rel=1e-8)


def test_integral_to_infinity_power_tail():
    # integral_1^oo s^-3 ds = 1/2; tail_exponent is the decay rate gamma
    value = integral_to_infinity(lambda s: s**-3.0, 1.0, tail_exponent=3.0)
    assert value == pytest.approx(0.5, rel=1e-9)


def test_integral_to_infinity_shifted_lower_limit():
    # integral_2^oo s^-2 ds = 1/2
    value = integral_to_infinity(lambda s: s**-2.0, 2.0, tail_exponent=2.0)
    assert value == pytest.approx(0.5, rel=1e-9)


def test_integral_to_infinity_requires_positive_start():
    with pytest.raises(ValueError):
        integral_to_infinity(lambda s: s**-3.0, 0.0, tail_exponent=3.0)


def test_integral_to_infinity_slow_decay_does_not_overflow():
    # A tail barely steeper than 1/s forces the substitution exponent to its
    # cap, and the transformed integrand is then probed at arguments whose
    # power would exceed the float range; those must be clamped, not raised.
    value = integral_to_infinity(lambda s: s**-1.02, 1.0, tail_exponent=1.02)
    assert math.isfinite(value)
    assert abs(value - 50.0) / 50.0 < 1e-4


def test_integral_to_infinity_extreme_decay_stays_finite():
    value = integral_to_infinity(
        lambda s: s**-1.0000001, 1.0, tail_exponent=1.0000001
    )
    assert math.isfinite(value) and value > 0.0
