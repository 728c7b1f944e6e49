"""Quadrature primitives against closed-form references."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from radlab import quadrature
from radlab.quadrature import (
    CumulativeGrid,
    QuadratureError,
    adaptive_quad,
    cumulative_power_graded,
    cumulative_quadratic,
    integral_to_infinity,
    integral_with_endpoint_power,
)


def graded_grid(n: int = 200, r_max: float = 0.02) -> np.ndarray:
    """The solver's startup grid shape: nodes proportional to i**2."""
    i = np.arange(n, dtype=float)
    return r_max * (i / (n - 1)) ** 2


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


# ---------------------------------------------------------------- cumulative


def test_cumulative_quadratic_exact_on_parabolas():
    x = np.linspace(0.0, 3.0, 17)
    for k in (0, 1, 2):
        out = cumulative_quadratic(x**k, x)
        assert np.allclose(out, x ** (k + 1) / (k + 1), rtol=1e-13, atol=1e-15)


def test_cumulative_quadratic_third_order_on_smooth():
    x = np.linspace(0.0, math.pi, 401)
    out = cumulative_quadratic(np.sin(x), x)
    assert np.max(np.abs(out - (1.0 - np.cos(x)))) < 1e-8


def test_cumulative_quadratic_signed_integrand_untouched():
    x = np.linspace(0.0, 2.0 * math.pi, 801)
    out = cumulative_quadratic(np.sin(x), x)
    assert out[-1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("k", [0.5, 1.5, 2.5, 3.0, 5.0, 8.0, 12.0, 16.0])
def test_cumulative_power_graded_oracle(k):
    """c * r^k on the solver's graded startup grid, every node, tight bound."""
    x = graded_grid()
    y = 3.0 * x**k
    exact = 3.0 * x ** (k + 1.0) / (k + 1.0)
    out = cumulative_power_graded(y, x)
    rel = np.abs(out[1:] - exact[1:]) / exact[1:]
    assert np.max(rel) < 5e-7, f"k={k}: max rel error {np.max(rel):.3e}"


def test_cumulative_power_graded_strictly_positive_inside():
    x = graded_grid()
    for k in (3.0, 8.0):
        out = cumulative_power_graded(x**k, x)
        assert np.all(out[1:] > 0.0)
        assert np.all(np.diff(out) > 0.0)


def test_cumulative_power_graded_two_term_integrand():
    x = graded_grid()
    y = x**8 * (1.0 + 2.0 * x + 3.0 * x**2)
    exact = x**9 / 9.0 + 2.0 * x**10 / 10.0 + 3.0 * x**11 / 11.0
    out = cumulative_power_graded(y, x)
    rel = np.abs(out[1:] - exact[1:]) / exact[1:]
    # the substitution exponent is fitted to the leading power only, so the
    # lower-order terms cost a little relative accuracy on the first nodes
    assert np.max(rel) < 2e-4
    assert np.max(rel[10:]) < 1e-5
    assert np.max(rel[30:]) < 1e-6


def test_cumulative_power_graded_requires_origin_start():
    x = np.linspace(1.0, 2.0, 8)
    with pytest.raises(ValueError):
        cumulative_power_graded(x**2, x)


def test_cumulative_power_graded_rejects_negative_samples():
    x = graded_grid(16)
    y = x.copy()
    y[3] = -1.0
    with pytest.raises(ValueError):
        cumulative_power_graded(y, x)


def test_cumulative_power_graded_plain_fallback_matches_on_low_powers():
    x = np.linspace(0.0, 1.0, 33)
    for k in (0.0, 1.0, 2.0):
        out = cumulative_power_graded(x**k, x)
        assert np.allclose(out, x ** (k + 1) / (k + 1), rtol=1e-12, atol=1e-14)


@given(st.floats(0.3, 10.0), st.integers(50, 300))
def test_cumulative_power_graded_monotone_property(k, n):
    x = graded_grid(n)
    out = cumulative_power_graded(x**k, x)
    assert np.all(np.diff(out) >= 0.0)
    assert out[0] == 0.0


def test_reused_grid_matches_fresh_integrals_bit_for_bit(monkeypatch):
    # One grid keeps its panel weights across calls; every result must equal
    # a one-use grid's, so nothing one call computes leaks into the next.
    repairs = []
    repair = quadrature._nonneg_panel_repair

    def counting_repair(panels, x, y):
        repairs.append(len(panels))
        repair(panels, x, y)

    monkeypatch.setattr(quadrature, "_nonneg_panel_repair", counting_repair)
    x = graded_grid()
    grid = CumulativeGrid(x)
    samples = [x**8, np.sin(300.0 * x), 2.0 + x, x**8, x**3.5, 1e-3 * x**8]
    for y in samples:
        assert grid.quadratic(y).tobytes() == cumulative_quadratic(y, x).tobytes()
    # Both paths repaired x**8 (three times), x**3.5 and nothing else.
    assert len(repairs) == 2 * 4
    # Power-graded integrals with changing fitted exponents, and x**2, which
    # fits k = 2 and falls back to the plain panels of the reused grid.
    for y in samples[:1] + samples[2:] + [x**2]:
        assert grid.power_graded(y).tobytes() == cumulative_power_graded(y, x).tobytes()


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
