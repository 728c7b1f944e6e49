"""Convergence criteria: exponent arithmetic, closed forms, quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radlab import criteria
from radlab.criteria import (
    CriterionDiverges,
    CriterionKind,
    Verdict,
    criterion,
    log_sandwich_quantities,
    outer_power,
    phi,
    phi_inverse,
)
from radlab.expressions import FuncExpr, parse_expr
from radlab.quadrature import adaptive_quad
from radlab.classify import BoundaryClass, Domain, predict
from radlab.verify import SANDWICH_GRID, check_sandwich

from conftest import power_spec
from quadrature_oracle import integral_to_infinity, integral_with_endpoint_power


def inner_integral(h, theta_value, p, s):
    """The criterion's inner integral  integral_0^s h(t**theta)**(1/p) dt,
    the exponential of the logarithm that the criteria read."""
    log_root = criteria._log_root_integral(h.compose_power(theta_value), 1.0 / p)
    return float(np.exp(log_root(math.log(s))))


def sandwich_check(h, p, s):
    """The three quantities of the sandwich at one point s, the exponentials
    of :func:`log_sandwich_quantities`."""
    return tuple(float(np.exp(q)) for q in log_sandwich_quantities(h, p)(s))


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
        assert h.compose_power(th).antiderivative()(t) == pytest.approx(oracle, rel=1e-10)
    assert h.compose_power(th).antiderivative()(0.0) == 0.0


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


def _spec_with_h(h):
    """The p = 2 power problem of the multi-term tests with ``h`` in place."""
    base = power_spec(2.0, 0.0, 1, 0, 1)
    return type(base)(
        p=base.p, alpha=base.alpha, n=base.n,
        f1=base.f1, f2=base.f2, g1=base.g1, g2=base.g2,
        h=parse_expr(h),
    )


def test_phi_inverse_multi_term_round_trip_to_roundoff():
    # The inverse undoes a multi-term phi to roundoff.
    for h in ("t + t^6", "t^2 + t^4", "t^4 + t^6"):
        spec = _spec_with_h(h)
        for t in (0.01, 0.5, 2.0, 20.0):
            assert phi_inverse(spec, phi(spec, t)) == pytest.approx(t, rel=1e-12)


@pytest.mark.parametrize("h", ["t^2 + t^4", "t + t^6"])
def test_phi_is_continuous_where_the_closed_forms_meet_the_tables(h):
    # Beyond the first and last edge of inner's table and of phi's own,
    # closed forms take over.  Across each edge, one ulp either side, phi
    # changes by no more than its slope allows, and the inverse still
    # returns t to roundoff there.  Phi's table runs in u = -ln t.
    spec = _spec_with_h(h)
    inner = criteria._integral_table(spec.h.compose_power(spec.theta), 1.0 / spec.p)
    tail = criteria._tail_table(spec, outer_power(spec), 0.0)
    for edge in (inner.lo, inner.hi, -tail.hi, -tail.lo):
        below, above = np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)
        jump = math.expm1(float(tail(-above) - tail(-below)))
        assert abs(jump) <= 1e-13, (edge, jump)
        t = math.exp(edge)
        assert phi_inverse(spec, phi(spec, t)) == pytest.approx(t, rel=1e-12)


def _count_points(monkeypatch, table):
    """Record the number of points each call of ``table``'s log-integrand
    is given, for the rest of the test."""
    counts = []
    g = table.g

    def counted(x):
        counts.append(np.size(x))
        return g(x)

    monkeypatch.setattr(table, "g", counted)
    return counts


def test_repeat_queries_evaluate_only_their_partial_panels(monkeypatch):
    # The tables are built once per integrand; a later query evaluates the
    # log-integrand on one partial panel per point and nowhere else.
    points = criteria._GAUSS_POINTS
    h, p = parse_expr("t^2 + t^4"), 2.0
    first = log_sandwich_quantities(h, p)(SANDWICH_GRID)
    H_counts = _count_points(monkeypatch, criteria._integral_table(h.antiderivative(), 1.0 / (p - 1.0)))
    h_counts = _count_points(monkeypatch, criteria._integral_table(h, 1.0 / p))
    again = log_sandwich_quantities(h, p)(SANDWICH_GRID)
    np.testing.assert_array_equal(again, first)
    # H's table is read at s and p*p*s, h's at p*s.
    assert sum(H_counts) == 2 * SANDWICH_GRID.size * points
    assert sum(h_counts) == SANDWICH_GRID.size * points

    spec = _spec_with_h("t^2 + t^4")
    first = phi(spec, 2.0)
    inner_counts = _count_points(
        monkeypatch, criteria._integral_table(spec.h.compose_power(spec.theta), 1.0 / spec.p)
    )
    tail_counts = _count_points(monkeypatch, criteria._tail_table(spec, outer_power(spec), 0.0))
    assert phi(spec, 2.0) == first
    # One partial panel of phi's table, whose points each read one of inner's.
    assert tail_counts == [points]
    assert inner_counts == [points * points]


@pytest.mark.parametrize(
    "h, expected",
    # Independent nested quadrature in ln t up to t = e**200, plus the
    # closed-form tail of the leading term beyond.
    [("t^0.5 + t^1.03", 131.0457308271428), ("1 + t^1.06", 65.74986311040584)],
)
def test_slow_tail_keeps_its_mass(h, expected):
    # The tail decays like s**-1.01 and s**-1.02: a fifth of the mass lies
    # beyond s = 1e300, where quadrature of a substituted tail cannot reach.
    base = power_spec(2.0, 0.0, 1, 0, 1)
    spec = type(base)(
        p=base.p, alpha=base.alpha, n=base.n,
        f1=base.f1, f2=base.f2, g1=base.g1, g2=base.g2,
        h=parse_expr(h),
    )
    assert phi(spec, 1.0) == pytest.approx(expected, rel=1e-12)
    value = criterion(spec, CriterionKind.UNWEIGHTED).value
    assert value == pytest.approx(expected, rel=1e-12)


def test_close_exponents_keep_the_tables_small():
    # In h = t^2 + t^2.00001 neither term is within 1e-17 of h before
    # |ln t| ~ 4e6, far beyond any float t.  Classifying and the sandwich
    # still make only the panels their queries need, under a thousand per
    # table, and the criterion value matches quadrature of its outer
    # integral.
    spec = _spec_with_h("t^2 + t^2.00001")
    assert predict(spec, Domain.BALL).label is BoundaryClass.B3
    nu, th, p = outer_power(spec), spec.theta, spec.p
    decay = nu * (spec.h.leading_exponent * th / p + 1.0)
    oracle = integral_to_infinity(
        lambda s: inner_integral(spec.h, th, p, s) ** -nu, 1.0,
        tail_exponent=decay, rel_tol=1e-12,
    )
    value = criterion(spec, CriterionKind.UNWEIGHTED).value
    assert value == pytest.approx(oracle, rel=1e-10)
    assert check_sandwich(spec.h, p, SANDWICH_GRID).passed
    tables = [
        criteria._integral_table(spec.h.compose_power(th), 1.0 / p),
        criteria._tail_table(spec, nu, 0.0),
        criteria._integral_table(spec.h.antiderivative(), 1.0 / (p - 1.0)),
        criteria._integral_table(spec.h, 1.0 / p),
    ]
    assert all(table.edges.size < 1000 for table in tables)


def _with_gauss_points(points, evaluate):
    """``evaluate()`` with the tables rebuilt on ``points`` per panel."""
    saved = criteria._GAUSS_POINTS
    criteria._GAUSS_POINTS = points
    criteria._integral_table.cache_clear()
    criteria._tail_table.cache_clear()
    try:
        return evaluate()
    finally:
        criteria._GAUSS_POINTS = saved
        criteria._integral_table.cache_clear()
        criteria._tail_table.cache_clear()


@settings(derandomize=True, max_examples=25)
@given(
    p=st.floats(1.5, 3.0),
    constant=st.floats(0.05, 20.0),
    terms=st.lists(
        st.tuples(st.floats(0.05, 20.0), st.floats(0.1, 6.0)),
        min_size=1, max_size=2, unique_by=lambda term: round(term[1], 2),
    ),
    s=st.floats(0.01, 50.0),
)
def test_fixed_rule_matches_quadrature_and_is_converged(p, constant, terms, s):
    h = FuncExpr.from_terms([(constant, 0.0), *terms])
    base = power_spec(p, 0.0, 2, 0, 1)
    spec = type(base)(
        p=p, alpha=0.0, n=base.n,
        f1=base.f1, f2=base.f2, g1=base.g1, g2=base.g2, h=h,
    )
    th, nu = spec.theta, outer_power(spec)
    decay = nu * (h.leading_exponent * th / p + 1.0)
    # A tail barely steeper than 1/s defeats the substituted oracle (see
    # test_slow_tail_keeps_its_mass), not the rule under test.
    assume(decay > 1.3)

    def evaluate():
        return (
            inner_integral(h, th, p, s),
            phi(spec, s),
            *sandwich_check(h, p, s),
        )

    got = evaluate()
    h_th = h.compose_power(th)
    inner = integral_with_endpoint_power(
        lambda t: h_th(t) ** (1.0 / p), s, h_th.terms[0][1] / p, rel_tol=1e-12
    )
    tail = integral_to_infinity(
        lambda x: inner_integral(h, th, p, x) ** -nu, s,
        tail_exponent=decay, rel_tol=1e-12,
    )
    want = (inner, tail, *_sandwich_by_quadrature(h, p, s))
    assert got == pytest.approx(want, rel=1e-10)
    doubled = _with_gauss_points(2 * criteria._GAUSS_POINTS, evaluate)
    assert doubled == pytest.approx(got, rel=1e-13, abs=0.0)


def test_phi_inverse_closed_form_holds_where_its_factor_leaves_the_floats():
    # Problem B at p = 1.179 with these sums puts inner_coeff**power, a
    # factor of the single-term closed form, at 5.5e-314, below the normal
    # floats: y = 1e-300 took the product to 0.0, whose negative power
    # raised ZeroDivisionError, and y = 1 lost all but ten digits of it.
    base = power_spec(1.179, 0.0, 1, 0, 1)
    spec = type(base)(
        p=base.p, alpha=base.alpha, n=base.n, f1=base.f1, f2=base.f2,
        g1=parse_expr("7.5e-13*t^2.618"), g2=parse_expr("1.7e-11*t^1.997"),
        h=parse_expr("8.5e-152*t^0.664"),
    )
    for y in (1e-300, 1.0, 1e300):
        t = phi_inverse(spec, y)
        assert 0.0 < t < math.inf
        assert phi(spec, t) == pytest.approx(y, rel=1e-12), y


def test_phi_inverse_rejects_values_above_phi_at_zero():
    # With a constant term in h, inner(s) ~ s near 0 and nu < 1, so phi
    # stays below a finite phi(0+); larger values have no inverse.
    base = power_spec(2.0, 0.0, 1, 0, 1)
    spec = type(base)(
        p=base.p, alpha=base.alpha, n=base.n,
        f1=base.f1, f2=base.f2, g1=base.g1, g2=base.g2,
        h=parse_expr("1 + t^2"),
    )
    top = phi(spec, 1e-300)
    assert phi_inverse(spec, 0.999 * top) < 1e-3
    with pytest.raises(ValueError):
        phi_inverse(spec, 1.001 * top)


def test_phi_raises_on_divergent_unweighted():
    spec = power_spec(2.0, 0.0, 1, 0, 1)  # unweighted diverges
    with pytest.raises(CriterionDiverges):
        phi(spec, 1.0)


def test_criterion_method_tags():
    single = criterion(power_spec(2.0, 0.0, 1, 0, 6), CriterionKind.UNWEIGHTED)
    assert single.to_dict()["method"] == "Symbolic"


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
    root = 1.0 / (p - 1.0)

    def integral_H_root(upper):
        return integral_with_endpoint_power(
            lambda t: H(t) ** root, upper, H.terms[0][1] * root, rel_tol=1e-12
        )

    h_integral = integral_with_endpoint_power(
        lambda t: h(t) ** (1.0 / p), p * s, h.terms[0][1] / p, rel_tol=1e-12
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


@pytest.mark.parametrize(
    "f, k",
    [
        ("t + t^2", 100),
        ("0.5*t^2 + 0.25*t^3", 100),
        ("t + 0.05*t^21", 20),
        ("0.3*t^0.3 + 2*t^0.31", 3),
    ],
)
def test_log_rule_matches_the_binomial_expansion(f, k):
    # For an integer power k the k-th power of two terms is their binomial
    # expansion, so ln integral_0^s f**k is a log-sum-exp of closed forms:
    # an oracle for the forward table in logs, also where the integral is
    # far outside the float range (about e**-1000 to e**3700 here).
    f = parse_expr(f)
    (c0, a0), (c1, a1) = f.terms
    i = np.arange(k + 1)
    power = a0 * (k - i) + a1 * i + 1.0
    log_coeff = np.array(
        [math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1) for j in i]
    ) + (k - i) * math.log(c0) + i * math.log(c1) - np.log(power)
    x = np.log(np.geomspace(1e-3, 1e4, 15))
    want = np.logaddexp.reduce(log_coeff + power * x[:, None], axis=1)
    got = criteria._log_root_integral(f, float(k))(x)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-13)
    pointwise = [float(criteria._log_root_integral(f, float(k))(xi)) for xi in x]
    np.testing.assert_allclose(pointwise, want, rtol=1e-14, atol=1e-13)


def test_sandwich_rejects_bad_arguments():
    h = parse_expr("t")
    with pytest.raises(ValueError):
        check_sandwich(h, 2.0, [0.0])
    with pytest.raises(ValueError):
        check_sandwich(h, 1.0, [1.0])


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


@pytest.mark.parametrize("h", ["t^2", "t^2 + t^4"])
def test_sandwich_quantities_of_no_points_are_empty(h):
    # The table of a multi-term h took the least of no queries.
    quantities = log_sandwich_quantities(parse_expr(h), 2.0)(np.array([]))
    assert [q.shape for q in quantities] == [(0,)] * 3
