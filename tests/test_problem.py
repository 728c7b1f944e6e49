"""Problem data: the power-sum boundary of ProblemSpec."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radlab import problem
from radlab.expressions import FuncExpr
from radlab.problem import InvalidProblem, ProblemSpec

from conftest import power_spec


def test_plain_callable_is_rejected():
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    with pytest.raises(InvalidProblem, match="h must be a parsed power sum"):
        ProblemSpec(
            p=spec.p, alpha=spec.alpha, n=spec.n,
            f1=spec.f1, f2=spec.f2, g1=spec.g1, g2=spec.g2,
            h=lambda t: t,
        )


def test_a_spec_is_validated_once(monkeypatch):
    # A sweep row validates its spec and the march validates it again: the
    # frozen spec makes its report once, and both get that report.
    spec = power_spec(2.0, 0.0, 1, 0, 6)
    first = problem.validate_assumptions(spec)

    def refused(f):
        raise AssertionError("a validated spec was checked again")

    monkeypatch.setattr(problem, "_finite_on_range", refused)
    assert problem.ensure_valid(spec) is first and first.ok


def _finite_on_the_grid(f):
    """The rule that validation keeps: f finite at 40 log-spaced points
    over [1e-3, 1e6]."""
    with np.errstate(over="ignore"):
        return bool(np.all(np.isfinite(f(np.logspace(-3.0, 6.0, 40)))))


#: The exponent at which c * 1e6**e reaches the largest float, for c = 1.
_EDGE = math.log(sys.float_info.max) / math.log(1e6)


def _near_the_edge(c, ulps):
    """A term c * t**e whose value at 1e6 lies ``ulps`` exponent spacings
    from the largest float."""
    e = _EDGE - math.log(c) / math.log(1e6)
    return c, e + ulps * math.ulp(e)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.floats(-300.0, 300.0).map(lambda x: 10.0**x), st.floats(0.0, 60.0)),
            st.builds(_near_the_edge, st.floats(-300.0, 300.0).map(lambda x: 10.0**x),
                      st.integers(-4, 4)),
        ),
        min_size=1, max_size=3,
    )
)
@example([(1e300, 0.0), (1e300, 1.0)])
@example([(1e308, 0.0), (1e308, 1e-9)])
@example([_near_the_edge(1.0, 0)])
@example([_near_the_edge(1.0, 1)])
@example([(1.0, 60.0)])
def test_validation_at_the_top_keeps_the_grid_rule(terms):
    # A power sum is non-decreasing, so it is finite on the 40-point grid
    # exactly when it is finite at 1e6, its last point.  Exponents up to
    # 60, coefficients up to 1e300, terms on the edge of the float range
    # and sums whose terms are finite but whose total is not.
    f = FuncExpr.from_terms(terms)
    assert problem._finite_on_range(f) is _finite_on_the_grid(f)
