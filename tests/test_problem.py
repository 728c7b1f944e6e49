"""Problem data: the power-sum boundary of ProblemSpec."""

import pytest

from radlab import problem
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

    monkeypatch.setattr(problem, "_finite_on_grid", refused)
    assert problem.ensure_valid(spec) is first and first.ok


def test_specs_that_share_power_sums_check_them_once():
    # Rows of a q ladder differ in h alone: the next row's validation
    # checks its new h and reads the other four sums' checks.
    problem.validate_assumptions(power_spec(2.0, 0.0, 1, 0, 6))
    before = problem._finite_on_grid.cache_info()
    report = problem.validate_assumptions(power_spec(2.0, 0.0, 1, 0, 6.789))
    after = problem._finite_on_grid.cache_info()
    assert report.ok
    assert (after.hits - before.hits, after.misses - before.misses) == (4, 1)
