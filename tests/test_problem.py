"""Problem data: the power-sum boundary of ProblemSpec."""

import pytest

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
