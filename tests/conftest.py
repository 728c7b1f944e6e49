"""Shared fixtures: the reference problem table and cached solver runs."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, settings

from radlab import dop853
from radlab.classify import Domain
from radlab.expressions import parse_expr
from radlab.problem import ProblemSpec
from radlab.solver import SolverOptions, march

settings.register_profile(
    "radlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("radlab")


def power_spec(
    p: float, alpha: float, m: int, beta: int, q: int, n: int = 3
) -> ProblemSpec:
    """A pure power-law problem: g1 = t^m, g2 = t^beta, h = t^q, f1 = f2 = 1."""
    return ProblemSpec(
        p=p,
        alpha=alpha,
        n=n,
        f1=parse_expr("1"),
        f2=parse_expr("1"),
        g1=parse_expr("t" if m == 1 else f"t^{m}"),
        g2=parse_expr("1" if beta == 0 else f"t^{beta}"),
        h=parse_expr("t" if q == 1 else f"t^{q}"),
    )


def exact_power_solution(p, alpha, n, m, beta, q):
    """(spec, k, j, A, B) of the exact solution v = A r**k, u' = B r**j
    that the pure power problem of :func:`power_spec` has for r > 0 below
    the B1 threshold q m < gap (p-1-beta), gap = p-1-alpha.

    With c1 = delta/(n-1): k = (p gap + q) / (gap (p-1-beta) - q m),
    j = (1 + k m)/gap, B**gap = c1 A**m / (1 + k m + delta) and
    A**(p-1-beta-q m/gap) = k**(1-p) ((k-1)(p-1) + n-1)**-1
    (c1 / (1 + k m + delta))**(q/gap).
    """
    spec = power_spec(p, alpha, m, beta, q, n=n)
    gap, delta = p - 1.0 - alpha, spec.delta
    c1 = delta / (n - 1.0)
    k = (p * gap + q) / (gap * (p - 1.0 - beta) - q * m)
    j = (1.0 + k * m) / gap
    A = (
        k ** (1.0 - p) / ((k - 1.0) * (p - 1.0) + n - 1.0)
        * (c1 / (1.0 + k * m + delta)) ** (q / gap)
    ) ** (1.0 / (p - 1.0 - beta - q * m / gap))
    B = (c1 * A**m / (1.0 + k * m + delta)) ** (1.0 / gap)
    return spec, k, j, A, B


@dataclass(frozen=True)
class ReferenceCase:
    """One row of the reconciliation table: a problem with a known class."""

    name: str
    p: float
    alpha: float
    m: int
    beta: int
    q: int
    expected: str
    target_radius: float

    def spec(self) -> ProblemSpec:
        return power_spec(self.p, self.alpha, self.m, self.beta, self.q)

    def options(self) -> SolverOptions:
        return SolverOptions(target_radius=self.target_radius, rel_tol=1e-8)


#: Twelve power-law problems spanning all three boundary classes, including
#: the three reference problems A (linear), B (q = 6) and C (q = 4).
REFERENCE_CASES = (
    ReferenceCase("A", 2.0, 0.0, 1, 0, 1, "B1", 50.0),
    ReferenceCase("B", 2.0, 0.0, 1, 0, 6, "B2", 20.0),
    ReferenceCase("C", 2.0, 0.0, 1, 0, 4, "B3", 20.0),
    ReferenceCase("bounded-p3", 3.0, 0.0, 1, 0, 1, "B1", 20.0),
    ReferenceCase("bounded-p3-a1", 3.0, 1.0, 1, 0, 1, "B1", 20.0),
    ReferenceCase("bounded-beta1", 3.0, 0.0, 1, 1, 1, "B1", 20.0),
    ReferenceCase("vblow-p15", 1.5, 0.0, 1, 0, 6, "B2", 20.0),
    ReferenceCase("vblow-m2", 2.0, 0.0, 2, 0, 4, "B2", 20.0),
    ReferenceCase("vblow-p3-a1", 3.0, 1.0, 2, 0, 8, "B2", 20.0),
    ReferenceCase("bothblow-q3", 2.0, 0.0, 1, 0, 3, "B3", 20.0),
    ReferenceCase("bothblow-p15", 1.5, 0.0, 1, 0, 2, "B3", 20.0),
    ReferenceCase("bothblow-m2", 3.0, 0.0, 2, 1, 3, "B3", 20.0),
)

CASE_BY_NAME = {case.name: case for case in REFERENCE_CASES}


@pytest.fixture(scope="session")
def solved_cases():
    """March every reference problem once; later tests share the runs."""
    runs = {}
    for case in REFERENCE_CASES:
        runs[case.name] = march(case.spec(), 1.0, 1.0, case.options())
    return runs


@pytest.fixture(scope="session")
def ball():
    return Domain.BALL


@pytest.fixture
def dense_stage_calls(monkeypatch):
    """The right-hand sides that ``dop853.dense_stages`` is called with, one
    per call: building a trajectory's columns calls it once, for every
    step of the march at once."""
    calls = []
    dense_stages = dop853.dense_stages

    def counted(f, steps):
        calls.append(f.__name__)
        return dense_stages(f, steps)

    monkeypatch.setattr(dop853, "dense_stages", counted)
    return calls
