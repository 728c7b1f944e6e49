"""Acceptance gate: ten end-to-end criteria, one test function each.

Each test prints a single summary line on success; a failure carries the
offending values in its assertion message.  Tolerances are pinned here
and must not be loosened to make a run pass.
"""

import json
import time

import numpy as np
import pytest

from radlab.classify import BoundaryClass, Domain, numeric_classify, predict
from radlab.cli import main
from radlab.criteria import (
    CriterionKind,
    Verdict,
    criterion,
    outer_power,
    phi,
    sandwich_check,
    tail_exponent_verdict,
)
from radlab.expressions import FuncExpr, parse_expr
from radlab.quadrature import adaptive_quad, integral_to_infinity
from radlab.solver import (
    SolverOptions,
    TerminationReason,
    blowup_envelope_check,
    check_scaling_identity,
    march,
    picard_bootstrap,
)
from radlab.verify import trajectory_reports

from conftest import CASE_BY_NAME, REFERENCE_CASES, power_spec

#: Runs shared between criteria 3 and 4 (criterion 3 populates while timing).
_RUNS: dict = {}


def _grid():
    for p in (1.5, 2.0, 3.0):
        for alpha in (0.0, (p - 1.0) / 2.0):
            for m in (1, 2):
                for beta in range(0, m + 1):
                    for q in range(1, 9):
                        yield p, alpha, m, beta, q


def test_criterion_01_classification_grid():
    """Predicted classes match the closed-form exponent inequalities."""
    start = time.perf_counter()
    checked = 0
    for p, alpha, m, beta, q in _grid():
        spec = power_spec(p, alpha, m, beta, q)
        label = predict(spec, Domain.BALL).label
        bounded = q * m <= (p - 1.0 - alpha) * (p - 1.0 - beta)
        v_only = q * m > m * p + (p - alpha) * (p - 1.0 - beta)
        assert (label is BoundaryClass.B1) == bounded, (
            f"(p={p}, alpha={alpha}, m={m}, beta={beta}, q={q}): "
            f"label {label.value}, bounded-inequality {bounded}"
        )
        assert (label is BoundaryClass.B2) == v_only, (
            f"(p={p}, alpha={alpha}, m={m}, beta={beta}, q={q}): "
            f"label {label.value}, v-only-inequality {v_only}"
        )
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"grid took {elapsed:.3f}s, budget is 1s"
    print(f"criterion 1: PASS — {checked} grid points, {elapsed * 1e3:.0f} ms")


def test_criterion_02_criteria_equivalences():
    """Tail verdicts agree between the h-form and the cumulative form, and
    the sandwich inequality is ordered on random inputs."""
    rng = np.random.default_rng(20240816)

    def random_h() -> FuncExpr:
        terms = [
            (float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.0, 6.0)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        return FuncExpr.from_terms(terms)

    compared = 0
    skipped = 0
    for _ in range(200):
        h = random_h()
        p = float(rng.uniform(1.1, 4.0))
        th = float(rng.uniform(0.2, 4.0))
        nu = float(rng.uniform(0.1, 5.0))
        weight = float(rng.choice([0.0, th]))
        growth_h = h.leading_exponent * th / p
        verdict_h, e_h = tail_exponent_verdict(growth_h, nu, weight)
        growth_cum = (h.leading_exponent * th + 1.0) / (p - 1.0)
        verdict_cum, e_cum = tail_exponent_verdict(
            growth_cum, nu * (p - 1.0) / p, weight
        )
        if min(abs(e_h + 1.0), abs(e_cum + 1.0)) < 1e-5:
            skipped += 1
            continue
        assert verdict_h is verdict_cum, (
            f"h={h.to_text()}, p={p}, theta={th}, nu={nu}, w={weight}: "
            f"{verdict_h.value} vs {verdict_cum.value} (E={e_h}, {e_cum})"
        )
        compared += 1

    worst = 0.0
    for _ in range(500):
        h = random_h()
        p = float(rng.uniform(1.1, 4.0))
        s = float(10.0 ** rng.uniform(-2.0, 2.0))
        lhs, mid, rhs = sandwich_check(h, p, s)
        scale = max(abs(lhs), abs(mid), abs(rhs), 1e-300)
        gap = max((lhs - mid) / scale, (mid - rhs) / scale)
        worst = max(worst, gap)
        assert gap <= 1e-9, (
            f"sandwich violated: h={h.to_text()}, p={p}, s={s}: "
            f"{lhs} !<= {mid} !<= {rhs}"
        )
    print(
        f"criterion 2: PASS — {compared} verdict pairs agree ({skipped} "
        f"borderline skipped), 500 sandwich samples, worst gap {worst:.2e}"
    )


def test_criterion_03_reconciliation_table():
    """Numeric labels match predictions on all twelve reference problems;
    every blow-up run finishes inside 10 seconds at rel_tol 1e-8."""
    slowest = 0.0
    for case in REFERENCE_CASES:
        spec = case.spec()
        start = time.perf_counter()
        run = march(spec, 1.0, 1.0, case.options())
        elapsed = time.perf_counter() - start
        _RUNS[case.name] = run
        predicted = predict(spec, Domain.BALL).label.value
        numeric = numeric_classify(run, Domain.BALL).label.value
        assert predicted == case.expected == numeric, (
            f"{case.name}: expected {case.expected}, predicted {predicted}, "
            f"numeric {numeric}"
        )
        if run.terminated is TerminationReason.BLOW_UP:
            slowest = max(slowest, elapsed)
            assert elapsed < 10.0, (
                f"{case.name}: blow-up run took {elapsed:.2f}s (budget 10s)"
            )
    print(
        f"criterion 3: PASS — 12/12 classes agree, slowest blow-up "
        f"{slowest:.2f}s"
    )


def test_criterion_04_trajectory_checks(solved_cases):
    """All four trajectory inequalities hold on every reference run."""
    runs = _RUNS if len(_RUNS) == len(REFERENCE_CASES) else solved_cases
    worst = ("", 0.0)
    for case in REFERENCE_CASES:
        for report in trajectory_reports(runs[case.name]):
            assert report.passed, (
                f"{case.name}: {report.name} violated at "
                f"{report.max_relative_violation:.3e}"
            )
            if report.max_relative_violation > worst[1]:
                worst = (f"{case.name}/{report.name}", report.max_relative_violation)
    print(
        f"criterion 4: PASS — 48 checks over 12 runs, worst violation "
        f"{worst[1]:.2e} ({worst[0]})"
    )


def test_criterion_05_bootstrap_series():
    """The Picard stage reproduces the local series solution at r = 0.1."""
    spec = CASE_BY_NAME["A"].spec()
    boot = picard_bootstrap(spec, 1.0, 1.0, 0.1)
    r = float(boot.r[-1])
    assert r == pytest.approx(0.1, abs=0.0)
    u_err = abs(float(boot.u[-1]) - (1.0 + r**2 / 6.0))
    v_err = abs(float(boot.v[-1]) - (1.0 + r**3 / 36.0))
    assert u_err < 1e-6, f"u(0.1) off the series by {u_err:.2e}"
    assert v_err < 1e-6, f"v(0.1) off the series by {v_err:.2e}"
    print(f"criterion 5: PASS — series gap u {u_err:.2e}, v {v_err:.2e}")


def test_criterion_06_scaling_identity():
    """Rescaled problems reproduce rescaled solutions for lambda in {1/2, 2}."""
    worst = 0.0
    for name in ("A", "B"):
        spec = CASE_BY_NAME[name].spec()
        for lam in (0.5, 2.0):
            report = check_scaling_identity(spec, lam, 1.0, 1.0, radius=1.0)
            gap = max(report.sup_diff_u, report.sup_diff_v)
            worst = max(worst, gap)
            assert gap < 1e-6, f"{name}, lambda={lam}: sup gap {gap:.2e}"
    print(f"criterion 6: PASS — 4 scaling runs, worst sup gap {worst:.2e}")


def test_criterion_07_closed_form_value():
    """The q = 6 unweighted integral equals 3 * 4^(2/3) / 5, confirmed by
    raw adaptive quadrature, the criterion evaluator, and the tail function."""
    expected = 3.0 * 4.0 ** (2.0 / 3.0) / 5.0
    spec = CASE_BY_NAME["B"].spec()
    th, p, nu = spec.theta, spec.p, outer_power(spec)
    h = spec.h

    def inner(s: float) -> float:
        return adaptive_quad(lambda t: h(t**th) ** (1.0 / p), 0.0, s, rel_tol=1e-12)

    quadrature = integral_to_infinity(
        lambda s: inner(s) ** -nu, 1.0, tail_exponent=8.0 / 3.0, rel_tol=1e-11
    )
    gap_quad = abs(quadrature - expected) / expected
    assert gap_quad < 1e-8, f"quadrature {quadrature!r} vs {expected!r}"

    verdict = criterion(spec, CriterionKind.UNWEIGHTED)
    assert verdict.verdict is Verdict.FINITE
    gap_sym = abs(verdict.value - expected) / expected
    assert gap_sym < 1e-12, f"criterion value {verdict.value!r}"

    gap_phi = abs(phi(spec, 1.0) - expected) / expected
    assert gap_phi < 1e-12, f"phi(1) {phi(spec, 1.0)!r}"
    print(
        f"criterion 7: PASS — value {expected:.6f}; quadrature gap "
        f"{gap_quad:.1e}, symbolic gap {gap_sym:.1e}, phi(1) gap {gap_phi:.1e}"
    )


def test_criterion_08_blowup_envelope(solved_cases):
    """Blow-up tails sit between ordered envelope constants with no
    violations over the final resolved decade."""
    runs = _RUNS if len(_RUNS) == len(REFERENCE_CASES) else solved_cases
    for name in ("B", "C"):
        run = runs[name]
        report = blowup_envelope_check(run, run.spec)
        assert 0.0 < report.C1 < report.C2, (
            f"{name}: envelope constants not ordered: {report.C1}, {report.C2}"
        )
        assert report.max_violation == 0.0, (
            f"{name}: {report.max_violation:.3e} violation over the tail"
        )
        assert report.passed
    print("criterion 8: PASS — envelopes ordered on B and C, zero violations")


def _case_config(case, omega: str = "ball") -> str:
    g1 = "t" if case.m == 1 else f"t^{case.m}"
    g2 = "1" if case.beta == 0 else f"t^{case.beta}"
    h = "t" if case.q == 1 else f"t^{case.q}"
    return (
        "seed = 0\n"
        "[problem]\n"
        f"p = {case.p}\nalpha = {case.alpha}\nn = 3\n"
        f'f1 = "1"\nf2 = "1"\ng1 = "{g1}"\ng2 = "{g2}"\nh = "{h}"\n'
        f'omega = "{omega}"\n'
        "[solver]\n"
        f"u0 = 1\nv0 = 1\ntarget_radius = {case.target_radius}\n"
    )


def test_criterion_09_solve_residuals(tmp_path):
    """Trajectories written by the solve command satisfy both differential
    relations to 1e-6 on the residual window [0.01, 0.9 * r_end]."""
    worst = 0.0
    for case in REFERENCE_CASES:
        cfg = tmp_path / f"{case.name}.cfg"
        cfg.write_text(_case_config(case))
        out = tmp_path / case.name
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0, f"{case.name}: solve exited {code}"
        rows = np.genfromtxt(
            out / "trajectory.csv", delimiter=",", names=True
        )
        r = rows["r"]
        window = (r >= 0.01) & (r <= 0.9 * r[-1])
        sup = max(
            float(np.max(np.abs(rows["res_eq1"][window]))),
            float(np.max(np.abs(rows["res_eq2"][window]))),
        )
        worst = max(worst, sup)
        assert sup < 1e-6, f"{case.name}: residual sup {sup:.3e}"
    print(f"criterion 9: PASS — 12 solve runs, worst residual sup {worst:.2e}")


def test_criterion_10_sweep_determinism(tmp_path):
    """Sweeps are byte-identical across repeats; the q sweep with solves
    reproduces the B1 / B3 / B2 ladder."""
    # (a) the full classification grid, swept over q per (p, alpha, m, beta)
    atlases: list[list[str]] = [[], []]
    combo = 0
    for p in (1.5, 2.0, 3.0):
        for alpha in (0.0, (p - 1.0) / 2.0):
            for m in (1, 2):
                for beta in range(0, m + 1):
                    g1 = "t" if m == 1 else f"t^{m}"
                    g2 = "1" if beta == 0 else f"t^{beta}"
                    cfg = tmp_path / f"grid{combo}.cfg"
                    cfg.write_text(
                        "seed = 0\n[problem]\n"
                        f"p = {p}\nalpha = {alpha}\nn = 3\n"
                        f'f1 = "1"\nf2 = "1"\ng1 = "{g1}"\ng2 = "{g2}"\n'
                        'h = "t"\nomega = "ball"\n'
                        "[solver]\nu0 = 1\nv0 = 1\ntarget_radius = 20\n"
                        "[sweep]\nparameter = q\nvalues = 1, 2, 3, 4, 5, 6, 7, 8\n"
                    )
                    for rep in (0, 1):
                        out = tmp_path / f"grid{combo}-{rep}"
                        assert main(
                            ["sweep", "--config", str(cfg), "--out", str(out)]
                        ) == 0
                        atlases[rep].append((out / "atlas.csv").read_text())
                    combo += 1
    assert atlases[0] == atlases[1], "repeated grid sweeps differ"
    rows = sum(a.count("\nq,") for a in atlases[0])

    # (b) the reference q sweep, solved, twice
    import pathlib

    sweep_cfg = pathlib.Path(__file__).resolve().parent.parent / "configs" / "sweep_q.cfg"
    texts = []
    for rep in (0, 1):
        out = tmp_path / f"qsweep-{rep}"
        assert main(
            ["sweep", "--config", str(sweep_cfg), "--out", str(out), "--solve"]
        ) == 0
        texts.append((out / "atlas.csv").read_text())
    assert texts[0] == texts[1], "repeated solved q sweeps differ"

    lines = texts[0].strip().splitlines()
    classes = {}
    for line in lines[1:]:
        cells = line.split(",")
        classes[float(cells[1])] = (cells[4], cells[5], cells[6])
    for q, expected in [(1, "B1"), (2, "B3"), (3, "B3"), (4, "B3"),
                        (5, "B2"), (6, "B2"), (7, "B2"), (8, "B2")]:
        predicted, numeric, agree = classes[float(q)]
        assert predicted == numeric == expected and agree == "true", (
            f"q={q}: predicted {predicted}, numeric {numeric}, expected {expected}"
        )
    print(
        f"criterion 10: PASS — {combo} grid sweeps ({rows} rows) byte-stable, "
        "solved q sweep byte-stable with B1/B3/B2 ladder"
    )
