"""The radial integrator: closed-form start, marching, diagnostics."""

import dataclasses
import inspect
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from radlab import dop853, solver, verify
from radlab.classify import (
    BoundaryClass,
    Domain,
    blow_up_rates,
    numeric_classify,
    predict,
    reconcile,
)
from radlab.config import load_config
from radlab.expressions import FuncExpr, parse_expr
from radlab.problem import InvalidProblem, ProblemSpec
from radlab.solver import (
    SolverError,
    SolverOptions,
    TerminationReason,
    blowup_envelope_check,
    march,
    picard_bootstrap,
)

from radlab.verify import (
    check_convexity_bounds,
    check_monotone,
    check_sandwich,
    relative_residuals,
    trajectory_reports,
)

import step_oracle
from conftest import CASE_BY_NAME, exact_power_solution, power_spec
from scaling_oracle import check_scaling_identity


def test_bootstrap_matches_series_expansion():
    # For p = 2, linear coupling, n = 3, u0 = v0 = 1 the local expansion is
    # u = 1 + r^2/6 + r^5/1080 + ..., v = 1 + r^3/36 + ...  The start ends
    # where v - 1 = r^3/36 reaches 0.01 * rel_tol, and must reproduce both
    # expansions on its whole segment to roundoff.
    case = CASE_BY_NAME["A"]
    boot = picard_bootstrap(case.spec(), 1.0, 1.0, case.options())
    assert boot.sweeps == 1
    assert boot.r0 == pytest.approx((36.0 * 0.01 * 1e-8) ** (1.0 / 3.0), rel=1e-12)
    r = boot.r
    u_series = 1.0 + r**2 / 6.0 + r**5 / 1080.0
    v_series = 1.0 + r**3 / 36.0
    assert np.max(np.abs(boot.u - u_series)) < 1e-15
    assert np.max(np.abs(boot.v - v_series)) < 1e-15
    assert np.allclose(boot.w, r / 3.0, rtol=1e-13, atol=0.0)
    assert np.allclose(boot.dv, r**2 / 12.0, rtol=1e-13, atol=0.0)


def test_bootstrap_profiles_start_flat():
    case = CASE_BY_NAME["B"]
    boot = picard_bootstrap(case.spec(), 1.0, 1.0, case.options())
    assert boot.w[0] == 0.0
    assert boot.dv[0] == 0.0
    assert boot.u[0] == 1.0 and boot.v[0] == 1.0
    # no flat spots after the origin: the sources are strictly positive
    assert np.all(boot.w[1:] > 0.0)
    assert np.all(boot.dv[1:] > 0.0)


@pytest.mark.parametrize(
    "p, alpha, f1, h, min_r0",
    [
        # integer powers: the series end, and the growth of v alone sets r0
        (2.0, 0.0, "1 + t", "t^6", 0.1),
        (1.7, 0.3, "1 + 2*t^1.5", "t^2.5 + t^9", 0.0),
        (2.5, 1.2, "1 + t^0.3", "t^2 + t^5", 0.0),
    ],
)
def test_multi_term_start_is_a_solution(p, alpha, f1, h, min_r0):
    # Multi-term powers enter the start as cut binomial series.  Its profiles
    # must satisfy both differential relations and agree at r0 with a tight
    # run, which marches through r0.
    spec = ProblemSpec(
        p=p, alpha=alpha, n=3, f1=parse_expr(f1), f2=parse_expr("1 + t"),
        g1=parse_expr("t"), g2=parse_expr("1"), h=parse_expr(h),
    )
    boot = picard_bootstrap(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert boot.r0 > min_r0
    res1, res2 = relative_residuals(spec, boot.r, boot.v, boot.w, boot.dv)
    assert max(np.max(res1[5:]), np.max(res2[5:])) < 1e-6
    tight = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-11))
    assert tight.start_radius < boot.r0
    at = tight.sample([boot.r0])
    for key, column in (("u", boot.u), ("v", boot.v), ("du", boot.w), ("dv", boot.dv)):
        assert column[-1] == pytest.approx(at[key][0], rel=1e-7), key


def test_march_reaches_target_on_bounded_case(solved_cases):
    run = solved_cases["A"]
    assert run.terminated is TerminationReason.REACHED_TARGET
    assert run.r_end == pytest.approx(50.0)
    assert run.R0 is None


def test_march_detects_blowup(solved_cases):
    run = solved_cases["B"]
    assert run.terminated is TerminationReason.BLOW_UP
    assert run.R0 == pytest.approx(4.440015366348077, rel=1e-9)
    assert run.r_end < run.R0 < 1.02 * run.r_end


@pytest.mark.parametrize("name", ["b", "c"])
def test_blow_up_radius_is_resolved_as_stated(name):
    # SolverOptions states what was measured: at rel_tol 1e-8, R0 on B and
    # C lies within 4.8e-10 and 4.3e-10, relative, of a rel_tol 1e-12 run.
    config = load_config(str(ROOT / "configs" / f"problem_{name}.cfg"))
    options = config.solver_options()
    assert options.rel_tol == 1e-8
    run, tight = (
        march(config.spec(), config.u0, config.v0, dataclasses.replace(options, rel_tol=rel_tol))
        for rel_tol in (1e-8, 1e-12)
    )
    assert abs(run.R0 / tight.R0 - 1.0) <= 0.1 * options.rel_tol


def test_march_rhs_budget_on_problem_c(solved_cases):
    # Dormand-Prince 8(5,3) with dense output needs ~2.6k evaluations here,
    # Dormand-Prince 5(4) needed 3,194, and the step-doubled Heun march
    # before it 56k.
    run = solved_cases["C"]
    assert run.options.rel_tol == 1e-8
    assert run.rhs_evals < 15_000


def test_sweep_ladder_step_count():
    # A machine-independent count of the march's work: the q = 1..8 ladder
    # of configs/sweep_q.cfg takes 724 accepted steps in all (Dormand-Prince
    # 5(4) took 2,534).
    config = load_config(
        pathlib.Path(__file__).resolve().parent.parent / "configs" / "sweep_q.cfg"
    )
    steps = 0
    for value in config.sweep_values:
        run = config.with_value(config.sweep_parameter, value)
        steps += march(run.spec(), run.u0, run.v0, run.solver_options()).accepted_steps
    assert steps < 1000


def test_march_step_diagnostics(solved_cases):
    # Each step emits 14 sub-panels, or more where 14 would be wider in
    # ln r than the start grid's spacing.
    for run in solved_cases.values():
        assert run.accepted_steps > 0 and run.rejected_steps >= 0
        assert 0.0 < run.dt_min <= run.dt_max < run.options.target_radius
        march_nodes = len(run.r) - run.bootstrap_nodes
        widths = [row[5] - row[2] for row in run.steps.rows]
        assert march_nodes == sum(max(14, math.ceil(w / solver._SPACING)) for w in widths)
        assert march_nodes > solver._SUBPANELS * run.accepted_steps


def test_stalled_sub_nodes_are_dropped(monkeypatch, solved_cases):
    # Only the march ends a run.  Emission drops the sub-nodes of a step that
    # do not advance r, and the verdict and the step counts stay those of
    # the march.  Stall the tenth step from the end of problem B: its
    # interior nodes sit at the radius where it starts.  The columns are
    # built on first read, so both runs are read while dense_nodes is as
    # the test wants it: the full run before the patch, the stalled one
    # under it.
    full = solved_cases["B"]
    full.r
    row = full.steps.rows[-10]
    dense_nodes = dop853.dense_nodes

    def stalled(steps, V, thetas):
        nodes = dense_nodes(steps, V, thetas)
        mine = steps[:, 0] == row[0]
        nodes[mine, 0] = row[2]
        return nodes

    monkeypatch.setattr(dop853, "dense_nodes", stalled)
    case = CASE_BY_NAME["B"]
    run = march(case.spec(), 1.0, 1.0, case.options())
    run.r
    kept = ~((full.r > math.exp(row[2])) & (full.r < math.exp(row[5])))
    assert np.count_nonzero(~kept) == solver._SUBPANELS - 1
    for name in (
        "terminated", "R0", "b_hat", "sigma_hat", "accepted_steps",
        "rejected_steps", "dt_min", "dt_max", "notes", "rhs_evals",
    ):
        assert getattr(run, name) == getattr(full, name), name
    assert np.array_equal(run.r, full.r[kept])
    assert np.array_equal(run.v, full.v[kept])


def test_a_sub_node_that_is_not_finite_is_dropped(monkeypatch, solved_cases):
    # A nan in one dense sub-node, here ln I1 at the seventh interior node of
    # problem C's sixth step, drops that node alone; the verdict and every
    # other node stay.  The full run's columns are built before the patch.
    full = solved_cases["C"]
    full.r
    row = full.steps.rows[5]
    dense_nodes = dop853.dense_nodes

    def poisoned(steps, V, thetas):
        nodes = dense_nodes(steps, V, thetas)
        nodes[np.flatnonzero(steps[:, 0] == row[0])[6], 1] = math.nan
        return nodes

    monkeypatch.setattr(dop853, "dense_nodes", poisoned)
    case = CASE_BY_NAME["C"]
    run = march(case.spec(), 1.0, 1.0, case.options())
    kept = np.isin(full.r, run.r)
    (dropped,) = np.flatnonzero(~kept)
    assert math.exp(row[2]) < full.r[dropped] < math.exp(row[5])
    for name in ("terminated", "R0", "b_hat", "sigma_hat", "accepted_steps"):
        assert getattr(run, name) == getattr(full, name), name
    for name in ("r", "u", "v", "w", "dv"):
        column = getattr(run, name)
        assert np.all(np.isfinite(column)), name
        assert np.array_equal(column, getattr(full, name)[kept]), name
    assert numeric_classify(run).label is numeric_classify(full).label


ROOT = pathlib.Path(__file__).resolve().parent.parent


def _committed_runs():
    """(label, run config): every committed run file and each value of its
    sweep, then problem A at targets 706.5 and 1000 and the sweep_q ladder
    at 1e4, whose v passes the largest float on some rows."""
    runs = []
    for path in sorted(
        [*ROOT.glob("configs/*.cfg"), *ROOT.glob("radbench/configs/*.cfg"),
         ROOT / "tests" / "data" / "extreme_v0.cfg"]
    ):
        config = load_config(str(path))
        runs.append((path.stem, config))
        runs += [
            (f"{path.stem}-{config.sweep_parameter}{value:g}",
             config.with_value(config.sweep_parameter, value))
            for value in config.sweep_values
        ]
    problem_a = load_config(str(ROOT / "configs" / "problem_a.cfg"))
    runs += [
        (f"problem_a-target{target:g}", dataclasses.replace(problem_a, target_radius=target))
        for target in (706.5, 1000.0)
    ]
    sweep_q = load_config(str(ROOT / "configs" / "sweep_q.cfg"))
    runs += [
        (f"sweep_q-q{value:g}-target1e4",
         dataclasses.replace(sweep_q.with_value("q", value), target_radius=1e4))
        for value in sweep_q.sweep_values
    ]
    return runs


#: What a run reports without its columns.
VERDICT = (
    "terminated", "R0", "b_hat", "sigma_hat", "r_end", "v_final",
    "bootstrap_nodes", "start_radius", "accepted_steps", "rejected_steps",
    "dt_min", "dt_max", "notes",
)


COMMITTED_RUNS = _committed_runs()


@pytest.mark.parametrize(
    "config", [config for _, config in COMMITTED_RUNS],
    ids=[label for label, _ in COMMITTED_RUNS],
)
def test_verdict_is_that_of_the_built_columns(config, dense_stage_calls):
    # The verdict is read before any column is built, and keeps its bits
    # once they are: r_end and v_final are the last node's r and v, unless
    # a column, ln I1 or ln I2 is past the float range there, where the
    # node is dropped (and v_final is inf if v is); and a run whose columns
    # were built first reports the same.  Where the last node is finite, so is every
    # value sampled on [0, r_end].
    args = (config.spec(), config.u0, config.v0, config.solver_options())
    try:
        lazy = march(*args)
    except SolverError as exc:
        assert "not normal floats" in str(exc)  # extreme_v0 has no start
        return
    verdict = {name: getattr(lazy, name) for name in VERDICT}
    march_evals = lazy.rhs_evals
    assert dense_stage_calls == []
    built = march(*args)
    built.r
    assert {name: getattr(built, name) for name in VERDICT} == verdict
    assert type(lazy.r_end) is float and type(lazy.v_final) is float
    kept = True
    if lazy.steps.rows:
        last = lazy._dense[0][-1:]
        with np.errstate(all="ignore"):
            end = solver._nodes(lazy.spec, config.u0, last, 1.0, last[:, 6:10].T)
        kept = np.isfinite(end).all() and np.all(last[:, 7:9] <= solver._LOG_MAX)
    if kept:
        assert lazy.r[-1].hex() == verdict["r_end"].hex()
        assert lazy.v[-1].hex() == verdict["v_final"].hex()
        sampled = lazy.sample(np.linspace(0.0, lazy.r_end, 201))
        assert all(np.isfinite(column).all() for column in sampled.values())
    else:
        assert lazy.r[-1] < verdict["r_end"] and np.isfinite(lazy.v[-1])
    assert {name: getattr(lazy, name) for name in VERDICT} == verdict
    # The build adds the three dense stages of each step.
    assert lazy.rhs_evals == built.rhs_evals == march_evals + 3 * lazy.accepted_steps


@pytest.mark.parametrize(
    "label, config", COMMITTED_RUNS, ids=[label for label, _ in COMMITTED_RUNS]
)
def test_start_grid_is_built_on_read_and_ends_on_the_handover_state(label, config):
    # The march reads the start's logarithms at r0 alone; the grid, built
    # when its columns are first read, starts on the origin and ends on the
    # same state (I1 and I2 from the profiles there), taken in floats from
    # the same power sums, and keeps its 1,025 nodes (21 on
    # stress_alpha099, whose lower nodes are subnormal).
    try:
        boot = picard_bootstrap(config.spec(), config.u0, config.v0, config.solver_options())
    except SolverError as exc:
        assert "not normal floats" in str(exc)  # extreme_v0 has no start
        return
    assert "_columns" not in vars(boot)
    columns = (boot.r, boot.u, boot.v, boot.w, boot.dv)
    origin = (0.0, config.u0, config.v0, 0.0, 0.0)
    assert [float(column[0]).hex() for column in columns] == [value.hex() for value in origin]
    assert boot.r[-1] == boot.r0
    lv, lI1, lI2, lU = boot.state
    I1, I2 = boot.profiles(boot.r[-1:])[4:6]
    last = [boot.u[-1], boot.v[-1], I1[0], I2[0]]
    want = [config.u0 + math.exp(lU), *np.exp([lv, lI1, lI2])]
    np.testing.assert_allclose(last, want, rtol=1e-13, atol=0.0)
    assert len(boot.r) == (21 if label == "stress_alpha099" else 1025)


def _power_sum_spec(p, alpha, n, **texts):
    """The problem whose f1, f2, g1, g2 and h are the power sums ``texts``."""
    exprs = {name: parse_expr(text) for name, text in texts.items()}
    return ProblemSpec(p=p, alpha=alpha, n=n, **exprs)


#: Rows 10 and 57 of the 150-problem corpus (ROADMAP item 16's recipe) and
#: their v0: their start profiles fall below the normal floats at r0.
UNDERFLOWING_STARTS = {
    "corpus_10": (
        _power_sum_spec(1.65, 0.47, 5, f1="2.51*t^1.26 + 2.45*t^1.32", f2="2.22*t^0.65",
                        g1="1.99*t^0.75 + 1.91*t^1.81", g2="0.65*t^1.62",
                        h="0.8*t^0.51 + 1.78*t^5.31"),
        466.0,
    ),
    "corpus_57": (
        _power_sum_spec(1.73, 0.33, 5, f1="0.93*t^0.8 + 1.76*t^1.83",
                        f2="0.44*t^0.64 + 0.78*t^1.85", g1="0.44*t^2.97",
                        g2="2.72*t^0.87 + 2.7*t^2.11", h="0.92*t^7.51"),
        0.00101,
    ),
}
START_CHECKS = [
    *((label, (config.spec(), config.u0, config.v0, config.solver_options()))
      for label, config in COMMITTED_RUNS),
    *((label, (spec, 1.0, v0, SolverOptions(target_radius=20.0)))
      for label, (spec, v0) in UNDERFLOWING_STARTS.items()),
]


@pytest.mark.parametrize("args", [args for _, args in START_CHECKS],
                         ids=[label for label, _ in START_CHECKS])
def test_start_check_in_floats_gives_the_verdict_on_arrays(args):
    # The start checks its ten profiles at r0 in floats; numpy's profiles on
    # the one-element array [r0] must give the same verdict: normal on every
    # committed run, past the float range on extreme_v0 (g1(v0) = 1e400),
    # and subnormal on the two corpus rows.
    try:
        boot = picard_bootstrap(*args)
    except SolverError as exc:
        assert "not normal floats" in str(exc)
        # The r0 and profiles of the start that refused them.
        start = inspect.trace()[-1].frame.f_locals
        r0, profiles, accepted = start["r0"], start["profiles"], False
    else:
        r0, profiles, accepted = boot.r0, boot.profiles, True
    with np.errstate(all="ignore"):  # the caller's on arrays, as in the columns
        values = profiles(np.array([r0]))
    assert bool(solver._normal(values)[0]) is accepted


@pytest.mark.parametrize(
    "config", [config for _, config in COMMITTED_RUNS],
    ids=[label for label, _ in COMMITTED_RUNS],
)
def test_march_reads_no_power_sum_on_arrays_until_its_columns_are(config, monkeypatch):
    # A run that takes steps finds its verdict, its end and its increments
    # in r in floats and in its step rows: the start's profiles on arrays
    # are evaluated only for the columns, which are not read here.  A run
    # with no step reads v at r0 from them.
    args = (config.spec(), config.u0, config.v0, config.solver_options())
    try:
        want = march(*args)
    except SolverError:
        return  # extreme_v0 has no start
    if not want.accepted_steps:
        return

    evaluate = solver._evaluate

    def refused(terms, log_r, exp):
        if exp is np.exp:
            raise AssertionError("the march evaluated a power sum on arrays")
        return evaluate(terms, log_r, exp)

    monkeypatch.setattr(solver, "_evaluate", refused)
    got = march(*args)
    # bootstrap_nodes counts the start's grid, so it builds it.
    names = [name for name in VERDICT if name != "bootstrap_nodes"]
    assert [getattr(got, name) for name in names] == [getattr(want, name) for name in names]
    increments = [math.exp(row[5]) - math.exp(row[2]) for row in got.steps.rows]
    assert (got.dt_min, got.dt_max) == (min(increments), max(increments))


def test_reference_evaluation_count_includes_the_build():
    # Problems A, B and C take 4,029 evaluations with their columns built,
    # as when every run built them in the march.
    total = 0
    for name in "abc":
        config = load_config(str(ROOT / "configs" / f"problem_{name}.cfg"))
        run = march(config.spec(), config.u0, config.v0, config.solver_options())
        run.r
        total += run.rhs_evals
    assert total == 4_029


#: The march's work on problems A, B and C: the reprs of its verdict floats
#: and its step counts.  A change to the step that moves one bit of one float
#: shows here.
REFERENCE_MARCHES = {
    "a": dict(
        R0="None", b_hat="None", sigma_hat="None", r_end="49.99999999999999",
        v_final="1.0037959003102355e+19", dt_min="2.3103297053239658e-10",
        dt_max="0.8903756131930933", accepted_steps="96", rejected_steps="12",
        rhs_evals="1297",
    ),
    "b": dict(
        R0="4.44001536421933", b_hat="1.599999992443372",
        sigma_hat="0.5999999986044168", r_end="4.439944631503735",
        v_final="3149261.0178720723", dt_min="2.9542668515070147e-05",
        dt_max="0.23474517953715202", accepted_steps="70", rejected_steps="11",
        rhs_evals="973",
    ),
    "c": dict(
        R0="4.945361380009993", b_hat="1.9999999991533117",
        sigma_hat="1.0000000001932865", r_end="4.945237291201447",
        v_final="118011851.8367443", dt_min="4.556208784567417e-05",
        dt_max="0.2514242624992935", accepted_steps="76", rejected_steps="10",
        rhs_evals="1033",
    ),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MARCHES))
def test_reference_march_keeps_its_bits(name):
    config = load_config(str(ROOT / "configs" / f"problem_{name}.cfg"))
    run = march(config.spec(), config.u0, config.v0, config.solver_options())
    want = REFERENCE_MARCHES[name]
    assert {field: repr(getattr(run, field)) for field in want} == want


def _atlas_rows():
    """The run configs of the 40 rows of the atlas workload: sweep_q and the
    four atlas ladders."""
    rows = []
    for path in [ROOT / "configs" / "sweep_q.cfg", *sorted(ROOT.glob("radbench/configs/atlas_*.cfg"))]:
        config = load_config(str(path))
        rows += [config.with_value(config.sweep_parameter, value) for value in config.sweep_values]
    return rows


def test_atlas_march_work_is_pinned():
    accepted = rejected = evals = 0
    rows = _atlas_rows()
    for row in rows:
        run = march(row.spec(), row.u0, row.v0, row.solver_options())
        accepted += run.accepted_steps
        rejected += run.rejected_steps
        evals += run.rhs_evals
    assert (len(rows), accepted, rejected, evals) == (40, 3_273, 454, 44_764)


def test_the_march_is_blind_to_u():
    # u enters the system only through u', so the march steps (ln r, ln I1,
    # ln I2) alone: from a start whose ln(u - u0) is off by 1, advance takes
    # the same steps to the same verdict, to the bit, on problems A, B and C
    # and the 40 atlas rows.
    configs = [load_config(str(ROOT / "configs" / f"problem_{name}.cfg")) for name in "abc"]
    for config in configs + _atlas_rows():
        spec, options = config.spec(), config.solver_options()
        start = picard_bootstrap(spec, config.u0, config.v0, options)
        shifted = dataclasses.replace(start, state=(*start.state[:3], start.state[3] + 1.0))
        want, got = (solver.advance(spec, begin, options) for begin in (start, shifted))
        for name in (*VERDICT, "rhs_evals"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name
        assert repr(got.steps.rows) == repr(want.steps.rows)


def test_blow_up_radius_is_checked_at_construction(solved_cases):
    run = solved_cases["B"]
    for R0 in (run.r_end, 0.5 * run.r_end):
        with pytest.raises(ValueError, match="beyond the last node"):
            dataclasses.replace(run, R0=R0)
    with pytest.raises(ValueError, match="exactly for a blow-up run"):
        dataclasses.replace(run, R0=None)


def test_march_profiles_monotone(solved_cases):
    # Every reference case and committed run (A, B, C, the six stress runs
    # and the 40 atlas rows among them) starts on the origin row, where u
    # and v are positive and u' and v' vanish; r increases strictly and u,
    # v, u', v' never decrease.
    runs = list(solved_cases.items())
    for label, config in COMMITTED_RUNS:
        try:
            runs.append((label, march(config.spec(), config.u0, config.v0, config.solver_options())))
        except SolverError:
            assert label == "extreme_v0"  # it has no start
    for label, run in runs:
        assert run.r[0] == 0.0 and np.all(np.diff(run.r) > 0.0), label
        assert run.u[0] > 0.0 and run.v[0] > 0.0, label
        assert run.w[0] == 0.0 and run.dv[0] == 0.0, label
        for series in (run.u, run.v, run.w, run.dv):
            assert np.all(np.diff(series) >= 0.0), label
        assert np.all(run.w[1:] > 0.0), label
        assert np.all(run.dv[1:] > 0.0), label


def test_march_rejects_unbalanced_gradient_exponent():
    spec = power_spec(2.0, 1.0, 1, 0, 1)  # alpha = p - 1
    with pytest.raises(InvalidProblem):
        march(spec, 1.0, 1.0, SolverOptions(target_radius=1.0))


#: Problems A, B and C and four stress runs, all at rel_tol 1e-8.
U_RUNS = {
    "A": "configs/problem_a.cfg",
    "B": "configs/problem_b.cfg",
    "C": "configs/problem_c.cfg",
    **{name: f"radbench/configs/stress_{name}.cfg"
       for name in ("b3_multi", "pole_stall", "pole_stall_f1", "p15_alpha025")},
}


@pytest.mark.parametrize("name", list(U_RUNS))
def test_u_minus_u0_is_held_to_rel_tol(name):
    # The march does not step u: u - u0 = r w q is formed over its steps
    # when the columns are built.  At rel_tol 1e-8, u - u0 at the nodes
    # beyond r0 lies within 1e-8, relative, of a rel_tol 1e-12 run read
    # through sample (at most 3.2e-9 here), and the error shrinks from
    # rel_tol 1e-4 to 1e-6 to 1e-8.  A quadrature of du/dtau over the same steps missed this by
    # 1.9e-5 on A, where du/dtau grows like e**(2 tau) near the origin.
    config = load_config(str(ROOT / U_RUNS[name]))
    options = config.solver_options()
    assert options.rel_tol == 1e-8
    args = (config.spec(), config.u0, config.v0)
    tight = march(*args, dataclasses.replace(options, rel_tol=1e-12))
    errors = []
    for rel_tol in (1e-4, 1e-6, 1e-8):
        run = march(*args, dataclasses.replace(options, rel_tol=rel_tol))
        beyond = run.r > run.start_radius
        want = tight.sample(run.r[beyond])["u"] - config.u0
        errors.append(float(np.max(np.abs((run.u[beyond] - config.u0) / want - 1.0))))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 1e-8


def test_sample_reproduces_nodes(solved_cases):
    # sample reads the start's profiles and the steps' extensions, the
    # mechanisms that give the nodes, so at a node's radius it gives the
    # node to roundoff.  A radius off by one ulp moves tau by ulp / (dr/dtau),
    # which near a pole is far more than one ulp of tau: each value is
    # bounded by 1e-13 |x| + 8 ulp(r) |x'|, x' from the columns.
    for name in ("A", "B", "C", "vblow-p15", "bothblow-m2"):
        run = solved_cases[name]
        idx = np.append(np.arange(0, len(run.r), 97), len(run.r) - 1)
        r = run.r[idx]
        out = run.sample(r)
        for key, column, slope in (
            ("u", run.u, run.w),
            ("v", run.v, run.dv),
            ("du", run.w, fd_derivative(run.r, run.w)),
            ("dv", run.dv, fd_derivative(run.r, run.dv)),
        ):
            bound = 1e-13 * np.abs(column[idx]) + 8.0 * np.spacing(r) * np.abs(slope[idx])
            assert np.all(np.abs(out[key] - column[idx]) <= bound), (name, key)


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_sample_between_nodes_is_held_to_rel_tol(name, solved_cases):
    # Between the nodes beyond r0, sample is the seventh-order extension of
    # the march's own steps, so its error is set by rel_tol and not by the
    # node spacing: at the middle of every panel up to 0.95 R0 (or the
    # target), u and v lie within rel_tol / 10 of a rel_tol 1e-12 run.  A
    # cubic Hermite fit of the nodes missed this by 1.2 to 2.9 times in v.
    run = solved_cases[name]
    options = run.options
    tight = march(run.spec, 1.0, 1.0, dataclasses.replace(options, rel_tol=1e-12))
    end = 0.95 * run.R0 if run.R0 is not None else run.r_end
    middle = 0.5 * (run.r[1:] + run.r[:-1])
    middle = middle[(middle > run.start_radius) & (middle < end)]
    assert len(middle) > 500
    got, want = run.sample(middle), tight.sample(middle)
    for key in ("u", "v"):
        assert np.allclose(got[key], want[key], rtol=options.rel_tol / 10.0, atol=0.0), key


def fd_derivative(x, y):
    """The derivative of samples ``y`` on the grid ``x`` from the weights
    that the residuals read."""
    weights, idx = verify._fd_weights(np.asarray(x, dtype=float))
    return np.einsum("ij,ij->i", weights, np.asarray(y, dtype=float)[idx])


def test_fd_derivative_exact_on_quartics():
    # Five-node weights differentiate degree-4 polynomials exactly, on the
    # centred windows and on the shifted one-sided windows at both ends.
    rng = np.random.default_rng(7)
    grids = {
        "random": np.sort(rng.uniform(1.0, 2.0, 200)),
        "geometric": np.geomspace(1e-3, 10.0, 60),
    }
    for name, x in grids.items():
        for degree in range(1, 5):
            coeffs = rng.normal(size=degree + 1)
            slope = np.polyder(coeffs)
            error = fd_derivative(x, np.polyval(coeffs, x)) - np.polyval(slope, x)
            # relative to the derivative's size without cancellation
            scale = np.polyval(np.abs(slope), np.abs(x))
            assert np.all(np.abs(error) <= 1e-9 * scale), (name, degree)


def reference_fd_weights(x):
    """The five-node derivative weights as one ``np.prod`` and one ``np.sum``
    over the (n, m) and (n, m, m) window arrays: the oracle whose bits
    ``verify._fd_weights`` must reproduce from its 1-D columns."""
    n = len(x)
    m = min(5, n)
    rows = np.arange(n)
    at = rows - np.clip(rows - m // 2, 0, n - m)
    idx = (rows - at)[:, None] + np.arange(m)
    xw = x[idx]
    ahead = x[:, None] - xw
    ahead[rows, at] = 1.0
    gaps = xw[:, :, None] - xw[:, None, :] + np.eye(m)
    weights = np.prod(ahead, axis=1, keepdims=True) / (ahead * np.prod(gaps, axis=2))
    ahead[rows, at] = np.inf
    weights[rows, at] = np.sum(1.0 / ahead, axis=1)
    return weights, idx


@pytest.mark.parametrize("seed", range(12))
def test_fd_weights_keep_the_bits_of_the_window_reductions(seed):
    # Grids of 2 to 4,000 nodes (m = n < 5 on the shortest), graded over
    # six decades and scaled by up to 1e+-80, so that the products of four
    # gaps reach the ends of the float range on some grids.
    rng = np.random.default_rng(seed)
    sizes = [2, 3, 4, 5, 6, int(rng.integers(7, 4001))]
    for n in sizes:
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        x = np.unique(x * 10.0 ** rng.uniform(-80, 80))
        if len(x) < 2:
            continue
        with np.errstate(all="ignore"):
            want, want_idx = reference_fd_weights(x)
            got, idx = verify._fd_weights(x)
        assert np.array_equal(idx, want_idx)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), n


def test_fd_derivative_rejects_bad_grids():
    with pytest.raises(ValueError):
        fd_derivative(np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(4))
    with pytest.raises(ValueError):
        fd_derivative(np.array([0.0, 2.0, 1.0]), np.zeros(3))
    with pytest.raises(ValueError):
        fd_derivative(np.array([1.0]), np.zeros(1))


def test_residuals_small_on_solved_runs(solved_cases):
    for name, run in solved_cases.items():
        res1, res2 = relative_residuals(
            run.spec, run.r, run.v, run.w, run.dv
        )
        window = (run.r >= 0.01) & (run.r <= 0.9 * run.r_end)
        sup = max(
            float(np.max(np.abs(res1[window]))),
            float(np.max(np.abs(res2[window]))),
        )
        assert sup < 1e-6, f"{name}: residual sup {sup:.3e}"


def test_residuals_catch_wrong_trajectory(solved_cases):
    run = solved_cases["B"]
    res1, _ = relative_residuals(run.spec, run.r, run.v, 1.1 * run.w, run.dv)
    window = (run.r >= 0.01) & (run.r <= 0.9 * run.r_end)
    assert np.max(np.abs(res1[window])) > 1e-3


def test_residuals_are_nan_or_in_unit_interval_under_overflow():
    # p - 1 - alpha = 2, so W = du^2 and h(du) = du^6 overflow near du = 1e300;
    # inf/inf then gives nan.  Rounding is monotone, so a finite defect never
    # leaves [0, 1]: the trajectory writer relies on nan being the only
    # non-finite residual.
    spec = power_spec(p=3.0, alpha=0.0, m=1, beta=0, q=6)
    r = np.linspace(0.0, 4.0, 25)
    v, du, dv = 1.0 + r, r.copy(), r**2
    du[10:13] = 1e150, 1e300, 1e308
    dv[11], v[12] = 1e308, 1e300
    du[2], dv[3], v[4], dv[20], du[21] = 5e-324, 0.0, 1e-300, 5e-324, 1e-160
    with np.errstate(all="ignore"):
        res1, res2 = relative_residuals(spec, r, v, du, dv)
    for res in (res1, res2):
        assert np.all(np.isnan(res) | ((res >= 0.0) & (res <= 1.0)))
    assert np.isnan(res1).any() and np.isnan(res2).any()
    assert not (np.isnan(res1).all() or np.isnan(res2).all())


def test_scaling_identity_holds():
    spec = CASE_BY_NAME["A"].spec()
    for lam in (0.5, 2.0):
        report = check_scaling_identity(spec, lam, 1.0, 1.0, radius=1.0)
        assert report.passed
        assert max(report.sup_diff_u, report.sup_diff_v) < 1e-6


def test_scaling_identity_rejects_blowup_window():
    spec = CASE_BY_NAME["B"].spec()  # blows up near 4.44
    with pytest.raises(SolverError):
        check_scaling_identity(spec, 2.0, 1.0, 1.0, radius=6.0)


def test_envelope_constants_ordered(solved_cases, monkeypatch):
    # C1 and C2 are the extremes of C over the final decade, so the pinch
    # holds by construction and the check inverts no tail integral, for the
    # closed-form phi of B and C and the multi-term phi of stress_b3_multi.
    def refused(*args):
        raise AssertionError("the envelope check called phi_inverse")

    monkeypatch.setattr(solver, "phi_inverse", refused)
    b3_multi = load_config(str(ROOT / "radbench" / "configs" / "stress_b3_multi.cfg"))
    runs = {
        "B": solved_cases["B"],
        "C": solved_cases["C"],
        "b3_multi": march(b3_multi.spec(), b3_multi.u0, b3_multi.v0, b3_multi.solver_options()),
    }
    for name, run in runs.items():
        report = blowup_envelope_check(run, run.spec)
        assert report.passed, f"{name}: envelope violation {report.max_violation}"
        assert 0.0 < report.C1 < report.C2
        assert report.max_violation == 0.0
        assert report.points_checked > 50


def test_envelope_checks_every_final_decade_node_of_a_multi_term_blowup():
    # More than 257 nodes with w > 0 lie in the final decade before R0 here;
    # every one of them is checked, none dropped for cost.
    spec = ProblemSpec(
        p=3.0, alpha=0.0, n=3, f1=parse_expr("1"), f2=parse_expr("1"),
        g1=parse_expr("t^2"), g2=parse_expr("1"), h=parse_expr("1 + t^4"),
    )
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-12))
    assert run.terminated is TerminationReason.BLOW_UP
    d = run.R0 - run.r
    final_decade = int(np.sum((d <= 10.0 * d[-1]) & (run.w > 0.0)))
    assert final_decade > 257
    report = blowup_envelope_check(run, spec)
    assert report.points_checked == final_decade
    assert report.passed


def test_envelope_requires_blowup(solved_cases):
    run = solved_cases["A"]  # reached target, no R0
    with pytest.raises(SolverError):
        blowup_envelope_check(run, run.spec)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(target_radius=0.0)
    with pytest.raises(ValueError):
        SolverOptions(target_radius=1.0, rel_tol=0.0)
    assert SolverOptions(target_radius=1.0, rel_tol=0.01).rel_tol == 0.01


def test_march_resolves_steep_blowup():
    # With g1 = t + t^2 the pole is so steep that r is within 1e-11 of R0
    # when v reaches 1e8, where steps in r would approach ulp(r); in tau
    # the march still resolves R0.
    base = power_spec(2.0, 0.0, 1, 0, 6)
    spec = ProblemSpec(
        p=base.p, alpha=base.alpha, n=base.n, f1=base.f1, f2=base.f2,
        g1=parse_expr("t + t^2"), g2=base.g2, h=base.h,
    )
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.BLOW_UP
    assert run.R0 == pytest.approx(2.378450691, rel=1e-8)
    reports = trajectory_reports(run)
    reports.append(check_sandwich(spec.h, spec.p, [0.01, 0.3, 1.0, 7.0, 60.0]))
    for report in reports:
        assert report.passed, (
            f"{report.name} violated at {report.max_relative_violation:.3e}"
        )
    assert blowup_envelope_check(run, spec).passed
    assert numeric_classify(run).label is BoundaryClass.B2


@pytest.mark.parametrize(
    "g1, q", [("t", 6), ("t", 4), ("t + t^2", 6)], ids=["B", "C", "pole-stall"]
)
def test_blowup_radius_matches_tight_run(g1, q):
    # The march stops once its remaining R0 correction is a twentieth of
    # rel_tol; the R0 it returns must then hold to rel_tol against a run
    # a hundredfold tighter.
    base = power_spec(2.0, 0.0, 1, 0, q)
    spec = ProblemSpec(
        p=base.p, alpha=base.alpha, n=base.n, f1=base.f1, f2=base.f2,
        g1=parse_expr(g1), g2=base.g2, h=base.h,
    )
    options = SolverOptions(target_radius=20.0)
    run = march(spec, 1.0, 1.0, options)
    tight = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-10))
    assert run.terminated is tight.terminated is TerminationReason.BLOW_UP
    assert abs(run.R0 - tight.R0) <= options.rel_tol * tight.R0


def test_march_lands_on_target_while_dr_dtau_falls():
    # dr/dtau = r / (1 + r v'/v) falls for a while here, as it does near a
    # pole, yet no pole follows: the estimates of R0 keep moving, and steps
    # that would overshoot the target radius are shrunk onto it.
    spec = power_spec(3.0, 0.0, 1, 0, 2)
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.REACHED_TARGET
    assert run.r_end == pytest.approx(20.0, abs=1e-12)
    reference = march(
        spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-10)
    )
    probe = np.linspace(1.0, 20.0, 20)
    assert np.allclose(
        run.sample(probe)["v"], reference.sample(probe)["v"], rtol=1e-8, atol=0.0
    )


def test_power_growth_is_no_blow_up():
    # v grows like a power of r, so dr/dtau ~ r/(1 + k) rises and no estimate
    # of R0 is formed.
    spec = power_spec(3.0, 0.0, 1, 0, 1)
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.REACHED_TARGET
    assert run.R0 is None


def _unread_profiles(r):
    raise AssertionError("the exact start's profiles are never read")


def _exact_start(p, alpha, n, m, beta, q):
    """The spec, k, A and start at r = 1 of the exact solution v = A r**k,
    u' = B r**j, u(0) = 1: ln v = ln A, ln I1 = ln(A**m/(1+delta+k m)),
    ln I2 = ln(A**beta B**q/(n+k beta+j q)) and ln(u - 1) = ln(B/(j+1))."""
    spec, k, j, A, B = exact_power_solution(p, alpha, n, m, beta, q)
    state = (
        math.log(A),
        m * math.log(A) - math.log(1.0 + spec.delta + k * m),
        beta * math.log(A) + q * math.log(B) - math.log(n + k * beta + j * q),
        math.log(B) - math.log(j + 1.0),
    )
    kernels = solver._kernels(spec)
    return spec, k, A, solver.BootstrapSegment(1.0, 1.0, state, _unread_profiles, kernels)


@pytest.mark.parametrize(
    "p, alpha, n, m, beta, q",
    [
        # The ten B1 rows of the 120-problem pure-power sample, k from 2.28
        # to 36.3, and two rows with k = 5 and k = 29.
        (2.75, 0.55, 3, 1.05, 0.48, 1.33),
        (3.4, 1.4, 5, 0.31, 0.16, 3.84),
        (2.31, 0.39, 2, 0.7, 0.28, 0.34),
        (3.16, 1.03, 5, 0.42, 0.21, 1.94),
        (2.05, 0.13, 2, 0.33, 0.06, 1.78),
        (3.15, 0.32, 2, 0.26, 0.02, 1.97),
        (3.77, 0.41, 2, 1.08, 0.39, 4.56),
        (3.8, 0.01, 5, 0.65, 0.47, 3.34),
        (2.26, 0.26, 2, 0.69, 0.05, 0.87),
        (3.52, 0.81, 2, 0.81, 0.28, 3.26),
        (2.0, 0.0, 3, 1.0, 0.0, 0.5),
        (2.0, 0.0, 3, 1.0, 0.0, 0.9),
    ],
)
def test_advance_follows_exact_power_solutions(p, alpha, n, m, beta, q):
    # Enter the stepping loop at r = 1 on the exact state and step to 1e4.
    spec, k, A, start = _exact_start(p, alpha, n, m, beta, q)
    options = SolverOptions(target_radius=1e4, rel_tol=1e-8)
    run = solver.advance(spec, start, options)
    assert run.terminated is TerminationReason.REACHED_TARGET
    assert run.start_radius == 1.0 and run.accepted_steps > 0
    assert run.r_end == pytest.approx(1e4, rel=1e-13)
    error = abs(math.log(run.v_final) - math.log(A) - k * math.log(run.r_end))
    assert error <= 10.0 * options.rel_tol


@pytest.mark.parametrize(
    "q, target", [(0.9, 1e40), (0.5, 1e140)], ids=["k29", "k5"],
)
def test_advance_follows_exact_power_solutions_past_the_float_range(q, target):
    # k = 29 and k = 5 take ln v past 2,600 and 1,600: v is inf at the end,
    # and ln v, which the last step holds as tau - ln r, stays on the law.
    spec, k, A, start = _exact_start(2.0, 0.0, 3, 1.0, 0.0, q)
    options = SolverOptions(target_radius=target, rel_tol=1e-8)
    run = solver.advance(spec, start, options)
    assert run.terminated is TerminationReason.REACHED_TARGET
    assert run.v_final == math.inf
    x, h, *_ = row = run.steps.rows[-1]
    lr, log_v = row[5], x + h - row[5]
    assert math.exp(lr) == run.r_end == pytest.approx(target, rel=1e-13)
    assert log_v > 1500.0
    assert abs(log_v - math.log(A) - k * lr) <= 10.0 * options.rel_tol


@pytest.mark.parametrize(
    "r0, state",
    [
        (0.0, (0.0, 0.0, 0.0, 0.0)),
        (5e-324, (0.0, 0.0, 0.0, 0.0)),
        (math.inf, (0.0, 0.0, 0.0, 0.0)),
        (1.0, (0.0, math.nan, 0.0, 0.0)),
        (1.0, (0.0, 0.0, 0.0, -math.inf)),
    ],
)
def test_advance_rejects_a_start_off_the_float_range(r0, state):
    spec = power_spec(2.0, 0.0, 1, 0, 1)
    start = solver.BootstrapSegment(r0, 1.0, state, _unread_profiles, solver._kernels(spec))
    with pytest.raises(SolverError, match="not a positive normal r0 with finite logarithms"):
        solver.advance(spec, start, SolverOptions(target_radius=10.0))


@pytest.mark.parametrize(
    "p, alpha, n, m, beta, q",
    [
        (1.55, 0.33, 3, 1.93, 0.06, 6.52),
        (2.61, 1.5, 5, 2.23, 1.21, 2.43),
        (2.35, 1.25, 2, 1.95, 1.35, 4.32),
        (2.08, 0.99, 3, 2.2, 2.12, 6.17),
        (1.7, 0.64, 5, 1.32, 0.39, 6.82),
    ],
)
def test_slow_pole_ends_in_blowup(p, alpha, n, m, beta, q):
    # The blow-up rate b of v ~ (R0 - r)**-b is below 1 here, so v would
    # reach a fixed threshold like 1e8 only within a few ulps of R0; the
    # estimate of R0 must not wait for it.  Near the origin v' grows
    # like r**k with k from 30 to 160, so the trajectory must hold no node
    # where v' has underflowed, and its first panels no quadrature error.
    spec = power_spec(p, alpha, m, beta, q, n=n)
    run = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0))
    assert run.terminated is TerminationReason.BLOW_UP
    assert np.all(run.dv[run.r > 0.0] > 0.0)
    for report in trajectory_reports(run):
        assert report.passed, (
            f"{report.name} violated at {report.max_relative_violation:.3e}"
        )
    predicted = predict(spec, Domain.BALL)
    numeric = numeric_classify(run)
    assert numeric.label is predicted.label
    assert reconcile(predicted, numeric)["status"] == "agree"


def test_blowup_radius_consistent_under_refinement():
    spec = CASE_BY_NAME["B"].spec()
    coarse = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-6))
    fine = march(spec, 1.0, 1.0, SolverOptions(target_radius=20.0, rel_tol=1e-9))
    assert coarse.R0 == pytest.approx(fine.R0, rel=1e-4)


@pytest.mark.parametrize(
    "p, alpha, q, u0, v0",
    [(2.0, 0.0, 6, 1e6, 1e-6), (1.5, 0.25, 3, 1.0, 1.0)],
)
def test_picard_stage_does_not_stop_with_flat_v(p, alpha, q, u0, v0):
    # Fed u' = 0, the second map returns v' = 0 everywhere when h(0) = 0;
    # the start must feed it the u' of the first map instead, or v is flat
    # on the whole start segment, which the checks rightly reject.
    spec = power_spec(p, alpha, 1, 0, q)
    run = march(spec, u0, v0, SolverOptions(target_radius=20.0))
    assert np.all(run.dv[1 : run.bootstrap_nodes] > 0.0)
    for report in (check_monotone(run), check_convexity_bounds(run)):
        assert report.passed, (
            f"{report.name} violated at {report.max_relative_violation:.3e}"
        )


# The Dormand-Prince 8(5,3) tableau of radlab.dop853 as dense rows for the
# loop below, with 0 for every pair a stage does not use.
_STAGES = range(1, 13)
_C = [0.0] + [c for c, _ in dop853._STAGES]
_A = [[]] + [[row.get(j, 0.0) for j in range(1, i)] for i, (_, row) in enumerate(dop853._STAGES, 2)]
_B, _E5, _BHH = ([w.get(j, 0.0) for j in _STAGES] for w in (dop853._B, dop853._E5, dop853._BHH))


def _in_order(weights, k, c):
    """The sum of weights[j] * k[j][c], one rounding per term in increasing
    j (sum() compensates its rounding from Python 3.12 on)."""
    total = 0.0
    for w, kj in zip(weights, k):
        total += w * kj[c]
    return total


def reference_dop853_step(f, x, h, y, tol):
    """One DOP853 step written as loops over the tableau above."""
    comps = range(len(y))
    k = [f(x, *y)]
    for i in range(1, 12):
        stage = [y[c] + h * _in_order(_A[i], k, c) for c in comps]
        k.append(f(x + _C[i] * h, *stage))
    d = [_in_order(_B, k, c) for c in comps]
    y_new = [y[c] + h * d[c] for c in comps]
    e5 = [abs(_in_order(_E5, k, c)) / tol for c in comps]
    e3 = [abs(d[c] - _in_order(_BHH, k, c)) / tol for c in comps]
    err = max(h * p**2 / math.sqrt(p**2 + 0.01 * q**2) for p, q in zip(e5, e3))
    k13 = f(x + h, *y_new)
    row = [x, h, *y, *y_new] + [kj[c] for kj in (*k, k13) for c in comps]
    return y_new, k13, row, err


def _smooth_rhs(x, a, b, c, d):
    return (b + math.sin(x), -a * c, 0.5 * d + math.cos(a), a * b / (1.0 + c * c))


def _smooth_case(rng):
    # Component sizes spread over six decades, so that which component sets
    # the error estimate varies with the seed.
    x = float(rng.uniform(0.0, 2.0))
    h = float(rng.uniform(0.05, 0.5))
    y = tuple(float(v) for v in rng.uniform(0.5, 2.0, 4) * 10.0 ** rng.uniform(-3, 3, 4))
    return _smooth_rhs, x, h, y, 1e-9


def _march_case(name):
    """A step of the march's own scalar kernel for configs/<name>.cfg, from
    a log state of _log_states, at the tolerance of the fused-step test."""

    def case(rng):
        f = solver._kernels(load_config(str(ROOT / "configs" / f"{name}.cfg")).spec()).rhs
        x, *y = (float(c[0]) for c in _log_states(rng))
        # a step that moves no component by much more than dx
        dx = 0.05 + 0.25 * (x % 1.0)
        return f, x, dx / (1.0 + max(map(abs, f(x, *y)))), y, 5e-10

    return case


@pytest.mark.parametrize(
    # a generic system, and the march's slopes on two problems of the paper
    "case",
    [_smooth_case, _march_case("problem_a"), _march_case("problem_b")],
    ids=["smooth", "problem_a", "problem_b"],
)
@pytest.mark.parametrize("seed", range(8))
def test_dp_step_matches_loop_reference(seed, case):
    f, x, h, y, tol = case(np.random.default_rng(seed))
    got = step_oracle.step(f, x, h, y, f(x, *y), tol)
    want = reference_dop853_step(f, x, h, y, tol)
    # The stages, solution and row are the same float operations in the
    # same order, so they agree to the bit; the error formula differs.
    for name, g, w in zip(("y_new", "k13", "row"), got[:3], want[:3]):
        assert list(g) == list(w), name
    assert got[3] == pytest.approx(want[3], rel=1e-13)
    assert 0.0 < got[3] < math.inf


def test_dp_step_overflow_gives_no_solution():
    # A stage argument past ~709.8 makes exp raise OverflowError; a product
    # past the float range turns into inf without raising.  k1 is finite in
    # both cases, and a step of size 1 reaches the overflow.
    def raising(x, a, b, c):
        return math.exp(a), 1.0, 1.0

    def overflowing(x, a, b, c):
        return 1.0, a * 1e308, 1.0

    for f, y in ((raising, (700.0, 1.0, 1.0)), (overflowing, (1.0, 1.0, 1.0))):
        k1 = f(0.0, *y)
        assert all(map(math.isfinite, k1))
        result = step_oracle.step(f, 0.0, 1.0, y, k1, 1e-9)
        assert result == (None, None, None, math.inf)


def test_dop853_tableau_is_consistent():
    # The first-order conditions: every stage's row sums to its node, the
    # weights of each solution sum to 1 and those of the fifth-order error
    # to 0, and each dense-output row of the last four terms sums to 0.  Any
    # one of the 155 tabulated coefficients scaled by 1 + 1e-6 breaks one.
    for i, row in enumerate(_A[1:], start=1):
        assert sum(row) == pytest.approx(_C[i], abs=1e-14 * sum(map(abs, row))), i
    for weights, total in ((_B, 1.0), (_BHH, 1.0), (_E5, 0.0)):
        assert sum(weights) == pytest.approx(total, abs=1e-14 * sum(map(abs, weights)))
    for row, c in zip(dop853._DENSE_A, dop853._DENSE_C):
        assert row.sum() == pytest.approx(c, abs=1e-14 * np.abs(row).sum())
    for row in dop853._DENSE_D:
        assert row.sum() == pytest.approx(0.0, abs=1e-14 * np.abs(row).sum())


def _rotation_rhs(x, a, b, c, d):
    # a = cos(ln(1+x)), b = sin(ln(1+x)), c = 1/(1+x), d = exp(b): coupled,
    # nonlinear and explicit in x; works on floats and on arrays.
    return -b * c, a * c, -c * c, d * a / (1.0 + x)


def _rotation_exact(x):
    angle = np.log1p(x)
    return np.stack([np.cos(angle), np.sin(angle), 1.0 / (1.0 + x), np.exp(np.sin(angle))], -1)


def _dense_at(f, steps, thetas):
    """The continuous extension of every step at each of the fractions
    ``thetas``, a (steps, thetas, 4) array."""
    V = dop853.dense_stages(f, steps)
    return np.stack([dop853.dense_nodes(steps, V, np.full(len(steps), t)) for t in thetas], 1)


def _fixed_step_errors(steps, end=2.0):
    """Fixed-step DOP853 over [0, end]: the error at the end, that of the
    dense output at 13 interior fractions of every step, and the error
    estimate of the first step."""
    h = end / steps
    x, y = 0.0, tuple(_rotation_exact(0.0))
    k1 = _rotation_rhs(x, *y)
    rows, first_err = [], None
    for _ in range(steps):
        y_new, k13, row, err = step_oracle.step(_rotation_rhs, x, h, y, k1, 1.0)
        first_err = err if first_err is None else first_err
        rows.append(row)
        x, y, k1 = x + h, y_new, k13
    thetas = np.arange(1, 14) / 14.0
    rows = np.array(rows)
    sub = _dense_at(_rotation_rhs, rows, thetas)
    xs = rows[:, :1] + rows[:, 1:2] * thetas
    return (
        float(np.max(np.abs(np.array(y) - _rotation_exact(end)))),
        float(np.max(np.abs(sub - _rotation_exact(xs)))),
        first_err,
    )


def test_dop853_convergence_orders():
    # Halving a fixed step cuts the global error by ~2**8, the dense output's
    # by ~2**7 (2**7.4 at these steps) and the error estimate, e5**2 / e3 ~
    # h**12 / h**4, by ~2**8.  Scaling any one of the 155 tabulated
    # coefficients by 1 + 1e-4 moves one of these orders out of its band,
    # except for a21, a31, c2 and c3 of the first stages and the three
    # third-order weights, which the consistency test above catches.
    coarse, fine = _fixed_step_errors(8), _fixed_step_errors(16)
    assert fine[0] < 1e-11
    global_order, dense_order, estimate_order = (
        math.log2(c / f) for c, f in zip(coarse, fine)
    )
    assert 7.5 < global_order < 8.5
    assert 7.0 < dense_order < 8.5
    assert 7.5 < estimate_order < 8.5


def test_dop853_tableau_matches_scipy():
    # An independent transcription of the same tableau, where available.
    dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    A = np.zeros((13, 13))
    for i in range(12):
        A[i, :i] = _A[i]
    A[12, :12] = _B
    assert np.allclose(_C, dop.C[:12], rtol=1e-15, atol=0.0)
    assert np.allclose(A, dop.A[:13, :13], rtol=1e-15, atol=0.0)
    assert np.allclose(_E5, dop.E5[:12], rtol=1e-15, atol=0.0)
    assert np.allclose(np.subtract(_B, _BHH), dop.E3[:12], rtol=1e-15, atol=1e-17)
    columns = [j - 1 for j in dop853._DENSE_STAGES]
    assert np.allclose(dop853._DENSE_C, dop.C[13:], rtol=1e-15, atol=0.0)
    assert np.allclose(dop853._DENSE_A, dop.A[13:][:, columns], rtol=1e-15, atol=0.0)
    assert np.allclose(dop853._DENSE_D, dop.D[:, columns], rtol=1e-15, atol=0.0)


def test_first_slope_outside_the_float_range_is_a_solver_error():
    # The first evaluation of the march sits outside the step's overflow
    # guard; where it raises or returns a non-finite slope, the run fails
    # with a SolverError, which the CLI reports as a "solver failed" note.
    def raising(x, a, b, c):
        return 1.0, 2.0**x, 1.0  # OverflowError once x > 1023

    def overflowing(x, a, b, c):
        return 1.0, 1.0, a * 1e308  # inf once a > 1.8

    for f in (raising, overflowing):
        y = (1.0,) * 3
        assert solver._first_slope(f, 1.0, y, 1.0) == f(1.0, *y)
        with pytest.raises(SolverError, match="not finite at r=3.0"):
            solver._first_slope(f, 2000.0, (10.0,) * 3, 3.0)


def test_start_reaches_the_target_where_it_holds():
    # alpha = 0.99 gives theta = 100, so h(u') = u'**4 and with it v' stay
    # below the normal floats until r ~ 18, and v is v0 to within the start's
    # tolerance up to the target; so is v from u0 = 1e6, v0 = 1e-6 with
    # h = t^6 (the stress_extreme_start problem).  The start must end at the
    # target itself, exactly, and leave the march no step to take.
    tiny = np.finfo(float).tiny
    options = SolverOptions(target_radius=20.0)
    alpha099 = power_spec(2.0, 0.99, 1, 0, 4)
    for spec, u0, v0 in ((alpha099, 1.0, 1.0), (power_spec(2.0, 0.0, 1, 0, 6), 1e6, 1e-6)):
        boot = picard_bootstrap(spec, u0, v0, options)
        assert boot.r0 == 20.0
        for column in (boot.u, boot.v, boot.w, boot.dv):
            assert np.all(column[1:] >= tiny) and np.all(np.isfinite(column))
        for column in boot.profiles(boot.r[1:])[4:8]:  # I1, I2, fI1 and fI2
            assert np.all(column >= tiny) and np.all(np.isfinite(column))
        run = march(spec, u0, v0, options)
        assert run.terminated is TerminationReason.REACHED_TARGET
        assert run.accepted_steps == 0 and run.dt_min is None and run.dt_max is None
        assert run.start_radius == run.r_end == 20.0
        assert all(report.passed for report in trajectory_reports(run))
    # Where the profiles stay subnormal up to the target there is no start.
    with pytest.raises(SolverError, match="not normal floats"):
        picard_bootstrap(alpha099, 1.0, 1.0, SolverOptions(target_radius=15.0))


def test_rejection_floor_does_not_depend_on_the_target():
    # The pole of this run lies at R0 ~ 1.6e-6, far inside either target, so
    # the target radius must not change a single step: the floor on a
    # rejected step is relative to r.
    spec = power_spec(2.03, 0.97, 1.29, 0.64, 1.69, n=5)
    near, far = (
        march(spec, 1.0, 1e6, SolverOptions(target_radius=target))
        for target in (20.0, 1e6)
    )
    for run in (near, far):
        assert run.terminated is TerminationReason.BLOW_UP, run.notes
    assert near.R0 == far.R0
    assert near.rhs_evals == far.rhs_evals


def _linear_slopes(spec, x, lr, lI1, lI2):
    """The slopes in tau from the system's formulas in floats, on arrays:
    the reference that the kernels in logarithms must agree with."""
    r, v, I1, I2 = np.exp(lr), np.exp(x - lr), np.exp(lI1), np.exp(lI2)
    delta = spec.delta
    w = (delta / (spec.n - 1.0) * I1 / r**delta) ** spec.theta
    dv = (I2 / r ** float(spec.n - 1)) ** (1.0 / (spec.p - 1.0))
    fI1 = r**delta * spec.f1(r) * spec.g1(v)
    fI2 = r ** float(spec.n - 1) * spec.f2(r) * spec.g2(v) * spec.h(w)
    D = 1.0 / r + dv / v
    return 1.0 / (r * D), fI1 / (I1 * D), fI2 / (I2 * D)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# Power sums of 1 to 3 terms whose coefficients are often exactly 1 and whose
# exponents are often exactly 0 or 1, the cases the kernels write out apart.
_power_sums = st.lists(
    st.tuples(
        st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 4.0)),
    ),
    min_size=1, max_size=3, unique_by=lambda term: term[1],
).map(FuncExpr.from_terms)


def _at_the_folds(test):
    """Examples at the constants the kernels leave out where they are 1.0:
    (p, alpha, n) = (2, 0, 3) has c1 = theta = 1/(p-1) = 1 and delta = n - 1,
    (3, 1, 3) theta = delta = 1, (2, 0.5, 3) 1/(p-1) = delta = 1, and
    (2, 0, 2) every one of them, on the sums of the q ladders and on
    multi-term sums."""
    ladder = tuple(map(parse_expr, ("1", "1", "t", "1", "t^5")))
    multi = tuple(map(parse_expr, ("1 + t", "2*t^0.5", "t + t^2", "1", "t^2 + 3*t^4")))
    for p, alpha_share, n in ((2.0, 0.0, 3), (3.0, 0.5, 3), (2.0, 0.5, 3), (2.0, 0.0, 2)):
        for sums in (ladder, multi):
            test = example(p=p, alpha_share=alpha_share, n=n, sums=sums, seed=7)(test)
    return test


def _log_states(rng):
    """Eight states (tau, ln r, ln I1, ln I2) with r, v, I1 and I2 in
    [0.2, 5]."""
    x, lr, lI1, lI2 = np.log(rng.uniform(0.2, 5.0, (4, 8)))
    return x + lr, lr, lI1, lI2


@settings(derandomize=True, max_examples=120)
@given(
    p=st.floats(1.5, 3.5),
    alpha_share=st.floats(0.0, 0.5),
    n=st.sampled_from([2, 3, 5]),
    sums=st.tuples(*[_power_sums] * 5),
    seed=st.integers(0, 2**32 - 1),
)
@_at_the_folds
def test_compiled_kernels_agree_with_the_linear_formulas(p, alpha_share, n, sums, seed):
    # The kernels on floats and on arrays give the slopes of the system's
    # formulas in floats, to roundoff: exp of a sum of logarithms, against
    # a product of powers, agrees to within 1e-13 at these magnitudes.
    f1, f2, g1, g2, h = sums
    spec = ProblemSpec(
        p=p, alpha=alpha_share * (p - 1.0), n=n, f1=f1, f2=f2, g1=g1, g2=g2, h=h
    )
    kernels = solver._kernels(spec)
    states = _log_states(np.random.default_rng(seed))
    want = np.array(_linear_slopes(spec, *states))
    on_floats = np.transpose([kernels.rhs(*map(float, state)) for state in zip(*states)])
    for got in (on_floats, np.array(kernels.rhs_arrays(*states))):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@settings(derandomize=True, max_examples=60)
@given(
    p=st.floats(1.5, 3.5),
    alpha_share=st.floats(0.0, 0.5),
    n=st.sampled_from([2, 3, 5]),
    sums=st.tuples(*[_power_sums] * 5),
    seed=st.integers(0, 2**32 - 1),
)
@_at_the_folds
def test_fused_step_keeps_the_bits_of_the_reference_step(p, alpha_share, n, sums, seed):
    # The fused step returns what the reference step returns for the scalar kernel:
    # y_new, k13, row and err, to the bit.
    f1, f2, g1, g2, h = sums
    spec = ProblemSpec(
        p=p, alpha=alpha_share * (p - 1.0), n=n, f1=f1, f2=f2, g1=g1, g2=g2, h=h
    )
    kernels = solver._kernels(spec)
    tol = 5e-10

    def step(x, size, y, k1):
        got = kernels.step(x, size, y, k1, tol)
        assert repr(got) == repr(step_oracle.step(kernels.rhs, x, size, y, k1, tol))
        return got

    for x, *y in zip(*_log_states(np.random.default_rng(seed))):
        k1 = kernels.rhs(x, *y)
        # a step that moves no component by much more than dx
        dx = 0.05 + 0.25 * (x % 1.0)
        assert step(x, dx / (1.0 + max(map(abs, k1))), y, k1)[3] < math.inf
    # A stage past the float range: a slope of ln I2 of 1e3 takes
    # r v'/v = e**z past the largest float, where exp raises.
    y = (0.0, 0.0, 0.0)
    assert step(0.0, 1.0, y, (1.0, 1.0, 1e3)) == (None, None, None, math.inf)


def test_a_step_whose_stage_leaves_the_real_line_is_rejected():
    # A slope that turns complex only at the step's end (stages 12 and 13,
    # both at x + h) leaves the solution complex, which isfinite rejects:
    # no solution and err = inf, as for a stage that overflows.
    def late(x, *y):
        return (1j if x >= 1.0 else 1.0), 1.0, 1.0, 1.0

    none = (None, None, None, math.inf)
    assert step_oracle.step(late, 0.0, 1.0, (1.0,) * 4, late(0.0), 1e-8) == none


def reference_dense_output(f, row, theta):
    """One step's continuous extension at theta, as loops over the named
    dense-output coefficients, in Horner form."""
    x, h, y0, y1 = row[0], row[1], row[2:6], row[6:10]
    K = [row[6 + 4 * j : 10 + 4 * j] for j in dop853._DENSE_STAGES[:9]]  # stages 1, 6 to 13
    for c, a in zip(dop853._DENSE_C, dop853._DENSE_A):
        stage = [y0[i] + h * sum(a[j] * K[j][i] for j in range(len(K))) for i in range(4)]
        K.append(f(x + c * h, *stage))
    assert [1, 13] == [dop853._DENSE_STAGES[0], dop853._DENSE_STAGES[8]]
    out = []
    for i in range(4):
        dy = y1[i] - y0[i]
        F = [dy, h * K[0][i] - dy, 2.0 * dy - h * (K[8][i] + K[0][i])]
        F += [h * sum(d[j] * K[j][i] for j in range(12)) for d in dop853._DENSE_D]
        y = 0.0
        for k, Fk in enumerate(reversed(F)):
            y = (y + Fk) * (theta if k % 2 == 0 else 1.0 - theta)
        out.append(y0[i] + y)
    return out


def test_dense_output_node_matrix_matches_horner_reference():
    h = 0.25
    x, y = 0.0, tuple(_rotation_exact(0.0))
    k1 = _rotation_rhs(x, *y)
    rows = []
    for _ in range(8):
        y, k1, row, _ = step_oracle.step(_rotation_rhs, x, h, y, k1, 1.0)
        rows.append(row)
        x += h
    thetas = np.arange(1, 14) / 14.0
    got = _dense_at(_rotation_rhs, np.array(rows), thetas)
    want = [[reference_dense_output(_rotation_rhs, row, t) for t in thetas] for row in rows]
    assert got.shape == (8, 13, 4)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    # A fraction of its own for each step, as the march's readers ask.
    each = np.linspace(0.0, 1.0, 8)
    steps = np.array(rows)
    got = dop853.dense_nodes(steps, dop853.dense_stages(_rotation_rhs, steps), each)
    want = [reference_dense_output(_rotation_rhs, row, t) for row, t in zip(rows, each)]
    assert got.shape == (8, 4)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_appended_component_is_that_of_the_full_steps():
    # z' = a - m z, with a and m the slopes of two other components and read
    # by none, appended to the steps of the other three after the fact, is
    # the fourth component of the same steps of the four-component system:
    # its values at the step ends and its 13 stages, chained over 8 steps.
    def three(x, a, b, c):
        return _rotation_rhs(x, a, b, c, 0.0)[:3]

    def four(x, a, b, c, z):
        ka, kb, kc = three(x, a, b, c)
        return ka, kb, kc, ka - kb * z

    h, start = 0.25, 0.7
    rows = {3: [], 4: []}
    for f, y in ((three, tuple(_rotation_exact(0.0)[:3])), (four, (*_rotation_exact(0.0)[:3], start))):
        x, k1 = 0.0, f(0.0, *y)
        for _ in range(8):
            y, k1, row, _ = step_oracle.step(f, x, h, y, k1, 1.0)
            rows[len(y)].append(row)
            x += h
    got = dop853.appended(np.array(rows[3]), lambda k: (k[0], k[1]), start)
    assert got.shape == (8, 2 + 15 * 4)
    assert np.allclose(got, rows[4], rtol=1e-13, atol=1e-15)


def test_sweep_rows_share_one_compiled_kernel():
    # Nothing compiles at import; the sweep's rows differ only in the
    # exponent of h, so they share one compiled source, bound to their own
    # constants.
    script = """
import pathlib, sys
from radlab import solver
from radlab.config import load_config
assert not solver._KERNEL_FACTORIES
config = load_config(sys.argv[1])
two, three = (solver._kernels(config.with_value("q", q).spec()) for q in (2.0, 3.0))
assert len(solver._KERNEL_FACTORIES) == 1
for a, b in zip(two, three):
    assert a.__code__ is b.__code__ and a is not b
assert two.rhs(0.5, 0.1, 0.4, 0.3) != three.rhs(0.5, 0.1, 0.4, 0.3)
"""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(root / "configs" / "sweep_q.cfg")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr


def test_specs_that_differ_in_a_fold_compile_apart():
    # The same sums at (p, alpha, n) whose constants ln c1 (0.0), delta,
    # n - 1, theta and 1/(p-1) (1.0) are neutral in different sets, or where
    # delta is n - 1 or not, each compile their own source; a spec of the
    # same folds shares it.
    sums = dict(zip(("f1", "f2", "g1", "g2", "h"), map(parse_expr, ("1", "1", "t", "1", "t^5"))))
    folds = [(2.0, 0.0, 3), (3.0, 1.0, 3), (2.0, 0.5, 3), (2.0, 0.0, 2), (2.5, 0.0, 3),
             (2.5, 0.5, 3), (2.5, 0.25, 3)]
    steps = [
        solver._kernels(ProblemSpec(p=p, alpha=alpha, n=n, **sums)).step
        for p, alpha, n in folds
    ]
    assert len({step.__code__ for step in steps}) == len(folds)
    same = solver._kernels(ProblemSpec(p=4.0, alpha=0.0, n=3, **sums)).step
    assert same.__code__ is steps[folds.index((2.5, 0.0, 3))].__code__


@pytest.mark.parametrize("spare", [0, 1])
def test_march_stops_at_its_step_budget(spare, monkeypatch):
    # The budget counts accepted steps: problem B blows up on its 70th,
    # after eleven rejections, so a budget of 70 lets it finish and one of
    # 69 does not.
    config = load_config(str(ROOT / "configs" / "problem_b.cfg"))
    args = (config.spec(), config.u0, config.v0, config.solver_options())
    accepted = march(*args).accepted_steps
    assert accepted == 70
    monkeypatch.setattr(solver, "_MAX_STEPS", accepted - 1 + spare)
    if spare:
        assert march(*args).terminated is TerminationReason.BLOW_UP
    else:
        with pytest.raises(SolverError, match=r"^step budget of 69 exhausted at r=\d"):
            march(*args)


def test_sample_evaluates_the_dense_stages_once():
    # sample reads the run's one dense pass: its three extra stages are
    # evaluated for every step, a call each, when first needed, and counted
    # then; a later sample and the columns evaluate none again.  The
    # bisection for the fraction where ln r reaches ln(rs) reads every
    # halving off those stages, and keeps the bits of stages evaluated
    # afresh for each halving.
    config = load_config(str(ROOT / "configs" / "problem_b.cfg"))
    run = march(config.spec(), config.u0, config.v0, config.solver_options())
    kernels = run.steps.boot.kernels
    calls = []

    def counted(*args):
        calls.append(args)
        return kernels.rhs_arrays(*args)

    boot = dataclasses.replace(run.steps.boot, kernels=kernels._replace(rhs_arrays=counted))
    counting = dataclasses.replace(run, steps=run.steps._replace(boot=boot))
    rs = np.linspace(run.start_radius, run.r_end, 9)[1:]
    got = counting.sample(rs)
    assert len(calls) == 3
    assert counting.rhs_evals == run.rhs_evals + 3 * run.accepted_steps
    counting.sample(rs[::-1])
    counting.r
    assert len(calls) == 3
    assert counting.rhs_evals == run.rhs_evals + 3 * run.accepted_steps

    every = counting._dense[0]
    at = np.searchsorted(every[:, 2], np.log(rs), side="right") - 1
    steps = every[at]

    def rhs_arrays(x, lr, lI1, lI2, q):
        k = kernels.rhs_arrays(x, lr, lI1, lI2)
        a, m = solver._u_rates(run.spec, k)
        return (*k, a - m * q)

    def extension(theta):
        return dop853.dense_nodes(steps, dop853.dense_stages(rhs_arrays, every)[:, at], theta)

    lo, hi = np.zeros_like(rs), np.ones_like(rs)
    for _ in range(53):
        theta = 0.5 * (lo + hi)
        below = extension(theta)[:, 0] < np.log(rs)
        lo, hi = np.where(below, theta, lo), np.where(below, hi, theta)
    lr, lI1, lI2, q = extension(theta).T
    spec = run.spec
    v = np.exp(steps[:, 0] + steps[:, 1] * theta - lr)
    lw = spec.theta * (math.log(spec.delta / (spec.n - 1)) + lI1 - spec.delta * lr)
    dv = np.exp((lI2 - (spec.n - 1) * lr) / (spec.p - 1))
    u = 1.0 + np.exp(lr + lw + np.log(q))
    for key, want in (("u", u), ("v", v), ("du", np.exp(lw)), ("dv", dv)):
        assert _bits(got[key]) == _bits(want), key


# No float ceiling: these runs take v, I1, I2 or u past the largest float,
# near ln v = 709.78, which must not end them as a blow-up or underflow.


def _verdict(config):
    """The march of a run config, its predicted and numeric classes, and
    their reconciliation."""
    run = march(config.spec(), config.u0, config.v0, config.solver_options())
    predicted = predict(run.spec, config.domain())
    numeric = numeric_classify(run, config.domain())
    return run, numeric, reconcile(predicted, numeric)


@pytest.mark.parametrize("target", [706.5, 1000.0])
def test_problem_a_is_global_past_the_float_range(target):
    # A is Global with v ~ e**r, so v leaves the float range at r ~ 709.8.
    config = dataclasses.replace(load_config(str(ROOT / "configs" / "problem_a.cfg")), target_radius=target)
    with np.errstate(all="raise"):
        run, numeric, status = _verdict(config)
    assert run.terminated is TerminationReason.REACHED_TARGET, run.notes
    assert run.r_end == pytest.approx(target, rel=1e-13)
    assert numeric.label is BoundaryClass.GLOBAL
    assert status["status"] == "agree"
    if target < 709.0:
        assert math.isfinite(run.v_final)
        for report in trajectory_reports(run):
            assert report.passed, (report.name, report.max_relative_violation)
    else:
        assert run.v_final == math.inf
        assert run.r[-1] < 709.79 and np.all(np.isfinite(run.v))


@pytest.mark.parametrize(
    "path, q", [("configs/sweep_q.cfg", 1.0), ("radbench/configs/atlas_p3_alpha0.cfg", 4.0),
                ("radbench/configs/atlas_p3_alpha1.cfg", 2.0)],
)
def test_threshold_rows_grow_exponentially_to_the_target(path, q):
    # q m = (p - 1 - alpha)(p - 1 - beta): v grows like an exponential of r
    # and passes the largest float long before r = 1e4.
    config = dataclasses.replace(load_config(str(ROOT / path)).with_value("q", q), target_radius=1e4)
    run, numeric, status = _verdict(config)
    assert run.terminated is TerminationReason.REACHED_TARGET, run.notes
    assert numeric.label is BoundaryClass.B1
    assert status["status"] == "agree"


def _scaled_blow_up_radii(config, v0s):
    """R0(v0) * v0**(1/b) for each v0: a constant for pure powers."""
    b, _ = blow_up_rates(config.spec())
    radii = []
    for v0 in v0s:
        run = march(config.spec(), config.u0, v0, config.solver_options())
        assert run.terminated is TerminationReason.BLOW_UP, (v0, run.notes)
        radii.append(run.R0 * v0 ** (1.0 / b))
    return radii


def test_blow_up_radius_scales_with_v0_on_a_slow_pole():
    # h = t^1.01 on sweep_q has b = 301: the pole is so slow that ln v
    # passes 709.78 long before R0 is resolved.
    sweep_q = load_config(str(ROOT / "configs" / "sweep_q.cfg"))
    config = dataclasses.replace(sweep_q, h="t^1.01", target_radius=1e6, rel_tol=1e-8)
    radii = _scaled_blow_up_radii(config, (1e-6, 1.0, 1e6))
    assert max(radii) - min(radii) <= 10.0 * config.rel_tol * min(radii)


def test_nodes_end_where_ln_I2_leaves_the_float_range():
    # Sample row 22 at target 1e4: I2 passes the largest float at r ~ 176.9,
    # where r, u, v, u' and v' are still finite, and the march runs on to
    # r_end = 188.93.  The checks form W, Z and the sources in floats, so
    # no node is kept beyond that point (ln I2 = (n-1) ln r + (p-1) ln v'),
    # and the checks and the residuals run without a numpy warning; with
    # those nodes kept, both overflow (ROADMAP item 22).
    sweep_q = load_config(str(ROOT / "configs" / "sweep_q.cfg"))
    config = dataclasses.replace(
        sweep_q, p=3.57, alpha=1.77, g1="t^1.46", g2="t^0.54", h="t^1.14", target_radius=1e4,
    )
    run = march(config.spec(), config.u0, config.v0, config.solver_options())
    spec = run.spec
    lI2 = (spec.n - 1.0) * np.log(run.r[1:]) + (spec.p - 1.0) * np.log(run.dv[1:])
    assert np.all(lI2 <= solver._LOG_MAX)
    assert run.r[-1] < run.r_end
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(report.passed for report in trajectory_reports(run))
        relative_residuals(spec, run.r, run.v, run.w, run.dv)


def test_sampled_row_22_blows_up():
    # (p, alpha, n, m, beta, q) = (3.57, 1.77, 3, 1.46, 0.54, 1.14), b = 98.9:
    # ln v passes 709.78 near r = 176.7.  An independent DOP853 march of the
    # same system in logarithms gave R0 = 188.97406 at v0 = 1.
    sweep_q = load_config(str(ROOT / "configs" / "sweep_q.cfg"))
    config = dataclasses.replace(
        sweep_q, p=3.57, alpha=1.77, g1="t^1.46", g2="t^0.54", h="t^1.14", target_radius=1e4,
    )
    radii = _scaled_blow_up_radii(config, (1.0, 1e3))
    assert max(radii) - min(radii) <= 10.0 * config.rel_tol * min(radii)
    assert radii[0] == pytest.approx(188.97406, rel=1e-7)
