"""Run-file parsing and the four CLI subcommands."""

import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import radlab.cli
from radlab.cli import _write_trajectory, main
from radlab.config import ConfigError, load_config, parse_config_text
from radlab.criteria import CriterionDiverges
from radlab.solver import SolverError, blowup_envelope_check, march
from radlab.verify import SANDWICH_GRID, relative_residuals, trajectory_reports

from conftest import power_spec
from trajectory_oracle import load_trajectory, write_trajectory

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

GOOD = textwrap.dedent(
    """\
    # a full run file
    seed = 11

    [problem]
    p = 2
    alpha = 0
    n = 3
    f1 = "1"
    f2 = "1"
    g1 = "t"
    g2 = "1"
    h = "t^6"  # gradient coupling
    omega = "ball"

    [solver]
    u0 = 1
    v0 = 1
    target_radius = 20

    [sweep]
    parameter = q
    values = 1, 2, 3
    """
)


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ config


def test_parse_full_round_trip():
    cfg = parse_config_text(GOOD)
    assert (cfg.p, cfg.alpha, cfg.n) == (2.0, 0.0, 3)
    assert (cfg.f1, cfg.g1, cfg.h, cfg.omega) == ("1", "t", "t^6", "ball")
    assert (cfg.u0, cfg.v0, cfg.target_radius) == (1.0, 1.0, 20.0)
    assert cfg.rel_tol == 1e-8  # default
    assert cfg.sweep_parameter == "q" and cfg.sweep_values == (1.0, 2.0, 3.0)


def test_comment_inside_quotes_preserved():
    text = GOOD.replace('h = "t^6"  # gradient coupling', 'h = "t^6"')
    cfg = parse_config_text(text)
    assert cfg.h == "t^6"


def test_derived_objects():
    cfg = parse_config_text(GOOD)
    spec = cfg.spec()
    assert spec.p == 2.0 and spec.h(2.0) == 64.0
    assert cfg.domain().value == "Ball"
    assert cfg.solver_options().target_radius == 20.0


def test_errors_are_exhaustive_with_line_numbers():
    bad = textwrap.dedent(
        """\
        stray = 1
        [problem]
        p = 0.5
        alpha = -2
        n = 1
        f1 = 1
        f2 = "1"
        g1 = "t"
        g2 = "1"
        omega = "donut"
        [solver]
        u0 = -1
        v0 = 1
        """
    )
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    messages = err.value.errors
    assert any(m == "line 3: p must exceed 1" for m in messages)
    assert any("line 4: alpha must be non-negative" in m for m in messages)
    assert any("line 5: the dimension n must be at least 2" in m for m in messages)
    assert any("line 6: f1 must be a quoted expression" in m for m in messages)
    assert any("line 10: omega" in m for m in messages)
    assert any("line 12: u0 must be positive" in m for m in messages)
    assert any("'h' in [problem]" in m for m in messages)
    assert any("target_radius" in m for m in messages)
    assert any("line 1" in m and "stray" in m for m in messages)
    assert len(messages) >= 9


def test_errors_are_listed_in_section_then_line_order():
    # Missing sections first; then each section in file order, its keys'
    # errors by line and then its missing keys; the sweep values last.
    bad = textwrap.dedent(
        """\
        [solver]
        u0 = -1
        v0 = 1
        stray = 1
        [problem]
        p = 0.5
        alpha = -2
        n = 1
        f1 = 1
        f2 = "1"
        g1 = "t"
        g2 = "1"
        omega = "donut"
        [sweep]
        parameter = q
        values = -1, 2.5
        """
    )
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert err.value.errors == [
        "line 2: u0 must be positive",
        "line 4: unknown key 'stray' in [solver]",
        "missing required key 'target_radius' in [solver]",
        "line 6: p must exceed 1",
        "line 7: alpha must be non-negative",
        "line 8: the dimension n must be at least 2",
        'line 9: f1 must be a quoted expression, e.g. f1 = "t"',
        "line 13: omega must be \"ball\" or \"wholespace\", got 'donut'",
        "missing required key 'h' in [problem]",
        "line 16: sweeping 'q' needs integer values >= 0, got -1.0",
        "line 16: sweeping 'q' needs integer values >= 0, got 2.5",
    ]
    with pytest.raises(ConfigError) as err2:
        parse_config_text("stray = 1\n[problem]\np = 0.5\n")
    assert err2.value.errors == [
        "missing required section [solver]",
        "line 1: key 'stray' appears before any section (only 'seed' is allowed at top level)",
        "line 3: p must exceed 1",
        *(
            f"missing required key {key!r} in [problem]"
            for key in ("alpha", "n", "f1", "f2", "g1", "g2", "h", "omega")
        ),
    ]


@pytest.mark.parametrize("line", ["n = inf", "n = 1e999", "n = -inf", "seed = 1e999"])
def test_infinite_integer_is_a_config_error(line, tmp_path, capsys):
    # An infinite n or seed used to end the parser in an OverflowError
    # traceback (exit 1); it is a config error on its line.
    key, _, raw = line.partition(" = ")
    bad = re.sub(rf"(?m)^{key} = .*$", line, GOOD)
    lineno = bad.splitlines().index(line) + 1
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    message = f"line {lineno}: {key} must be an integer, got {raw!r}"
    assert err.value.errors == [message]
    argv = ["solve", "--config", write(tmp_path, bad), "--out", str(tmp_path / "out")]
    code, out, stderr = run_cli(argv, capsys)
    assert (code, out) == (2, "") and message in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0.5", "0.1", "0.03", "-1"])
def test_rel_tol_outside_solver_range_is_a_config_error(value, tmp_path, capsys):
    # The parser applies SolverOptions' own rule; rel_tol = 0.5 used to
    # load and then end solve and sweep --solve in a ValueError traceback,
    # and from 0.03 the convexity check failed on correct problems.
    text = GOOD.replace("target_radius = 20", f"target_radius = 20\nrel_tol = {value}")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.errors == ["line 19: rel_tol must lie in (0, 0.01]"]
    path = write(tmp_path, text)
    for command in (["solve", "--out", str(tmp_path)], ["sweep", "--solve"]):
        code, out, err_text = run_cli([command[0], "--config", path, *command[1:]], capsys)
        assert (code, out) == (2, "")
        assert "line 19: rel_tol must lie in (0, 0.01]" in err_text


def test_duplicate_key_and_section_rejected():
    bad = GOOD + "\n[problem]\np = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert any("duplicate section [problem]" in m for m in err.value.errors)

    bad2 = GOOD.replace("p = 2", "p = 2\np = 3")
    with pytest.raises(ConfigError) as err2:
        parse_config_text(bad2)
    assert any("duplicate key 'p'" in m for m in err2.value.errors)


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD.replace("u0 = 1", "u0 = 1\nwarp = 9"))
    assert any("unknown key 'warp' in [solver]" in m for m in err.value.errors)
    with pytest.raises(ConfigError) as err2:
        parse_config_text(GOOD + "\n[extras]\nx = 1\n")
    assert any("unknown section [extras]" in m for m in err2.value.errors)


def test_keys_under_an_empty_section_header_are_swallowed():
    # "[]" is an unknown section like "[bogus]": its keys are reported with
    # its header, not filed at the top level, where 'x' would be a second
    # fault.
    text = (CONFIGS / "problem_a.cfg").read_text()
    for header in ("[]", "[bogus]"):
        with pytest.raises(ConfigError) as err:
            parse_config_text(text + f"\n{header}\nseed = 5\nx = 1\n")
        assert err.value.errors == [f"line 20: unknown section {header}"]


def test_expression_parse_failure_reported_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD.replace('g1 = "t"', 'g1 = "sin(t)"'))
    assert any(m.startswith("line 10: g1:") for m in err.value.errors)


def test_sweep_validation():
    with pytest.raises(ConfigError) as err:
        parse_config_text(GOOD.replace("parameter = q", "parameter = zeta"))
    assert any("cannot sweep 'zeta'" in m for m in err.value.errors)
    with pytest.raises(ConfigError) as err2:
        parse_config_text(GOOD.replace("values = 1, 2, 3", "values = 1, 2.5"))
    assert any("integer values" in m for m in err2.value.errors)
    # an empty sweep section means: no sweep
    cfg = parse_config_text(GOOD.split("[sweep]")[0] + "[sweep]\n")
    assert cfg.sweep_parameter is None and cfg.sweep_values == ()


@pytest.mark.parametrize("parameter", ["m", "beta", "q"])
def test_negative_power_sweep_value_is_a_config_error(parameter, tmp_path, capsys):
    # m, beta and q become the power t^value, which the expression language
    # has only for value >= 0: a negative value used to reach config.spec()
    # inside the sweep and end it in a traceback.
    text = GOOD.replace("parameter = q", f"parameter = {parameter}")
    bad = text.replace("values = 1, 2, 3", "values = -1, 1")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    message = f"line 22: sweeping {parameter!r} needs integer values >= 0, got -1.0"
    assert err.value.errors == [message]
    argv = ["sweep", "--config", write(tmp_path, bad), "--out", str(tmp_path)]
    code, _, stderr = run_cli(argv, capsys)
    assert code == 2 and message in stderr
    assert not (tmp_path / "atlas.csv").exists()
    # 0 is a power, t^0, and n keeps its own per-row check of the range
    zero = parse_config_text(text.replace("values = 1, 2, 3", "values = 0, 1"))
    assert zero.sweep_values == (0.0, 1.0)
    n_sweep = GOOD.replace("parameter = q", "parameter = n").replace("1, 2, 3", "-1, 3")
    assert parse_config_text(n_sweep).sweep_values == (-1.0, 3.0)


def test_with_value_rewrites_power_expressions():
    cfg = parse_config_text(GOOD)
    assert cfg.with_value("q", 3).h == "t^3"
    assert cfg.with_value("m", 2).g1 == "t^2"
    assert cfg.with_value("beta", 1).g2 == "t^1"
    assert cfg.with_value("p", 2.5).p == 2.5
    assert cfg.with_value("n", 4).n == 4
    with pytest.raises(ValueError):
        cfg.with_value("q", 2.5)
    with pytest.raises(ValueError):
        cfg.with_value("f1", 1.0)
    # the parser's rule and message: q = -1 used to give h = "t^-1", and a
    # value within 1e-12 of an integer used to be rounded to it
    for value in (-1, 2.0000000000001):
        with pytest.raises(ValueError) as err:
            cfg.with_value("q", value)
        assert str(err.value) == f"sweeping 'q' needs integer values >= 0, got {float(value)!r}"


def test_run_config_is_frozen():
    cfg = parse_config_text(GOOD)
    with pytest.raises(Exception):
        cfg.p = 3.0


# --------------------------------------------------------------------- cli


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_shape(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    code, out, _ = run_cli(["classify", "--config", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "problem", "theta", "delta", "k1", "k2",
        "criterion_unweighted", "criterion_weighted",
        "predicted_class", "notes",
    ]
    assert payload["predicted_class"] == "B2"
    assert payload["criterion_unweighted"]["verdict"] == "Finite"
    assert payload["problem"]["h"] == "t^6"


def test_classify_validation_failure_exits_nonzero(tmp_path, capsys):
    cases = [
        (GOOD.replace('g1 = "t"', 'g1 = "1"'), None),  # k1 = 0
        # t^60 overflows at the 1e6 end of the sampled grid
        (GOOD.replace('h = "t^6"', 'h = "t^60"'),
         "h produced non-finite values on the sampled grid"),
    ]
    for text, error in cases:
        path = write(tmp_path, text)
        code, out, _ = run_cli(["classify", "--config", path], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["validation"]["ok"] is False
        assert payload["validation"]["errors"]
        if error is not None:
            assert error in payload["validation"]["errors"]


def test_classify_unbalanced_alpha_is_no_solution(tmp_path, capsys):
    path = write(tmp_path, GOOD.replace("alpha = 0", "alpha = 1.5"))
    code, out, _ = run_cli(["classify", "--config", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_class"] == "NoSolution"
    assert payload["theta"] is None
    assert payload["criterion_unweighted"] is None


def test_classify_gives_a_multi_term_criterion_value(capsys):
    # stress_b3_multi's h is a sum of powers: the unweighted criterion has a
    # finite positive value and the weighted one diverges, so the class is B3.
    config = str(CONFIGS.parent / "radbench" / "configs" / "stress_b3_multi.cfg")
    code, out, err = run_cli(["classify", "--config", config], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    unweighted = payload["criterion_unweighted"]
    assert payload["predicted_class"] == "B3"
    assert unweighted["verdict"] == "Finite" and 0.0 < unweighted["value"] < math.inf
    assert payload["criterion_weighted"]["verdict"] == "Infinite"


def test_config_error_exits_2(tmp_path, capsys):
    path = write(tmp_path, "[problem]\np = 0.5\n")
    code, out, err = run_cli(["classify", "--config", path], capsys)
    assert code == 2
    assert "p must exceed 1" in err
    assert out == ""


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["classify", "--config", str(tmp_path / "nope.cfg")], capsys
    )
    assert code == 2
    assert "cannot read config" in err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe[problem]\n")
    code, out, err = run_cli(["classify", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid run configuration\n")
    assert f"{path}: not UTF-8 text" in err and "Traceback" not in err


def test_unwritable_out_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    # An --out that is a file, lies under one or cannot be written is
    # reported like an unreadable config: exit 2, one error line, and no row
    # solved first.
    config = str(CONFIGS / "sweep_q.cfg")
    taken = tmp_path / "taken"
    taken.write_text("keep")
    marched = []
    monkeypatch.setattr(radlab.cli, "march", lambda *args: marched.append(args))
    for command in (["solve"], ["sweep", "--solve"]):
        for out in (taken, taken / "below"):
            code, stdout, err = run_cli(
                [command[0], "--config", config, "--out", str(out), *command[1:]], capsys
            )
            assert (code, stdout) == (2, "")
            assert err.startswith("error: cannot write output directory: ")
            assert err.count("\n") == 1 and str(taken) in err
    assert marched == [] and taken.read_text() == "keep"
    # A directory that exists but cannot be written is refused the same way.
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    code, _, err = run_cli(["solve", "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 2 and err.endswith("is not writable\n") and marched == []


def test_solve_writes_deterministic_outputs(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    code, stdout1, _ = run_cli(
        ["solve", "--config", path, "--out", str(out1)], capsys
    )
    assert code == 0
    code2, _, _ = run_cli(["solve", "--config", path, "--out", str(out2)], capsys)
    assert code2 == 0

    report = json.loads((out1 / "report.json").read_text())
    assert report["termination"] == "BlowUp"
    assert report["numeric_class"] == "B2"
    assert report["reconcile"]["status"] == "agree"
    assert report["trajectory_csv"] == "trajectory.csv"
    assert {r["name"] for r in report["verify"]} == {
        "monotone", "convexity_bounds", "uprime_estimate",
        "no_u_only_blowup", "sandwich",
    }
    assert all(r["pass"] for r in report["verify"])
    assert report["envelope"]["pass"] is True
    stats = report["stats"]
    assert list(stats) == [
        "nodes", "bootstrap_nodes", "start_radius", "rhs_evals",
        "accepted_steps", "rejected_steps", "dt_min", "dt_max",
        "b_hat", "sigma_hat",
    ]
    assert stats["accepted_steps"] > 0
    # GOOD has h = t^6 on a ball: b = 8/5 and sigma = 3/5.
    assert abs(stats["b_hat"] - 1.6) < 1e-3
    assert abs(stats["sigma_hat"] - 0.6) < 1e-4
    assert 0.0 < stats["dt_min"] <= stats["dt_max"]

    csv1 = (out1 / "trajectory.csv").read_text()
    assert csv1.splitlines()[0] == "r,u,v,du,dv,res_eq1,res_eq2"
    assert csv1 == (out2 / "trajectory.csv").read_text()
    assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()
    assert stdout1.strip() == (out1 / "report.json").read_text().strip()


def test_solve_with_unstartable_centre_value_fails_cleanly(tmp_path):
    # v0 = 1e200 with g1 = t^2 puts g1(v0) past the float range.  The run
    # must end in a "solver failed" note, not a traceback, and print no
    # numpy warning on the way.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "radlab", "solve",
         "--config", str(root / "tests" / "data" / "extreme_v0.cfg"),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["termination"] is None
    assert len(report["notes"]) == 1
    assert report["notes"][0].startswith("solver failed: ")


def _config_with(tmp_path, source, **values):
    """A copy of the config file ``source``, a path relative to
    ``configs/``, with each ``key = value`` line of ``values`` replaced."""
    text = (CONFIGS / source).read_text()
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    return write(tmp_path, text, name=pathlib.Path(source).name)


def _run_warning_free(argv, capsys):
    """run_cli with numpy's warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return run_cli(argv, capsys)


def _commands(config, tmp_path, capsys):
    """The exit codes of solve, verify and sweep --solve on ``config``, run
    with numpy's warnings as errors and each with an empty stderr, then the
    report, verify's payload and the sweep's one row."""
    codes, outs = [], []
    for argv in (
        ["solve", "--config", config, "--out", str(tmp_path)],
        ["verify", "--config", config],
        ["sweep", "--solve", "--config", config, "--out", str(tmp_path)],
    ):
        code, out, err = _run_warning_free(argv, capsys)
        assert err == ""
        codes.append(code)
        outs.append(out)
    (row,) = csv.DictReader(io.StringIO(outs[2]))
    return codes, json.loads(outs[0]), json.loads(outs[1]), row


#: Problem B with these fields changed: starts whose float arithmetic ended
#: solve in a traceback, and the reason each now gives for failing.
UNSTARTABLE = {
    # ln r0 = -1099.17, so r0 is 0.0 in floats.
    "r0_below_the_floats": (
        dict(f1='"0.0015 + 16.6*t^0.01"', h='"0.012*t^3.911"'),
        "the start radius r0 = e**-1099.",
    ),
    # The coefficient of eps in W = W0 * (1 + eps) is 1e600.
    "eps_beyond_the_floats": (
        dict(f1='"1e-300 + 1e300*t"'),
        "the start's series in W have coefficients beyond the floats",
    ),
    # ... and here 1e-446, which is 0.0 in floats.
    "eps_below_the_floats": (
        dict(f1='"7.5e259 + 8.7e-187*t^0.497"', h='"1.2e-28*t^4.889"'),
        "the start's series in W have coefficients beyond the floats",
    ),
}


@pytest.mark.parametrize("values, reason", UNSTARTABLE.values(), ids=UNSTARTABLE)
def test_start_beyond_the_floats_is_a_solver_failure(values, reason, tmp_path, capsys):
    # Each used to end solve in a traceback.  Now solve gives a "solver
    # failed" note and verify and the sweep row the same reason.
    config = _config_with(tmp_path, "problem_b.cfg", **values)
    codes, report, payload, row = _commands(config, tmp_path, capsys)
    assert codes == [0, 1, 0]
    assert report["termination"] is None and report["verify"] is None
    (note,) = report["notes"]
    assert note.startswith(f"solver failed: {reason}")
    assert payload == {"reports": [], "pass": False, "error": note.removeprefix("solver failed: ")}
    assert row["predicted_class"] != "" and row["numeric_class"] == row["agree"] == ""
    assert row["error"] == payload["error"]


def test_start_takes_the_largest_term_where_the_least_one_is_too_small(tmp_path, capsys):
    # At p = 1.017 the bound on v's growth raises the terms of I2 to the
    # power 1/(p-1) = 58.8, so at ln r0 one of its terms exceeds the one of
    # least exponent by more than the float range, and the log of the sum
    # is taken relative to the largest term.  This run used to end solve,
    # verify and sweep --solve in an OverflowError.
    config = _config_with(
        tmp_path, "problem_b.cfg", p="1.017", f1='"76*t^2.71"',
        f2='"0.0035 + 23*t^1.553"', g1='"0.012*t^2.532"', v0="0.0587",
    )
    codes, report, payload, row = _commands(config, tmp_path, capsys)
    assert codes == [0, 0, 0]
    assert report["termination"] == "BlowUp" and report["notes"] == []
    assert report["R0"] == pytest.approx(11.3354, rel=1e-5)
    assert report["numeric_class"] == "B2" and report["reconcile"]["status"] == "agree"
    assert len(report["verify"]) == 5 and all(check["pass"] for check in report["verify"])
    assert report["envelope"]["pass"] is True
    assert payload["pass"] is True and len(payload["reports"]) == 5
    assert (row["predicted_class"], row["numeric_class"], row["agree"], row["error"]) == (
        "B2", "B2", "true", "")


def test_sandwich_table_of_terms_beyond_the_floats_of_each_other(tmp_path, capsys):
    # The terms of H = 1e42 t + 5e-291 t^2 differ by a ratio below the
    # smallest float, whose log the sandwich's table used to take.
    config = _config_with(tmp_path, "problem_b.cfg", h='"1e42 + 1e-290*t"')
    codes, report, payload, row = _commands(config, tmp_path, capsys)
    assert codes == [0, 0, 0]
    assert report["termination"] == "ReachedTarget" and report["reconcile"]["status"] == "agree"
    assert all(check["pass"] for check in report["verify"])
    assert payload["pass"] is True
    assert [report["verify"][-1]["name"], payload["reports"][-1]["name"]] == ["sandwich"] * 2
    assert (row["predicted_class"], row["numeric_class"], row["agree"], row["error"]) == (
        "B1", "B1", "true", "")


def test_criterion_value_beyond_the_floats_is_reported(tmp_path, capsys):
    # With h = 8.5e-152 t^0.664 the closed form of the criterion values
    # overflowed in A**-nu; the values themselves lie beyond the float range
    # and are reported as inf.  The start fails: h(w) is not normal at r0.
    config = _config_with(
        tmp_path, "problem_b.cfg", p="1.179", g1='"7.5e-13*t^2.618"',
        g2='"1.7e-11*t^1.997"', h='"8.5e-152*t^0.664"',
    )
    code, out, err = _run_warning_free(["classify", "--config", config], capsys)
    assert (code, err) == (0, "")
    classified = json.loads(out)
    for kind in ("criterion_unweighted", "criterion_weighted"):
        assert classified[kind] == {"verdict": "Finite", "value": math.inf, "method": "Symbolic"}
    codes, report, payload, row = _commands(config, tmp_path, capsys)
    assert codes == [0, 1, 0]
    reason = "the start profiles are not normal floats at r0=20.0"
    assert report["notes"] == [f"solver failed: {reason}"]
    assert payload == {"reports": [], "pass": False, "error": reason}
    assert (row["unweighted"], row["weighted"], row["predicted_class"], row["error"]) == (
        "Finite", "Finite", classified["predicted_class"], reason)
    # An envelope fit needs phi, which lies beyond the floats near w = 1:
    # it is no fit, which solve reports as a note, not a failed check.
    b = load_config(str(CONFIGS / "problem_b.cfg"))
    run_of_b = march(b.spec(), b.u0, b.v0, b.solver_options())
    with pytest.raises(SolverError, match="is not a positive float near R0"):
        blowup_envelope_check(run_of_b, load_config(config).spec())


def test_solve_carries_problem_a_past_the_float_range(tmp_path, capsys):
    # Problem A is global with v ~ e**r, which leaves the float range at
    # r ~ 709.8.  The run reaches the target and agrees, with no envelope
    # and no numpy warning; the nodes beyond the float range are dropped
    # and v_final is inf.
    config = _config_with(tmp_path, "problem_a.cfg", target_radius=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            ["solve", "--config", config, "--out", str(tmp_path)], capsys
        )
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["termination"] == "ReachedTarget"
    assert report["reconcile"]["status"] == "agree"
    assert report["envelope"] is None and report["notes"] == []
    assert report["v_final"] == math.inf
    assert all(check["pass"] for check in report["verify"])
    # The envelope fit of a blow-up under a criterion that diverges raises
    # CriterionDiverges, which solve reports as a note.
    b = load_config(str(CONFIGS / "problem_b.cfg"))
    run_of_b = march(b.spec(), b.u0, b.v0, b.solver_options())
    with pytest.raises(CriterionDiverges):
        blowup_envelope_check(run_of_b, load_config(config).spec())


@pytest.mark.parametrize(
    "source, values, termination, convexity_points",
    [
        # stress_alpha099 with h = t^4.2: the start holds to the target and
        # keeps 9 nodes.
        ("problem_c.cfg", dict(alpha="0.99", h='"t^4.2"'), "ReachedTarget", 0),
        # A pure power whose start holds to the target with 6 nodes.
        (
            "problem_b.cfg",
            dict(p="1.064", alpha="0.06", n="5", g1='"t^1.63"', g2='"t^0.23"', h='"t^5.82"'),
            "ReachedTarget",
            0,
        ),
        # Problem B at p = 1.01 blows up (R0 ~ 3.027) so soon after the
        # start's first node past the origin (r ~ 3.006) that no panel lies
        # in the convexity window (0, 0.9 r_end].
        ("problem_b.cfg", dict(p="1.01"), "BlowUp", 0),
        ("problem_b.cfg", dict(p="1.01", h='"t^2 + t^4"'), "BlowUp", 0),
        # Pure powers near p = 1, whose sandwich quantities leave the float
        # range; each blows up.
        ("problem_b.cfg", dict(p="1.022", h='"t^2.47"'), "BlowUp", None),
        ("problem_b.cfg", dict(p="1.025", h='"t^3.71"'), "BlowUp", None),
        ("problem_b.cfg", dict(p="1.031", h='"t^5.89"'), "BlowUp", None),
        ("problem_b.cfg", dict(p="1.046", h='"t^6.52"'), "BlowUp", None),
        # The benchmark's stress configs: four blow-ups, the multi-term h of
        # stress_b3_multi among them, and two starts that hold to the target.
        *(
            pytest.param(f"../radbench/configs/{name}.cfg", {}, termination, None, id=name)
            for name, termination in (
                ("stress_b3_multi", "BlowUp"),
                ("stress_pole_stall", "BlowUp"),
                ("stress_pole_stall_f1", "BlowUp"),
                ("stress_p15_alpha025", "BlowUp"),
                ("stress_alpha099", "ReachedTarget"),
                ("stress_extreme_start", "ReachedTarget"),
            )
        ),
    ],
)
def test_solve_passes_every_check_on_short_and_low_p_runs(
    source, values, termination, convexity_points, tmp_path, capsys
):
    # Each short or low-p run used to end solve in a traceback (a trajectory
    # under 10 nodes, or an empty convexity window) or fail the sandwich
    # check on a correct problem.  A check takes the panels it is given, an
    # empty window passes, and the sandwich is compared in logarithms.  A
    # blow-up agrees and its envelope passes; every run here that reaches
    # its target does so from the start, with R0 beyond it.
    config = _config_with(tmp_path, source, **values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(
            ["solve", "--config", config, "--out", str(tmp_path)], capsys
        )
    assert code == 0
    assert err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report == json.loads(out)
    assert report["termination"] == termination
    assert report["verify"] and all(check["pass"] for check in report["verify"])
    if termination == "BlowUp":
        assert report["reconcile"]["status"] == "agree" and report["envelope"]["pass"] is True
    else:
        assert report["reconcile"]["status"] == "indeterminate"
        assert (report["stats"]["start_radius"], report["stats"]["accepted_steps"]) == (20.0, 0)
    convexity = next(check for check in report["verify"] if check["name"] == "convexity_bounds")
    if convexity_points is not None:
        assert convexity["points_checked"] == convexity_points
        assert convexity["max_relative_violation"] == 0.0


def test_large_centre_value_of_u_is_no_u_only_blowup(tmp_path, capsys):
    # u enters the system only through u', so u0 = 1e9 shifts u and
    # changes nothing else; the check used to read u > 1e8 as blow-up.
    config = _config_with(tmp_path, "sweep_q.cfg", u0="1e9", target_radius=2)
    code, out, _ = run_cli(["solve", "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert (report["termination"], report["numeric_class"]) == ("ReachedTarget", "B1")
    assert (report["stats"]["b_hat"], report["stats"]["sigma_hat"]) == (None, None)
    assert report["reconcile"]["agree"] is True
    assert all(check["pass"] for check in report["verify"])
    code, out, _ = run_cli(
        ["verify", "--config", config, "--trajectory", str(tmp_path / "trajectory.csv")],
        capsys,
    )
    assert code == 0 and json.loads(out)["pass"] is True


def test_sweep_without_solve(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    code, out, _ = run_cli(
        ["sweep", "--config", path, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "parameter,value,unweighted,weighted,predicted_class,error"
    assert lines[1] == "q,1.0,Infinite,Infinite,B1,"
    assert lines[2] == "q,2.0,Finite,Infinite,B3,"
    assert lines[3] == "q,3.0,Finite,Infinite,B3,"
    assert (tmp_path / "atlas.csv").read_text() == out


def test_sweep_without_sweep_section_single_row(tmp_path, capsys):
    text = GOOD.split("[sweep]")[0]
    path = write(tmp_path, text)
    code, out, _ = run_cli(
        ["sweep", "--config", path, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1] == ",,Finite,Finite,B2,"


def test_sweep_rows_survive_per_row_failures(tmp_path, capsys):
    text = GOOD.replace("parameter = q", "parameter = alpha").replace(
        "values = 1, 2, 3", "values = 0, 1, 1.5"
    )
    path = write(tmp_path, text)
    code, out, _ = run_cli(
        ["sweep", "--config", path, "--out", str(tmp_path), "--solve"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("alpha,0.0,Finite,Finite,B2,B2,true,")
    # alpha >= p - 1: criteria are undefined, prediction says NoSolution,
    # the numerical run cannot start, and the row records why
    for row in (lines[2], lines[3]):
        cells = row.split(",", 7)
        assert cells[2] == "" and cells[3] == ""
        assert cells[4] == "NoSolution"
        assert cells[7] != ""


def test_a_solved_sweep_builds_no_trajectory(dense_stage_calls, monkeypatch):
    # A sweep row reads the march's verdict alone, so no row emits nodes,
    # and the start's grid is not built either: the march reads the start's
    # profiles at r0 alone.  Its node count, read afterwards, builds the
    # grid and keeps its value.
    solutions = []

    def kept(*args):
        solutions.append(march(*args))
        return solutions[-1]

    # Nor does a row run the u quadrature, which the columns alone read.
    quadratures = []
    appended = radlab.dop853.appended

    def counted(*args):
        quadratures.append(args)
        return appended(*args)

    monkeypatch.setattr(radlab.cli, "march", kept)
    monkeypatch.setattr(radlab.dop853, "appended", counted)
    config = load_config(str(CONFIGS / "sweep_q.cfg"))
    for value in config.sweep_values:
        row = radlab.cli.sweep_row(config.with_value("q", value), "q", value, True)
        assert row["numeric_class"] and row["error"] == "", row
    assert dense_stage_calls == []
    assert quadratures == []
    assert len(solutions) == len(config.sweep_values)
    for solution in solutions:
        assert "_columns" not in vars(solution)
        assert "_columns" not in vars(solution.steps.boot)
        assert solution.bootstrap_nodes == 1025
        assert "_columns" not in vars(solution)
    # Reading a column runs it, once.
    solutions[0].u
    assert len(quadratures) == 1


def test_solve_builds_the_trajectory_once(dense_stage_calls, tmp_path, capsys, monkeypatch):
    # solve evaluates the dense stages of problem B's steps once, and no
    # later reader of the columns emits them again.  sample reads the same
    # dense pass: it evaluates no stage and builds no column.
    solutions = []
    builds = []
    emit_nodes = radlab.solver._emit_nodes

    def kept(*args):
        solutions.append(march(*args))
        return solutions[-1]

    def counted(*args):
        builds.append(args)
        return emit_nodes(*args)

    monkeypatch.setattr(radlab.cli, "march", kept)
    monkeypatch.setattr(radlab.solver, "_emit_nodes", counted)
    config = load_config(str(CONFIGS / "problem_b.cfg"))
    assert radlab.cli.cmd_solve(config, str(tmp_path)) == 0
    capsys.readouterr()
    assert dense_stage_calls == ["rhs_arrays"]
    assert len(builds) == 1
    (solution,) = solutions
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stats"]["rhs_evals"] == solution.rhs_evals
    assert report["stats"]["nodes"] == len(solution.r)
    assert all(check.passed for check in trajectory_reports(solution))
    assert blowup_envelope_check(solution, solution.spec).passed
    solution.sample(np.linspace(0.0, solution.r_end, 5))
    assert solution.r is solution.r and solution.w is solution.w
    assert len(builds) == 1
    assert dense_stage_calls == ["rhs_arrays"]
    assert report["stats"]["rhs_evals"] == solution.rhs_evals


@pytest.mark.parametrize("solve", [False, True])
def test_sweep_row_records_an_expression_error(solve):
    # A RunConfig built in code is not parsed: an expression the language
    # refuses used to escape sweep_row as an ExpressionError traceback.
    config = dataclasses.replace(parse_config_text(GOOD), h="t^-1")
    row = radlab.cli.sweep_row(config, "q", -1.0, solve)
    assert row["value"] == "-1.0" and row["predicted_class"] == ""
    assert row["error"] == "negative values are not allowed (column 3 in 't^-1')"


@pytest.mark.parametrize(
    "parameter, solved",
    # at target 1 the march ends before the blow-up near r = 4.44
    [("u0", "B2,true"), ("v0", "B2,true"), ("target_radius", "B1,false")],
)
def test_sweep_rows_record_bad_solver_values(parameter, solved, tmp_path, capsys):
    # A swept value the solver refuses used to end the whole sweep in a
    # ValueError traceback; the row records it and the sweep goes on.
    text = GOOD.replace("parameter = q", f"parameter = {parameter}").replace(
        "values = 1, 2, 3", "values = -1, 1"
    )
    path = write(tmp_path, text)
    code, out, _ = run_cli(
        ["sweep", "--config", path, "--out", str(tmp_path), "--solve"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    failed = lines[1].split(",", 7)
    assert failed[:5] == [parameter, "-1.0", "Finite", "Finite", "B2"]
    assert failed[5:7] == ["", ""]
    assert "must be positive" in failed[7]
    assert lines[2] == f"{parameter},1.0,Finite,Finite,B2,{solved},"


@pytest.mark.parametrize("u0", ["1e-9", "1", "1e9"])
def test_sweep_q_labels_do_not_depend_on_u0(u0, tmp_path, capsys):
    # u enters the system only through u', so u0 shifts u and changes no
    # label; a cut on u[-1]/u[0] used to turn the B2 rows B3 at small u0.
    config = _config_with(tmp_path, "sweep_q.cfg", u0=u0)
    code, out, err = run_cli(
        ["sweep", "--config", config, "--out", str(tmp_path), "--solve"], capsys
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[5] for row in rows] == ["B1", "B3", "B3", "B3", "B2", "B2", "B2", "B2"]
    assert all(row[6] == "true" for row in rows)


@pytest.mark.parametrize(
    "parameter, values",
    [("p", "1.5, 2, 2.5, 3, 4"), ("n", "2, 3, 4, 5"), ("alpha", "0, 0.25, 0.5, 0.75")],
)
def test_solved_sweeps_agree_where_kernels_fold_constants(parameter, values, tmp_path, capsys):
    # With h = t^5 the rows of these ladders leave the constants ln c1 = 0
    # and delta, n - 1, theta and 1/(p-1) = 1 out of their kernels in
    # different sets; every row's kernel compiles and its run agrees.
    config = _config_with(
        tmp_path, "sweep_q.cfg", h='"t^5"', parameter=parameter, values=values
    )
    code, out, err = run_cli(
        ["sweep", "--config", config, "--out", str(tmp_path), "--solve"], capsys
    )
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["value"] for row in rows] == [repr(float(v)) for v in values.split(",")]
    assert all(row["agree"] == "true" for row in rows), rows


def test_verify_solves_and_passes(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    code, out, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert [r["name"] for r in payload["reports"]] == [
        "monotone", "convexity_bounds", "uprime_estimate",
        "no_u_only_blowup", "sandwich",
    ]


def test_verify_accepts_solved_trajectory(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    run_cli(["solve", "--config", path, "--out", str(tmp_path)], capsys)
    code, out, _ = run_cli(
        ["verify", "--config", path, "--trajectory",
         str(tmp_path / "trajectory.csv")],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_rejects_corrupted_trajectory(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    run_cli(["solve", "--config", path, "--out", str(tmp_path)], capsys)
    csv_path = tmp_path / "trajectory.csv"
    lines = csv_path.read_text().splitlines()
    cells = lines[40].split(",")
    cells[4] = repr(-abs(float(cells[4])))  # negative dv: impossible
    lines[40] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        ["verify", "--config", path, "--trajectory", str(csv_path)], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    failed = {r["name"] for r in payload["reports"] if not r["pass"]}
    assert "monotone" in failed


def test_verify_rejects_unparseable_trajectory(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    garbage = tmp_path / "garbage.csv"
    garbage.write_text("r,u,v,du,dv\n0.0,1.0,1.0,0.0,zero\n")
    code, out, _ = run_cli(
        ["verify", "--config", path, "--trajectory", str(garbage)], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["reports"] == [] and payload["error"]
    # Five well-formed rows are a trajectory like any other: every check
    # passes, the convexity check on a window (0, 0.9 r_end] that holds
    # none of their panels.
    run_cli(["solve", "--config", path, "--out", str(tmp_path)], capsys)
    short = tmp_path / "short.csv"
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[:6]
    short.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(
        ["verify", "--config", path, "--trajectory", str(short)], capsys
    )
    payload = json.loads(out)
    assert code == 0 and payload["pass"] is True
    convexity = next(r for r in payload["reports"] if r["name"] == "convexity_bounds")
    assert convexity["points_checked"] == 0


def test_verify_parse_errors_name_the_file(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    header = "r,u,v,du,dv,res_eq1,res_eq2\n"
    bad_files = {
        "nonnumeric.csv": (header + "0.0,1.0,1.0,0.0,zero\n", "line 2"),
        "short_row.csv": (header + "0.0,1.0,1.0,0.0\n", "line 2"),
        "header_only.csv": (header, None),
    }
    for name, (text, where) in bad_files.items():
        bad = tmp_path / name
        bad.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(
                ["verify", "--config", path, "--trajectory", str(bad)], capsys
            )
        assert code == 1
        payload = json.loads(out)
        assert payload["reports"] == []
        assert str(bad) in payload["error"]
        if where is not None:
            assert where in payload["error"]


@pytest.mark.parametrize(
    "column, cell",
    [("r", "nan"), ("v", "nan"), ("v", "inf"), ("du", "inf"), ("dv", "nan"), ("dv", "inf")],
)
def test_verify_rejects_non_finite_trajectory_cell(column, cell, tmp_path, capsys):
    # A comparison with nan is false, so a non-finite cell used to slip
    # through every check and the grid test: verify exited 0.
    config = str(CONFIGS / "problem_b.cfg")
    assert run_cli(["solve", "--config", config, "--out", str(tmp_path)], capsys)[0] == 0
    csv_path = tmp_path / "trajectory.csv"
    lines = csv_path.read_text().split("\n")
    cells = lines[1500].split(",")  # line 1501 of the file
    cells[("r", "u", "v", "du", "dv").index(column)] = cell
    lines[1500] = ",".join(cells)
    csv_path.write_text("\n".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(
            ["verify", "--config", config, "--trajectory", str(csv_path)], capsys
        )
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False and payload["reports"] == []
    assert str(csv_path) in payload["error"]


@pytest.mark.parametrize(
    "radii, f1",
    [
        # A window (0, 0.9 r_end] that holds no node: numpy's "zero-size
        # array" error.
        ((-3.0, -2.0, -1.0), "1"),
        # f1 = t^0.5 at r = -1: numpy's "invalid value" warning.
        ((-1.0, 0.5, 1.0, 2.0), "t^0.5"),
        # Panels wider than the float range.
        ((-1e308, 1e308, 1.7e308), "1"),
    ],
)
def test_verify_rejects_a_negative_radius(radii, f1, tmp_path, capsys):
    config = _config_with(tmp_path, "problem_a.cfg", f1=f'"{f1}"')
    csv_path = tmp_path / "trajectory.csv"
    csv_path.write_text("r,u,v,du,dv\n" + "".join(f"{r!r},1.0,1.0,1.0,1.0\n" for r in radii))
    code, out, err = run_cli(
        ["verify", "--config", config, "--trajectory", str(csv_path)], capsys
    )
    assert (code, err) == (1, "")
    error = f"{csv_path}: radii must be non-negative, got r = {radii[0]!r}"
    assert json.loads(out) == {"reports": [], "pass": False, "error": error}


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_verify_trajectory_round_trip(name, tmp_path, capsys):
    # The CSV carries every float in shortest round-trip form: it holds the
    # bits of the solution and its residuals, and checks re-run on the
    # written file must reproduce the solve's reports exactly.
    config = str(CONFIGS / f"problem_{name}.cfg")
    assert run_cli(["solve", "--config", config, "--out", str(tmp_path)], capsys)[0] == 0
    written = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
    cfg = load_config(config)
    spec = cfg.spec()
    run = march(spec, cfg.u0, cfg.v0, cfg.solver_options())
    res1, res2 = relative_residuals(spec, run.r, run.v, run.w, run.dv)
    expected = np.column_stack((run.r, run.u, run.v, run.w, run.dv, res1, res2))
    assert written.shape == expected.shape
    assert np.array_equal(written.view(np.int64), expected.view(np.int64))

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stats"]["nodes"] == len(written)
    assert (report["r_end"], report["v_final"]) == (written[-1, 0], written[-1, 2])
    # The same file with CRLF line ends takes the general reader.
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes((tmp_path / "trajectory.csv").read_bytes().replace(b"\n", b"\r\n"))
    for path in (tmp_path / "trajectory.csv", crlf):
        code, out, _ = run_cli(["verify", "--config", config, "--trajectory", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["reports"] == report["verify"]


# ------------------------------------------------------------------ trajectory CSV


def _significant_digits(token: str) -> str:
    mantissa = token.lstrip("-").lower().partition("e")[0]
    return mantissa.replace(".", "").strip("0")


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
)
_CELLS = st.one_of(
    _EDGE_FLOATS,
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0.0, 2.2250738585072014e-308, exclude_max=True),  # subnormals
    st.floats(1e-5, 1e-4, exclude_max=True),  # positional in the CSV, not in repr
    st.floats(min_value=1e16, allow_infinity=False),
)
_RESIDUAL_CELLS = st.one_of(_CELLS, st.just(math.nan))


@settings(derandomize=True, max_examples=200)
@given(
    st.lists(
        st.tuples(*[_CELLS] * 5, _RESIDUAL_CELLS, _RESIDUAL_CELLS),
        min_size=1, max_size=12,
    )
)
@example([(0.0, 1.0, 1.0, 0.0, 0.0, math.nan, 1.0)])  # one row, a nan residual
def test_trajectory_writer_round_trips_every_float(rows):
    table = np.array(rows, dtype=np.float64)
    buffer, oracle = io.BytesIO(), io.BytesIO()
    _write_trajectory(buffer, table)
    write_trajectory(oracle, table)
    assert buffer.getvalue() == oracle.getvalue()
    lines = buffer.getvalue().decode("ascii").split("\n")
    assert lines[0] == "r,u,v,du,dv,res_eq1,res_eq2"
    assert lines[-1] == "" and len(lines) == len(rows) + 2
    for line, row in zip(lines[1:-1], rows):
        tokens = line.split(",")
        assert len(tokens) == 7
        for token, value in zip(tokens, row):
            if math.isnan(value):
                assert token == "nan"
                continue
            back = float(token)
            assert np.float64(back).view(np.int64) == np.float64(value).view(np.int64)
            assert _significant_digits(token) == _significant_digits(repr(value))


def test_nan_residual_is_written_as_nan(tmp_path, capsys, monkeypatch):
    def with_nan(*args):
        res1, res2 = relative_residuals(*args)
        res1[7] = res2[3] = math.nan
        return res1, res2

    monkeypatch.setattr(radlab.cli, "relative_residuals", with_nan)
    config = str(CONFIGS / "problem_b.cfg")
    assert run_cli(["solve", "--config", config, "--out", str(tmp_path)], capsys)[0] == 0
    text = (tmp_path / "trajectory.csv").read_text()
    assert "null" not in text
    rows = [line.split(",") for line in text.splitlines()]
    assert rows[4][6] == "nan" and rows[8][5] == "nan"
    assert sum(cell == "nan" for row in rows for cell in row) == 2
    code, out, _ = run_cli(
        ["verify", "--config", config, "--trajectory", str(tmp_path / "trajectory.csv")],
        capsys,
    )
    assert code == 0 and json.loads(out)["pass"] is True


@st.composite
def _trajectory_tables(draw):
    """(N, 7) tables of ``_CELLS`` with a strictly increasing r column of
    radii, which are non-negative."""
    r = sorted(draw(st.lists(_CELLS.map(abs), min_size=2, max_size=12, unique=True)))
    rest = draw(
        st.lists(
            st.tuples(*[_CELLS] * 4, _RESIDUAL_CELLS, _RESIDUAL_CELLS),
            min_size=len(r), max_size=len(r),
        )
    )
    return np.array([(x, *row) for x, row in zip(r, rest)], dtype=np.float64)


_READER_SPEC = power_spec(2.0, 0.0, 1, 0, 6)


def _read_with_both(path):
    """What radlab's reader and the oracle make of one file: the bits of
    the five columns, or the error text, which starts with the path."""
    outcomes = []
    for load in (radlab.cli._load_trajectory, load_trajectory):
        try:
            with warnings.catch_warnings():
                # an r column spanning 0 to 1.8e308 must not overflow in a check
                warnings.simplefilter("error", RuntimeWarning)
                data = load(str(path), _READER_SPEC)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            outcomes.append(str(exc))
        else:
            columns = np.stack((data.r, data.u, data.v, data.w, data.dv))
            outcomes.append(columns.view(np.int64).tolist())
    return outcomes


def _written_csv(table):
    buffer = io.BytesIO()
    _write_trajectory(buffer, table)
    return buffer.getvalue()


@settings(derandomize=True, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_trajectory_tables())
@example(table=np.array([[0.0, *[1.0] * 6], [1.7976931348623157e308, *[1.0] * 6]]))
def test_trajectory_reader_reads_back_every_written_float(table, tmp_path):
    path = tmp_path / "trajectory.csv"
    data = _written_csv(table)
    path.write_bytes(data)
    ours, oracle = _read_with_both(path)
    assert ours == oracle == table[:, :5].T.copy().view(np.int64).tolist()
    # Only a nan residual, written "nan", sends a written file down the
    # general path.
    one_call = radlab.cli._read_own_notation(data) is not None
    assert one_call == (not np.isnan(table).any())


_MUTANT_CELLS = ["-0", "1e400", "+1", "1.", ".5", " 1", '"1.0"', "inf", "nan", "null", "true"]


@pytest.mark.parametrize("columns", [range(5), range(5, 7)], ids=["used", "unused"])
@pytest.mark.parametrize("cell", _MUTANT_CELLS)
@settings(derandomize=True, max_examples=10,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_trajectory_tables(), data=st.data())
def test_reader_matches_oracle_on_a_mutated_cell(cell, columns, table, data, tmp_path):
    lines = _written_csv(table).decode("ascii").split("\n")
    row = data.draw(st.integers(1, len(table)))
    cells = lines[row].split(",")
    cells[data.draw(st.sampled_from(columns))] = cell
    lines[row] = ",".join(cells)
    path = tmp_path / "trajectory.csv"
    path.write_text("\n".join(lines))
    ours, oracle = _read_with_both(path)
    assert ours == oracle


def _mutate_layout(text, how, row):
    """``text`` with the changes of layout ``how`` names, joined by " + ",
    at data line ``row`` (from 1).  A change of width applies from that
    line on, so at line 1 the rows stay rectangular."""
    for change in how.split(" + "):
        lines = text.split("\n")
        if change.endswith(" cells"):
            width = int(change[0])
            for k in range(row, len(lines) - 1):
                lines[k] = ",".join((lines[k].split(",") + ["0.5"])[:width])
        elif change == "blank line":
            lines.insert(row, "")
        elif change == "no final newline":
            lines[-2:] = [lines[-2]]
        elif change == "CRLF":
            lines[:-1] = [line + "\r" for line in lines[:-1]]
        elif change == "BOM":
            lines[0] = "\ufeff" + lines[0]
        elif change == "byte 0xff":  # never in UTF-8; written by surrogateescape
            lines[row] = "\udcff" + lines[row]
        elif change == "first byte 0xff":
            lines[0] = "\udcff" + lines[0]
        elif change == "header only":
            lines[1:] = [""]
        elif change == "header dvx":
            lines[0] = lines[0].replace(",dv,", ",dvx,")
        elif change == "quoted header":
            lines[0] = ",".join(f'"{name}"' for name in lines[0].split(","))
        text = "\n".join(lines)
    return text


@pytest.mark.parametrize(
    "how",
    ["4 cells", "6 cells", "8 cells", "blank line", "no final newline",
     "5 cells + no final newline", "CRLF", "BOM", "header only", "header dvx",
     "quoted header", "byte 0xff", "first byte 0xff"],
)
@settings(derandomize=True, max_examples=10,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_trajectory_tables(), data=st.data())
def test_reader_matches_oracle_on_a_mutated_layout(how, table, data, tmp_path):
    text = _written_csv(table).decode("ascii")
    row = data.draw(st.integers(1, len(table)))
    path = tmp_path / "trajectory.csv"
    path.write_bytes(_mutate_layout(text, how, row).encode("utf-8", "surrogateescape"))
    ours, oracle = _read_with_both(path)
    assert ours == oracle


@pytest.mark.parametrize(
    "widths, error",
    [
        # 6 + 8 cells: the seven cells a row of the header would hold, on average
        ((6, 8, 6, 8), None),
        # 6 + 8 + 4 cells: as many as three rows as wide as the first
        ((6, 8, 4), "line 4: fewer than 5 columns"),
    ],
)
def test_reader_frames_every_row(widths, error, tmp_path):
    # The one-call reader parses one flat array, so rows of unequal width
    # whose cells add up to whole rows must not reach it: they go to the
    # general reader, which reads the first five cells of each row or
    # names the line at fault.
    rows = [",".join(repr(float(10 * i + k)) for k in range(width))
            for i, width in enumerate(widths)]
    data = ("r,u,v,du,dv,res_eq1,res_eq2\n" + "\n".join(rows) + "\n").encode()
    assert radlab.cli._read_own_notation(data) is None
    path = tmp_path / "trajectory.csv"
    path.write_bytes(data)
    ours, oracle = _read_with_both(path)
    assert ours == oracle
    if error is None:
        expected = np.array([[10.0 * i + k for i in range(len(widths))] for k in range(5)])
        assert ours == expected.view(np.int64).tolist()
    else:
        assert ours == f"{path}: {error}"


def test_seed_override_accepted(tmp_path, capsys):
    # --seed is accepted and ignored: it changes no output.
    path = write(tmp_path, GOOD)
    plain = run_cli(["verify", "--config", path], capsys)
    assert plain[0] == 0
    assert run_cli(["verify", "--config", path, "--seed", "99"], capsys) == plain


@pytest.mark.parametrize("config", ["configs/problem_b.cfg", "radbench/configs/stress_b3_multi.cfg"])
def test_no_output_depends_on_a_seed(config, tmp_path, capsys, monkeypatch):
    # The sandwich check reads one fixed grid, so neither --seed nor the run
    # file's seed changes a byte of solve or of verify --trajectory.
    path = str(CONFIGS.parent / config)
    text = re.sub(r"(?m)^seed = .*\n", "", pathlib.Path(path).read_text())
    seeded = write(tmp_path, "seed = 5\n" + text, "seeded.cfg")
    grids = []
    check = radlab.cli.check_sandwich
    monkeypatch.setattr(
        radlab.cli, "check_sandwich",
        lambda h, p, samples: grids.append(samples) or check(h, p, samples),
    )
    outputs = []
    for name, argv in (
        ("plain", [path]), ("zero", [path, "--seed", "0"]),
        ("seeded", [seeded, "--seed", "987654"]),
    ):
        out = tmp_path / name
        solved = run_cli(["solve", "--config", *argv, "--out", str(out)], capsys)
        assert solved[0] == 0
        trajectory = ["--trajectory", str(out / "trajectory.csv")]
        outputs.append((
            solved,
            (out / "report.json").read_bytes(),
            (out / "trajectory.csv").read_bytes(),
            run_cli(["verify", "--config", *argv, *trajectory], capsys),
        ))
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(grids) == 6 and all(grid is SANDWICH_GRID for grid in grids)


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    # numpy's generators take no negative seed: solve used to write
    # trajectory.csv and then end in a traceback, with no report.json.
    bad = GOOD.replace("seed = 11", "seed = -3")
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert err.value.errors == ["line 2: seed must be non-negative, got -3"]
    path, out = write(tmp_path, bad), tmp_path / "out"
    for argv in (["solve", "--config", path, "--out", str(out)], ["verify", "--config", path]):
        code, _, stderr = run_cli(argv, capsys)
        assert code == 2 and "line 2: seed must be non-negative" in stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "solve", "sweep", "verify"])
def test_negative_seed_option_is_a_usage_error(command, tmp_path, capsys):
    argv = [command, "--config", write(tmp_path, GOOD), "--seed", "-1"]
    if command in ("solve", "sweep"):
        argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    stderr = capsys.readouterr().err
    assert "argument --seed: must be a non-negative integer, got '-1'" in stderr
    assert not (tmp_path / "out").exists()


def test_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; no call may leak an option
    # into the next.
    sweep = str(CONFIGS / "sweep_q.cfg")
    assert run_cli(["sweep", "--config", sweep, "--solve", "--out", str(tmp_path)], capsys)[0] == 0
    assert run_cli(["sweep", "--config", sweep, "--out", str(tmp_path)], capsys)[0] == 0
    golden = pathlib.Path(__file__).resolve().parent / "golden" / "sweep_q_atlas.csv"
    assert (tmp_path / "atlas.csv").read_text() == golden.read_text()

    trajectories = []
    command = radlab.cli.cmd_verify
    monkeypatch.setattr(
        radlab.cli, "cmd_verify",
        lambda config, trajectory: trajectories.append(trajectory) or command(config, trajectory),
    )
    path = write(tmp_path, GOOD)
    assert run_cli(["solve", "--config", path, "--out", str(tmp_path)], capsys)[0] == 0
    solved = str(tmp_path / "trajectory.csv")
    assert run_cli(["verify", "--config", path, "--trajectory", solved], capsys)[0] == 0
    assert run_cli(["verify", "--config", path], capsys)[0] == 0
    assert trajectories == [solved, None]

    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--config", path, "--no-such-option"])
    assert exit_info.value.code == 2
    assert "--no-such-option" in capsys.readouterr().err
    code, out, _ = run_cli(["classify", "--config", path], capsys)
    assert code == 0 and json.loads(out)["predicted_class"] == "B2"


# A B2 problem whose march used to stall at the pole: steps fell below
# ulp(r) while v kept climbing, and the repeated radius broke the grid.
POLE_STALL = GOOD.replace('g1 = "t"', 'g1 = "t + t^2"').split("[sweep]")[0]


def test_pole_stall_ends_with_labelled_verdict(tmp_path, capsys):
    path = write(tmp_path, POLE_STALL)
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["termination"] == "BlowUp"
    assert report["numeric_class"] == "B2"
    assert report["reconcile"]["status"] == "agree"

    code, out, _ = run_cli(["verify", "--config", path], capsys)
    assert code == 0
    assert len(json.loads(out)["reports"]) == 5

    sweep = path.replace("run.cfg", "sweep.cfg")
    write(tmp_path, POLE_STALL + "[sweep]\nparameter = q\nvalues = 6\n", "sweep.cfg")
    code, out, _ = run_cli(
        ["sweep", "--config", sweep, "--out", str(tmp_path), "--solve"], capsys
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[5] == "B2"
