"""Run-file parsing and the four CLI subcommands."""

import json
import pathlib
import textwrap
import warnings

import pytest

from radlab.cli import main
from radlab.config import ConfigError, RunConfig, parse_config_text

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
    assert cfg.seed == 11
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
        "accepted_steps", "rejected_steps", "dt_min", "dt_max", "pole_switch_r",
    ]
    assert stats["accepted_steps"] > 0
    assert 0.0 < stats["dt_min"] <= stats["dt_max"]

    csv1 = (out1 / "trajectory.csv").read_text()
    assert csv1.splitlines()[0] == "r,u,v,du,dv,res_eq1,res_eq2"
    assert csv1 == (out2 / "trajectory.csv").read_text()
    assert (out1 / "report.json").read_text() == (out2 / "report.json").read_text()
    assert stdout1.strip() == (out1 / "report.json").read_text().strip()


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
    # Five well-formed rows: too few for the convexity check.
    run_cli(["solve", "--config", path, "--out", str(tmp_path)], capsys)
    short = tmp_path / "short.csv"
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[:6]
    short.write_text("\n".join(rows) + "\n")
    for bad in (garbage, short):
        code, out, _ = run_cli(
            ["verify", "--config", path, "--trajectory", str(bad)], capsys
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert payload["reports"] == [] and payload["error"]


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


@pytest.mark.parametrize("name", ["a", "b"])
def test_verify_trajectory_round_trip(name, tmp_path, capsys):
    # The CSV carries every float in shortest round-trip form, so checks
    # re-run on the written file must reproduce the solve's reports exactly.
    config = str(
        pathlib.Path(__file__).resolve().parent.parent / "configs" / f"problem_{name}.cfg"
    )
    assert run_cli(["solve", "--config", config, "--out", str(tmp_path)], capsys)[0] == 0
    report = json.loads((tmp_path / "report.json").read_text())
    code, out, _ = run_cli(
        ["verify", "--config", config, "--trajectory",
         str(tmp_path / "trajectory.csv")],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["reports"] == report["verify"]


def test_seed_override_accepted(tmp_path, capsys):
    path = write(tmp_path, GOOD)
    code, out, _ = run_cli(
        ["classify", "--config", path, "--seed", "99"], capsys
    )
    assert code == 0


# A B2 problem whose march used to stall at the pole: steps fell below
# ulp(r) while v kept climbing, and the repeated radius broke the grid.
POLE_STALL = GOOD.replace('g1 = "t"', 'g1 = "t + t^2"').split("[sweep]")[0]


def test_pole_stall_ends_with_labelled_verdict(tmp_path, capsys):
    path = write(tmp_path, POLE_STALL)
    code, _, _ = run_cli(["solve", "--config", path, "--out", str(tmp_path)], capsys)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["termination"] in ("BlowUp", "StepUnderflow")
    assert report["numeric_class"] in ("B2", "Undecided")
    assert report["reconcile"]["status"] in ("agree", "indeterminate")

    code, out, _ = run_cli(["verify", "--config", path], capsys)
    assert code in (0, 1)
    assert len(json.loads(out)["reports"]) == 5

    sweep = path.replace("run.cfg", "sweep.cfg")
    write(tmp_path, POLE_STALL + "[sweep]\nparameter = q\nvalues = 6\n", "sweep.cfg")
    code, out, _ = run_cli(
        ["sweep", "--config", sweep, "--out", str(tmp_path), "--solve"], capsys
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[5] in ("B2", "Undecided")
