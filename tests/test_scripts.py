"""Smoke tests for the scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_atlas_small_grid(tmp_path, capsys):
    out = tmp_path / "atlas.csv"
    assert load_script("run_atlas").main(["--qmax", "2", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0].startswith("p,alpha,m,beta,q,unweighted,weighted,predicted")
    assert len(rows) == 1 + 3 * 2 * 5 * 2  # p, alpha, (m, beta), q
    assert "60 grid points" in capsys.readouterr().out


def test_run_atlas_solved_small_grid(tmp_path, capsys):
    out = tmp_path / "atlas.csv"
    assert load_script("run_atlas").main(["--solve", "--qmax", "1", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "p,alpha,m,beta,q,unweighted,weighted,predicted,numeric,agree,error"
    assert len(rows) == 1 + 3 * 2 * 5  # p, alpha, (m, beta) at q = 1
    assert all(row.endswith(",true,") for row in rows[1:])
    printed = capsys.readouterr().out
    assert "30 grid points" in printed
    assert "numeric agreement: 30/30" in printed
