"""Byte-for-byte comparison of CLI output against committed golden files.

These pin the exact serialized output (field order, float formatting,
criterion values) of the cheap, fully deterministic commands.  A diff
here means the observable CLI contract changed: regenerate the files
deliberately if the change is intended.
"""

import pathlib

import pytest

from radlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_classify_matches_golden(name, capsys):
    config = ROOT / "configs" / f"problem_{name}.cfg"
    assert main(["classify", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / f"classify_{name}.json").read_text()
    assert out == expected


def test_sweep_atlas_matches_golden(tmp_path, capsys):
    config = ROOT / "configs" / "sweep_q.cfg"
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    atlas = (tmp_path / "atlas.csv").read_text()
    expected = (GOLDEN / "sweep_q_atlas.csv").read_text()
    assert atlas == expected


#: The solved q ladders of the benchmark's atlas workload and their golden
#: atlases.
SOLVED_LADDERS = {
    "sweep_q": ("configs/sweep_q.cfg", "sweep_q_solved.csv"),
    **{
        name: (f"radbench/configs/{name}.cfg", f"{name}_solved.csv")
        for name in ("atlas_p1.5_alpha0", "atlas_p2_alpha0.5", "atlas_p3_alpha0", "atlas_p3_alpha1")
    },
}


@pytest.mark.parametrize("name", sorted(SOLVED_LADDERS))
def test_solved_sweep_atlas_matches_golden(name, tmp_path, capsys):
    # The solved ladder pins every row's numeric class and its agreement
    # with the predicted one.
    config, golden = SOLVED_LADDERS[name]
    assert main(["sweep", "--config", str(ROOT / config), "--solve", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    atlas = (tmp_path / "atlas.csv").read_text()
    expected = (GOLDEN / golden).read_text()
    assert atlas == expected
