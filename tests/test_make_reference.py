"""The benchmark's reference table generator, ``radbench/make_reference.py``,
the one caller of ``RadialSolution.sample`` outside the tests."""

import importlib.util
import json
import math
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "radbench"


@pytest.fixture
def make_reference(monkeypatch):
    """The script as a module.  It imports the benchmark's ``workloads`` and
    puts ``src`` on the path; the path is restored afterwards."""
    monkeypatch.setattr(sys, "path", [str(BENCH), *sys.path])
    spec = importlib.util.spec_from_file_location("make_reference", BENCH / "make_reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "config", ["configs/problem_b.cfg", "radbench/configs/stress_alpha099.cfg"]
)
def test_reference_entry_samples_v_as_the_committed_table(make_reference, config):
    # v_ref = v(r_star) from a rel_tol 1e-11 run: at 0.9 R0 past the start
    # on problem B, and inside the start on stress_alpha099, whose r_star =
    # 10 lies below r0 = 20.
    table = json.loads((BENCH / "reference.json").read_text())["problems"][config]
    entry = make_reference.reference_entry(config)
    assert entry["termination"] == table["termination"]
    assert math.isfinite(entry["v_ref"])
    assert entry["v_ref"] == pytest.approx(table["v_ref"], rel=1e-9, abs=0.0)
