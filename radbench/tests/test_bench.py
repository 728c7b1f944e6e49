"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q radbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
from spans import WRAP_POINTS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

#: The cheapest ops of each workload, so a pass takes a few seconds.
MINIMAL_OPS = {
    "reference": ("solve_a", "verify_a"),
    "atlas": ("sweep_p3_alpha1",),
    "stress": ("pole_stall_f1", "alpha099"),
}


def _minimal(name: str) -> run.Context:
    workload = WORKLOADS[name]
    ops = tuple(op for op in workload.ops if op.name in MINIMAL_OPS[name])
    return run.set_up(dataclasses.replace(workload, ops=ops), seed=3)


def _units(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_benchmark_json_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_minimal_pass_emits_exactly_the_benchmark_metrics(name):
    ctx = _minimal(name)
    untraced = [run.run_pass(ctx)]
    metrics = run.end_to_end(ctx, untraced, setup=[0.1])
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    tracer = Tracer()
    with tracer.installed():
        traced = [run.run_pass(ctx, tracer)]
    layers = run.per_layer(tracer, [0] * len(ctx.workload.ops), traced, untraced)
    assert _units(layers) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert not run.outcome(ctx, untraced + traced)["unexpected"]


def test_setup_runs_in_fresh_interpreters():
    times = run.measure_setup(WORKLOADS["reference"])
    assert len(times) == run.SETUP_REPEATS and all(t > 0.0 for t in times)


def test_tracing_leaves_outputs_byte_identical_and_restores_originals():
    import radlab.cli

    ctx = _minimal("reference")
    solve = ctx.workload.ops[0]
    paths = run._outputs(ctx, solve)

    def outputs():
        record = run.run_op(ctx, solve)
        texts = [open(p, encoding="utf-8").read() for p in paths]
        return record, texts

    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in WRAP_POINTS}
    plain_record, plain = outputs()
    tracer = Tracer()
    with pytest.raises(RuntimeError), tracer.installed():
        assert radlab.cli.march is not originals[("radlab.cli", "march")]
        traced_record, traced = outputs()
        raise RuntimeError("restore even on exceptions")
    assert traced == plain
    assert traced_record.digest == plain_record.digest
    assert not traced_record.reasons
    assert {(m, a): getattr(sys.modules[m], a) for m, a in originals} == originals
    assert "solver.march" in tracer.names and len(tracer.start) > 0


def test_doctored_trajectory_counts_as_wrong():
    ctx = _minimal("reference")
    solve, verify = ctx.workload.ops
    first = run.run_op(ctx, solve)
    path = run._outputs(ctx, solve)[1]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[len(lines) // 2].split(",")
    row[4] = repr(-float(row[4]))  # negate dv
    lines[len(lines) // 2] = ",".join(row)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    doctored = run.run_op(ctx, verify)
    assert "check monotone failed" in doctored.reasons
    result = run.outcome(ctx, [[first, doctored]])
    assert result["failed"] == 1 and result["errors"] == 0
    assert result["unexpected"] == [doctored]


def test_closed_form_classes():
    from radlab import load_config

    def label(path, **changes):
        config = load_config(os.path.join(ROOT, path))
        return checks.closed_form_class(dataclasses.replace(config, **changes))

    assert label("configs/problem_a.cfg") == "Global"
    assert label("configs/problem_b.cfg") == "B2"
    assert label("configs/problem_c.cfg") == "B3"
    assert label("configs/problem_c.cfg", alpha=1.0) == "NoSolution"
    assert label("radbench/configs/stress_b3_multi.cfg") is None
    ladder = [label("configs/sweep_q.cfg", h=f"t^{q}") for q in range(1, 9)]
    assert ladder == ["B1", "B3", "B3", "B3", "B2", "B2", "B2", "B2"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, n = run.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and percentile == pytest.approx(89.9, abs=0.1)
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0
