"""radlab's benchmark: drive the ``radlab`` CLI in-process over a workload.

Usage, from the root of a checkout:

    python3 radbench/run.py --workload reference --seed 1 --seconds 30 --trace 0

One single-threaded closed loop calls ``radlab.cli.main`` once per op, each
call starting after the previous one returned.  A pass runs every op of the
workload once; passes repeat until ``--seconds`` have gone by, and a run
makes at least :data:`MIN_PASSES` passes.  The seed becomes the run file's
``seed`` (the sandwich sample draw) through ``--seed``.  Every op's outputs
are checked (see ``checks.py``), and outputs must be byte-identical to the
first pass.  The failure fractions and the R0 and v accuracy against
``reference.json`` are printed and written to
``.bench_out/result_<workload>.json``.  Failed ops count in ``failed``;
``correct`` turns false only when an op fails for a reason not listed in its
workload's ``known_defects``.

``--trace 0`` prints the end-to-end metrics.  ``problems_per_s`` divides a
pass's problem count by the sum of every op's best wall time over the run's
passes.  On a shared 2-core Intel Xeon VM, speed drifts by about +-25%
over seconds to minutes as other tenants load the host (a fixed pure-Python
loop's median over 20 s windows spread 21% between windows, its minimum
2%), so a best time is steadier than a median.  The median and tail over
all timed ops, as the user sees them, and each op's best and median time
are printed and written out too, but not gated.  ``--trace 1`` alternates
untraced and traced passes (``spans.py`` wraps radlab's functions from
outside) and prints the per-layer metrics: self times and counts per pass,
medians over the traced passes, and the tracing overhead.  The spans are
written to ``.bench_out/spans_<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from spans import OP_SPAN, Tracer
from workloads import LAYER_NOTES, WORKLOADS, Op, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE_TABLE = os.path.join(HERE, "reference.json")

#: The tail latency is the highest percentile with ten samples beyond it.
TAIL_BEYOND = 10
#: Each op's best time is taken over at least this many passes; passes after
#: the first also check that outputs are byte-identical to it.
MIN_PASSES = 3
SETUP_REPEATS = 5

#: Set-up as a user pays it: a fresh interpreter imports radlab, loads the
#: workload's run files and the accuracy reference table.
_SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import radlab
for path in sys.argv[3:]:
    radlab.load_config(path)
with open(sys.argv[2], encoding="utf-8") as fh:
    json.load(fh)
print(time.perf_counter() - start)
"""

#: (metric, unit, how it is computed from one traced pass).
#: ("self", spans): summed self time; ("calls", span): number of spans;
#: ("count", counter): summed counter.
PER_LAYER = (
    ("config.load_s", "s", ("self", ("config.load",))),
    ("problem.validate_s", "s", ("self", ("problem.validate",))),
    ("criteria.predict_s", "s", ("self", ("criteria.predict",))),
    ("criteria.phi_s", "s", ("self", ("criteria.phi", "criteria.phi_inverse"))),
    ("criteria.phi_calls", "count", ("calls", "criteria.phi")),
    ("criteria.phi_inverse_calls", "count", ("calls", "criteria.phi_inverse")),
    ("quadrature.s", "s", ("self", ("quadrature.adaptive_quad",))),
    ("quadrature.calls", "count", ("calls", "quadrature.adaptive_quad")),
    ("quadrature.integrand_evals", "count", ("count", "quadrature.integrand_evals")),
    ("solver.picard_s", "s", ("self", ("solver.picard_bootstrap",))),
    ("solver.picard_sweeps", "count", ("count", "solver.picard_sweeps")),
    ("solver.bootstrap_nodes", "count", ("count", "solver.bootstrap_nodes")),
    ("solver.march_s", "s", ("self", ("solver.march",))),
    ("solver.rhs_evals", "count", ("count", "solver.rhs_evals")),
    ("solver.nodes", "count", ("count", "solver.nodes")),
    ("solver.residuals_s", "s", ("self", ("solver.relative_residuals",))),
    ("solver.envelope_s", "s", ("self", ("solver.blowup_envelope_check",))),
    ("solver.envelope_points", "count", ("count", "solver.envelope_points")),
    ("classify.numeric_s", "s", ("self", ("classify.numeric_classify",))),
    ("classify.reconcile_s", "s", ("self", ("classify.reconcile",))),
    ("verify.monotone_s", "s", ("self", ("verify.monotone",))),
    ("verify.convexity_bounds_s", "s", ("self", ("verify.convexity_bounds",))),
    ("verify.uprime_estimate_s", "s", ("self", ("verify.uprime_estimate",))),
    ("verify.no_u_only_blowup_s", "s", ("self", ("verify.no_u_only_blowup",))),
    ("verify.sandwich_s", "s", ("self", ("verify.sandwich",))),
    ("verify.points_checked", "count", ("count", "verify.points_checked")),
    ("cli.solve_self_s", "s", ("self", ("cli.solve",))),
    ("cli.verify_self_s", "s", ("self", ("cli.verify",))),
    ("cli.sweep_self_s", "s", ("self", ("cli.sweep",))),
    ("cli.bytes_written", "bytes", ("count", "cli.bytes_written")),
    ("cli.bytes_read", "bytes", ("count", "cli.bytes_read")),
)


@dataclass
class OpRecord:
    op: Op
    latency: float
    reasons: list[str]
    accuracy: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    bytes_written: int = 0
    bytes_read: int = 0


@dataclass
class Context:
    """Everything set-up produces: the CLI, run configs and the reference."""

    workload: Workload
    seed: int
    cli: object
    configs: dict[str, object]
    row_configs: dict[str, list]
    reference: dict
    first_digests: dict[str, str] = field(default_factory=dict)


# --------------------------------------------------------------------------
# set-up


def _config_paths(workload: Workload) -> list[str]:
    return sorted({op.config for op in workload.ops})


def measure_setup(workload: Workload) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh interpreters, each waited for."""
    argv = [sys.executable, "-c", _SETUP_CODE, SRC, REFERENCE_TABLE]
    argv += [os.path.join(ROOT, path) for path in _config_paths(workload)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def set_up(workload: Workload, seed: int) -> Context:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import radlab.cli
    from radlab import load_config

    configs = {path: load_config(os.path.join(ROOT, path)) for path in _config_paths(workload)}
    row_configs = {}
    for path, config in configs.items():
        if config.sweep_parameter is not None:
            row_configs[path] = [
                config.with_value(config.sweep_parameter, value)
                for value in config.sweep_values
            ]
    with open(REFERENCE_TABLE, encoding="utf-8") as fh:
        reference = json.load(fh)["problems"]
    return Context(workload, seed, radlab.cli, configs, row_configs, reference)


# --------------------------------------------------------------------------
# ops


def _out_dir(ctx: Context, name: str) -> str:
    return os.path.join(OUT, ctx.workload.name, name)


def _outputs(ctx: Context, op: Op) -> list[str]:
    out = _out_dir(ctx, op.name)
    if op.kind == "solve":
        return [os.path.join(out, "report.json"), os.path.join(out, "trajectory.csv")]
    if op.kind == "sweep":
        return [os.path.join(out, "atlas.csv")]
    return []


def _inputs(ctx: Context, op: Op) -> list[str]:
    """The run file, and for verify the trajectory the solve op wrote."""
    config = os.path.join(ROOT, op.config)
    if op.kind == "verify":
        return [config, os.path.join(_out_dir(ctx, op.reads), "trajectory.csv")]
    return [config]


def _argv(ctx: Context, op: Op) -> list[str]:
    inputs = _inputs(ctx, op)
    argv = [op.kind, "--config", inputs[0], "--seed", str(ctx.seed)]
    if op.kind == "verify":
        return argv + ["--trajectory", inputs[1]]
    argv += ["--out", _out_dir(ctx, op.name)]
    return argv + ["--solve"] if op.kind == "sweep" else argv


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def run_op(ctx: Context, op: Op, tracer: Tracer | None = None) -> OpRecord:
    """Time one cli.main call, then check its outputs."""
    outputs = _outputs(ctx, op)
    for path in outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    argv = _argv(ctx, op)
    stdout, stderr = io.StringIO(), io.StringIO()
    raised = None
    span = tracer.span(OP_SPAN) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = ctx.cli.main(argv)
    except Exception as exc:  # the op's failure is recorded; the loop goes on
        rc, raised = None, exc
    latency = time.perf_counter() - start

    texts = [_read(path) for path in outputs]
    digest = hashlib.sha256()
    for text in [stdout.getvalue(), *texts]:
        digest.update(b"\0" if text is None else text.encode())
    record = OpRecord(op, latency, [], digest=digest.hexdigest())
    record.bytes_written = sum(len(t.encode()) for t in texts if t is not None)
    record.bytes_read = sum(
        os.path.getsize(p) for p in _inputs(ctx, op) if os.path.exists(p)
    )

    config = ctx.configs[op.config]
    try:
        if raised is not None:
            record.reasons = [f"raised {type(raised).__name__}: {raised}"]
        elif op.kind == "solve":
            record.reasons, record.accuracy = checks.judge_solve(
                config, rc, texts[0], texts[1], ctx.reference.get(op.config)
            )
        elif op.kind == "verify":
            record.reasons = checks.judge_verify(rc, stdout.getvalue())
        else:
            record.reasons = checks.judge_sweep(rc, texts[0], ctx.row_configs[op.config])
    except (KeyError, TypeError) as exc:
        record.reasons = [f"unexpected output layout: {type(exc).__name__}: {exc}"]

    first = ctx.first_digests.setdefault(op.name, record.digest)
    if first != record.digest:
        record.reasons.append("output bytes differ from the first pass")
    return record


def run_pass(ctx: Context, tracer: Tracer | None = None, first_op_id: int = 0) -> list[OpRecord]:
    records = []
    for i, op in enumerate(ctx.workload.ops):
        if tracer is not None:
            tracer.op_id = first_op_id + i
        record = run_op(ctx, op, tracer)
        if tracer is not None:
            tracer.add_counts(
                {"cli.bytes_written": record.bytes_written, "cli.bytes_read": record.bytes_read}
            )
        records.append(record)
    return records


# --------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, sample count), but never below the upper median:
    with fewer than 21 samples the tail reads as the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n // 2, n - 1 - TAIL_BEYOND)
    percentile = 100.0 * k / (n - 1) if n > 1 else 0.0
    return ordered[k], percentile, n


def outcome(ctx: Context, passes: list[list[OpRecord]]) -> dict:
    records = [r for p in passes for r in p]
    failed = [r for r in records if r.reasons]
    errors = [r for r in failed if any(checks.is_error(x) for x in r.reasons)]
    known = ctx.workload.known_defects
    unexpected = [
        r for r in failed
        if not set(r.reasons) <= known.get(r.op.name, frozenset())
    ]
    r0 = [r.accuracy["r0"] for r in records if "r0" in r.accuracy]
    v = [r.accuracy["v"] for r in records if "v" in r.accuracy]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "errors": len(errors),
        "unexpected": unexpected,
        "failures": failed,
        "r0_rel_err": max(r0) if r0 else None,
        "v_rel_err": max(v) if v else None,
    }


def _pass_time(records: list[OpRecord]) -> float:
    return sum(r.latency for r in records)


def best_times(passes: list[list[OpRecord]]) -> list[float]:
    """Each op's best (smallest) wall time over the run's passes."""
    return [min(p[i].latency for p in passes) for i in range(len(passes[0]))]


def end_to_end(ctx: Context, passes: list[list[OpRecord]], setup: list[float]) -> dict:
    best = best_times(passes)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "problems_per_s": (ctx.workload.problems / sum(best), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, op_pass: np.ndarray, traced: list[list[OpRecord]],
              untraced: list[list[OpRecord]]) -> dict:
    """Per-layer metrics: each a median over traced passes of its pass total.
    Self times are thread CPU time (see spans.py); the tracing overhead is
    the traced minus the untraced median pass wall time."""
    op_pass = np.asarray(op_pass)
    names = np.array(tracer.names)
    arrays = tracer.arrays()
    span_name = names[arrays["name"]]
    span_pass = op_pass[arrays["op"]]
    self_time = tracer.self_times()
    n_pass = int(op_pass.max()) + 1
    per_pass: dict[str, np.ndarray] = {}
    for metric, _, (kind, what) in PER_LAYER:
        if kind == "self":
            mask = np.isin(span_name, what)
            per_pass[metric] = np.bincount(span_pass[mask], self_time[mask], n_pass)
        elif kind == "calls":
            per_pass[metric] = np.bincount(span_pass[span_name == what], minlength=n_pass)
        else:
            per_pass[metric] = np.zeros(n_pass)
            for (op, key), value in tracer.counts.items():
                if key == what:
                    per_pass[metric][op_pass[op]] += value
    result = {
        metric: (float(np.median(per_pass[metric])), unit) for metric, unit, _ in PER_LAYER
    }
    nodes = per_pass["solver.nodes"]
    ratio = np.divide(per_pass["solver.rhs_evals"], nodes, out=np.zeros(n_pass), where=nodes > 0)
    result["solver.evals_per_node"] = (float(np.median(ratio)), "ratio")
    overhead = statistics.median(map(_pass_time, traced)) - statistics.median(
        map(_pass_time, untraced)
    )
    result["tracing_overhead_s"] = (overhead, "s")
    return result


# --------------------------------------------------------------------------
# driving a run


def measure(ctx: Context, seconds: float) -> list[list[OpRecord]]:
    passes: list[list[OpRecord]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ctx))
    return passes


def measure_traced(ctx: Context, seconds: float):
    """Alternate untraced and traced passes, at least one of each."""
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(ctx))
        with tracer.installed():
            traced.append(run_pass(ctx, tracer, len(traced) * len(ctx.workload.ops)))
    op_pass = np.repeat(np.arange(len(traced)), len(ctx.workload.ops))
    return tracer, op_pass, untraced, traced


def machine_info() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def summary(ctx: Context, seconds: float, trace: int, info: dict,
            passes: list[list[OpRecord]], metrics: dict) -> dict:
    """Everything a run found, as written to .bench_out/result_<workload>.json."""
    result = outcome(ctx, passes)
    attempted = result["attempted"]
    latencies = [r.latency for p in passes for r in p]
    tail_value, percentile, n = tail(latencies)
    failures: dict[tuple, dict] = {}
    for record in result["failures"]:
        key = (record.op.name, tuple(record.reasons))
        entry = failures.setdefault(key, {
            "op": record.op.name,
            "config": record.op.config,
            "reasons": record.reasons,
            "count": 0,
            "known_defect": True,
        })
        entry["count"] += 1
        entry["known_defect"] &= record not in result["unexpected"]
    return {
        "workload": ctx.workload.name,
        "why": ctx.workload.why,
        "problems_per_pass": ctx.workload.problems,
        "ops_per_pass": len(ctx.workload.ops),
        "passes": len(passes),
        "seed": ctx.seed,
        "seconds": seconds,
        "trace": trace,
        "machine": info,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        "sampled": {
            "latency_p50_s": {"value": statistics.median_high(latencies), "unit": "s"},
            "latency_tail_s": {"value": tail_value, "unit": "s", "percentile": percentile},
            "ops_timed": n,
        },
        "op_times_s": {
            op.name: {"best": best, "median": statistics.median(p[i].latency for p in passes)}
            for i, (op, best) in enumerate(zip(ctx.workload.ops, best_times(passes)))
        },
        "outcomes": {
            "fail_frac": {"value": result["failed"] / attempted, "unit": "ratio"},
            "error_frac": {"value": result["errors"] / attempted, "unit": "ratio"},
            "wrong_frac": {
                "value": (result["failed"] - result["errors"]) / attempted, "unit": "ratio"
            },
            "r0_rel_err": {"value": result["r0_rel_err"], "unit": "ratio"},
            "v_rel_err": {"value": result["v_rel_err"], "unit": "ratio"},
        },
        "failures": list(failures.values()),
        "correct": not result["unexpected"],
        "attempted": attempted,
        "failed": result["failed"],
    }


def print_summary(found: dict) -> None:
    def line(name: str, entry: dict, extra: str = "") -> None:
        value = entry["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<30} {shown:>14} {entry['unit']}{extra}")

    print("machine: " + ", ".join(f"{k} {v}" for k, v in found["machine"].items()))
    print(f"workload {found['workload']}: {found['problems_per_pass']} problems and "
          f"{found['ops_per_pass']} ops per pass, {found['passes']} passes, "
          f"seed {found['seed']}")
    print(f"  why: {found['why']}")
    print("metrics:")
    for name, entry in found["metrics"].items():
        line(name, entry)
    sampled = found["sampled"]
    print(f"sampled latency over all {sampled['ops_timed']} ops (not gated: it follows "
          "the machine's drifting speed):")
    line("latency_p50_s", sampled["latency_p50_s"])
    tail_entry = sampled["latency_tail_s"]
    line("latency_tail_s", tail_entry, f"  (p{tail_entry['percentile']:.1f})")
    print("op times (best / median over passes):")
    for name, times in found["op_times_s"].items():
        print(f"  {name:<30} {times['best']:>14.6g} / {times['median']:.6g} s")
    print("outcomes:")
    for name, entry in found["outcomes"].items():
        line(name, entry)
    for failure in found["failures"]:
        known = "known defect" if failure["known_defect"] else "UNEXPECTED"
        print(f"  failed x{failure['count']} [{known}] {found['workload']}/{failure['op']} "
              f"({failure['config']}): {'; '.join(failure['reasons'])}")
    print("layer notes (layer: metrics -> end-to-end metric it should move):")
    for layer, names, moves in LAYER_NOTES:
        print(f"  {layer}: {names} -> {moves}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "radlab")):
        print(f"error: no radlab package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    info = machine_info()
    ctx = set_up(workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        tracer, op_pass, untraced, traced = measure_traced(ctx, args.seconds)
        passes = untraced + traced
        metrics = per_layer(tracer, op_pass, traced, untraced)
        tracer.write(os.path.join(OUT, f"spans_{workload.name}.npz"))
    else:
        setup = measure_setup(workload)
        passes = measure(ctx, args.seconds)
        metrics = end_to_end(ctx, passes, setup)

    found = summary(ctx, args.seconds, args.trace, info, passes, metrics)
    with open(os.path.join(OUT, f"result_{workload.name}.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(found, indent=2) + "\n")
    print_summary(found)
    print(json.dumps({key: found[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
