"""Span tracing of radlab from outside the package.

:class:`Tracer` replaces public functions at the module attributes their
callers resolve (``radlab.cli.march``, ``radlab.solver.phi``, ...) with
wrappers that record one span per call: name, start, end, parent span and
the id of the op that caused it.  Spans stay in memory, in flat arrays so
the ~400k quadrature spans of a multi-term envelope check stay small, and
are written out when the run ends.  The originals are restored when the
``installed()`` block exits, on exceptions too.  No file of the package
changes.

Each span records wall-clock and thread CPU start and end.  Durations and
self times use CPU time: the sweep runs its rows on a thread pool, and a
row's wall-clock span also holds the time it waited for the interpreter
lock while other rows ran, so wall spans of concurrent rows add up to
several times the pass.  A span opened with an empty stack in a worker
thread gets the innermost span of the main thread as parent.  Self time is
a span's CPU duration minus that of its children in the same thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _march_counts(solution) -> dict[str, int]:
    return {
        "solver.rhs_evals": int(solution.rhs_evals),
        "solver.nodes": int(len(solution.r)),
    }


def _picard_counts(segment) -> dict[str, int]:
    return {
        "solver.picard_sweeps": int(segment.sweeps),
        "solver.bootstrap_nodes": int(len(segment.r)),
    }


def _envelope_counts(report) -> dict[str, int]:
    return {"solver.envelope_points": int(report.points_checked)}


def _check_counts(report) -> dict[str, int]:
    return {"verify.points_checked": int(report.points_checked)}


#: (module, attribute, span name, counter hook).  Each entry is a name that
#: callers resolve at call time: the CLI's own imports, and the module
#: globals that library functions call each other through.
WRAP_POINTS: tuple[tuple[str, str, str, object], ...] = (
    ("radlab.cli", "load_config", "config.load", None),
    ("radlab.cli", "validate_assumptions", "problem.validate", None),
    ("radlab.problem", "validate_assumptions", "problem.validate", None),
    ("radlab.cli", "predict", "criteria.predict", None),
    ("radlab.cli", "criterion", "criteria.predict", None),
    ("radlab.solver", "phi", "criteria.phi", None),
    ("radlab.criteria", "phi", "criteria.phi", None),
    ("radlab.solver", "phi_inverse", "criteria.phi_inverse", None),
    ("radlab.quadrature", "adaptive_quad", "quadrature.adaptive_quad", None),
    ("radlab.criteria", "adaptive_quad", "quadrature.adaptive_quad", None),
    ("radlab.cli", "march", "solver.march", _march_counts),
    ("radlab.solver", "picard_bootstrap", "solver.picard_bootstrap", _picard_counts),
    ("radlab.cli", "relative_residuals", "solver.relative_residuals", None),
    ("radlab.cli", "blowup_envelope_check", "solver.blowup_envelope_check",
     _envelope_counts),
    ("radlab.cli", "numeric_classify", "classify.numeric_classify", None),
    ("radlab.cli", "reconcile", "classify.reconcile", None),
    ("radlab.verify", "check_monotone", "verify.monotone", _check_counts),
    ("radlab.verify", "check_convexity_bounds", "verify.convexity_bounds",
     _check_counts),
    ("radlab.verify", "check_uprime_estimate", "verify.uprime_estimate",
     _check_counts),
    ("radlab.verify", "check_no_u_only_blowup", "verify.no_u_only_blowup",
     _check_counts),
    ("radlab.cli", "check_sandwich", "verify.sandwich", _check_counts),
    ("radlab.cli", "cmd_solve", "cli.solve", None),
    ("radlab.cli", "cmd_verify", "cli.verify", None),
    ("radlab.cli", "cmd_sweep", "cli.sweep", None),
)

#: The span whose wrapped call takes an integrand as first argument; its
#: wrapper counts the integrand's calls.
_INTEGRAND_SPAN = "quadrature.adaptive_quad"

#: The harness's own span around each cli.main call.
OP_SPAN = "op"


class Tracer:
    """In-memory span recorder with wrappers for radlab's module attributes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")
        self.cpu_end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.thread = array("i")
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = self._main_stack if threading.current_thread() is self._main else []
            local.tid = next(self._thread_ids)
            return local.stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.thread.append(self._local.tid)
            self.end.append(float("nan"))
            self.cpu_end.append(float("nan"))
            self.start.append(time.perf_counter())
            self.cpu_start.append(time.thread_time())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.cpu_end[idx] = time.thread_time()
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    def add_counts(self, counts: dict[str, int]) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[(self.op_id, key)] += value

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, hook=None):
        name_id = self._name_id(name)
        count_integrand = name == _INTEGRAND_SPAN
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_integrand:
                calls = itertools.count()
                inner = args[0]
                tick = calls.__next__

                def counted(x):
                    tick()
                    return inner(x)

                args = (counted,) + args[1:]
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count_integrand:
                tracer.add_counts({"quadrature.integrand_evals": next(calls)})
            elif hook is not None:
                tracer.add_counts(hook(result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper of :data:`WRAP_POINTS`; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, hook in WRAP_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        ints = {key: np.frombuffer(getattr(self, key), dtype=np.int32)
                for key in ("name", "parent", "op", "thread")}
        floats = {key: np.frombuffer(getattr(self, key), dtype=np.float64)
                  for key in ("start", "end", "cpu_start", "cpu_end")}
        return {key: values.copy() for key, values in {**ints, **floats}.items()}

    def self_times(self) -> np.ndarray:
        """Each span's CPU duration minus that of its same-thread children."""
        a = self.arrays()
        duration = a["cpu_end"] - a["cpu_start"]
        parent = a["parent"]
        child = parent >= 0
        child[child] = a["thread"][child] == a["thread"][parent[child]]
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(parent))
        return duration - covered

    def write(self, path: str) -> None:
        """Write every span and counter to a .npz file."""
        a = self.arrays()
        counts = sorted(self.counts.items())
        np.savez(
            path,
            names=np.array(self.names),
            counter_op=np.array([op for (op, _), _ in counts], dtype=np.int32),
            counter_name=np.array([key for (_, key), _ in counts]),
            counter_value=np.array([value for _, value in counts], dtype=np.int64),
            **a,
        )
