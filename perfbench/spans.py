"""Spans around the public functions of each nonlocalflow layer.

The library itself carries no instrumentation.  :func:`install` wraps each
function listed in :data:`TARGETS` and rebinds the wrapper wherever a
``nonlocalflow`` module holds the function: in the defining module and in
every module that imported it by name.  Each call then records a
:class:`Span` (name, start, end, parent, thread, work).  Spans stay in
memory until the traced process exits.

``stability_battery`` runs its pairs on a thread pool.  The pool class that
``harness`` imported is swapped for one that hands the submitting span to
the worker thread, so the worker's spans become children of the span that
waits for them.  A span's self time is its duration minus the union of its
children's intervals: nested spans on one thread, plus spans that pool
workers ran for it, whose overlap is counted once.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    work: int = 1
    key: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(points) -> int:
    return int(np.atleast_2d(points).shape[0])


def _solve_key(args, kwargs, _result) -> str:
    """Identity of one solve: initial data, time grid and model object."""
    scenario = _arg(args, kwargs, 0, "scenario")
    digest = hashlib.sha1()
    for mu in scenario.initial.species:
        digest.update(mu.positions.tobytes())
        digest.update(mu.weights.tobytes())
    digest.update(
        repr(
            (scenario.horizon, scenario.step.dt, scenario.step.courant,
             scenario.mode, id(scenario.model))
        ).encode()
    )
    return digest.hexdigest()


# (module, function, span name, work of one call, key of one call)
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("cli", "scenario_from_config", "cli.setup", None, None),
    ("cli", "run_checks", "cli.checks", None, None),
    ("cli", "write_trajectory", "cli.write", None, None),
    ("cli", "write_reports", "cli.write", None, None),
    ("cli", "emit_plotdata", "cli.plot", None, None),
    ("velocity", "audit_model", "velocity.audit", None, None),
    ("velocity", "velocity_batch", "velocity.batch",
     lambda a, k, r: _rows(_arg(a, k, 4, "points")), None),
    ("kernels", "convolve_batch", "kernels.convolve",
     lambda a, k, r: _rows(_arg(a, k, 3, "points")) * len(_arg(a, k, 0, "mu")), None),
    ("_accel", "radial_sum", "accel.radial_sum",
     lambda a, k, r: _rows(_arg(a, k, 0, "points")) * _rows(_arg(a, k, 1, "centers")), None),
    ("_accel", "transport_simplex", "accel.simplex",
     lambda a, k, r: int(np.size(_arg(a, k, 0, "cost"))), None),
    ("_accel", "w1_cdf_merge", "accel.cdf_merge", None, None),
    ("wasserstein", "w1_exact", "wasserstein.w1_exact", None, None),
    ("wasserstein", "w1_1d", "wasserstein.w1_1d", None, None),
    ("flow", "rk4_step", "flow.rk4", None, None),
    ("flow", "flow_map_lipschitz_probe", "flow.probe", None, None),
    ("solver", "solve_direct", "solver.solve", None, _solve_key),
    ("solver", "solve_picard", "solver.solve", None, _solve_key),
    ("solver", "picard_window", "solver.picard_window",
     lambda a, k, r: len(r[1]), None),
    ("harness", "check_stability_initial", "harness.stability", None, None),
)


class Tracer:
    """Collects spans from any thread; list appends are atomic under the GIL."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def wrap(self, name: str, fn: Callable, work=None, key=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            start = time.perf_counter()
            done = None
            try:
                result = fn(*args, **kwargs)
                done = (result,)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(
                        sid, name, parent, threading.get_ident(), start, end,
                        work(args, kwargs, *done) if work and done else 1,
                        key(args, kwargs, *done) if key and done else None,
                    )
                )

        return traced

    def executor_class(self) -> type:
        """A pool whose workers record their spans under the submitting span."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.base = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.base = None

                return super().submit(run, *args, **kwargs)

        return TracedExecutor


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "nonlocalflow" or name.startswith("nonlocalflow.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target wherever the imported package binds it."""
    for module_name, attr, span, work, key in TARGETS:
        original = getattr(sys.modules[f"nonlocalflow.{module_name}"], attr)
        _rebind(original, tracer.wrap(span, original, work, key))
    _rebind(sys.modules["nonlocalflow.harness"].ThreadPoolExecutor, tracer.executor_class())


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


# Per-layer metrics: name -> (unit, better).  Names follow the layer's
# module; ``_accel`` is reported as ``accel`` because a metric name must
# start with a letter.
LAYER_METRICS: dict[str, tuple[str, str]] = {}
_TIMED = (
    "cli.setup", "cli.checks", "cli.write", "cli.plot",
    "velocity.audit", "velocity.batch", "kernels.convolve",
    "accel.radial_sum", "accel.simplex", "accel.cdf_merge",
    "wasserstein.w1_exact", "wasserstein.w1_1d",
    "flow.rk4", "flow.probe",
    "solver.solve", "solver.picard_window", "harness.stability",
)
_COUNTS = {
    "velocity.batch_calls": ("velocity.batch", "calls"),
    "velocity.batch_points": ("velocity.batch", "work"),
    "kernels.convolve_calls": ("kernels.convolve", "calls"),
    "kernels.convolve_pairs": ("kernels.convolve", "work"),
    "accel.radial_sum_calls": ("accel.radial_sum", "calls"),
    "accel.radial_sum_pairs": ("accel.radial_sum", "work"),
    "accel.simplex_calls": ("accel.simplex", "calls"),
    "accel.simplex_cells": ("accel.simplex", "work"),
    "accel.cdf_merge_calls": ("accel.cdf_merge", "calls"),
    "wasserstein.w1_exact_calls": ("wasserstein.w1_exact", "calls"),
    "wasserstein.w1_1d_calls": ("wasserstein.w1_1d", "calls"),
    "flow.rk4_steps": ("flow.rk4", "calls"),
    "solver.solves": ("solver.solve", "calls"),
    "solver.picard_windows": ("solver.picard_window", "calls"),
    "solver.picard_iters": ("solver.picard_window", "work"),
    "harness.stability_pairs": ("harness.stability", "calls"),
}
for _name in _TIMED:
    LAYER_METRICS[f"{_name}_s"] = ("s", "lower")
    LAYER_METRICS[f"{_name}_self_s"] = ("s", "lower")
for _name in _COUNTS:
    LAYER_METRICS[_name] = ("count", "lower")
LAYER_METRICS["solver.redundant_solves"] = ("count", "lower")
LAYER_METRICS["accel.radial_sum_pairs_per_s"] = ("1/s", "higher")
LAYER_METRICS["accel.simplex_call_p50_ms"] = ("ms", "lower")
LAYER_METRICS["accel.simplex_call_p90_ms"] = ("ms", "lower")
LAYER_METRICS["trace.overhead_s"] = ("s", "lower")

# every metric that must repeat exactly between two traced runs of one seed
COUNT_METRICS = tuple(sorted([*_COUNTS, "solver.redundant_solves"]))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` from one traced run."""
    own = self_times(spans)
    busy: dict[str, float] = dict.fromkeys(_TIMED, 0.0)
    self_s: dict[str, float] = dict.fromkeys(_TIMED, 0.0)
    calls: dict[str, int] = dict.fromkeys(_TIMED, 0)
    work: dict[str, int] = dict.fromkeys(_TIMED, 0)
    durations: dict[str, list[float]] = {name: [] for name in _TIMED}
    keys: list[str] = []
    for s in spans:
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
        work[s.name] += s.work
        durations[s.name].append(s.duration)
        busy[s.name] += s.duration
        if s.key is not None:
            keys.append(s.key)
    out: dict[str, float] = {}
    for name in _TIMED:
        out[f"{name}_s"] = busy[name]
        out[f"{name}_self_s"] = self_s[name]
    for metric, (name, field) in _COUNTS.items():
        out[metric] = calls[name] if field == "calls" else work[name]
    out["solver.redundant_solves"] = len(keys) - len(set(keys))
    radial_s = busy["accel.radial_sum"]
    out["accel.radial_sum_pairs_per_s"] = work["accel.radial_sum"] / radial_s if radial_s else 0.0
    simplex_ms = [1e3 * d for d in durations["accel.simplex"]]
    out["accel.simplex_call_p50_ms"] = statistics.median(simplex_ms) if simplex_ms else 0.0
    out["accel.simplex_call_p90_ms"] = (
        statistics.quantiles(simplex_ms, n=10, method="inclusive")[8]
        if len(simplex_ms) > 1 else (simplex_ms[0] if simplex_ms else 0.0)
    )
    return out
