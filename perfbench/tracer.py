"""Spans around the calls into zenosim's layers, recorded from outside.

`Tracer.install` replaces every public module-level function of the layer
modules with a timing wrapper, in every zenosim namespace that holds it
(modules import each other's functions with `from .x import y`, so patching
the defining module alone would miss most calls).  Spans carry name, layer,
start, end and parent and stay in memory until `per_layer` summarises them.

A span opened on a thread with no open span of its own (the sweep's pool
threads) takes the innermost open span of the main thread as its parent.
Self time splits each instant of wall time evenly among the open spans that
have no open child at that instant.  On one thread that is a span's duration
minus the part its children cover; on the sweep, `cli` is not charged for the
pool's work, and the self times of all spans in the call add up to the wall
time they cover, however many threads ran.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("config", "hilbert", "model", "dynamics", "dressed", "threeion", "protocol", "tomography", "cli")


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "error", "info")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.error = False
        self.info = None


def _evolve_density_info(arguments, result):
    return {"samples": len(result.times)}


def _fit_ml_info(arguments, result):
    return {"iterations": result.n_iterations, "converged": bool(result.converged)}


def _bootstrap_info(arguments, result):
    return {"resamples": arguments["resamples"]}


# facts read from arguments and return values at the layer boundary
OBSERVERS = {
    "dynamics.evolve_density": _evolve_density_info,
    "tomography.fit_ml": _fit_ml_info,
    "tomography.bootstrap": _bootstrap_info,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._main_thread = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe is not None else None
        spans = self.spans
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = None
            span = Span(name, layer, parent)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = observe(bound.arguments, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap the public functions of every layer; returns how many."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"zenosim.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, layer)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "zenosim" or mod_name.startswith("zenosim.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        return len(wrappers)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by id(span).

    A sweep over the starts and ends: between two events the open spans
    without an open child (the innermost span of each running thread) share
    the interval evenly.  At equal times starts come before ends, parents
    start before and end after their children.
    """
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [index.get(id(s.parent)) for s in spans]
    events = [(s.start, 0, i) for i, s in enumerate(spans)]
    events += [(s.end, 1, -i) for i, s in enumerate(spans)]
    events.sort()
    own = [0.0] * len(spans)
    is_open = [False] * len(spans)
    open_children = [0] * len(spans)
    leaves: set[int] = set()
    last = None
    for t, is_end, key in events:
        if leaves:
            share = (t - last) / len(leaves)
            for i in leaves:
                own[i] += share
        last = t
        i, p = abs(key), parent[abs(key)]
        if not is_end:
            is_open[i] = True
            if open_children[i] == 0:
                leaves.add(i)
            if p is not None:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p is not None:
                open_children[p] -= 1
                if open_children[p] == 0 and is_open[p]:
                    leaves.add(p)
    return {id(s): own[i] for i, s in enumerate(spans)}


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def _quantile_ms(durations: list[float], q: int) -> float:
    """q-th percentile in ms (nearest-rank on the sorted list); 0 without data."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e3 * ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# name -> unit, in the order the benchmark reports them
PER_LAYER_UNITS = {
    "dynamics.evolve_density.calls": "count",
    "dynamics.evolve_density.self_s": "s",
    "dynamics.evolve_density.samples": "count",
    "dynamics.evolve_pure.calls": "count",
    "dynamics.evolve_pure.self_s": "s",
    "dynamics.evolve_pure.p50_ms": "ms",
    "dynamics.evolve_pure.p90_ms": "ms",
    "dynamics.extract_populations.calls": "count",
    "dynamics.extract_populations.self_s": "s",
    "dynamics.state_fidelity.calls": "count",
    "dynamics.state_fidelity.self_s": "s",
    "dynamics.self_s": "s",
    "dynamics.errors": "count",
    "hilbert.calls": "count",
    "hilbert.self_s": "s",
    "model.calls": "count",
    "model.self_s": "s",
    "model.segment_hamiltonian.calls": "count",
    "protocol.simulate_plan_fidelity.calls": "count",
    "protocol.simulate_plan_fidelity.p50_ms": "ms",
    "protocol.simulate_plan_fidelity.p90_ms": "ms",
    "protocol.simulate_plan_fidelity.busy_s": "s",
    "protocol.simulate_plan_fidelity.concurrency": "ratio",
    "protocol.error_budget.total_s": "s",
    "protocol.self_s": "s",
    "tomography.fit_ml.calls": "count",
    "tomography.fit_ml.self_s": "s",
    "tomography.fit_ml.p50_ms": "ms",
    "tomography.fit_ml.iterations_mean": "count",
    "tomography.fit_ml.converged_frac": "frac",
    "tomography.bootstrap.total_s": "s",
    "tomography.bootstrap.s_per_resample": "s",
    "tomography.bootstrap.fit_yield": "ratio",
    "tomography.systematic_sweep.total_s": "s",
    "tomography.choose_bins.total_s": "s",
    "tomography.rebin.calls": "count",
    "tomography.rebin.self_s": "s",
    "tomography.self_s": "s",
    "tomography.errors": "count",
    "cli.self_s": "s",
    "config.self_s": "s",
    "dressed.calls": "count",
    "dressed.self_s": "s",
    "trace.run_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}


def per_layer(spans: list[Span], call_start: float, call_end: float) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    Every span counts towards its layer except `trace.self_sum_s`, which sums
    self time over the spans inside the timed scenario call only; it equals
    the call's wall time `trace.run_s` less the moments no span was open, on
    the sweep's threads too.  `trace.overhead_s` needs an untraced run and is
    filled in by the caller.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    errors = defaultdict(int)
    self_sum = 0.0
    for s in spans:
        by_name[s.name].append(s)
        layer_self[s.layer] += own[id(s)]
        layer_calls[s.layer] += 1
        if s.error and (s.parent is None or s.parent.layer != s.layer):
            errors[s.layer] += 1
        if call_start <= s.start <= call_end:
            self_sum += own[id(s)]

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(own[id(s)] for s in by_name[name])

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name])

    def durations(name):
        return [s.end - s.start for s in by_name[name]]

    density = by_name["dynamics.evolve_density"]
    sim = by_name["protocol.simulate_plan_fidelity"]
    sim_union = _covered([(s.start, s.end) for s in sim], float("-inf"), float("inf"))
    fits = by_name["tomography.fit_ml"]
    boots = by_name["tomography.bootstrap"]
    resamples = sum(s.info["resamples"] for s in boots if s.info)
    boot_fits = sum(1 for s in fits if _has_ancestor(s, "tomography.bootstrap"))
    finished_fits = [s.info for s in fits if s.info]

    out = {
        "dynamics.evolve_density.calls": calls("dynamics.evolve_density"),
        "dynamics.evolve_density.self_s": self_s("dynamics.evolve_density"),
        "dynamics.evolve_density.samples": sum(s.info["samples"] for s in density if s.info),
        "dynamics.evolve_pure.calls": calls("dynamics.evolve_pure"),
        "dynamics.evolve_pure.self_s": self_s("dynamics.evolve_pure"),
        "dynamics.evolve_pure.p50_ms": _quantile_ms(durations("dynamics.evolve_pure"), 50),
        "dynamics.evolve_pure.p90_ms": _quantile_ms(durations("dynamics.evolve_pure"), 90),
        "dynamics.extract_populations.calls": calls("dynamics.extract_populations"),
        "dynamics.extract_populations.self_s": self_s("dynamics.extract_populations"),
        "dynamics.state_fidelity.calls": calls("dynamics.state_fidelity"),
        "dynamics.state_fidelity.self_s": self_s("dynamics.state_fidelity"),
        "dynamics.self_s": layer_self["dynamics"],
        "dynamics.errors": errors["dynamics"],
        "hilbert.calls": layer_calls["hilbert"],
        "hilbert.self_s": layer_self["hilbert"],
        "model.calls": layer_calls["model"],
        "model.self_s": layer_self["model"],
        "model.segment_hamiltonian.calls": calls("model.segment_hamiltonian"),
        "protocol.simulate_plan_fidelity.calls": len(sim),
        "protocol.simulate_plan_fidelity.p50_ms": _quantile_ms(durations("protocol.simulate_plan_fidelity"), 50),
        "protocol.simulate_plan_fidelity.p90_ms": _quantile_ms(durations("protocol.simulate_plan_fidelity"), 90),
        "protocol.simulate_plan_fidelity.busy_s": total_s("protocol.simulate_plan_fidelity"),
        "protocol.simulate_plan_fidelity.concurrency": (
            total_s("protocol.simulate_plan_fidelity") / sim_union if sim_union > 0 else 0.0
        ),
        "protocol.error_budget.total_s": total_s("protocol.error_budget"),
        "protocol.self_s": layer_self["protocol"],
        "tomography.fit_ml.calls": len(fits),
        "tomography.fit_ml.self_s": self_s("tomography.fit_ml"),
        "tomography.fit_ml.p50_ms": _quantile_ms(durations("tomography.fit_ml"), 50),
        "tomography.fit_ml.iterations_mean": (
            statistics.fmean(f["iterations"] for f in finished_fits) if finished_fits else 0.0
        ),
        "tomography.fit_ml.converged_frac": (
            sum(f["converged"] for f in finished_fits) / len(finished_fits) if finished_fits else 0.0
        ),
        "tomography.bootstrap.total_s": total_s("tomography.bootstrap"),
        "tomography.bootstrap.s_per_resample": total_s("tomography.bootstrap") / resamples if resamples else 0.0,
        "tomography.bootstrap.fit_yield": resamples / boot_fits if boot_fits else 0.0,
        "tomography.systematic_sweep.total_s": total_s("tomography.systematic_sweep"),
        "tomography.choose_bins.total_s": total_s("tomography.choose_bins"),
        "tomography.rebin.calls": calls("tomography.rebin"),
        "tomography.rebin.self_s": self_s("tomography.rebin"),
        "tomography.self_s": layer_self["tomography"],
        "tomography.errors": errors["tomography"],
        "cli.self_s": layer_self["cli"],
        "config.self_s": layer_self["config"],
        "dressed.calls": layer_calls["dressed"],
        "dressed.self_s": layer_self["dressed"],
        "trace.run_s": call_end - call_start,
        "trace.self_sum_s": self_sum,
        "trace.overhead_s": 0.0,
    }
    return out
