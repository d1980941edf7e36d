"""Span tracer that times wemp's public functions from outside the library.

`installed(tracer)` rebinds each function in TARGETS, in every loaded `wemp`
module that holds it (names bound by `from .x import f` live in several
namespaces), to a wrapper that records a span: name, start, end, the span
that caused it, and the thread. Spans stay in memory until `take()`.

A span opened on a thread with no open span of its own (a parareal worker
thread) takes as parent the innermost span open on the thread that created
the tracer, which is the enclosing `wemp_iteration`.

`layer_metrics` turns the spans of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

TARGETS = (
    ("fem", ("assemble_operators", "assemble_submesh_operators",
             "factorized_spd", "assemble_load")),
    ("stepping", ("propagate_history_with", "soe_caputo_known_part",
                  "l1_known_weights")),
    ("soe", ("build_soe",)),
    ("msfem", ("build_partition_of_unity", "assemble_space", "edge_projection")),
    ("solvers", ("soe_implicit_step", "reference_l1_solve", "fine_soe_solve",
                 "multiscale_soe_solve")),
    ("parareal", ("build_context", "initial_coarse_sweep", "wemp_iteration",
                  "jump", "fine_propagate", "coarse_propagate", "wemp_solve")),
)

# The solve closures returned by factorized_spd are traced under this name.
SOLVE_SPAN = "fem.solve"


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    note: object = None        # assemble_load: the instant t

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.active = False
        self._spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._origin_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def take(self) -> list:
        """Return the spans recorded so far and forget them."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._origin_stack[-1] if self._origin_stack else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(sid, name, start, end, parent, threading.get_ident(),
                            note(*args, **kwargs) if note else None)
                with self._lock:
                    self._spans.append(span)
        return traced

    def wrapper_for(self, layer: str, fname: str, fn):
        """The span-recording stand-in for one TARGETS function."""
        name = f"{layer}.{fname}"
        if fname == "factorized_spd":
            traced_factorize = self.wrap(name, fn)

            @functools.wraps(fn)
            def factorized(*args, **kwargs):
                return self.wrap(SOLVE_SPAN, traced_factorize(*args, **kwargs))
            return factorized
        if fname == "assemble_load":
            return self.wrap(name, fn, note=_load_instant)
        return self.wrap(name, fn)


def _load_instant(mesh, op, f, t):
    return float(t)


@contextmanager
def installed(tracer: Tracer):
    """Rebind every TARGETS function in all loaded wemp modules; restore on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "wemp" or n.startswith("wemp.")]
    saved = []
    try:
        for layer, names in TARGETS:
            home = importlib.import_module(f"wemp.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = tracer.wrapper_for(layer, fname, orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            saved.append((module, attr, orig))
                            setattr(module, attr, wrapped)
        yield tracer
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list, workers: int) -> dict:
    """Per-layer metrics, {name: (value, unit)}, from the spans of one pass.

    Metrics of a layer that did no work in the pass are absent. Splits by
    calling layer carry the layer of the root span as a suffix, for example
    `fem.solve_s.parareal`.
    """
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def root_layer(s: Span) -> str:
        while s.parent in by_id:
            s = by_id[s.parent]
        return s.layer

    def self_time(s: Span, child_layer: Optional[str] = None) -> float:
        return s.duration - _covered((c.start, c.end) for c in children[s.id]
                                     if child_layer in (None, c.layer))

    out = {}

    def timed(prefix: str, group: list, percentiles: bool = False,
              split: bool = False):
        if not group:
            return
        durations = np.array([s.duration for s in group])
        out[f"{prefix}_s"] = (float(durations.sum()), "s")
        out[f"{prefix}_count"] = (len(group), "count")
        if percentiles:
            p50, p99 = np.percentile(durations, [50, 99])
            out[f"{prefix}_p50_ms"] = (1e3 * float(p50), "ms")
            out[f"{prefix}_p99_ms"] = (1e3 * float(p99), "ms")
        if split:
            by_root = defaultdict(list)
            for s in group:
                by_root[root_layer(s)].append(s)
            for caller, sub in sorted(by_root.items()):
                sub_d = np.array([s.duration for s in sub])
                out[f"{prefix}_s.{caller}"] = (float(sub_d.sum()), "s")
                out[f"{prefix}_count.{caller}"] = (len(sub), "count")

    def total(name: str, metric: str):
        if named[name]:
            out[metric] = (sum(s.duration for s in named[name]), "s")

    total("fem.assemble_operators", "fem.assemble_operators_s")
    total("fem.assemble_submesh_operators", "fem.assemble_submesh_s")
    timed("fem.factorize", named["fem.factorized_spd"], split=True)
    timed("fem.solve", named[SOLVE_SPAN], percentiles=True, split=True)
    loads = named["fem.assemble_load"]
    timed("fem.load", loads, split=True)
    if loads:
        out["fem.load_distinct_ratio"] = (
            len({s.note for s in loads}) / len(loads), "ratio")

    timed("stepping.history_update", named["stepping.propagate_history_with"])
    total("stepping.soe_caputo_known_part", "stepping.known_part_s")
    total("stepping.l1_known_weights", "stepping.l1_weights_s")
    total("soe.build_soe", "soe.build_s")

    total("msfem.build_partition_of_unity", "msfem.partition_of_unity_s")
    total("msfem.assemble_space", "msfem.assemble_space_s")
    if named["msfem.assemble_space"]:
        out["msfem.assemble_space_self_s"] = (
            sum(self_time(s, "fem") for s in named["msfem.assemble_space"]), "s")
    total("msfem.edge_projection", "msfem.project_s")

    timed("solvers.step", named["solvers.soe_implicit_step"], percentiles=True)
    if named["solvers.reference_l1_solve"]:
        out["solvers.l1_self_s"] = (
            sum(self_time(s) for s in named["solvers.reference_l1_solve"]), "s")

    total("parareal.build_context", "parareal.build_context_s")
    total("parareal.initial_coarse_sweep", "parareal.coarse_sweep_s")
    iterations = named["parareal.wemp_iteration"]
    if iterations:
        phase = busy = sweep = 0.0
        slabs = []
        for it in iterations:
            jumps = [c for c in children[it.id] if c.name == "parareal.jump"]
            first = min(j.start for j in jumps)
            last = max(j.end for j in jumps)
            phase += last - first
            busy += sum(j.duration for j in jumps)
            sweep += it.end - last
            slabs.extend(j.duration for j in jumps)
        out["parareal.slab_phase_s"] = (phase, "s")
        out["parareal.slab_busy_s"] = (busy, "s")
        out["parareal.slab_idle_s"] = (workers * phase - busy, "s")
        out["parareal.slab_p50_s"] = (float(np.median(slabs)), "s")
        out["parareal.slab_max_s"] = (max(slabs), "s")
        out["parareal.sweep_s"] = (sweep, "s")
    return out
