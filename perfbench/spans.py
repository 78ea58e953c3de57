"""Span tracing of curvewave's layers from outside the package.

``Tracer.install`` replaces the public functions of each traced module (and a
few public methods) with timing wrappers.  Every reference the package holds
to a function is replaced, so calls made through ``from .x import y`` names
are seen as well.  Spans are kept in memory as
``(id, name, start, end, parent, run_id)`` and written out when the run ends;
``self_times`` turns them into per-name self time.

Wrapping changes no arguments or results, so a traced run computes exactly
what an untraced one does, only slower by the wrapper cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: modules whose public functions are traced; potential, errors and cli are
#: left out, their cost shows inside their callers' spans
MODULES = ("cylinder", "spectrum", "packet", "observables", "barrier1d",
           "serialization", "scenarios")

#: public methods traced in addition to module-level functions:
#: (module, class, method, span name)
METHODS = (
    ("packet", "FieldEvaluator", "__init__", "packet.FieldEvaluator"),
    ("packet", "FieldEvaluator", "snapshot", "packet.snapshot"),
    ("packet", "FieldSnapshot", "polar_frame", "packet.polar_frame"),
    ("packet", "FieldSnapshot", "at_points", "packet.at_points"),
    ("scenarios", "Workspace", "table", "scenarios.table"),
    ("scenarios", "Workspace", "solve_table", "scenarios.solve_table"),
    ("scenarios", "Workspace", "expansion", "scenarios.expansion"),
    ("scenarios", "Workspace", "evolution_expansion", "scenarios.evolution_expansion"),
    ("scenarios", "Workspace", "evaluator", "scenarios.evaluator"),
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_ratio_array(counts, args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs.get("z", kwargs.get("x"))
    counts["cylinder.ratio_array.points"] += np.size(points)


def _count_expand(counts, args, kwargs, result):
    table = _arg(args, kwargs, 1, "table")
    counts["packet.expand.entries"] += len(result)
    counts["packet.expand.computed"] += sum(1 if mo.m == 0 else 2 for mo in table.modes)


def _count_evaluator(counts, args, kwargs, result):
    ev = args[0]
    counts["packet.FieldEvaluator.profile_points"] += (
        len(ev.expansion.mode_ids()) * len(ev.r))


def _count_at_points(counts, args, kwargs, result):
    counts["packet.at_points.points"] += len(np.atleast_2d(_arg(args, kwargs, 1, "xy")))


def _count_mode_table(counts, args, kwargs, result):
    resonances = sum(1 for mo in result.modes if mo.klass != "bound")
    counts["spectrum.modes"] += len(result)
    counts["spectrum.diagnostics"] += len(result.diagnostics)
    counts["spectrum.resonances"] += resonances


#: work counters recorded at the same boundaries as the spans
COUNTERS = {
    "cylinder.bessel_k_ratio_array": _count_ratio_array,
    "cylinder.hankel1_ratio_array": _count_ratio_array,
    "packet.expand": _count_expand,
    "packet.FieldEvaluator": _count_evaluator,
    "packet.at_points": _count_at_points,
    "spectrum.build_mode_table": _count_mode_table,
}


class Tracer:
    """Records a span per call of every traced function while installed."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs off the span that is open on
            # the main thread (the call that handed out the work)
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, self.run_id))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self._local.stack = self._main_stack
        importlib.import_module("curvewave.cli")
        loaded = [mod for name, mod in sorted(sys.modules.items())
                  if name == "curvewave" or name.startswith("curvewave.")]
        for short in MODULES:
            mod = importlib.import_module(f"curvewave.{short}")
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for owner in loaded:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patches.append((owner, key, value))
                            setattr(owner, key, wrapper)
        for short, cls_name, meth, span in METHODS:
            cls = getattr(importlib.import_module(f"curvewave.{short}"), cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def self_times(spans):
    """Self time per span name, and the time covered by any span.

    A span's self time is the part of its interval that none of its open
    child spans covers.  When spans on several threads are innermost at the
    same moment, that moment is split evenly between them, so self times
    never add up to more than the covered wall time.
    """
    parent_of = {s[0]: s[4] for s in spans}
    name_of = {s[0]: s[1] for s in spans}
    events = []
    for sid, _, start, end, _, _ in spans:
        events.append((start, 1, sid))
        events.append((end, 0, sid))
    events.sort()
    active = set()
    open_children = defaultdict(int)
    leaves = set()
    self_s = defaultdict(float)
    covered = 0.0
    last = None
    for t, is_start, sid in events:
        if last is not None and leaves:
            dt = t - last
            covered += dt
            share = dt / len(leaves)
            for leaf in leaves:
                self_s[name_of[leaf]] += share
        last = t
        parent = parent_of[sid]
        if parent not in active:
            parent = None
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent is not None:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return dict(self_s), covered
