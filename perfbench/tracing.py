"""Spans around robustctl's public entry points, recorded from outside.

The package has no tracing of its own yet, so the traced run replaces the
module attributes that callers resolve (``robustctl.runner.solve_isaacs``,
``robustctl.game_engine.value_experiment``, ``ValueField.value_at``, ...)
with wrappers that record a span per call and a few exact counts.  A
function imported by name into several modules is replaced in each of
them; ``uninstall()`` puts every original back, so untraced repetitions in
the same process run the unmodified code.

Spans stay in memory and are written out as JSONL when the run ends.  Each
span has a name, start, end, parent span and run id, plus the phase it
belongs to: ``"setup"`` or the index of a traced repetition.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import statistics
import sys
import threading
from collections import Counter

import numpy as np

# (defining module, attribute, span name).  Span names are "<layer>.<entry>"
# with the layer named after the module.
TARGETS = [
    ("robustctl.game_engine", "value_experiment", "game_engine.value_experiment"),
    ("robustctl.game_engine", "filtration_experiment", "game_engine.filtration_experiment"),
    ("robustctl.game_engine", "dpp_check", "game_engine.dpp_check"),
    ("robustctl.game_engine", "embed_feedback_as_openloop",
     "game_engine.embed_feedback_as_openloop"),
    ("robustctl.pde_solver", "make_grid", "pde_solver.make_grid"),
    ("robustctl.pde_solver", "solve_isaacs", "pde_solver.solve_isaacs"),
    ("robustctl.pde_solver", "ValueField.value_at", "pde_solver.value_at"),
    ("robustctl.hamiltonian", "hamiltonian_lower", "hamiltonian.lower"),
    ("robustctl.hamiltonian", "hamiltonian_upper", "hamiltonian.upper"),
    ("robustctl.hamiltonian", "hamiltonian_mixed", "hamiltonian.mixed"),
    ("robustctl.strategies", "check_nonanticipative", "strategies.check_nonanticipative"),
    ("robustctl.sde_core", "validate_assumptions", "sde_core.validate_assumptions"),
    ("robustctl.sde_core", "sample_noise", "sde_core.sample_noise"),
    ("robustctl.runner", "run_experiment", "runner.run_experiment"),
    ("robustctl.reports", "emit_report", "reports.emit_report"),
    ("robustctl.cli", "main", "cli.main"),
    ("robustctl.config", "resolve_config", "config.resolve_config"),
    ("robustctl.problems", "build_problem", "problems.build_problem"),
]


def _engine_work(cells: int, args) -> dict:
    a = args()
    return {"game_engine.cells": cells,
            "game_engine.path_steps": cells * a["n_paths"] * a["engine"].n_steps}


def _node_layers(grid) -> int:
    return int(np.prod(grid.shape)) * grid.times.size


# Exact counts taken at a span's end, from its arguments (a thunk, bound
# only when asked for) and its result.
COUNTERS = {
    "game_engine.value_experiment": lambda args, r: _engine_work(
        sum(len(rv.members) for rv in r.per_strategy.values()), args),
    "game_engine.filtration_experiment": lambda args, r: _engine_work(
        len(r.enlarged.members), args),
    "game_engine.dpp_check": lambda args, r: _engine_work(len(r.cells), args),
    "pde_solver.solve_isaacs": lambda args, r: {
        "pde_solver.node_layers": _node_layers(args()["grid"])},
    "hamiltonian.mixed": lambda args, r: {
        "hamiltonian.queries": 1, f"hamiltonian.mixed.{r.method}": 1},
    "reports.emit_report": lambda args, r: {
        "reports.bytes_written": sum(os.path.getsize(p) for p in r)},
}

COUNT_NAMES = ["game_engine.cells", "game_engine.path_steps", "pde_solver.node_layers",
               "hamiltonian.queries", "hamiltonian.mixed.saddle", "hamiltonian.mixed.2x2",
               "hamiltonian.mixed.lp", "reports.bytes_written", "trace.spans"]

# Self time is reported per layer.  runner and cli each have one span, and
# their self time is named after it.
SELF_NAMES = {"runner": "runner.run_experiment.self_s", "cli": "cli.main.self_s"}


def self_name(layer: str) -> str:
    return SELF_NAMES.get(layer, f"{layer}.self_s")


def metric_names() -> list:
    """Every per-layer metric the traced run can report."""
    names = ["import.s"]
    for _, _, span in TARGETS:
        names += [f"{span}.s", f"{span}.calls"]
    names += COUNT_NAMES
    names += sorted({self_name(span.split(".")[0]) for _, _, span in TARGETS})
    return names


def _resolve(module: str, attribute: str):
    owner = sys.modules[module]
    for part in attribute.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, attribute.split(".")[-1]


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, run_id: str, clock):
        self.run_id = run_id
        self.clock = clock
        self.phase = "setup"
        self.spans: list = []
        self.counts: dict = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def _count(self, values: dict) -> None:
        with self._lock:
            self.counts.setdefault(self.phase, Counter()).update(values)

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (the package import)."""
        self.spans.append({"run": self.run_id, "id": next(self._ids), "parent": None,
                           "name": name, "start": start, "end": end,
                           "phase": self.phase, "thread": threading.get_ident()})
        self._count({"trace.spans": 1})

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append({"run": tracer.run_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "phase": tracer.phase,
                                     "thread": threading.get_ident()})
            counts = {f"{name}.calls": 1, "trace.spans": 1}
            if counter is not None:
                def bound():
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    return call.arguments
                counts.update(counter(bound, result))
            tracer._count(counts)
            return result

        return traced

    def install(self) -> None:
        """Replace every robustctl module attribute bound to a target."""
        if self._saved:
            return
        modules = [m for n, m in list(sys.modules.items())
                   if n == "robustctl" or n.startswith("robustctl.")]
        for module, attribute, name in TARGETS:
            owner, attr = _resolve(module, attribute)
            original = owner.__dict__[attr]
            wrapper = self.wrap(original, name)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if m.__dict__.get(attr) is original]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for phase, counts in self.counts.items():
                fh.write(json.dumps({"run": self.run_id, "phase": phase,
                                     "counts": dict(counts)}) + "\n")

    def per_layer(self, reps: list) -> dict:
        """Set-up totals plus the median over traced repetitions.

        Each metric is what one set-up and one repetition cost: inclusive
        time per span name (``.s``), self time per layer (span duration
        minus the part its child spans cover) and the exact counts.
        """
        totals = {phase: Counter(self.counts.get(phase, {})) for phase in ["setup"] + reps}
        children: dict = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        for span in self.spans:
            duration = span["end"] - span["start"]
            layer = span["name"].split(".")[0]
            bucket = totals[span["phase"]]
            bucket[f"{span['name']}.s"] += duration
            if layer != "import":
                covered = _covered(children.get(span["id"], []), span["start"], span["end"])
                bucket[self_name(layer)] += duration - covered
        out = {}
        for name in metric_names():
            rep_values = [totals[r][name] for r in reps]
            out[name] = totals["setup"][name] + (statistics.median(rep_values)
                                                 if rep_values else 0)
        return out


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
