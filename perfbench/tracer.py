"""In-memory span tracing of dyngames' public functions, from outside the package.

``traced(recorder)`` replaces every public function named in ``LAYERS`` with a
wrapper that records one span per call, at every module binding of the
function: modules import with ``from .model import rollout``, so the name
``dyngames.projgrad.rollout`` must be wrapped as well as
``dyngames.model.rollout``.  Leaving the context restores every binding, so
code run afterwards calls the original functions.  The package sources are not
touched.

A span's self time is its duration minus the durations of its direct child
spans; calls are strictly nested in a single thread, so the children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Layer (module) -> public functions traced in it.  Span and metric names are
# "<module>.<function>".
LAYERS = {
    "model": ("rollout", "all_player_costs", "quadraticize"),
    "gradient": ("pseudo_gradient", "playerwise_minimizer_check"),
    "projgrad": ("projected_gradient_solve", "project_onto_feasible"),
    "splitting": ("dr_solve", "resolvent_reg_game", "project_stage_constraints",
                  "resolvent_reg_static_games", "resolvent_static_games_uncon",
                  "constrained_oc_projection", "project_dynamics"),
    "feedback": ("solve_lq_open_loop", "stagewise_newton_backward", "feedback_rollout"),
    "parametric": ("solve_stage_kkt",),
    "denseqp": ("solve_qp", "project_polyhedron", "solve_equality_kkt"),
    "benchmarks": ("noise_comparison",),
    "report": ("build_report",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Recorder:
    """Spans of one traced region: name, start, end and the enclosing span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name_ids]

    def write_csv(self, path: Path) -> None:
        """Write the spans, times relative to the first span's start."""
        t0 = self.starts[0] if len(self) else 0.0
        lines = ["span,name,start_s,end_s,parent"]
        for i, name in enumerate(self.span_names()):
            lines.append(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]}")
        path.write_text("\n".join(lines) + "\n")


def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span duration minus the summed durations of its direct children."""
    starts = np.asarray(starts, dtype=float)
    dur = np.asarray(ends, dtype=float) - starts
    parents = np.asarray(parents, dtype=int)
    covered = np.zeros_like(dur)
    nested = parents >= 0
    np.add.at(covered, parents[nested], dur[nested])
    return dur - covered


def layer_totals(recorder: Recorder) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, summed self time) for every name in SPAN_NAMES."""
    totals = {name: (0, 0.0) for name in SPAN_NAMES}
    if len(recorder) == 0:
        return totals
    own = self_times(recorder.starts, recorder.ends, recorder.parents)
    ids = np.asarray(recorder.name_ids, dtype=int)
    calls = np.bincount(ids, minlength=len(recorder.names))
    self_s = np.bincount(ids, weights=own, minlength=len(recorder.names))
    for nid, name in enumerate(recorder.names):
        totals[name] = (int(calls[nid]), float(self_s[nid]))
    return totals


def _wrap(fn, name: str, recorder: Recorder):
    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        idx = recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit(idx)
    return traced_call


def _bindings(originals: dict[str, object]) -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every dyngames binding of a traced function."""
    by_id = {id(fn): name for name, fn in originals.items()}
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dyngames" or mod_name.startswith("dyngames.")):
            continue
        for attr, val in vars(mod).items():
            name = by_id.get(id(val))
            if name is not None and val is originals[name]:
                found.append((mod, attr, name))
    return found


@contextmanager
def traced(recorder: Recorder):
    """Record spans of every function in SPAN_NAMES into ``recorder``."""
    originals = {}
    for name in SPAN_NAMES:
        mod_name, fn_name = name.split(".")
        module = importlib.import_module(f"dyngames.{mod_name}")
        originals[name] = getattr(module, fn_name)
    wrappers = {name: _wrap(fn, name, recorder) for name, fn in originals.items()}
    bindings = _bindings(originals)
    try:
        for mod, attr, name in bindings:
            setattr(mod, attr, wrappers[name])
        yield recorder
    finally:
        for mod, attr, name in bindings:
            setattr(mod, attr, originals[name])
