"""Span tracing of splatcone from outside the program.

The traced run replaces, for the duration of one `Tracer.installed()` block,
the names the program looks up at call time with thin wrappers that record a
span per call: name, start, end, parent span, trajectory id and step id.
Nothing in `splatcone` is edited; every patched name is restored on exit.

Patched lookup sites:

    scene.Scene.query_nearby            method, looked up on the instance
    scene.Scene.from_arrays             classmethod
    sceneio.load_ply                    called by the benchmark
    kernels.cone_rows / baseline_rows / min_margin
                                        looked up as `kernels.<name>`
    filter.filter_step                  called by the clutter workload
    simulator._FILTER_STEPS[...]        captured at import by the simulator
    filter.solve_filter, simulator.solve_filter
                                        both modules bind the name directly
    qp._project_polyhedron              counted only (no span)
    simulator._clip_reference, scene_margins (the audit), run_trajectory

Spans live in memory (flat lists) and are written once, after the run.
A span's self time is its duration minus the durations of its children;
calls are nested on one thread, so children never overlap.
"""
from __future__ import annotations

import contextlib
import csv
import time
from pathlib import Path

import numpy as np

_NOW = time.perf_counter_ns


class Tracer:
    """In-memory span recorder with per-call hooks for layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.traj: list[int] = []
        self.step: list[int] = []
        self.stack: list[int] = []
        self.cur_traj = -1
        self.cur_step = -1
        # per-span extras filled by hooks: span index -> value
        self.rows: dict[int, int] = {}
        self.row_bytes: dict[int, int] = {}
        self.results: dict[int, int] = {}
        self.status: dict[int, str] = {}
        self.kkt: dict[int, float] = {}
        self.projections: dict[int, int] = {}
        self.inside: dict[int, bool] = {}

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, hook=None, new_step: bool = False):
        """Return `fn` wrapped in a span named `name`.

        `hook(tracer, span, args, result)` runs after the span closes and
        records layer counters. `new_step` advances the step id before the
        span opens; the caller sets the trajectory id (`cur_traj`).
        """
        nid = self._nid(name)
        tr = self

        def wrapper(*args, **kwargs):
            if new_step:
                tr.cur_step += 1
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(tr.stack[-1] if tr.stack else -1)
            tr.traj.append(tr.cur_traj)
            tr.step.append(tr.cur_step)
            tr.start.append(0)
            tr.end.append(0)
            tr.stack.append(idx)
            t0 = _NOW()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _NOW()
                tr.stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if hook is not None:
                hook(tr, idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_in_open_span(self, fn, counter: dict):
        """Wrap `fn` so each call increments `counter[innermost open span]`."""
        tr = self

        def wrapper(*args, **kwargs):
            if tr.stack:
                top = tr.stack[-1]
                counter[top] = counter.get(top, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the program's lookup sites; restore them on exit."""
        from splatcone import filter as filter_mod
        from splatcone import kernels, qp, scene, sceneio, simulator

        saved = []

        def patch(obj, attr, new):
            if isinstance(obj, dict):
                saved.append((obj, attr, obj[attr], True))
                obj[attr] = new
            else:
                saved.append((obj, attr, obj.__dict__[attr] if isinstance(obj, type)
                              else getattr(obj, attr), False))
                setattr(obj, attr, new)

        try:
            patch(scene.Scene, "query_nearby",
                  self.wrap("scene.query_nearby", scene.Scene.query_nearby, _hook_results))
            from_arrays = scene.Scene.__dict__["from_arrays"].__func__
            patch(scene.Scene, "from_arrays",
                  classmethod(self.wrap("scene.from_arrays", from_arrays)))
            patch(sceneio, "load_ply", self.wrap("sceneio.load_ply", sceneio.load_ply))
            patch(kernels, "cone_rows",
                  self.wrap("kernels.cone_rows", kernels.cone_rows, _hook_rows))
            patch(kernels, "baseline_rows",
                  self.wrap("kernels.baseline_rows", kernels.baseline_rows, _hook_rows))
            patch(kernels, "min_margin", self.wrap("kernels.min_margin", kernels.min_margin))
            # each site wraps its own current binding, so wrappers the
            # benchmark installed there (timers, captures) stay in the chain
            patch(filter_mod, "filter_step",
                  self.wrap("filter.step", filter_mod.filter_step, _hook_step, new_step=True))
            for key in ("cone", "distance_baseline"):
                patch(simulator._FILTER_STEPS, key,
                      self.wrap("filter.step", simulator._FILTER_STEPS[key],
                                _hook_step, new_step=True))
            for mod in (filter_mod, simulator):
                patch(mod, "solve_filter",
                      self.wrap("qp.solve_filter", mod.solve_filter, _hook_solve))
            patch(qp, "_project_polyhedron",
                  self.count_in_open_span(qp._project_polyhedron, self.projections))
            patch(simulator, "_clip_reference",
                  self.wrap("simulator.clip_reference", simulator._clip_reference))
            patch(simulator, "scene_margins",
                  self.wrap("simulator.audit", simulator.scene_margins))
            patch(simulator, "run_trajectory",
                  self.wrap("simulator.loop", simulator.run_trajectory))
            yield self
        finally:
            for obj, attr, old, is_item in reversed(saved):
                if is_item:
                    obj[attr] = old
                else:
                    setattr(obj, attr, old)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with duration and self time in seconds."""
        start = np.asarray(self.start, dtype=np.int64)
        end = np.asarray(self.end, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (end - start).astype(np.float64) * 1e-9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        name = np.asarray(self.name_id, dtype=np.int64)
        return {"name": name, "start": start, "end": end, "parent": parent,
                "dur": dur, "self": dur - child}

    def write_spans(self, path: Path) -> None:
        """Write every span as one CSV row: name, start/end (ns), parent, ids."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_ns", "end_ns", "parent", "trajectory", "step"])
            for i in range(len(self.start)):
                w.writerow([i, self.names[self.name_id[i]], self.start[i], self.end[i],
                            self.parent[i], self.traj[i], self.step[i]])


# -- hooks: counters measured where the work happens ------------------------

def _hook_results(tr: Tracer, idx: int, args, result) -> None:
    tr.results[idx] = int(len(result))


def _hook_rows(tr: Tracer, idx: int, args, result) -> None:
    # args: p, v, means, inv_cov, c2eff, gains...
    tr.rows[idx] = int(np.shape(args[2])[0])
    moved = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    moved += sum(r.nbytes for r in result)
    tr.row_bytes[idx] = int(moved)


def _hook_step(tr: Tracer, idx: int, args, result) -> None:
    _, diag = result
    tr.inside[idx] = bool(np.size(diag.get("inside_ids", ())))


def _hook_solve(tr: Tracer, idx: int, args, result) -> None:
    tr.rows[idx] = int(args[0].normals.shape[0])
    tr.status[idx] = result.status
    tr.kkt[idx] = float(result.kkt_residual)
