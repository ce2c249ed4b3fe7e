"""Per-layer metrics computed from a traced run's spans and counters.

Layers are the program's modules on the timed path: scene, sceneio, kernels,
filter, qp and simulator. Every metric is reported on every workload; a layer
the workload never calls reads 0. Names and units are those of `per_layer`
in BENCHMARK.json.
"""
from __future__ import annotations

import numpy as np

DT = 0.02  # control period of every workload

def _pct(x: np.ndarray, q: float) -> float:
    return float(np.percentile(x, q)) if x.size else 0.0


def _mean(x) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(x.mean()) if x.size else 0.0


def layer_metrics(tracer, traced_wall: float, untraced_wall: float,
                  pass_wall: float) -> tuple[dict, dict]:
    """(metrics, sample counts): every per-layer metric.

    `traced_wall` and `untraced_wall` are the control loops' wall times of
    the two runs; `pass_wall` is the traced run timed around each whole unit
    of work, including the benchmark's own bookkeeping and checks.
    """
    a = tracer.arrays()
    name_of = np.asarray(tracer.names + [""], dtype=object)
    names = name_of[a["name"]] if a["name"].size else np.zeros(0, dtype=object)
    dur, self_t, parent = a["dur"], a["self"], a["parent"]
    parent_name = np.where(parent >= 0, names[parent] if names.size else names, "")
    out, n = {}, {}

    def sel(name):
        return np.nonzero(names == name)[0]

    def put(key, value, samples="-"):
        out[key], n[key] = float(value), samples

    q = sel("scene.query_nearby")
    put("scene.query_nearby.calls", q.size, q.size)
    put("scene.query_nearby.p50_us", _pct(dur[q], 50) * 1e6, q.size)
    put("scene.query_nearby.p99_us", _pct(dur[q], 99) * 1e6, q.size)
    put("scene.query_nearby.self_s", self_t[q].sum(), q.size)
    put("scene.query_nearby.results_mean", _mean([tracer.results[i] for i in q]), q.size)
    for key, name in (("sceneio.load_ply.s", "sceneio.load_ply"),
                      ("scene.from_arrays.s", "scene.from_arrays")):
        s = sel(name)
        put(key, np.median(dur[s]) if s.size else 0.0, s.size)

    for k in ("cone_rows", "baseline_rows"):
        s = sel(f"kernels.{k}")
        rows = np.asarray([tracer.rows[i] for i in s], dtype=np.float64)
        moved = np.asarray([tracer.row_bytes[i] for i in s], dtype=np.float64)
        total = rows.sum()
        put(f"kernels.{k}.calls", s.size, s.size)
        put(f"kernels.{k}.rows_mean", _mean(rows), s.size)
        put(f"kernels.{k}.p50_us", _pct(dur[s], 50) * 1e6, s.size)
        put(f"kernels.{k}.self_s", self_t[s].sum(), s.size)
        put(f"kernels.{k}.ns_per_row", self_t[s].sum() / total * 1e9 if total else 0.0, s.size)
        put(f"kernels.{k}.computed_bytes_per_row", moved.sum() / total if total else 0.0, s.size)
    mm = sel("kernels.min_margin")
    put("kernels.min_margin.calls", mm.size, mm.size)
    put("kernels.min_margin.self_s", self_t[mm].sum(), mm.size)

    st = sel("filter.step")
    put("filter.step.self_p50_us", _pct(self_t[st], 50) * 1e6, st.size)
    put("filter.step.max_ms", dur[st].max() * 1e3 if st.size else 0.0, st.size)
    put("filter.inside_frac", _mean([tracer.inside[i] for i in st]), st.size)

    solves = sel("qp.solve_filter")
    fs = solves[parent_name[solves] == "filter.step"]
    cs = solves[parent_name[solves] == "simulator.clip_reference"]
    put("qp.solve_filter.calls", fs.size, fs.size)
    put("qp.solve_filter.p50_us", _pct(dur[fs], 50) * 1e6, fs.size)
    put("qp.solve_filter.p99_us", _pct(dur[fs], 99) * 1e6, fs.size)
    put("qp.solve_filter.max_us", dur[fs].max() * 1e6 if fs.size else 0.0, fs.size)
    put("qp.solve_filter.self_s", self_t[fs].sum(), fs.size)
    put("qp.rows_mean", _mean([tracer.rows[i] for i in fs]), fs.size)
    proj = np.asarray([tracer.projections.get(i, 0) for i in fs], dtype=np.float64)
    put("qp.projections_per_solve", _mean(proj), fs.size)
    put("qp.ball_solve_frac", _mean(proj > 1), fs.size)
    statuses = [tracer.status[i] for i in fs]
    for s in ("optimal", "infeasible", "degraded"):
        put(f"qp.status.{s}", statuses.count(s), fs.size)
    kkts = [tracer.kkt[i] for i in fs if tracer.status[i] == "optimal"]
    put("qp.kkt_max", max(kkts) if kkts else 0.0, len(kkts))
    put("qp.clip_solve.calls", cs.size, cs.size)
    put("qp.clip_solve.self_s", self_t[cs].sum(), cs.size)

    cr = sel("simulator.clip_reference")
    put("simulator.clip_reference.calls", cr.size, cr.size)
    put("simulator.clip_reference.solve_frac", cs.size / cr.size if cr.size else 0.0, cr.size)
    put("simulator.clip_reference.self_s", self_t[cr].sum(), cr.size)
    au, lp = sel("simulator.audit"), sel("simulator.loop")
    put("simulator.audit.self_s", self_t[au].sum(), au.size)
    put("simulator.loop.self_s", self_t[lp].sum(), lp.size)
    put("simulator.steps_over_dt",
        _steps_over_dt(tracer, st, a["start"]) if lp.size else 0, max(0, st.size - lp.size))

    # Coverage is measured against `pass_wall`, which no span encloses: the
    # remainder is the benchmark's own work between the program's calls.
    # `named_cover` also leaves out the loop's self time, the catch-all for
    # run_trajectory code that no patched function owns.
    setup_roots = (parent < 0) & np.isin(names, ["sceneio.load_ply", "scene.from_arrays"])
    loop_self = float(self_t.sum() - dur[setup_roots].sum())
    named_self = loop_self - float(self_t[lp].sum())
    put("trace.wall_s", traced_wall)
    put("trace.untraced_wall_s", untraced_wall)
    put("trace.overhead_s", traced_wall - untraced_wall)
    put("trace.overhead_frac",
        (traced_wall - untraced_wall) / untraced_wall if untraced_wall else 0.0)
    put("trace.self_cover", loop_self / pass_wall if pass_wall else 0.0)
    put("trace.named_cover", named_self / pass_wall if pass_wall else 0.0)
    return out, n


def _steps_over_dt(tracer, steps: np.ndarray, start: np.ndarray) -> int:
    """Closed-loop control steps (filter start to next filter start in the
    same trajectory) that took longer than the control period."""
    if steps.size < 2:
        return 0
    traj = np.asarray(tracer.traj, dtype=np.int64)[steps]
    t = start[steps]
    same = traj[1:] == traj[:-1]
    gaps = (t[1:] - t[:-1])[same] * 1e-9
    return int((gaps > DT).sum())
