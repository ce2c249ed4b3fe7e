"""Closed-loop double-integrator simulation under one of the safety filters.

The robot follows a PD reference toward a goal; each step the chosen filter
(cone barrier, second-order distance-barrier baseline, or none) minimally
modifies the reference acceleration. All three are bindings of the one
filter-step pipeline in `filter.py`, looked up in `_FILTER_STEPS` when a
trajectory starts. Collision is judged post hoc by an audit that sees only
recorded positions and raw scene geometry, never the filter's own barrier
bookkeeping.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .filter import (
    FilterConfig,
    FilterConfigError,
    baseline_distance_filter_step,
    effective_c2,
    filter_step,
    passthrough_step,
)
from .qp import project_balls
# Unused here since every filter solves through `filter.solve_filter`, but
# perfbench/tracing.py patches `simulator.solve_filter` by name.
from .qp import solve_filter  # noqa: F401
from .scene import Scene
from .sceneio import _atomic_write_text

_NJ_CONVENTION = "integrated squared jerk per meter of traveled path"


class SimulationError(ValueError):
    """Invalid simulation setup (bad start, bad config)."""


@dataclass(frozen=True)
class RobotState:
    p: np.ndarray
    v: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class SimConfig(FilterConfig):
    """A closed-loop run: the filter's settings plus the loop's own."""

    v_max: float | None = 2.5             # FilterConfig's default is None: no bound
    filter: str = "cone"
    kp: float = 1.0
    kd: float = 2.0
    timeout: float = 60.0
    goal_tol_p: float = 0.05
    goal_tol_v: float = 0.1
    start_radius: float | None = None     # batch placement circle
    start_height: float | None = None

    def __post_init__(self):
        if self.filter not in FILTERS:
            raise SimulationError(f"unknown filter {self.filter!r}; options: {FILTERS}")
        try:
            super().__post_init__()
        except FilterConfigError as e:
            raise SimulationError(str(e)) from None
        for name in ("kp", "kd", "timeout", "goal_tol_p", "goal_tol_v"):
            if not getattr(self, name) > 0:
                raise SimulationError(f"{name} must be positive")
        for name in ("kp", "kd", "timeout"):  # a non-finite reference or step count
            if not getattr(self, name) < math.inf:
                raise SimulationError(f"{name} must be finite")


@dataclass
class TrajectoryRecord:
    """Uniformly sampled closed-loop trace plus the post-hoc safety audit."""

    t: np.ndarray
    p: np.ndarray
    v: np.ndarray
    u: np.ndarray
    min_h: np.ndarray
    solve_time: np.ndarray
    build_time: np.ndarray
    outcome: str            # reached_goal | infeasible | collided | timeout
    start: np.ndarray
    goal: np.ndarray
    dt: float
    audit_min_margin: float = float("inf")
    interventions: int = 0
    intervened: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class SmoothnessMetrics:
    nj: float
    rms_j: float
    isj: float
    path_length: float
    duration: float


def pd_reference(state: RobotState, goal: np.ndarray, gains: tuple[float, float]) -> np.ndarray:
    """u_ref = kp (goal - p) - kd v."""
    kp, kd = gains
    if kp <= 0 or kd <= 0:
        raise SimulationError("PD gains must be positive")
    # per component in Python floats: the same operations as the array
    # formula, without its four temporaries
    return np.array([kp * (g - p) - kd * v for g, p, v in
                     zip(np.asarray(goal, dtype=np.float64).tolist(), state.p.tolist(),
                         state.v.tolist())])


def step(state: RobotState, u: np.ndarray, dt: float) -> RobotState:
    """Exact double-integrator step under piecewise-constant acceleration."""
    if dt <= 0:
        raise SimulationError("dt must be positive")
    u = np.asarray(u, dtype=np.float64)
    # per component in Python floats, in the order of the array formulas
    # p + v dt + 0.5 u dt dt and v + u dt
    pva = list(zip(state.p.tolist(), state.v.tolist(), u.tolist()))
    return RobotState(p=np.array([p + v * dt + 0.5 * a * dt * dt for p, v, a in pva]),
                      v=np.array([v + a * dt for _, v, a in pva]), t=state.t + dt)


def audit_reach(scene: Scene, rho: float = 0.0) -> float:
    """Euclidean radius that covers every point of every inflated ellipsoid."""
    if len(scene) == 0:
        return 0.0
    c = np.sqrt(scene.confidence)
    c_m = c + (rho / scene.s_min if rho else 0.0)
    # per column: a reduction along axis 1 of an (n, 3) array is ten times slower
    s = scene.scales
    return float((c_m * np.maximum(np.maximum(s[:, 0], s[:, 1]), s[:, 2])).max())


# (point, splat) candidates per audit pass, at about 170 B each: a pass
# holds all its candidates (the means of the grid cells it reads) at once,
# so this bounds the audit's memory (about 0.7 MB, or one point's
# candidates where a point has more). 64k pairs would cost perfbench's
# ring_baseline 12 MB of peak RSS.
_AUDIT_PAIRS = 1 << 12


def _pair_blocks(counts: np.ndarray, budget: int):
    """(lo, hi) of consecutive runs of points whose counts sum to at most
    `budget`; a point with a larger count than that is a run of its own."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(counts):
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + budget, side="right")))
        yield lo, hi
        lo = hi


def scene_margins(scene: Scene, points: np.ndarray, rho: float = 0.0) -> np.ndarray:
    """Per-point min over splats of (p - mu)^T A (p - mu) - c_M^2, with the
    conservative c_M = c + rho / s_min from raw geometry only (independent
    of any filter state). The points are split into runs of at most
    _AUDIT_PAIRS (point, splat) candidates, counted from the scene's grid
    without a distance test (`Scene.candidate_counts`); per run, one grid
    search finds its pairs within reach and one kernel call takes each
    point's minimum, so the margins do not depend on the split. A point
    with no pair gets +inf."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    out = np.full(points.shape[0], np.inf)
    if len(scene) == 0:
        return out
    reach = audit_reach(scene, rho) + 1e-9
    for lo, hi in _pair_blocks(scene.candidate_counts(points, reach), _AUDIT_PAIRS):
        block = points[lo:hi]
        owner, idx = scene.nearby_pairs(block, reach)
        out[lo:hi] = kernels.min_margin(
            block, owner, np.take(scene.means, idx, axis=0),
            np.take(scene.inv_cov, idx, axis=0), effective_c2(scene, rho, idx))
    return out


# looked up per trajectory, so an entry replaced at run time (timers,
# tracers) takes effect on the next run
_FILTER_STEPS = {
    "cone": filter_step,
    "distance_baseline": baseline_distance_filter_step,
    "off": passthrough_step,
}
FILTERS = tuple(_FILTER_STEPS)


def _clip_reference(u_ref: np.ndarray, balls) -> np.ndarray | None:
    """Reference projected onto the norm bounds only (no barrier rows), in
    closed form; None when the bounds exclude each other. `balls` is the
    step's (Q, R) from `qp.norm_balls`, as the filter step built them."""
    clipped = project_balls(u_ref, *balls)
    return None if clipped is None else clipped[0]


def first_intervention_distance(record: TrajectoryRecord, center: np.ndarray) -> float | None:
    """Distance to `center` at the first filtered step, None if never filtered."""
    hits = np.nonzero(record.intervened)[0]
    if hits.size == 0:
        return None
    return float(np.linalg.norm(record.p[hits[0]] - np.asarray(center, dtype=np.float64)))


def _norm(x: np.ndarray) -> float:
    # np.linalg.norm's own formula for a 1-D float vector, without its
    # per-call overhead; bit-identical
    return math.sqrt(x.dot(x))


def run_trajectory(scene: Scene, start: np.ndarray, goal: np.ndarray,
                   cfg: SimConfig) -> TrajectoryRecord:
    """Simulate one start-to-goal run; outcome per the post-hoc audit."""
    start = np.asarray(start, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)
    if not (np.isfinite(start).all() and np.isfinite(goal).all()):
        raise SimulationError("start/goal must be finite")
    if scene_margins(scene, start[None, :], cfg.rho)[0] <= 0.0:
        raise SimulationError("start position lies inside an (inflated) ellipsoid")

    filt = _FILTER_STEPS[cfg.filter]
    state = RobotState(p=start, v=np.zeros(3), t=0.0)
    max_steps = int(np.ceil(cfg.timeout / cfg.dt))
    ts, ps, vs, us, hs, sts, bts, ivs = [], [], [], [], [], [], [], []
    outcome = "timeout"

    for _ in range(max_steps):
        u_ref = pd_reference(state, goal, (cfg.kp, cfg.kd))
        sol, diag = filt(scene, state, u_ref, cfg)
        if sol.status == "infeasible":
            outcome = "infeasible"
            break
        u = sol.u
        # interventions measured against the bound-clipped reference: the
        # norm balls are actuation limits, not safety actions
        u_clip = _clip_reference(u_ref, diag["norm_balls"])
        ivs.append(bool(_norm(u - u_clip) > 1e-9 * max(1.0, _norm(u_clip))))
        ts.append(state.t)
        ps.append(state.p)
        vs.append(state.v)
        us.append(u)
        hs.append(diag["min_h"])
        sts.append(sol.solve_time)
        bts.append(diag["build_time"])
        state = step(state, u, cfg.dt)
        if _norm(state.p - goal) < cfg.goal_tol_p and _norm(state.v) < cfg.goal_tol_v:
            outcome = "reached_goal"
            break

    intervened = np.asarray(ivs, dtype=bool)
    record = TrajectoryRecord(
        t=np.asarray(ts), p=np.asarray(ps).reshape(-1, 3), v=np.asarray(vs).reshape(-1, 3),
        u=np.asarray(us).reshape(-1, 3), min_h=np.asarray(hs),
        solve_time=np.asarray(sts), build_time=np.asarray(bts),
        outcome=outcome, start=start, goal=goal, dt=cfg.dt,
        interventions=int(intervened.sum()), intervened=intervened,
    )
    if len(record):
        record.audit_min_margin = float(scene_margins(scene, record.p, cfg.rho).min())
        if record.audit_min_margin < 0.0:
            record.outcome = "collided"
    return record


def compute_metrics(record: TrajectoryRecord) -> SmoothnessMetrics:
    """Jerk-based smoothness metrics from the recorded controls.

    Jerk is differenced from u (exact for the double integrator, where
    u_dot is the jerk); nj is the integral of squared jerk per meter of
    traveled path (see the report header note on the convention).
    """
    n = len(record)
    if n < 4:
        raise SimulationError(f"need >= 4 samples for jerk metrics, got {n}")
    dt = record.dt
    j = np.diff(record.u, axis=0) / dt
    isj = float(np.sum(j * j) * dt)
    duration = float(record.t[-1] - record.t[0])
    rms_j = float(np.sqrt(isj / duration))
    path_length = float(np.linalg.norm(np.diff(record.p, axis=0), axis=1).sum())
    if path_length > 0:
        nj = isj / path_length
    else:
        nj = 0.0 if isj == 0.0 else float("inf")
    return SmoothnessMetrics(nj=nj, rms_j=rms_j, isj=isj,
                             path_length=path_length, duration=duration)


@dataclass
class BatchResult:
    runs: list  # (TrajectoryRecord, SmoothnessMetrics | None)
    aggregate: dict = field(default_factory=dict)


def _stats(values: np.ndarray) -> dict:
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return {"min": None, "median": None, "mean": None, "p90": None, "max": None}
    return {
        "min": float(v.min()),
        "median": float(np.median(v)),
        "mean": float(v.mean()),
        "p90": float(np.percentile(v, 90)),
        "max": float(v.max()),
    }


def _timing(solve_times: np.ndarray, build_times: np.ndarray) -> dict:
    """The `timing` block of a summary: solve, build and step time stats."""
    return {
        "solve_time": _stats(solve_times),
        "build_time": _stats(build_times),
        "step_time": _stats(solve_times + build_times),
    }


def batch_start_goal(scene: Scene, k: int, n: int, cfg: SimConfig,
                     rho: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """k-th of n start/goal pairs: evenly spaced on a circle around the scene,
    goals diametrically opposite. Starts inside obstacles get pushed radially
    outward with a warning."""
    lo, hi = scene.bounds[0], scene.bounds[1]
    center = 0.5 * (lo + hi)
    extent = 0.5 * float(max(hi[0] - lo[0], hi[1] - lo[1]))
    radius = cfg.start_radius if cfg.start_radius is not None else 1.25 * extent
    height = cfg.start_height if cfg.start_height is not None else float(center[2])
    # fixed rotation breaks exact alignment with symmetric scene layouts,
    # which otherwise pin the filtered PD loop on a knife edge
    theta = 2.0 * np.pi * k / n + 0.231
    pts = []
    for ang in (theta, theta + np.pi):
        r_k = radius
        pt = np.array([center[0] + r_k * np.cos(ang), center[1] + r_k * np.sin(ang), height])
        while scene_margins(scene, pt[None, :], rho)[0] <= 0.0:
            r_k *= 1.05
            warnings.warn(f"start/goal at angle {ang:.3f} inside an obstacle; "
                          f"pushed radially to {r_k:.3f}", RuntimeWarning, stacklevel=2)
            pt = np.array([center[0] + r_k * np.cos(ang), center[1] + r_k * np.sin(ang), height])
        pts.append(pt)
    return pts[0], pts[1]


def run_batch(scene: Scene, n_trajectories: int, cfg: SimConfig, seed: int) -> BatchResult:
    """n start/goal pairs spread evenly around the scene, antipodal goals.

    Deterministic for a fixed seed and config; the seed is echoed in the
    aggregate for reproducibility."""
    if n_trajectories < 1:
        raise SimulationError("n_trajectories must be >= 1")
    runs = []
    for k in range(n_trajectories):
        start, goal = batch_start_goal(scene, k, n_trajectories, cfg, cfg.rho)
        record = run_trajectory(scene, start, goal, cfg)
        try:
            metrics = compute_metrics(record)
        except SimulationError:
            metrics = None
        runs.append((record, metrics))

    records = [r for r, _ in runs]
    mets = [m for _, m in runs if m is not None]
    outcomes = {name: sum(1 for r in records if r.outcome == name)
                for name in ("reached_goal", "infeasible", "collided", "timeout")}
    solve_times = np.concatenate([r.solve_time for r in records]) if records else np.zeros(0)
    build_times = np.concatenate([r.build_time for r in records]) if records else np.zeros(0)
    aggregate = {
        "filter": cfg.filter,
        "seed": seed,
        "n_trajectories": n_trajectories,
        "outcomes": outcomes,
        "success_rate": outcomes["reached_goal"] / n_trajectories,
        "audit_min_margin": float(min(r.audit_min_margin for r in records)),
        "metrics": {
            "nj": _stats([m.nj for m in mets]),
            "rms_j": _stats([m.rms_j for m in mets]),
            "isj": _stats([m.isj for m in mets]),
            "path_length": _stats([m.path_length for m in mets]),
            "duration": _stats([m.duration for m in mets]),
        },
        "nj_convention": _NJ_CONVENTION,
        "timing": _timing(solve_times, build_times),
    }
    return BatchResult(runs=runs, aggregate=aggregate)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "t,px,py,pz,vx,vy,vz,ux,uy,uz,min_h,solve_time"


def record_to_csv(record: TrajectoryRecord) -> str:
    lines = [CSV_HEADER]
    for i in range(len(record)):
        row = [record.t[i], *record.p[i], *record.v[i], *record.u[i],
               record.min_h[i], record.solve_time[i]]
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def write_record_csv(path, record: TrajectoryRecord) -> None:
    _atomic_write_text(path, record_to_csv(record))


def summary_dict(record: TrajectoryRecord, metrics: SmoothnessMetrics | None,
                 config: dict, seed: int | None = None) -> dict:
    """JSON-ready run summary. Wall-clock quantities live exclusively under
    'timing' so everything else is deterministic for a fixed config+seed."""
    out = {
        "outcome": record.outcome,
        "seed": seed,
        "config": config,
        "start": [float(x) for x in record.start],
        "goal": [float(x) for x in record.goal],
        "n_samples": len(record),
        "interventions": record.interventions,
        "min_h_overall": float(record.min_h.min()) if len(record) else None,
        "audit_min_margin": record.audit_min_margin,
        "nj_convention": _NJ_CONVENTION,
        "metrics": None,
        "timing": _timing(record.solve_time, record.build_time),
    }
    if metrics is not None:
        out["metrics"] = asdict(metrics)
    return out


def _json_sanitize(obj):
    """Strict-JSON-safe: non-finite floats become strings / null."""
    if isinstance(obj, dict):
        return {k: _json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_sanitize(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if np.isnan(f):
            return None
        if np.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_json(path, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(_json_sanitize(payload), indent=2, sort_keys=True) + "\n")
