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
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import kernels
from .filter import FilterConfig, baseline_distance_filter_step, filter_step, passthrough_step
from .qp import norm_balls, project_balls
# Unused here since every filter solves through `filter.solve_filter`, but
# perfbench/tracing.py patches `simulator.solve_filter` by name.
from .qp import solve_filter  # noqa: F401
from .scene import Scene
from .sceneio import _atomic_write_text

FILTERS = ("cone", "distance_baseline", "off")


class SimulationError(ValueError):
    """Invalid simulation setup (bad start, bad config)."""


@dataclass(frozen=True)
class RobotState:
    p: np.ndarray
    v: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    filter: str = "cone"
    dt: float = 0.02
    kp: float = 1.0
    kd: float = 2.0
    a_max: float = 10.0
    v_max: float | None = 3.0
    timeout: float = 60.0
    goal_tol_p: float = 0.05
    goal_tol_v: float = 0.1
    p_k: float = 1.0
    activation_radius: float = 5.0
    confidence: float | None = None
    rho: float = 0.0
    inflation_mode: str = "conservative"
    slack_weight: float | None = None
    inside_policy: str = "hard"
    baseline_alpha1: float | None = None  # None -> p_k (matched gains)
    baseline_alpha2: float | None = None
    start_radius: float | None = None     # batch placement circle
    start_height: float | None = None

    def __post_init__(self):
        if self.filter not in FILTERS:
            raise SimulationError(f"unknown filter {self.filter!r}; options: {FILTERS}")
        for name in ("dt", "kp", "kd", "a_max", "timeout", "goal_tol_p", "goal_tol_v",
                     "p_k", "activation_radius"):
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be positive")

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            p_k=self.p_k,
            confidence=self.confidence,
            activation_radius=self.activation_radius,
            rho=self.rho,
            inflation_mode=self.inflation_mode,
            a_max=self.a_max,
            v_max=self.v_max,
            dt=self.dt,
            slack_weight=self.slack_weight,
            inside_policy=self.inside_policy,
            baseline_alpha1=self.baseline_alpha1,
            baseline_alpha2=self.baseline_alpha2,
        )


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
    return kp * (np.asarray(goal, dtype=np.float64) - state.p) - kd * state.v


def step(state: RobotState, u: np.ndarray, dt: float) -> RobotState:
    """Exact double-integrator step under piecewise-constant acceleration."""
    if dt <= 0:
        raise SimulationError("dt must be positive")
    u = np.asarray(u, dtype=np.float64)
    p_next = state.p + state.v * dt + 0.5 * u * dt * dt
    v_next = state.v + u * dt
    return RobotState(p=p_next, v=v_next, t=state.t + dt)


def audit_reach(scene: Scene, rho: float = 0.0) -> float:
    """Euclidean radius that covers every point of every inflated ellipsoid."""
    if len(scene) == 0:
        return 0.0
    c = np.sqrt(scene.confidence)
    c_m = c + (rho / scene.s_min if rho else 0.0)
    return float((c_m * scene.scales.max(axis=1)).max())


def scene_margins(scene: Scene, points: np.ndarray, rho: float = 0.0) -> np.ndarray:
    """Per-point min over splats of (p - mu)^T A (p - mu) - c_M^2.

    Uses the conservative per-splat inflation c_M = c + rho / s_min, computed
    from raw geometry only (independent of any filter state).
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(scene) == 0:
        return np.full(points.shape[0], np.inf)
    reach = audit_reach(scene, rho) + 1e-9
    c = np.sqrt(scene.confidence)
    out = np.full(points.shape[0], np.inf)
    for k, pt in enumerate(points):
        idx = scene.query_nearby(pt, reach)
        if idx.size == 0:
            continue
        c2eff = (c + rho / scene.s_min[idx]) ** 2 if rho else np.full(idx.size, scene.confidence)
        out[k] = kernels.min_margin(pt[None, :], scene.means[idx],
                                    scene.inv_cov[idx], c2eff)[0]
    return out


# looked up per trajectory, so an entry replaced at run time (timers,
# tracers) takes effect on the next run
_FILTER_STEPS = {
    "cone": filter_step,
    "distance_baseline": baseline_distance_filter_step,
    "off": passthrough_step,
}


def _clip_reference(u_ref: np.ndarray, v: np.ndarray, fcfg: FilterConfig) -> np.ndarray | None:
    """Reference projected onto the norm bounds only (no barrier rows), in
    closed form; None when the bounds exclude each other."""
    clipped = project_balls(u_ref, *norm_balls(fcfg.a_max, v, fcfg.v_max, fcfg.dt))
    return None if clipped is None else clipped[0]


def first_intervention_distance(record: TrajectoryRecord, center: np.ndarray) -> float | None:
    """Distance to `center` at the first filtered step, None if never filtered."""
    hits = np.nonzero(record.intervened)[0]
    if hits.size == 0:
        return None
    return float(np.linalg.norm(record.p[hits[0]] - np.asarray(center, dtype=np.float64)))


def run_trajectory(scene: Scene, start: np.ndarray, goal: np.ndarray,
                   cfg: SimConfig) -> TrajectoryRecord:
    """Simulate one start-to-goal run; outcome per the post-hoc audit."""
    start = np.asarray(start, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)
    if not (np.isfinite(start).all() and np.isfinite(goal).all()):
        raise SimulationError("start/goal must be finite")
    if scene_margins(scene, start[None, :], cfg.rho)[0] <= 0.0:
        raise SimulationError("start position lies inside an (inflated) ellipsoid")

    fcfg = cfg.filter_config()
    filt = _FILTER_STEPS[cfg.filter]
    state = RobotState(p=start, v=np.zeros(3), t=0.0)
    max_steps = int(np.ceil(cfg.timeout / cfg.dt))
    ts, ps, vs, us, hs, sts, bts, ivs = [], [], [], [], [], [], [], []
    outcome = "timeout"

    for _ in range(max_steps):
        u_ref = pd_reference(state, goal, (cfg.kp, cfg.kd))
        sol, diag = filt(scene, state, u_ref, fcfg)
        if sol.status == "infeasible":
            outcome = "infeasible"
            break
        u = sol.u
        # interventions measured against the bound-clipped reference: the
        # norm balls are actuation limits, not safety actions
        u_clip = _clip_reference(u_ref, state.v, fcfg)
        ivs.append(bool(np.linalg.norm(u - u_clip) > 1e-9 * max(1.0, np.linalg.norm(u_clip))))
        ts.append(state.t)
        ps.append(state.p)
        vs.append(state.v)
        us.append(u)
        hs.append(diag["min_h"])
        sts.append(sol.solve_time)
        bts.append(diag["build_time"])
        state = step(state, u, cfg.dt)
        if (np.linalg.norm(state.p - goal) < cfg.goal_tol_p
                and np.linalg.norm(state.v) < cfg.goal_tol_v):
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
        "nj_convention": "integrated squared jerk per meter of traveled path",
        "timing": {
            "solve_time": _stats(solve_times),
            "build_time": _stats(build_times),
            "step_time": _stats(solve_times + build_times),
        },
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
        "nj_convention": "integrated squared jerk per meter of traveled path",
        "metrics": None,
        "timing": {
            "solve_time": _stats(record.solve_time),
            "build_time": _stats(record.build_time),
            "step_time": _stats(record.solve_time + record.build_time),
        },
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
