"""Per-step safety filter over a splat scene: one pipeline for every filter.

Each step queries the splats near the robot, builds one half-space row per
active splat with a batch kernel, applies the inside policy and solves the
minimally-invasive program with `solve_filter`. The filters differ only in
their row builder:

    cone               collision-cone barrier rows (exact Minkowski rows when
                       rho > 0 and inflation_mode is "exact"); the robot is
                       inside a splat when eta <= 0
    distance_baseline  second-order Mahalanobis-distance barrier rows; its
                       barrier h is the conservative cone's eta, so
                       inside is h <= 0
    off                no rows (the reference is only clipped to the norm
                       bounds); cone barrier values are kept for the record

Splats whose (inflated) ellipsoid already contains the robot break the
barrier premise; policy is configurable: hard (report infeasible) or slack
(relax all rows quadratically and keep flying).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .qp import FilterProblem, FilterSolution, SolverError, solve_filter
from .scene import ConfigError, Scene

DEFAULT_SLACK_WEIGHT = 1e4
INSIDE_POLICIES = ("hard", "slack")
INFLATION_MODES = ("conservative", "exact")


@dataclass(frozen=True)
class FilterConfig:
    """The filter's settings. c^2 is the scene's own (`Scene.confidence`)."""

    p_k: float = 1.0
    activation_radius: float = 5.0
    rho: float = 0.0
    inflation_mode: str = "conservative"  # conservative | exact
    a_max: float = 10.0
    v_max: float | None = None
    dt: float = 0.02
    slack_weight: float | None = None
    inside_policy: str = "hard"           # hard | slack
    baseline_alpha1: float | None = None  # distance baseline only; None -> p_k
    baseline_alpha2: float | None = None

    def __post_init__(self):
        if self.inside_policy not in INSIDE_POLICIES:
            raise ConfigError(
                f"unknown inside_policy {self.inside_policy!r}; options: {INSIDE_POLICIES}")
        if self.inflation_mode not in INFLATION_MODES:
            raise ConfigError(
                f"unknown inflation_mode {self.inflation_mode!r}; options: {INFLATION_MODES}")
        # `not x > 0` so that NaN fails too
        for name in ("dt", "a_max", "p_k", "activation_radius"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("v_max", "slack_weight", "baseline_alpha1", "baseline_alpha2"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be positive when set")
        if not self.rho >= 0:
            raise ConfigError("rho must be non-negative")
        # an infinite step never steps, an infinite penalty is no slack at all
        # (as FilterProblem requires), and an infinite gain or radius makes
        # the rows inf or NaN
        for name in ("dt", "slack_weight", "p_k", "rho", "baseline_alpha1", "baseline_alpha2"):
            value = getattr(self, name)
            if value is not None and not value < float("inf"):
                raise ConfigError(f"{name} must be finite")


def effective_c2(scene: Scene, rho: float, idx: np.ndarray):
    """Per-splat c_M^2 = (c + rho / s_min)^2: conservative inflation by
    radius rho. When rho = 0 it is c^2 for every splat: the scalar itself."""
    c2 = scene.confidence
    if rho == 0.0:
        return c2
    c = np.sqrt(c2)
    return (c + rho / np.take(scene.s_min, idx)) ** 2


def _cone_rows(scene: Scene, idx: np.ndarray, p, v, cfg: FilterConfig):
    means, A = scene.gather(idx)
    if cfg.rho > 0.0 and cfg.inflation_mode == "exact":
        c = float(np.sqrt(scene.confidence))
        normals, offsets, h, eta, fb = kernels.cone_rows_inflated(
            p, v, means, A, np.take(scene.s_min, idx), c, cfg.rho, cfg.p_k)
        return normals, offsets, h, eta <= 0.0, int(fb.sum())
    normals, offsets, h, eta = kernels.cone_rows(
        p, v, means, A, effective_c2(scene, cfg.rho, idx), cfg.p_k)
    return normals, offsets, h, eta <= 0.0, 0


def _baseline_rows(scene: Scene, idx: np.ndarray, p, v, cfg: FilterConfig):
    a1 = cfg.baseline_alpha1 if cfg.baseline_alpha1 is not None else cfg.p_k
    a2 = cfg.baseline_alpha2 if cfg.baseline_alpha2 is not None else cfg.p_k
    means, A = scene.gather(idx)
    normals, offsets, h = kernels.baseline_rows(
        p, v, means, A, effective_c2(scene, cfg.rho, idx), a1, a2)
    return normals, offsets, h, h <= 0.0, 0


def _no_rows(scene: Scene, idx: np.ndarray, p, v, cfg: FilterConfig):
    # conservative cone values for the record only; nothing is constrained
    means, A = scene.gather(idx)
    _, _, h, _ = kernels.cone_rows(p, v, means, A, effective_c2(scene, cfg.rho, idx), cfg.p_k)
    return np.zeros((0, 3)), np.zeros(0), h, np.zeros(h.size, dtype=bool), 0


def _filter_pipeline(build_rows, scene: Scene, state, u_ref: np.ndarray, cfg: FilterConfig):
    """query -> rows -> diagnostics -> inside policy -> FilterProblem -> solve.

    `build_rows(scene, idx, p, v, cfg)` returns (normals, offsets, h,
    inside mask, inflation fallback count) for the active splats `idx`; its
    rows either match `idx` one to one or are empty ('off').
    """
    t0 = time.perf_counter()
    p = np.asarray(state.p, dtype=np.float64)
    v = np.asarray(state.v, dtype=np.float64)
    idx = scene.query_nearby(p, cfg.activation_radius)
    if idx.size:
        normals, offsets, h, is_inside, fallbacks = build_rows(scene, idx, p, v, cfg)
    else:
        normals, offsets, h = np.zeros((0, 3)), np.zeros(0), np.zeros(0)
        is_inside, fallbacks = np.zeros(0, dtype=bool), 0
    inside = np.nonzero(is_inside)[0]
    diagnostics = {
        "min_h": float(h.min()) if h.size else float("inf"),
        "h": h,
        "active_splats": idx,
        "inside_ids": idx[inside] if inside.size else np.zeros(0, dtype=np.intp),
        "build_time": time.perf_counter() - t0,
        "n_active": int(idx.size),
        "inflation_fallbacks": fallbacks,
        "norm_balls": None,
    }

    slack_weight = cfg.slack_weight
    if inside.size and cfg.inside_policy == "hard":
        sol = FilterSolution(u=None, status="infeasible",
                             active_ids=diagnostics["inside_ids"], slack_used=0.0,
                             solve_time=0.0, kkt_residual=np.nan)
        return sol, diagnostics
    if inside.size and slack_weight is None:
        slack_weight = DEFAULT_SLACK_WEIGHT

    n_rows = offsets.size
    problem = FilterProblem(
        reference=u_ref,
        a_max=cfg.a_max,
        normals=normals,
        offsets=offsets,
        splat_ids=idx[:n_rows],
        v_current=v if cfg.v_max is not None else None,
        v_max=cfg.v_max,
        dt=cfg.dt,
        slack_weight=slack_weight,
    )
    diagnostics["norm_balls"] = problem.balls
    # looked up as this module's global at call time, so a wrapper set on
    # `filter.solve_filter` sees every filter's programs
    try:
        return solve_filter(problem), diagnostics
    except ValueError as e:  # rows that overflow: a finite but huge gain
        raise SolverError(f"rows not finite: {e}") from e


def filter_step(scene: Scene, state, u_ref: np.ndarray, cfg: FilterConfig):
    """One cone-filter step. Returns (FilterSolution, diagnostics).

    Diagnostics (the same keys for every filter): min_h (+inf sentinel when
    no splat is active), per-splat h, active splat indices, inside-splat ids,
    build time (query and rows), n_active, inflation fallbacks and the
    program's norm balls (Q, R) (None when no program was built: a step
    inside a splat under the hard policy).
    """
    return _filter_pipeline(_cone_rows, scene, state, u_ref, cfg)


def baseline_distance_filter_step(scene: Scene, state, u_ref: np.ndarray, cfg: FilterConfig):
    """Distance-barrier comparison filter (second-order condition).

    Uses the Mahalanobis surrogate h_d = (p - mu)^T A (p - mu) - c_M^2 per
    splat, which needs the second-order condition
    hdd + (a1 + a2) hd' + a1 a2 h_d >= 0 to expose the control. This is a
    documented simplified stand-in for distance-program planners, not a
    reimplementation of one. Gains a1, a2 are matched to p_k by default.
    """
    return _filter_pipeline(_baseline_rows, scene, state, u_ref, cfg)


def passthrough_step(scene: Scene, state, u_ref: np.ndarray, cfg: FilterConfig):
    """Filter 'off': the reference clipped to the norm bounds only; cone
    barrier values are still evaluated for the record. Never infeasible
    unless the bounds exclude each other."""
    return _filter_pipeline(_no_rows, scene, state, u_ref, cfg)
