"""Per-step safety filter over a splat scene: one pipeline for every filter.

Each step queries the splats near the robot, builds one half-space row per
active splat with a batch kernel, applies the inside policy and solves the
minimally-invasive program with `solve_filter`. The filters differ only in
their row builder:

    cone               collision-cone barrier rows (exact Minkowski rows when
                       rho > 0 and inflation_mode is "exact"); the robot is
                       inside a splat when eta <= 0
    distance_baseline  second-order Mahalanobis-distance barrier rows; inside
                       when h <= 0
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
from .qp import FilterProblem, FilterSolution, solve_filter
from .scene import Scene

DEFAULT_SLACK_WEIGHT = 1e4


@dataclass(frozen=True)
class FilterConfig:
    p_k: float = 1.0
    confidence: float | None = None      # c^2 override; None uses the scene's
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

    def resolved_c2(self, scene: Scene) -> float:
        return float(self.confidence) if self.confidence is not None else scene.confidence


def effective_c2(scene: Scene, cfg: FilterConfig, idx: np.ndarray) -> np.ndarray:
    """Per-splat squared confidence radius after conservative inflation."""
    c2 = cfg.resolved_c2(scene)
    if cfg.rho == 0.0:
        return np.full(idx.size, c2)
    c = np.sqrt(c2)
    return (c + cfg.rho / scene.s_min[idx]) ** 2


def _cone_rows(scene: Scene, idx: np.ndarray, p, v, cfg: FilterConfig):
    means, A = scene.means[idx], scene.inv_cov[idx]
    if cfg.rho > 0.0 and cfg.inflation_mode == "exact":
        c = float(np.sqrt(cfg.resolved_c2(scene)))
        normals, offsets, h, eta, fb = kernels.cone_rows_inflated(
            p, v, means, A, scene.s_min[idx], c, cfg.rho, cfg.p_k)
        return normals, offsets, h, eta <= 0.0, int(fb.sum())
    normals, offsets, h, eta = kernels.cone_rows(
        p, v, means, A, effective_c2(scene, cfg, idx), cfg.p_k)
    return normals, offsets, h, eta <= 0.0, 0


def _baseline_rows(scene: Scene, idx: np.ndarray, p, v, cfg: FilterConfig):
    a1 = cfg.baseline_alpha1 if cfg.baseline_alpha1 is not None else cfg.p_k
    a2 = cfg.baseline_alpha2 if cfg.baseline_alpha2 is not None else cfg.p_k
    normals, offsets, h = kernels.baseline_rows(
        p, v, scene.means[idx], scene.inv_cov[idx], effective_c2(scene, cfg, idx), a1, a2)
    return normals, offsets, h, h <= 0.0, 0


def _no_rows(scene: Scene, idx: np.ndarray, p, v, cfg: FilterConfig):
    # conservative cone values for the record only; nothing is constrained
    _, _, h, _ = kernels.cone_rows(p, v, scene.means[idx], scene.inv_cov[idx],
                                   effective_c2(scene, cfg, idx), cfg.p_k)
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
        reference=np.asarray(u_ref, dtype=np.float64),
        a_max=cfg.a_max,
        normals=normals,
        offsets=offsets,
        splat_ids=idx[:n_rows],
        h_values=h[:n_rows],
        v_current=v if cfg.v_max is not None else None,
        v_max=cfg.v_max,
        dt=cfg.dt,
        slack_weight=slack_weight,
    )
    # looked up as this module's global at call time, so a wrapper set on
    # `filter.solve_filter` sees every filter's programs
    return solve_filter(problem), diagnostics


def filter_step(scene: Scene, state, u_ref: np.ndarray, cfg: FilterConfig):
    """One cone-filter step. Returns (FilterSolution, diagnostics).

    Diagnostics (the same keys for every filter): min_h (+inf sentinel when
    no splat is active), per-splat h, active splat indices, inside-splat ids,
    build time (query and rows), n_active and inflation fallbacks.
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
