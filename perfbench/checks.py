"""Correctness checks applied to every timed operation of the benchmark.

A violation counts the operation as failed; it never stops the run.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import nnls

FEAS_RTOL = 1e-9   # rows and balls, relative
KKT_TOL = 1e-6     # stationarity residual, absolute per unit of reference scale
TIGHT_RTOL = 1e-7  # a constraint within this (relative) slack counts as active
MARGIN_TOL = -1e-6 # audited ellipsoid margin on reached trajectories


def solution_violations(problem, sol) -> list[str]:
    """Check an `optimal` solution of a filter problem independently.

    Primal: every row `a_i . u >= b_i` and both norm balls hold to FEAS_RTOL
    relative. Dual: the KKT stationarity residual, recomputed here by
    non-negative least squares over the active rows and balls (not taken from
    the solver), is below KKT_TOL * max(1, ||u_ref||). The solver's own
    reported residual must also be below KKT_TOL.
    """
    if sol.status != "optimal":
        return []
    bad = []
    u = np.asarray(sol.u, dtype=np.float64)
    if u.shape != (3,) or not np.isfinite(u).all():
        return ["u not a finite 3-vector"]
    ubar = np.asarray(problem.reference, dtype=np.float64)

    N = np.asarray(problem.normals, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(problem.offsets, dtype=np.float64)
    norms = np.linalg.norm(N, axis=1)
    keep = norms > 1e-30
    Nn = N[keep] / norms[keep, None]
    bn = b[keep] / norms[keep]
    slack = Nn @ u - bn
    scale_rows = np.maximum(1.0, np.maximum(np.abs(bn), np.linalg.norm(u)))
    if slack.size and (slack < -FEAS_RTOL * scale_rows).any():
        bad.append(f"row violated by {float(-slack.min()):.3e}")

    balls = [(np.zeros(3), float(problem.a_max))]
    if problem.v_max is not None and problem.v_current is not None and problem.dt:
        balls.append((-np.asarray(problem.v_current, dtype=np.float64) / problem.dt,
                      float(problem.v_max) / problem.dt))
    tight_balls = []
    for q, R in balls:
        d = float(np.linalg.norm(u - q))
        if d > R * (1.0 + FEAS_RTOL) + 1e-12:
            bad.append(f"ball violated by {d - R:.3e}")
        if d >= R * (1.0 - TIGHT_RTOL):
            tight_balls.append(q)

    # stationarity: u - ubar = N_t^T lam - sum nu_k (u - q_k), lam, nu >= 0
    tight = slack <= TIGHT_RTOL * (1.0 + np.abs(bn))
    rows = Nn[tight].T
    ball_cols = np.array([-(u - q) for q in tight_balls]).reshape(-1, 3).T
    kkt_scale = max(1.0, float(np.linalg.norm(ubar)))
    resid = _stationarity_residual(rows, ball_cols, u - ubar)
    if resid > KKT_TOL * kkt_scale:
        bad.append(f"KKT residual {resid:.3e}")
    if not (sol.kkt_residual < KKT_TOL * kkt_scale):
        bad.append(f"solver-reported KKT residual {sol.kkt_residual:.3e}")
    return bad


def _stationarity_residual(rows: np.ndarray, balls: np.ndarray, target: np.ndarray) -> float:
    """min ||[rows balls] x - target|| over x >= 0 (columns are generators)."""
    M = np.concatenate([balls, rows], axis=1)
    if M.shape[1] == 0:
        return float(np.linalg.norm(target))
    return float(nnls(M, target)[1])


def trajectory_violations(record) -> list[str]:
    """Closed-loop checks: never collided; reached runs keep a safe margin."""
    bad = []
    if record.outcome == "collided":
        bad.append("collided")
    if record.outcome == "reached_goal" and not record.audit_min_margin >= MARGIN_TOL:
        bad.append(f"audited margin {record.audit_min_margin:.3e}")
    return bad
