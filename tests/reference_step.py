"""References for the closed-loop step: the solver tail, the norm-ball clip
and the collision audit as they stood before their numpy calls were
trimmed. Kept verbatim (two type hints dropped), so a test can compare the
library's results with these bit for bit; helpers that did not change are
imported from the library. Nothing in the library imports this module.
"""
from __future__ import annotations

import math
import time

import numpy as np

from splatcone import kernels
from splatcone.qp import (
    _BALL_BUDGET,
    _BALL_TOL,
    _FEAS_TOL,
    _ZERO_NORMAL,
    FilterProblem,
    FilterSolution,
    SolverError,
    _null_projector,
)
from splatcone.simulator import audit_reach


def _project_polyhedron(c: np.ndarray, N: np.ndarray, b: np.ndarray, max_iter: int = 200):
    """min ||u - c||^2 / 2 s.t. N u >= b, rows of N unit-norm.

    Dual active-set iteration starting from the unconstrained optimum.
    Returns (u, lam, feasible); lam is None when infeasible.
    """
    m = N.shape[0]
    u = c.copy()
    if m == 0:
        return u, np.zeros(0), True
    W: list[int] = []
    lamW: list[float] = []
    scale = 1.0 + float(np.abs(b).max()) + float(np.linalg.norm(c))
    ftol = 1e-12 * scale
    step_cap = 1e9 * scale  # longer steps mean numerically unreachable constraints

    for _ in range(max_iter):
        s = N @ u - b
        for j in W:
            s[j] = 0.0
        p = int(np.argmin(s))
        sp = float(s[p])
        if sp >= -ftol:
            lam = np.zeros(m)
            lam[W] = lamW
            return u, lam, True
        npv = N[p]
        lam_p = 0.0
        while True:
            if W:
                Nw = N[W]
                M = Nw @ Nw.T
                rhs = Nw @ npv
                try:
                    rr = np.linalg.solve(M, rhs)
                except np.linalg.LinAlgError:
                    rr = np.linalg.lstsq(M, rhs, rcond=None)[0]
                z = npv - Nw.T @ rr
            else:
                rr = np.zeros(0)
                z = npv.copy()
            zz = float(z @ z)
            # rows are unit norm, so zz is the squared independent component;
            # near-dependence gets the dual-only branch to avoid huge steps
            if zz > 1e-12 and -sp / zz <= step_cap:
                t_full = -sp / zz
                t_block = np.inf
                j_block = -1
                for j, rj in enumerate(rr):
                    if rj > 1e-14 and lamW[j] / rj < t_block:
                        t_block = lamW[j] / rj
                        j_block = j
                t = min(t_full, t_block)
                u += t * z
                for j in range(len(W)):
                    lamW[j] -= t * rr[j]
                lam_p += t
                if t_full <= t_block:
                    W.append(p)
                    lamW.append(lam_p)
                    break
                sp += t * zz
                del W[j_block], lamW[j_block]
            else:
                # new normal is dependent on the working set
                t_block = np.inf
                j_block = -1
                for j, rj in enumerate(rr):
                    if rj > 1e-14 and lamW[j] / rj < t_block:
                        t_block = lamW[j] / rj
                        j_block = j
                if j_block < 0:
                    return u, None, False  # constraint p can never be reached
                for j in range(len(W)):
                    lamW[j] -= t_block * rr[j]
                lam_p += t_block
                del W[j_block], lamW[j_block]
    raise SolverError("active-set projection hit iteration cap",
                      {"min_violation": float((N @ u - b).min())})


def norm_balls(a_max: float, v_current: np.ndarray | None = None, v_max: float | None = None,
               dt: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The norm bounds as balls ||u - Q[k]|| <= R[k]: ||u|| <= a_max, plus
    ||v + dt u|| <= v_max when a velocity bound is given."""
    if v_max is None or v_current is None or not dt:
        return np.zeros((1, 3)), np.array([float(a_max)])
    Q = np.zeros((2, 3))
    Q[1] = -np.asarray(v_current, dtype=np.float64) / dt
    return Q, np.array([float(a_max), float(v_max) / dt])


def _balls_disjoint(Q: np.ndarray, R: np.ndarray) -> bool:
    if R.size < 2:
        return False
    d = Q[1] - Q[0]
    return float(d @ d) > float(R[0] + R[1]) ** 2


def project_balls(point: np.ndarray, Q: np.ndarray,
                  R: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Closed-form projection of `point` onto the intersection of one or two
    balls ||u - Q[k]|| <= R[k].

    Returns (u, nus), nus the multipliers in (u - point) + sum nu_k (u - q_k)
    = 0, or None when the balls are disjoint. The optimum is a single-ball
    projection when one lies in both balls; otherwise both spheres are
    active and it is the nearest point of their intersection circle.
    """
    point = np.asarray(point, dtype=np.float64)
    reach2 = (R * (1.0 + _FEAS_TOL)) ** 2
    for k in range(R.size):
        d = point - Q[k]
        nd = math.sqrt(float(d @ d))
        u = point if nd <= R[k] else Q[k] + d * (R[k] / nd)
        D = u - Q
        if ((D * D).sum(axis=1) <= reach2).all():
            nus = np.zeros(R.size)
            nus[k] = max(nd / R[k] - 1.0, 0.0)
            return u, nus
    if _balls_disjoint(Q, R):
        return None
    (q1, q2), (R1, R2) = Q, R
    e = q2 - q1
    D = math.sqrt(float(e @ e))
    e = e / D
    a = (D * D + R1 * R1 - R2 * R2) / (2.0 * D)
    c = q1 + a * e
    w = point - c
    w = w - (w @ e) * e
    nw = math.sqrt(float(w @ w))
    if nw == 0.0:  # point on the axis: every circle point is as near
        w = np.cross(e, np.eye(3)[int(np.argmin(np.abs(e)))])
        nw = math.sqrt(float(w @ w))
    u = c + math.sqrt(max(R1 * R1 - a * a, 0.0)) * w / nw
    G = np.stack([u - q1, u - q2], axis=1)
    nus = np.maximum(np.linalg.lstsq(G, point - u, rcond=None)[0], 0.0)
    return u, nus


def _ball_multipliers(evaluate, Q, R, dual_bound: float = np.inf, budget: int = _BALL_BUDGET,
                      start=None):
    """Multipliers nu >= 0 of the norm balls ||u - Q[k]|| <= R[k];
    `evaluate` handles the rest of the program.

    `evaluate(nu)` returns (u, jac, f, aux): the minimiser u(nu) of the
    Lagrangian with the balls priced at nu, a callable giving the symmetric
    M with du/dnu_k = -M (u - q_k) (called only when a step is taken), the
    objective at u (the dual value less the ball terms
    nu_k (||u - q_k||^2 - R_k^2) / 2), and caller data handed back with the
    optimum. Returns (u, nu, aux), or None once the dual value exceeds
    `dual_bound`, an upper bound on the optimal value: then no point meets
    every constraint. Raises SolverError after `budget` evaluations. `start`
    is `evaluate` at nu = 0 when the caller has it already.

    A working set W over the balls: the most violated ball joins once every
    ball in W is met, and a ball leaves when its nu reaches 0. The balls in W
    are met by Newton steps on the secular functions
    r_k = R_k phi_k = 1 - R_k / ||u(nu) - q_k||, with Jacobian
    -R_k / ||d_k||^3 d_k^T M d_j (d_k = u - q_k). Where u(nu) projects onto
    the affine set of the active rows ((1 + sum nu) M is then the null-space
    projector P of those rows), the step is exact for that set: the
    row-space part of d_k stays fixed there, so one ball's Newton step runs
    on 1/rho_k - 1/||P d_k||, linear in nu_k, and two balls are solved in
    closed form on the set. With one ball in W, r_k is monotone in nu_k and
    the step stays in a bracket, bisecting when Newton leaves it; with two,
    a backtracking line search on the dual value guards the step.
    """
    evals = 0

    def at(nu, known=None):
        nonlocal evals
        evals += 1
        u, jac, f, aux = evaluate(nu) if known is None else known
        D = u - Q
        nd2 = (D * D).sum(axis=1)
        nd = np.maximum(np.sqrt(nd2), 1e-300)
        return nu, u, jac, f + 0.5 * float(nu @ (nd2 - R * R)), aux, D, nd, 1.0 - R / nd

    cur = at(np.zeros(R.size), start)
    W: list[int] = []
    lo, hi = 0.0, np.inf
    while True:
        nu, u, jac, dual, aux, D, nd, r = cur
        # the bound is attained when the feasible set is one point opposite
        # the reference (the braking apex of the cone rows on the a_max sphere)
        if dual > dual_bound * (1.0 + 1e-9):
            return None
        if all(abs(r[k]) <= _BALL_TOL for k in W):
            out = [k for k in range(R.size) if k not in W and r[k] > _FEAS_TOL]
            if not out:
                return u, nu, aux
            W.append(max(out, key=lambda k: nd[k] - R[k]))
            lo, hi = 0.0, np.inf
        if evals >= budget:
            raise SolverError("ball multipliers did not converge within budget",
                              {"ball_residual": float(np.abs(r[W]).max()), "working_set": list(W),
                               "nu": nu.tolist(), "evaluations": evals})
        w = np.array(W)
        P = (1.0 + nu.sum()) * jac()
        affine = float(np.abs(P @ P - P).max()) <= 1e-9
        G = D[w] @ P @ D[w].T                    # ||P d_k||^2 on the diagonal
        rho2 = R[w] ** 2 - (nd[w] ** 2 - np.diag(G))
        J = -(R[w] / nd[w] ** 3)[:, None] * G / (1.0 + nu.sum())
        if len(W) == 1:
            k = W[0]
            if r[k] > 0.0:
                lo = max(lo, nu[k])
            else:
                hi = min(hi, nu[k])
            if affine:
                t = (nu[k] + (1.0 + nu.sum()) * (np.sqrt(G[0, 0] / rho2[0]) - 1.0)
                     if rho2[0] > 0.0 and G[0, 0] > 0.0 else np.nan)
            else:
                t = nu[k] - r[k] / J[0, 0] if J[0, 0] < 0.0 else np.nan
            if not lo < t < hi:
                # bisect, in log scale across a wide bracket; expand without one
                t = (max(2.0 * lo, 1.0) if hi == np.inf else 0.5 * (lo + hi) if hi <= 4.0 * (1.0 + lo)
                     else np.sqrt((1.0 + lo) * (1.0 + hi)) - 1.0)
            trial = nu.copy()
            trial[k] = t
            cur = at(trial)
            continue
        g = 0.5 * (nd[w] ** 2 - R[w] ** 2)  # gradient of the dual value
        if G[0, 0] * G[1, 1] - G[0, 1] ** 2 <= 1e-12 * G[0, 0] * G[1, 1]:
            # u(nu) moves along one direction only (two rows active, or the
            # projected ball normals parallel): along the null vector of G
            # u stays put and the dual value rises linearly
            step = np.array([-G[0, 1], G[0, 0]]) if G[0, 0] >= G[1, 1] else np.array([G[1, 1], -G[0, 1]])
            if not step.any():
                step = np.array([1.0, -1.0])
            if g @ step < 0.0:
                step = -step
            falls = step < 0.0
            # go until the first multiplier reaches 0; if none falls, stretch
            step = (step * (nu[w][falls] / -step[falls]).min() if falls.any()
                    else step * (1.0 + nu.sum()) / step.max())
        else:
            piece = None
            if affine and (rho2 > 0.0).all():
                # centers and reference projected onto the rows' affine set
                # (by stationarity the reference lands on u + sum nu_k P d_k)
                piece = project_balls(u + P @ (nu @ D), u - D[w] @ P, np.sqrt(rho2))
            step = piece[1] - nu[w] if piece is not None else np.linalg.solve(J, -r[w])
            if g @ step <= 0.0:
                step = np.linalg.solve(G, g) * (1.0 + nu.sum())
        ratios = np.where(step < 0.0, nu[w] / np.maximum(-step, 1e-300), np.inf)
        block = int(np.argmin(ratios))
        t = min(1.0, ratios[block])
        merit = float(r[w] @ r[w])
        while True:
            blocked = ratios[block] <= t * (1.0 + 1e-12)
            trial = nu.copy()
            trial[w] = np.maximum(nu[w] + t * step, 0.0)
            if blocked:
                trial[w[block]] = 0.0
            nxt = at(trial)
            rise = nxt[3] - dual
            r_new = nxt[-1][w]
            # sufficient dual ascent; near the optimum, where the dual is flat
            # to rounding, a step that cuts the residual suffices
            if (rise >= 1e-4 * t * float(g @ step)
                    or (not blocked and float(r_new @ r_new) <= 0.25 * merit
                        and rise >= -1e-9 * (1.0 + abs(dual)))
                    or evals >= budget):
                break
            t *= 0.5
        cur = nxt
        if blocked:
            W.remove(int(w[block]))
            lo, hi = 0.0, np.inf


def _project_with_balls(ubar, N, b, Q, R):
    """Projection onto {N u >= b} intersect the balls ||u - Q[k]|| <= R[k].
    Returns (u, lam, nus), or None when the intersection is empty.

    For fixed nu the optimum is the polyhedron projection of the shifted
    target (ubar + sum nu_k q_k) / (1 + sum nu_k), with row multipliers scaled
    by 1 + sum nu_k. The dual value is checked against
    min_k (||ubar - q_k|| + R_k)^2 / 2, which bounds the primal optimum
    because every feasible point lies in each ball.
    """
    def evaluate(nu):
        sigma = 1.0 + float(nu.sum())
        target = ubar if sigma == 1.0 else (ubar + nu @ Q) / sigma
        u, lam, feasible = _project_polyhedron(target, N, b)
        if not feasible:
            return u, None, np.inf, None

        def jac():
            return _null_projector(N[lam > 0.0]) / sigma

        return u, jac, 0.5 * float((u - ubar) @ (u - ubar)), lam * sigma

    start = evaluate(np.zeros(R.size))
    u, _, f, lam = start
    D = u - Q
    if f < np.inf and (np.einsum("ij,ij->i", D, D) <= (R * (1.0 + _FEAS_TOL)) ** 2).all():
        return u, lam, np.zeros(R.size)  # no ball binds: the rows-only projection
    bound = 0.5 * min(math.dist(ubar, q) + r for q, r in zip(Q, R)) ** 2
    res = _ball_multipliers(evaluate, Q, R, bound, start=start)
    if res is None:
        return None
    u, nus, lam = res
    return u, lam, nus


def solve_filter(problem: FilterProblem) -> FilterSolution:
    """Solve the per-step program with hard constraints."""
    t0 = time.perf_counter()
    ubar = np.asarray(problem.reference, dtype=np.float64)

    def infeasible():
        return FilterSolution(u=None, status="infeasible", active_ids=np.zeros(0, dtype=np.intp),
                              solve_time=time.perf_counter() - t0, kkt_residual=np.nan)

    N, b, ids = problem.normals.reshape(-1, 3), problem.offsets, problem.splat_ids
    norms = np.sqrt(np.einsum("ij,ij->i", N, N))
    zero = norms <= _ZERO_NORMAL
    if zero.any():
        if np.any(problem.offsets[zero] > 1e-12):
            # vacuous row demanding 0 >= positive: nothing to optimize
            return infeasible()
        N, b, ids, norms = N[~zero], b[~zero], ids[~zero], norms[~zero]
    N = N / norms[:, None]
    b = b / norms
    Q, R = norm_balls(problem.a_max, problem.v_current, problem.v_max, problem.dt)
    if _balls_disjoint(Q, R):
        return infeasible()

    if N.shape[0] == 0:
        u, nus = project_balls(ubar, Q, R)
        g = u - ubar + nus.sum() * u - nus @ Q
        return FilterSolution(u=u, status="optimal", active_ids=np.zeros(0, dtype=np.intp),
                              solve_time=time.perf_counter() - t0,
                              kkt_residual=math.sqrt(float(g @ g)))

    res = _project_with_balls(ubar, N, b, Q, R)
    if res is None:
        return infeasible()
    u, lam, nus = res
    # stationarity: (u - ubar) + sum nu_k (u - q_k) - N^T lam = 0
    g = u - ubar + nus.sum() * u - nus @ Q - N.T @ lam
    tight = (np.abs(N @ u - b) <= 1e-7 * (1.0 + np.abs(b))) | (lam > 1e-12)
    return FilterSolution(u=u, status="optimal", active_ids=np.asarray(ids[tight]),
                          solve_time=time.perf_counter() - t0, kkt_residual=math.sqrt(float(g @ g)))


def scene_margins(scene, points: np.ndarray, rho: float = 0.0) -> np.ndarray:
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
        if rho:
            c2eff = (c + rho / np.take(scene.s_min, idx)) ** 2
        else:
            c2eff = np.full(idx.size, scene.confidence)
        out[k] = kernels.min_margin(pt[None, :], np.take(scene.means, idx, axis=0),
                                    np.take(scene.inv_cov, idx, axis=0), c2eff)[0]
    return out


def _clip_reference(u_ref: np.ndarray, v: np.ndarray, fcfg) -> np.ndarray | None:
    """Reference projected onto the norm bounds only (no barrier rows), in
    closed form; None when the bounds exclude each other."""
    clipped = project_balls(u_ref, *norm_balls(fcfg.a_max, v, fcfg.v_max, fcfg.dt))
    return None if clipped is None else clipped[0]
