"""Shared test oracles, independent of the library's solution paths, and
the acceptance ring batch's problems for replay."""
from __future__ import annotations

import functools

import numpy as np

# The acceptance suite's ring batch (criteria 4-7): scene seed 7, 50 pairs.
RING_SCENE_SEED = 7
RING_PAIRS = 50
RING_KW = dict(a_max=10.0, v_max=2.5, activation_radius=5.0, timeout=60.0,
               p_k=8.0, start_radius=10.0, start_height=2.0)
RING_SPEC_KW = dict(pattern="ring", count=2400, ring_radius=6.5, pillar_count=10,
                    pillar_radius=0.45, height=4.0, scale_range=(0.08, 0.2),
                    anisotropy_range=(1.0, 4.0))


@functools.lru_cache(maxsize=1)
def ring_scene():
    from splatcone.synthetic import SyntheticSpec, make_synthetic_scene

    return make_synthetic_scene(SyntheticSpec(**RING_SPEC_KW), seed=RING_SCENE_SEED)


def all_pairs(scene, points, radius, budget=1 << 12):
    """(owner, idx) of every block of pairs `Scene.nearby_pairs` hands over,
    owner counted over all of `points`."""
    owner, idx = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for lo, _, block_owner, block_idx in scene.nearby_pairs(points, radius, budget):
        owner.append(lo + block_owner)
        idx.append(block_idx)
    return np.concatenate(owner), np.concatenate(idx)


def candidate_counts(scene, points, radius):
    """Per row of `points`, the number of means in the grid cells that the
    scene's grid search reads for it: a bound on that row's pairs."""
    from splatcone.scene import _runs

    start, end = _runs(scene._grid, np.asarray(points, dtype=np.float64), radius)
    return (end - start).sum(axis=1)


class _Captured(Exception):
    pass


def ring_problems(filter_name, pair, steps):
    """The `FilterProblem`s of the first `steps` steps (fewer if the run
    ends sooner) of ring batch pair `pair` under `filter_name`, captured
    through the `filter.solve_filter` hook. Deterministic."""
    from splatcone import filter as filter_mod
    from splatcone.simulator import SimConfig, batch_start_goal, run_trajectory

    scene = ring_scene()
    cfg = SimConfig(filter=filter_name, **RING_KW)
    start, goal = batch_start_goal(scene, pair, RING_PAIRS, cfg, cfg.rho)
    problems = []
    solve = filter_mod.solve_filter

    def capture(problem):
        problems.append(problem)
        if len(problems) == steps:
            raise _Captured
        return solve(problem)

    filter_mod.solve_filter = capture
    try:
        run_trajectory(scene, start, goal, cfg)
    except _Captured:
        pass
    finally:
        filter_mod.solve_filter = solve
    return problems


def solve_against_reference(problem):
    """The library's and the reference's (`reference_step.py`) solve of
    `problem`, each a FilterSolution or the SolverError it raised, and
    whether the library's solve took a two-ball step of the ball search. In
    a program with rows only that step calls `qp.project_balls`, which is
    wrapped for the duration of the library's solve. The reference gets the
    normals as C-ordered rows, as the row kernels wrote them when it was
    kept: its einsum norm and its division round otherwise over the columns
    the kernels hand over now."""
    import dataclasses

    import reference_step
    from splatcone import qp

    def solve(fn, problem=problem):
        try:
            return fn(problem)
        except qp.SolverError as exc:
            return exc

    project, calls = qp.project_balls, []

    def counted(*args):
        calls.append(None)
        return project(*args)

    qp.project_balls = counted
    try:
        got = solve(qp.solve_filter)
    finally:
        qp.project_balls = project
    two_ball = bool(calls) and problem.normals.shape[0] > 0
    rows = dataclasses.replace(problem, normals=np.ascontiguousarray(problem.normals))
    return got, solve(reference_step.solve_filter, rows), two_ball


def is_reference_ball_floor(exc):
    """Whether the reference's SolverError `exc` is the floor of its two-ball
    step: the velocity ball first in the working set, the residual stuck just
    above `_BALL_TOL` (see test_solver.py::
    test_two_ball_solve_with_large_velocity_ball_converges)."""
    res = exc.residuals
    return res["working_set"] == [1, 0] and res["ball_residual"] < 1e-9


def assert_close_to_reference(got, want):
    """The library's solve of a program that takes a two-ball step against
    the reference's. The library takes the intersection circle from the
    smaller ball and the reference from the first in the working set, so
    their u differ at rounding level: the same status and active rows, u
    within 1e-12 relative. Where the reference stops at the floor of its
    two-ball step (the velocity ball first in the working set, the residual
    just above `_BALL_TOL`), the library reaches the optimum."""
    from splatcone.qp import SolverError

    assert not isinstance(got, SolverError), got.residuals
    if isinstance(want, SolverError):
        assert is_reference_ball_floor(want), want.residuals
        assert got.status == "optimal" and got.kkt_residual < 1e-9
        return
    assert got.status == want.status and np.array_equal(got.active_ids, want.active_ids)
    assert (got.u is None) == (want.u is None)
    if want.u is not None:
        assert np.linalg.norm(got.u - want.u) <= 1e-12 * np.linalg.norm(want.u)


def dykstra_projection(point, halfspaces, balls, iters=20000, tol=1e-13):
    """Projection of `point` onto the intersection of half-spaces
    {a.u >= b} (a unit-norm) and balls {||u - q|| <= R} by Dykstra's
    alternating projections. Slow, provably convergent reference."""
    sets = []
    for a, b in halfspaces:
        a = np.asarray(a, dtype=np.float64)
        na = np.linalg.norm(a)
        sets.append(("h", a / na, b / na))
    for q, R in balls:
        sets.append(("b", np.asarray(q, dtype=np.float64), float(R)))
    u = np.asarray(point, dtype=np.float64).copy()
    corrections = [np.zeros(3) for _ in sets]
    for it in range(iters):
        u_prev = u.copy()
        for k, s in enumerate(sets):
            y = u + corrections[k]
            if s[0] == "h":
                _, a, b = s
                viol = b - a @ y
                proj = y + max(0.0, viol) * a
            else:
                _, q, R = s
                d = y - q
                nd = np.linalg.norm(d)
                proj = q + d * (R / nd) if nd > R else y
            corrections[k] = y - proj
            u = proj
        if it > 10 and np.linalg.norm(u - u_prev) < tol:
            break
    return u


def grid_refine_projection(point, halfspaces, balls, center, width, levels=14, n=21):
    """Brute-force dense-grid search for the projection, successively zoomed.
    Conservative shrink (3 cells per level) so a boundary optimum stays inside
    the refined box. Coarse cross-check of other oracles."""
    point = np.asarray(point, dtype=np.float64)
    best = None
    best_val = np.inf
    c = np.asarray(center, dtype=np.float64)
    w = float(width)
    for _ in range(levels):
        axes = [np.linspace(c[i] - w, c[i] + w, n) for i in range(3)]
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
        feas = np.ones(len(pts), dtype=bool)
        for a, b in halfspaces:
            feas &= pts @ np.asarray(a) >= b - 1e-12
        for q, R in balls:
            feas &= np.linalg.norm(pts - np.asarray(q), axis=1) <= R + 1e-12
        if feas.any():
            cand = pts[feas]
            d = np.linalg.norm(cand - point, axis=1)
            k = int(np.argmin(d))
            if d[k] < best_val:
                best_val = float(d[k])
                best = cand[k]
                c = cand[k]
        w *= 3.0 / (n - 1) * 2.0  # keep +-3 cells around the incumbent
    return best


def enumeration_projection(point, halfspaces, ball):
    """Exact projection onto {a.u >= b} intersect one ball by enumerating
    candidate active subsets (closed-form equality solves, feasibility filter,
    nearest wins). Independent of any iterative solver."""
    from itertools import combinations

    point = np.asarray(point, dtype=np.float64)
    q, R = np.asarray(ball[0], dtype=np.float64), float(ball[1])
    m = len(halfspaces)
    A = np.array([np.asarray(a, dtype=np.float64) for a, _ in halfspaces]).reshape(m, 3)
    b = np.array([float(bb) for _, bb in halfspaces])

    def affine_project(x, idx):
        """Min-norm-correction projection of x onto {A[idx] u = b[idx]}."""
        if not idx:
            return x.copy()
        Ai = A[list(idx)]
        bi = b[list(idx)]
        lam, *_ = np.linalg.lstsq(Ai @ Ai.T, bi - Ai @ x, rcond=None)
        u = x + Ai.T @ lam
        if np.abs(Ai @ u - bi).max() > 1e-8 * (1 + np.abs(bi).max()):
            return None  # inconsistent equalities
        return u

    candidates = [point.copy()]
    subsets = [()]
    for k in (1, 2, 3):
        subsets.extend(combinations(range(m), k))
    for idx in subsets:
        u = affine_project(point, idx)
        if u is not None:
            candidates.append(u)
        # same equalities plus the sphere boundary
        qa = affine_project(q, idx)
        ua = affine_project(point, idx)
        if qa is None or ua is None:
            continue
        rad2 = R * R - float((qa - q) @ (qa - q))
        if rad2 < -1e-12:
            continue
        rad = np.sqrt(max(rad2, 0.0))
        d = ua - qa
        nd = np.linalg.norm(d)
        if nd < 1e-12:
            continue
        candidates.append(qa + rad * d / nd)
        candidates.append(qa - rad * d / nd)

    scale = 1.0 + np.abs(b).max(initial=0.0) + R
    best, best_d = None, np.inf
    for u in candidates:
        if m and (A @ u - b).min() < -1e-9 * scale:
            continue
        if np.linalg.norm(u - q) > R * (1 + 1e-9) + 1e-12:
            continue
        d = np.linalg.norm(u - point)
        if d < best_d:
            best, best_d = u, d
    return best


def random_spd(rng, scale_lo=0.1, scale_hi=10.0):
    """Random SPD matrix A = R diag(1/s^2) R^T from a random rotation and
    axis scales, mirroring how splat inverse covariances arise."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    s = rng.uniform(scale_lo, scale_hi, size=3)
    A = R @ np.diag(1.0 / s**2) @ R.T
    return 0.5 * (A + A.T), s, R


def finite_difference_gradient(f, x, step=1e-6):
    """Central finite-difference gradient of scalar f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2 * step)
    return g


def kkt_residual(point, u, halfspaces, balls, tight_rtol=1e-7):
    """Stationarity residual of `u` as the projection of `point` onto
    {a.u >= b} intersect balls, with multipliers recomputed independently:
    min ||sum lam_i a_i - sum nu_k (u - q_k) - (u - point)|| over lam, nu >= 0,
    taken over the constraints tight at u (non-negative least squares)."""
    u = np.asarray(u, dtype=np.float64)
    cols = []
    for a, b in halfspaces:
        a = np.asarray(a, dtype=np.float64)
        na = np.linalg.norm(a)
        if a @ u / na - b / na <= tight_rtol * (1.0 + abs(b / na)):
            cols.append(a / na)
    return _nnls_residual(u - np.asarray(point, dtype=np.float64), u, cols, balls, tight_rtol)


def _nnls_residual(target, u, cols, balls, tight_rtol):
    """min ||sum c_i cols_i - sum nu_k (u - q_k) - target|| over c, nu >= 0,
    the balls taken where tight at u."""
    from scipy.optimize import nnls

    for q, R in balls:
        d = u - np.asarray(q, dtype=np.float64)
        if np.linalg.norm(d) >= R * (1.0 - tight_rtol):
            cols.append(-d)
    if not cols:
        return float(np.linalg.norm(target))
    return float(nnls(np.array(cols).T, target)[1])


def lens_instance(rng, n_rows, dt, a_max, v_max=2.5):
    """Speed near v_max, so the velocity ball cuts through the acceleration
    ball. The optimum u* is placed on the circle where both spheres meet,
    `n_rows` rows pass through it (plus two slack rows), and the reference
    is u* moved along the outward ball normals and inward row normals with
    positive multipliers: u* is then the projection by the KKT conditions."""
    vhat = rng.normal(size=3)
    vhat /= np.linalg.norm(vhat)
    v = vhat * v_max * rng.uniform(0.995, 1.0)
    q_v = -v / dt
    D = np.linalg.norm(q_v)
    e = q_v / D
    a = (D * D + a_max**2 - (v_max / dt) ** 2) / (2.0 * D)
    w = rng.normal(size=3)
    w -= (w @ e) * e
    u_star = a * e + np.sqrt(a_max**2 - a * a) * w / np.linalg.norm(w)
    normals = rng.normal(size=(n_rows + 2, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = normals @ u_star
    offsets[n_rows:] -= rng.uniform(0.5, 2.0, size=2)
    ubar = (u_star + rng.uniform(0.05, 1.0) * u_star + rng.uniform(0.001, 0.02) * (u_star - q_v)
            - rng.uniform(0.5, 5.0, size=n_rows) @ normals[:n_rows])
    balls = [(np.zeros(3), a_max), (q_v, v_max / dt)]
    return ubar, normals, offsets, v, u_star, balls
