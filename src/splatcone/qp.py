"""Minimally-invasive control filter solve.

The per-step program projects a reference acceleration onto the intersection
of barrier half-spaces and norm balls:

    min ||u - u_ref||^2
    s.t. a_i^T u >= b_i                 (one row per active splat)
         ||u|| <= a_max                 (acceleration bound)
         ||v + dt u|| <= v_max          (optional velocity bound, a ball in u)

Half-spaces are handled by a dual active-set projection
(`_project_polyhedron`: no feasible start needed; None when no point meets
the rows). Each ball ||u - q_k|| <= R_k enters through a multiplier
nu_k >= 0; for fixed nu the optimum u(nu) is the rows-only solution at the
shifted target (u_ref + sum nu_k q_k) / (1 + sum nu_k). One search,
`_project_with_balls`, projects at each trial nu and finds nu by a dual
active set over the (at most two) balls (Goldfarb & Idnani 1983) with a
safeguarded Newton step on the secular functions
phi_k(nu) = 1/R_k - 1/||u(nu) - q_k|| (More & Sorensen 1983), exact on the
null space of the active rows (`_null_projector`), where two balls are met
in closed form (`project_balls`, the circle from the smaller ball). It
reports infeasibility when a projection finds the rows infeasible, at any
nu, or when the dual value exceeds an upper bound on the optimum. A ball
whose squared radius overflows (a_max or v_max / dt above about 1.3e154,
or inf) never binds. The search stops after `_BALL_BUDGET` projections, a
row projection after `_ROW_ITER` iterations, each with a SolverError
carrying residuals. Without rows the program is a projection onto two
balls, solved in closed form; `_in_balls` is the one ball-membership test.
The rows are hard: a program no point satisfies is reported infeasible,
never relaxed.

Cost. At the ring batch's 400 rows a solve is mostly per-call overhead,
not arithmetic, so the code keeps numpy calls few: the ball search's
per-ball scalars are Python floats, a one-row working set is solved by the
division LAPACK performs, larger working sets and the null-space projector
call LAPACK's dgesv and dgesdd through `scipy.linalg.lapack` rather than
numpy.linalg's Python wrappers (2.1 against 11 us for a 3x3 solve, 6.9
against 19 us for the SVD of two rows), working-set entries are stored one
scalar at a time, row norms are summed in einsum's order without einsum,
and a search with no row active skips the null-space projector.
Each speed-up kept every result's bits: sums are taken in numpy's own
order, the LAPACK routines are the ones numpy calls, and the products BLAS
rounds with FMA (dots, matrix products) stay numpy calls on numpy's
layouts.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesdd, dgesv

from .kernels import dot3


class SolverError(RuntimeError):
    """Solver failed to converge; carries residual diagnostics."""

    def __init__(self, msg: str, residuals: dict | None = None):
        super().__init__(msg)
        self.residuals = residuals or {}


_ZERO_NORMAL = 1e-30
_FEAS_TOL = 1e-9
_BALL_TOL = 1e-10    # |1 - R_k / ||u - q_k||| at which a working-set ball counts as met
_BALL_BUDGET = 60    # evaluations of u(nu) per solve before SolverError
_ROW_ITER = 200      # active-set iterations of a row projection; a row joins in one
_FLOAT_MAX = float(np.finfo(np.float64).max)  # the cap on a squared ball radius
_EYE3 = np.eye(3)


@dataclass
class FilterProblem:
    """One filter step's convex program, stored row-wise for speed."""

    reference: np.ndarray
    a_max: float
    normals: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(0))
    splat_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    v_current: np.ndarray | None = None
    v_max: float | None = None
    dt: float | None = None
    # the norm bounds as balls (Q, R), see `norm_balls`; built once here
    balls: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every check runs on Python floats, so a malformed program fails here
        # with the field's name instead of deep inside LAPACK or a broadcast
        self.reference = _vector3(self.reference, "reference")
        # `not x > 0` so that NaN fails too
        if not self.a_max > 0:
            raise ValueError("a_max must be positive")
        if self.v_current is not None:
            self.v_current = _vector3(self.v_current, "v_current")
        if self.v_max is not None and not self.v_max > 0:
            raise ValueError("v_max must be positive when set")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite when set")
        shape = self.normals.shape
        if len(shape) != 2 or shape[1] != 3:
            raise ValueError(f"normals must have shape (m, 3), not {shape}")
        m = shape[0]
        if self.offsets.shape != (m,):
            raise ValueError(f"offsets of shape {self.offsets.shape} for {m} normals")
        if self.splat_ids.shape[0] != m:
            if self.splat_ids.size:
                raise ValueError(f"{self.splat_ids.shape[0]} splat_ids for {m} rows")
            self.splat_ids = np.full(m, -1, dtype=np.intp)  # no ids given
        self.balls = norm_balls(self.a_max, self.v_current, self.v_max, self.dt)


def _vector3(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), not {x.shape}")
    x0, x1, x2 = x.tolist()
    if not (math.isfinite(x0) and math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError(f"{name} must be finite")
    return x


class _Later:
    """A field value left to be computed: fn(*args), on its first read."""

    __slots__ = ("fn", "args")

    def __init__(self, fn, *args):
        self.fn, self.args = fn, args


class _OnFirstRead:
    """A `FilterSolution` field that holds its value or a `_Later`, which the
    first read computes and replaces with the value. (A dataclass field whose
    default is a descriptor is set and read through it; failing the class
    read leaves the field without a default.)"""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if type(value) is _Later:
            value = obj.__dict__[self.name] = value.fn(*value.args)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass
class FilterSolution:
    """One step's solve. `active_ids` (the splat ids of the rows the optimum
    holds with equality) and `kkt_residual` (its stationarity residual) are
    diagnostics the control loop does not read: `solve_filter` leaves them
    to their first read, which computes them from arrays the solve made
    itself (and the program's norm balls) and keeps the value. A solution
    built with values holds them."""

    u: np.ndarray | None
    status: str                      # optimal | infeasible
    active_ids: np.ndarray = _OnFirstRead()
    solve_time: float
    kkt_residual: float = _OnFirstRead()


def _project_polyhedron(c: np.ndarray, N: np.ndarray, b: np.ndarray, abs_b: np.ndarray,
                        b_scale: float):
    """min ||u - c||^2 / 2 s.t. N u >= b, rows of N unit-norm.

    Dual active-set iteration starting from the unconstrained optimum, on
    m >= 1 rows (`solve_filter` solves a row-free program in closed form).
    `abs_b` is |b| and `b_scale` 1 + max|b|, computed once per solve by the
    caller. Row i counts as met when its residual is
    within 1e-12 (1 + |b_i| + |c|), its own scale: one huge offset does not
    excuse the other rows. A row joins the working set in one iteration, so
    the cap is `_ROW_ITER`. Returns (u, lam, s), s the last residual
    N u - b with the working-set rows, and the dependent rows held within
    rounding, zeroed; or None when no point meets the rows.

    A violated row that depends on the working set, with no working-set
    multiplier to release, is consistent with those rows when its violation
    is no more than what it inherits from the rounding of the working-set
    point: n_p = sum rr_i n_i makes its residual sum rr_i (n_i u - b_i),
    and each unit-row residual of the point u, which solves at most three
    equations, carries its own rounding of at most 4u (|u| + |b_i|) (u =
    2^-53). Then every row that depends on the working set by the same test
    and is violated by no more than its own such bound is held (zeroed in
    the residual, multiplier 0) while its violation stays within it: the
    rows through a single feasible point, the braking apex, end this way.
    A larger violation of row p means it can never be reached: infeasible.
    """
    m = N.shape[0]
    u = c.copy()
    W: list[int] = []
    lamW: list[float] = []
    held = None  # (rows, the violation each may keep) once rows are held
    size = math.sqrt(c.dot(c))
    least_tol = 1e-12 * (1.0 + size)  # no row's tolerance is smaller
    step_cap = 1e9 * (b_scale + size)  # longer steps mean numerically unreachable constraints

    for _ in range(_ROW_ITER):
        s = N @ u - b
        for w in W:
            s[w] = 0.0
        if held is not None:
            rows, slack = held
            s[rows[s[rows] >= -slack]] = 0.0
        p = int(s.argmin())
        sp = float(s[p])
        met = sp >= -least_tol
        if not met and sp >= -1e-12 * (1.0 + float(abs_b[p]) + size):
            # row p is within its own tolerance; a row of smaller |b| may not be
            late = (s < -1e-12 * (1.0 + abs_b + size)).nonzero()[0]
            met = not late.size
            if not met:
                p = int(late[s[late].argmin()])
                sp = float(s[p])
        if met:
            lam = np.zeros(m)
            for w, lw in zip(W, lamW):
                lam[w] = lw
            return u, lam, s
        npv = N[p]
        lam_p = 0.0
        while True:
            if W:
                Nw = N.take(W, axis=0)
                M = Nw @ Nw.T
                rhs = Nw @ npv
                if len(W) == 1:
                    rr = rhs / M[0]  # LAPACK's 1x1 solve, bit for bit (unit rows: M != 0)
                else:
                    try:
                        rr = _solve(M, rhs)
                    except np.linalg.LinAlgError:
                        rr = np.linalg.lstsq(M, rhs, rcond=None)[0]
                z = npv - Nw.T @ rr
            else:
                rr = None
                z = npv
            zz = float(z @ z)
            # the first working-set multiplier to reach 0 along lam_W - t rr
            rl = rr.tolist() if W else []
            t_block, j_block = np.inf, -1
            for j, rj in enumerate(rl):
                if rj > 1e-14 and lamW[j] / rj < t_block:
                    t_block, j_block = lamW[j] / rj, j
            # rows are unit norm, so zz is the squared independent component;
            # near-dependence gets the dual-only branch to avoid huge steps
            if zz > 1e-12 and -sp / zz <= step_cap:
                t_full = -sp / zz
                t = min(t_full, t_block)
                u += t * z
                sp += t * zz
            elif j_block < 0:
                # new normal dependent on W: p is consistent with W's rows
                # within their rounding, or can never be reached
                if W:
                    held = _held(N, b, u, s, W)
                    if p in held[0]:
                        break
                return None
            else:
                t_full, t = np.inf, t_block  # dependent: only the multipliers move
            lamW = [lj - t * rj for lj, rj in zip(lamW, rl)]
            lam_p += t
            if t_full <= t_block:
                W.append(p)
                lamW.append(lam_p)
                break
            del W[j_block], lamW[j_block]
    raise SolverError("active-set projection hit iteration cap",
                      {"min_violation": float((N @ u - b).min())})


def _held(N: np.ndarray, b: np.ndarray, u: np.ndarray, s: np.ndarray,
          W: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, slack): the rows violated in the residual s at u that depend
    on the working-set rows W, by the projection's test on their
    independent part, and are violated by no more than they inherit from
    the rounding of u (see `_project_polyhedron`), with that bound."""
    Nw = N.take(W, axis=0)
    rr = np.linalg.lstsq(Nw @ Nw.T, Nw @ N.T, rcond=None)[0]  # (|W|, m)
    z = N - rr.T @ Nw
    unit = 4.0 * 2.0**-53
    size = math.sqrt(u.dot(u))
    bw = b.take(W)
    slack = unit * (size + np.abs(b)) + np.abs(rr).T @ (np.abs(Nw @ u - bw)
                                                        + unit * (size + np.abs(bw)))
    rows = ((s < 0.0) & (s >= -slack) & ((z * z).sum(axis=1) <= 1e-12)).nonzero()[0]
    return rows, slack[rows]


def norm_balls(a_max: float, v_current: np.ndarray | None = None, v_max: float | None = None,
               dt: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The norm bounds as balls ||u - Q[k]|| <= R[k]: ||u|| <= a_max, plus
    ||v + dt u|| <= v_max when a velocity bound is given."""
    if v_max is None or v_current is None or not dt:
        return np.zeros((1, 3)), np.array([float(a_max)])
    Q = np.zeros((2, 3))
    Q[1] = np.asarray(v_current, dtype=np.float64) / -dt  # the same bits as -v / dt
    return Q, np.array([float(a_max), float(v_max) / dt])


def _balls_disjoint(Q: np.ndarray, R: np.ndarray) -> bool:
    if R.size < 2:
        return False
    d = Q[1] - Q[0]
    r0, r1 = R.tolist()
    # a product, not ** 2, which raises OverflowError on a Python float
    return d.dot(d) > (r0 + r1) * (r0 + r1)


def _in_balls(x, Ql, Rl) -> bool:
    """Whether the point x (three Python floats) lies in every ball
    ||x - Ql[k]|| <= Rl[k], each widened by _FEAS_TOL: the squares as x * x
    (not x ** 2, which rounds differently), each row summed left to right
    (einsum's (x0 + x2) + x1 decides otherwise within an ulp of the reach)."""
    x0, x1, x2 = x
    for (q0, q1, q2), r in zip(Ql, Rl):
        e0, e1, e2 = x0 - q0, x1 - q1, x2 - q2
        reach = r * (1.0 + _FEAS_TOL)
        if not e0 * e0 + e1 * e1 + e2 * e2 <= reach * reach:
            return False
    return True


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
    Ql, Rl = Q.tolist(), R.tolist()
    for k, rk in enumerate(Rl):
        d = point - Q[k]
        nd = math.sqrt(d.dot(d))
        u = point if nd <= rk else Q[k] + d * (rk / nd)
        if _in_balls(u.tolist(), Ql, Rl):
            nus = np.zeros(R.size)
            nus[k] = max(nd / rk - 1.0, 0.0)
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


def _solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """`np.linalg.solve(M, rhs)`, bit for bit: the same LAPACK dgesv,
    called without numpy's wrapper (a fifth of its time on a 3x3 system).
    Raises LinAlgError on a singular M, as numpy does."""
    x, info = dgesv(M, rhs)[2:]
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _svd(a: np.ndarray):
    """`np.linalg.svd(a)`, the same values bit for bit from the same LAPACK
    dgesdd without numpy's wrapper; the factors come back in Fortran order.
    Raises LinAlgError when it does not converge, as numpy does."""
    u, s, vt, info = dgesdd(a)
    if info > 0:
        raise np.linalg.LinAlgError("SVD did not converge")
    return u, s, vt


def _null_projector(Na: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the null space of the unit rows `Na`."""
    if Na.shape[0] == 0:
        return _EYE3.copy()
    if Na.shape[0] == 1:
        n = Na[0]
        return _EYE3 - n[:, None] * n  # np.outer's broadcast product
    _, s, vt = _svd(Na)
    rank = int((s > 1e-9 * s[0]).sum())
    if rank == 3:
        return np.zeros((3, 3))
    # both layouts make numpy take the same BLAS syrk for V^T V
    return _EYE3 - vt[:rank].T @ vt[:rank]


def _project_with_balls(ubar, N, b, abs_b, b_scale, Q, R):
    """Projection onto {N u >= b} intersect the balls ||u - Q[k]|| <= R[k],
    with `abs_b` and `b_scale` as in `_project_polyhedron`: (u, lam, s, nu),
    s the row residual N u - b with the final working-set rows zeroed and
    nu the ball multipliers, or None when the intersection is empty.

    With the balls priced at nu, u(nu) is the row projection of the shifted
    target, with row multipliers scaled by sigma = 1 + sum nu_k, and
    du/dnu_k = -P (u - q_k) / sigma, P the null-space projector of the rows
    active at u(nu). The rows do not depend on nu, so an infeasible
    projection at any nu returns None; so does a dual value
    ||u - ubar||^2 / 2 + sum nu_k (||u - q_k||^2 - R_k^2) / 2 above
    min_k (||ubar - q_k|| + R_k)^2 / 2, which bounds the primal optimum
    because every feasible point lies in each ball. The dual reads a squared
    radius that overflows as the largest float, so that the zero multiplier
    of that ball, which never binds, keeps the dual finite.

    A working set W over the balls: the most violated ball joins once every
    ball in W is met, and a ball leaves when its nu reaches 0. The balls in
    W are met by Newton steps on r_k = R_k phi_k = 1 - R_k / ||d_k||,
    d_k = u - q_k, with Jacobian -R_k / ||d_k||^3 d_k^T P d_j / sigma. The
    row-space part of d_k stays fixed on the active rows' affine set, so one
    ball's Newton step runs on 1/rho_k - 1/||P d_k||, linear in nu_k, and
    two balls are solved in closed form on the set. With one ball in W, r_k
    is monotone in nu_k and the step stays in a bracket, bisecting when
    Newton leaves it; with two, a backtracking line search on the dual value
    guards the step.

    The per-ball scalars are Python floats, computed in numpy's own order;
    the products that BLAS rounds with FMA (G, nu @ Q, the dual's dot) stay
    numpy calls, so every bit is that of the array formulas.
    """
    Ql, Rl = Q.tolist(), R.tolist()
    nu = np.zeros(len(Rl))
    rows = _project_polyhedron(ubar, N, b, abs_b, b_scale)
    if rows is None:
        return None
    if _in_balls(rows[0].tolist(), Ql, Rl):
        return (*rows, nu)  # no ball binds: the rows-only projection
    # the bound squared as a product, as in `_balls_disjoint`; it is attained
    # when the feasible set is one point opposite the reference (the braking
    # apex of the cone rows on the a_max sphere)
    reach = min(math.dist(ubar, q) + r for q, r in zip(Ql, Rl))
    bound = 0.5 * (reach * reach) * (1.0 + 1e-9)
    R2 = [min(r * r, _FLOAT_MAX) for r in Rl]
    evals = 0

    def at(nu, rows=None):
        # the search's state with the balls priced at nu, or None when no
        # point meets the rows; `rows`, the projection at nu = 0, is known
        nonlocal evals
        evals += 1
        sigma = 1.0 + sum(nu.tolist())
        if rows is None:
            rows = _project_polyhedron(ubar if sigma == 1.0 else (ubar + nu @ Q) / sigma,
                                       N, b, abs_b, b_scale)
            if rows is None:
                return None
        u = rows[0]
        D = u - Q
        # each row summed left to right: the bits of (D * D).sum(axis=1)
        nd2 = [d0 * d0 + d1 * d1 + d2 * d2 for d0, d1, d2 in D.tolist()]
        nd = [max(math.sqrt(x), 1e-300) for x in nd2]
        e = u - ubar
        dual = 0.5 * float(e @ e) + 0.5 * float(nu @ np.subtract(nd2, R2))
        return nu, sigma, rows, dual, D, nd, [1.0 - rk / ndk for rk, ndk in zip(Rl, nd)]

    cur = at(nu, rows)
    W: list[int] = []
    lo, hi = 0.0, np.inf
    while True:
        if cur is None or cur[3] > bound:
            return None  # no point meets the rows, or none meets every constraint
        nu, sigma, (u, lam, s), dual, D, nd, r = cur
        if all(abs(r[k]) <= _BALL_TOL for k in W):
            out = [k for k in range(len(Rl)) if k not in W and r[k] > _FEAS_TOL]
            if not out:
                return u, lam if sigma == 1.0 else lam * sigma, s, nu  # x * 1.0 is x
            W.append(max(out, key=lambda k: nd[k] - Rl[k]))
            lo, hi = 0.0, np.inf
        if evals >= _BALL_BUDGET:
            raise SolverError("ball multipliers did not converge within budget",
                              {"ball_residual": max(abs(r[k]) for k in W), "working_set": list(W),
                               "nu": nu.tolist(), "evaluations": evals})
        act = lam > 0.0
        # without active rows P = sigma (I / sigma), a projector to rounding
        P = (sigma * (_null_projector(N[act]) / sigma) if act.any()
             else _EYE3 * (sigma * (1.0 / sigma)))
        if len(W) == 1:
            k = W[0]
            Dk = D[k:k + 1]
            g_kk = float((Dk @ P @ Dk.T)[0, 0])  # ||P d_k||^2
            nu_k, R_k, nd_k = float(nu[k]), Rl[k], nd[k]
            if r[k] > 0.0:
                lo = max(lo, nu_k)
            else:
                hi = min(hi, nu_k)
            rho2_k = R_k * R_k - (nd_k * nd_k - g_kk)
            t = (nu_k + sigma * (math.sqrt(g_kk / rho2_k) - 1.0)
                 if rho2_k > 0.0 and g_kk > 0.0 else np.nan)
            if not lo < t < hi:
                # bisect, in log scale across a wide bracket; expand without one
                t = (max(2.0 * lo, 1.0) if hi == np.inf else 0.5 * (lo + hi) if hi <= 4.0 * (1.0 + lo)
                     else np.sqrt((1.0 + lo) * (1.0 + hi)) - 1.0)
            trial = nu.copy()
            trial[k] = t
            cur = at(trial)
            continue
        w = np.array(W)
        nd, r = np.array(nd), np.array(r)
        G = D[w] @ P @ D[w].T                    # ||P d_k||^2 on the diagonal
        rho2 = R[w] ** 2 - (nd[w] ** 2 - np.diag(G))
        J = -(R[w] / nd[w] ** 3)[:, None] * G / sigma
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
                    else step * sigma / step.max())
        else:
            piece = None
            if (rho2 > 0.0).all():
                # centers and reference projected onto the rows' affine set
                # (by stationarity the reference lands on u + sum nu_k P d_k),
                # smaller first: a large ball's circle radius would cancel
                o = [1, 0] if rho2[1] < rho2[0] else [0, 1]
                piece = project_balls(u + P @ (nu @ D), (u - D[w] @ P)[o], np.sqrt(rho2[o]))
            step = piece[1][o] - nu[w] if piece is not None else _solve(J, -r[w])
            if g @ step <= 0.0:
                step = _solve(G, g) * sigma
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
            cur = at(trial)
            if cur is None:
                return None
            rise = cur[3] - dual
            r_new = np.array(cur[-1])[w]
            # sufficient dual ascent; near the optimum, where the dual is flat
            # to rounding, a step that cuts the residual suffices
            if (rise >= 1e-4 * t * float(g @ step)
                    or (not blocked and float(r_new @ r_new) <= 0.25 * merit
                        and rise >= -1e-9 * (1.0 + abs(dual)))
                    or evals >= _BALL_BUDGET):
                break
            t *= 0.5
        if blocked:
            W.remove(int(w[block]))
            lo, hi = 0.0, np.inf


def solve_filter(problem: FilterProblem) -> FilterSolution:
    """Solve the per-step program with hard rows: status 'optimal', or
    'infeasible' when no point meets every constraint. Raises ValueError
    when `normals` or `offsets` hold a non-finite value.

    The normals may come in any layout; the row kernels hand them over as
    columns (the .T view of a C-contiguous (3, m) array), from which the row
    norms are taken contiguously. `active_ids` and `kkt_residual` are
    computed on first read (see `FilterSolution`)."""
    t0 = time.perf_counter()
    # a copy: a deferred residual reads it, and the caller may reuse its array
    ubar = np.array(problem.reference, dtype=np.float64)

    def infeasible():
        return FilterSolution(u=None, status="infeasible", active_ids=np.zeros(0, dtype=np.intp),
                              solve_time=time.perf_counter() - t0, kkt_residual=np.nan)

    N, b, ids = problem.normals, problem.offsets, problem.splat_ids
    norms = np.sqrt(dot3(N.T, N.T))
    # a non-finite normal or offset makes norms @ b non-finite; a finite row
    # only by overflow, and it passes the check
    if norms.size and not (norms.min() > _ZERO_NORMAL and math.isfinite(norms @ b)):
        for name in ("normals", "offsets"):
            if not np.isfinite(getattr(problem, name)).all():
                raise ValueError(f"{name} must be finite")
        huge = np.isinf(norms)
        if huge.any():
            # a finite row whose squared norm overflows would normalise to a
            # vacuous 0 >= 0: divide it and its offset by its largest entry
            # first, which keeps its half-space
            top = np.abs(N[huge]).max(axis=1)
            N, b = N.copy(), b.copy()
            N[huge] /= top[:, None]
            b[huge] /= top
            norms[huge] = np.sqrt(dot3(N[huge].T, N[huge].T))
        zero = norms <= _ZERO_NORMAL
        if np.any(problem.offsets[zero] > 1e-12):
            # vacuous row demanding 0 >= positive: nothing to optimize
            return infeasible()
        N, b, ids, norms = N[~zero], b[~zero], ids[~zero], norms[~zero]
    # the unit rows in C order whatever the caller's layout (BLAS rounds
    # N @ u otherwise for F), written once from the columns N.T
    unit = np.empty(N.shape)
    np.divide(N.T, norms, out=unit.T)
    N = unit
    b = b / norms
    Q, R = problem.balls
    if _balls_disjoint(Q, R):
        return infeasible()

    if N.shape[0] == 0:
        u, nus = project_balls(ubar, Q, R)
        return FilterSolution(u=u, status="optimal", active_ids=np.zeros(0, dtype=np.intp),
                              solve_time=time.perf_counter() - t0,
                              kkt_residual=_Later(_stationarity, u, ubar, nus, Q))

    abs_b = np.abs(b)
    res = _project_with_balls(ubar, N, b, abs_b, 1.0 + float(abs_b.max()), Q, R)
    if res is None:
        return infeasible()
    u, lam, s, nus = res
    # the ids copied: the caller may reuse its array before the first read
    return FilterSolution(u=u, status="optimal", active_ids=_Later(_tight_ids, ids.copy(), s, abs_b),
                          solve_time=time.perf_counter() - t0,
                          kkt_residual=_Later(_stationarity, u, ubar, nus, Q, N, lam))


def _tight_ids(ids, s, abs_b):
    """The ids of the rows the optimum holds with equality. A row with
    lam > 0 is in the final working set, where the residual s is zeroed,
    so the residual test alone finds every tight row."""
    return ids[np.abs(s) <= 1e-7 * (1.0 + abs_b)]


def _stationarity(u, ubar, nus, Q, N=None, lam=None) -> float:
    """||(u - ubar) + sum nu_k (u - q_k) - N^T lam||. A term whose
    multipliers are all zero is exactly zero and is skipped; that can flip
    the sign of a zero entry, never the norm."""
    g = u - ubar
    if any(nus.tolist()):
        g = g + sum(nus.tolist()) * u - nus @ Q
    if lam is not None and lam.any():
        g = g - N.T @ lam
    return math.sqrt(g.dot(g))
