"""Bit-identity pins of the closed-loop step: the filter solve, the norm-ball
clip and the collision audit against their references in `reference_step.py`.
The reference audit runs on the dense margin kernel it was written against,
kept below as `dense_min_margin`.

The start-from-rest stall ends by rounding (see test_kernels.py), so a
speed-up of any of these must leave every bit of every result unchanged.
The solves are replayed from short ring batch trajectories of both filters;
results are compared with np.array_equal, scalars with ==. Two kinds of
solve are the exception. A solve that takes a two-ball step of the ball search takes the intersection circle
from the smaller ball, which the reference does not: it matches to 1e-12
relative, and it reaches the optimum where the reference stops just short
(`helpers.assert_close_to_reference`). And a rows-only optimum within an ulp
of a ball's widened reach, where the library's membership test and the
reference's sum in different orders, may move by that widening, 1e-9
relative (`test_rows_only_check_at_the_widened_reach`).
"""
import dataclasses
import types

import numpy as np
import pytest

import reference_step as ref
from helpers import (assert_close_to_reference, lens_instance, ring_problems, ring_scene,
                     solve_against_reference)
from splatcone import qp
from splatcone.filter import FilterConfig
from splatcone.scene import Scene
from splatcone.simulator import SimConfig, _clip_reference, audit_reach, run_trajectory, scene_margins
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene

# pairs that meet the pillars (interventions, the start-from-rest stall of
# pair 3, the baseline's infeasible end of pair 3) and pairs that pass clear
REPLAY = {"cone": (2, 3, 4, 8), "distance_baseline": (2, 3, 4, 8)}
REPLAY_STEPS = 350

# Radii r whose reach t = r (1 + 1e-9) squares differently as t ** 2 (libm
# pow) and as t * t (numpy's square): t ** 2 < t * t for the first and
# t ** 2 > t * t for the second (Python 3.11, x86-64 Linux).
POW_RADII = (184.5816885635049, 84.96016335592222)


def dense_min_margin(points, means, inv_cov, c2eff):
    """Per-point min over splats of (p - mu)^T A (p - mu) - c2eff.

    Negative means the point penetrates some (inflated) confidence ellipsoid.
    Empty splat set gives +inf.
    """
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    means = np.ascontiguousarray(means, dtype=np.float64)
    if means.shape[0] == 0:
        return np.full(points.shape[0], np.inf)
    inv_cov = np.ascontiguousarray(inv_cov, dtype=np.float64)
    c2eff = np.ascontiguousarray(c2eff, dtype=np.float64)
    e = points[:, None, :] - means[None, :, :]      # (k, m, 3)
    Ae = np.einsum("mij,kmj->kmi", inv_cov, e)
    vals = np.einsum("kmi,kmi->km", e, Ae) - c2eff[None, :]
    return vals.min(axis=1)


@pytest.fixture(autouse=True)
def _reference_audit_kernel(monkeypatch):
    # the library's `kernels.min_margin` is the pair kernel now; the
    # reference audit calls the dense one through its `kernels` global
    monkeypatch.setattr(ref, "kernels", types.SimpleNamespace(min_margin=dense_min_margin))


def assert_same_solution(got, want):
    assert got.status == want.status
    assert (got.u is None) == (want.u is None)
    if want.u is not None:
        assert np.array_equal(got.u, want.u)
    assert np.array_equal(got.active_ids, want.active_ids)
    assert np.array_equal(got.kkt_residual, want.kkt_residual, equal_nan=True)


def assert_same_solve(problem):
    """Solve with the library and the reference: the same solution, bit for
    bit. A solve that takes a two-ball step is held to
    `helpers.assert_close_to_reference` instead, which also admits the
    reference's two-ball floor. Returns the library's solution, the
    reference's (a SolverError at that floor) and whether the step was
    taken."""
    got, want, two_ball = solve_against_reference(problem)
    if two_ball:
        assert_close_to_reference(got, want)
    else:
        assert not isinstance(got, qp.SolverError) and not isinstance(want, qp.SolverError)
        assert_same_solution(got, want)
    return got, want, two_ball


@pytest.fixture(scope="module")
def replayed():
    return {(name, pair): ring_problems(name, pair, REPLAY_STEPS)
            for name, pairs in REPLAY.items() for pair in pairs}


def _lens_problems():
    """Programs whose optimum lies where both balls and one to three rows
    meet (`helpers.lens_instance`): no a_max cut of the ring replay binds
    both balls and a row at once."""
    rng = np.random.default_rng(71)
    problems = []
    for n_rows in (1, 2, 3):
        for _ in range(4):
            ubar, normals, offsets, v, _, _ = lens_instance(rng, n_rows, 0.02, 10.0)
            problems.append(qp.FilterProblem(reference=ubar, a_max=10.0, normals=normals,
                                             offsets=offsets, v_current=v, v_max=2.5, dt=0.02))
    return problems


def test_replayed_solves_bit_identical(replayed, monkeypatch):
    projections, balls_bound = [], []
    project, with_balls = qp._project_polyhedron, qp._project_with_balls

    def counted(*args, **kwargs):
        projections[-1] += 1
        return project(*args, **kwargs)

    def bound(*args, **kwargs):
        res = with_balls(*args, **kwargs)
        if res is not None:
            balls_bound[-1] = int((res[3] > 0.0).sum())
        return res

    monkeypatch.setattr(qp, "_project_polyhedron", counted)
    monkeypatch.setattr(qp, "_project_with_balls", bound)
    kinds = {"no rows": 0, "rows only": 0, "rows only, tight rows": 0,
             "one ball": 0, "one ball, tight rows": 0, "two balls": 0, "two balls, tight rows": 0,
             "infeasible": 0, "two-ball step": 0, "two-ball floor of the reference": 0}
    # the ring batch's own solves, plus every 7th with a_max cut to 0.05,
    # where the rows often leave the ball and the dual bound proves it, and
    # constructed programs where both balls and rows bind
    replay = [p for ps in replayed.values() for p in ps]
    replay += [dataclasses.replace(p, a_max=0.05) for p in replay[::7]]
    replay += _lens_problems()
    for problem in replay:
        projections.append(0)
        balls_bound.append(0)
        got, want, two_ball = assert_same_solve(problem)
        kinds["two-ball step"] += two_ball
        kinds["two-ball floor of the reference"] += isinstance(want, qp.SolverError)
        if got.status == "infeasible":
            kinds["infeasible"] += 1
        elif problem.normals.shape[0] == 0:
            kinds["no rows"] += 1
        else:
            # a ball step runs a second projection; the search ends with
            # one or both ball multipliers positive
            assert (projections[-1] > 1) == (balls_bound[-1] > 0)
            kind = ("rows only", "one ball", "two balls")[balls_bound[-1]]
            kinds[kind + (", tight rows" if got.active_ids.size else "")] += 1
    # the replay covers every branch of the solve tail
    assert min(kinds.values()) > 0, kinds


def test_clip_bit_identical_on_replayed_steps(replayed):
    fcfg = FilterConfig(a_max=10.0, v_max=2.5, dt=0.02)  # the ring batch's bounds
    for problems in replayed.values():
        for problem in problems:
            for u_ref in (problem.reference, 40.0 * problem.reference):
                got = _clip_reference(u_ref, problem.balls)
                assert np.array_equal(got, ref._clip_reference(u_ref, problem.v_current, fcfg))


def test_project_balls_bit_identical_random():
    rng = np.random.default_rng(61)
    for _ in range(3000):
        n_balls = int(rng.integers(1, 3))
        Q = rng.normal(scale=rng.uniform(0.1, 20.0), size=(n_balls, 3))
        R = rng.uniform(0.1, 30.0, size=n_balls)
        point = Q[0] + rng.normal(scale=rng.uniform(0.1, 40.0), size=3)
        got, want = qp.project_balls(point, Q, R), ref.project_balls(point, Q, R)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("r", POW_RADII)
def test_project_balls_reach_squared_as_numpy_squares(r):
    # the point lies exactly at the widened reach r (1 + 1e-9) of ball 1,
    # where squaring by ** instead of * flips the membership test
    t = r * (1.0 + 1e-9)
    point = np.array([t, 0.0, 0.0])
    Q, R = np.array([point, np.zeros(3)]), np.array([1.0, r])
    got, want = qp.project_balls(point, Q, R), ref.project_balls(point, Q, R)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[0] is point  # inside both: returned as is


def _reach_boundary_references(count):
    """References u a few ulp off the widened reach t = a_max (1 + 1e-9) of
    the a_max ball (a_max 10) where the square sum taken left to right and as
    (x0 + x2) + x1 disagree about t * t: `count` inside by the first order,
    `count` outside. Each is paired with whether it lies inside by the first."""
    rng = np.random.default_rng(83)
    t = 10.0 * (1.0 + 1e-9)
    found = {True: [], False: []}
    while min(len(v) for v in found.values()) < count:
        d = rng.normal(size=3)
        u = d * (t / np.linalg.norm(d))
        u = u + rng.integers(-3, 4, size=3) * np.spacing(u)
        x0, x1, x2 = u.tolist()
        left, paired = x0 * x0 + x1 * x1 + x2 * x2, (x0 * x0 + x2 * x2) + x1 * x1
        if (left <= t * t) != (paired <= t * t) and len(found[left <= t * t]) < count:
            found[left <= t * t].append(u)
    return [(u, inside) for inside, us in found.items() for u in us]


def test_rows_only_check_at_the_widened_reach():
    # The rows-only check (`qp._in_balls`) sums each row left to right; the
    # reference's sums as einsum does, (x0 + x2) + x1 on x86-64. Within an
    # ulp of a ball's widened reach the two orders decide differently, and
    # there the library's u is not the reference's bits: one side keeps the
    # rows-only point, the other projects it onto the ball, so the two differ
    # by at most the 1e-9 widening. No point of the ring batch or the clutter
    # steps lies there (566,187 membership tests, both orders agreeing).
    for ubar, inside in _reach_boundary_references(4):
        problem = qp.FilterProblem(reference=ubar, a_max=10.0, normals=np.array([[0.0, 0.0, 1.0]]),
                                   offsets=np.array([-100.0]), splat_ids=np.array([0]))
        got, want = qp.solve_filter(problem), ref.solve_filter(problem)
        # the library decides by its own order: inside keeps the rows-only point
        assert np.array_equal(got.u, ubar) == inside
        assert np.linalg.norm(got.u) <= 10.0 * (1.0 + 1e-9) + 1e-14
        assert got.status == want.status == "optimal"
        assert np.array_equal(got.active_ids, want.active_ids)
        assert np.linalg.norm(got.u - want.u) <= 2e-9 * np.linalg.norm(want.u)
        assert got.kkt_residual < 1e-12


@pytest.mark.parametrize("rho", [0.0, 0.2])
def test_scene_margins_bit_identical_on_ring_trajectory(rho):
    scene = ring_scene()
    cfg = SimConfig(filter="off", a_max=10.0, v_max=2.5, timeout=8.0, p_k=8.0)
    record = run_trajectory(scene, np.array([-10.0, 0.3, 2.0]), np.array([10.0, -0.3, 2.0]), cfg)
    rng = np.random.default_rng(3)
    points = np.concatenate([record.p, rng.uniform(-9, 9, (400, 3))])
    # criterion 9's splat density (170k in a 35.4 m box) in a smaller box,
    # probed uniformly, next to splat means and outside the box
    clutter = make_synthetic_scene(
        SyntheticSpec(pattern="clutter", count=20000, extent=8.67,
                      scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0)),
        seed=11)
    probes = np.concatenate([rng.uniform(-8.67, 8.67, (400, 3)),
                             clutter.means[:200] + rng.normal(scale=0.1, size=(200, 3)),
                             rng.uniform(12.0, 20.0, (20, 3))])
    for sc, pts in ((scene, points), (clutter, probes)):
        got, want = scene_margins(sc, pts, rho), ref.scene_margins(sc, pts, rho)
        assert np.isfinite(got).any() and np.isinf(got).any() and (got < 0).any()
        assert np.array_equal(got, want)


def test_scene_margins_leave_the_neighbour_list_alone():
    # the audit's reach is not the filter's radius: replacing the filter's
    # neighbour list, or the rows it serves, would make its next step
    # rebuild them
    scene = ring_scene()
    idx = scene.query_nearby(np.array([-10.0, 0.3, 2.0]), 5.0)
    rows = scene.gather(idx)
    memo = scene._memo  # the list, with its last answer and rows
    before = [a.copy() for a in (memo.means, memo.inv_cov, *rows)]
    points = np.random.default_rng(4).uniform(-9, 9, (200, 3))
    for rho in (0.0, 0.2):
        assert np.isfinite(scene_margins(scene, points, rho)).any()
        assert scene._memo is memo
        assert scene.gather(idx) is rows
        assert all(np.array_equal(a, b) for a, b in zip((memo.means, memo.inv_cov, *rows), before))


def _one_splat_scene():
    return Scene.from_arrays(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]),
                             np.array([[0.5, 0.3, 0.2]]), np.ones(1))


@pytest.mark.parametrize("rho", [0.0, 0.2])
def test_audit_screen_keeps_every_point_in_reach(rho):
    scene = _one_splat_scene()
    reach = audit_reach(scene, rho) + 1e-9  # the radius scene_margins queries with
    points = np.array([
        [reach, 0.0, 0.0],                        # exactly reach from the mean
        [0.0, -reach, 0.0],
        [np.nextafter(reach, np.inf), 0.0, 0.0],  # just outside reach
        [reach * (1.0 + 5e-10), 0.0, 0.0],        # outside by 5e-10 relative
        [0.0, 0.0, reach * 1.01],
        [100.0, 100.0, 100.0],                    # no splat anywhere near
    ])
    near = [scene.query_nearby(pt, reach).size > 0 for pt in points]
    assert near == [True, True, False, False, False, False]
    got, want = scene_margins(scene, points, rho), ref.scene_margins(scene, points, rho)
    assert np.array_equal(got, want)
    assert np.isfinite(got[:2]).all() and np.isinf(got[2:]).all()


def test_audit_screen_on_an_empty_scene():
    empty = Scene(means=np.zeros((0, 3)), quats=np.zeros((0, 4)), scales=np.zeros((0, 3)),
                  opacities=np.zeros(0), inv_cov=np.zeros((0, 3, 3)), s_min=np.zeros(0),
                  confidence=11.3, bounds=np.zeros((2, 3)))
    points = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    got, want = scene_margins(empty, points), ref.scene_margins(empty, points)
    assert np.array_equal(got, want) and np.isinf(got).all()
