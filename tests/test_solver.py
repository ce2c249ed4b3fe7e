"""Filter-solve correctness against independent projection oracles."""
import dataclasses
import warnings

import numpy as np
import pytest

from splatcone import qp
from splatcone.qp import FilterProblem, SolverError, norm_balls, project_balls, solve_filter
from splatcone.simulator import _clip_reference
from helpers import (
    dykstra_projection,
    enumeration_projection,
    grid_refine_projection,
    kkt_residual,
    lens_instance,
    ring_problems,
)
import reference_step


def _solve(ubar, normals, offsets, a_max, **kw):
    prob = FilterProblem(
        reference=np.asarray(ubar, dtype=np.float64),
        a_max=a_max,
        normals=np.asarray(normals, dtype=np.float64).reshape(-1, 3),
        offsets=np.asarray(offsets, dtype=np.float64).ravel(),
        **kw,
    )
    return solve_filter(prob)


def test_unconstrained_returns_reference():
    sol = _solve([1.0, -2.0, 0.5], np.zeros((0, 3)), [], a_max=10.0)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, [1.0, -2.0, 0.5], atol=1e-12)


def test_ball_projection_radial():
    sol = _solve([8.0, 0.0, 0.0], np.zeros((0, 3)), [], a_max=5.0)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, [5.0, 0.0, 0.0], atol=1e-9)


def test_single_halfspace_projection():
    # (0,3,0).u >= -3 is u_y >= -1 after normalization; projecting (0,-5,0)
    sol = _solve([0.0, -5.0, 0.0], [[0.0, 3.0, 0.0]], [-3.0], a_max=10.0)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, [0.0, -1.0, 0.0], atol=1e-9)
    assert sol.kkt_residual < 1e-6


def test_zero_normal_rows():
    # vacuous zero row is dropped; positive-offset zero row is infeasible
    sol = _solve([1.0, 0.0, 0.0], [[0.0, 0.0, 0.0]], [-1.0], a_max=5.0)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, [1.0, 0.0, 0.0], atol=1e-12)
    sol = _solve([1.0, 0.0, 0.0], [[0.0, 0.0, 0.0]], [1.0], a_max=5.0)
    assert sol.status == "infeasible"
    assert sol.u is None


def test_opposing_halfspaces_infeasible():
    sol = _solve([0.0, 0.0, 0.0], [[1, 0, 0], [-1, 0, 0]], [1.0, 1.0], a_max=10.0)
    assert sol.status == "infeasible"


@pytest.mark.parametrize("a_max", [1e160, np.inf])
def test_opposing_halfspaces_infeasible_in_a_huge_ball(a_max):
    # the dual bound (||ubar|| + a_max)^2 / 2 overflows to inf, so no dual
    # value exceeds it: the row projection's own infeasibility ends the solve
    sol = _solve([0.0, 0.0, 0.0], [[1, 0, 0], [-1, 0, 0]], [1.0, 1.0], a_max=a_max)
    assert sol.status == "infeasible" and sol.u is None


def test_ball_whose_square_overflows_never_binds():
    # a_max = inf squares to inf, which read 0 * (||u||^2 - inf) = NaN into
    # the dual value and switched the infeasibility certificate off
    kw = dict(v_current=np.zeros(3), v_max=2.5, dt=0.02)  # the velocity ball ||u|| <= 125
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # x >= 1000 lies outside the velocity ball
        sol = _solve(np.zeros(3), [[1.0, 0.0, 0.0]], [1000.0], a_max=np.inf, **kw)
        assert sol.status == "infeasible"
        # the velocity ball and the row y <= 10 bind; the a_max ball does not
        ref, normals, offsets = [150.0, 90.0, 0.0], [[0.0, -1.0, 0.0]], [-10.0]
        sol = _solve(ref, normals, offsets, a_max=np.inf, **kw)
        want = _solve(ref, normals, offsets, a_max=1e4, **kw)
    assert sol.status == want.status == "optimal"
    np.testing.assert_allclose(sol.u, [np.sqrt(125.0**2 - 100.0), 10.0, 0.0], rtol=1e-12)
    assert np.array_equal(sol.u, want.u)


@pytest.mark.parametrize("width", [0.2, 0.0, -0.2])
@pytest.mark.parametrize("d", [[0.0, 0.0, 1.0], [0.0, 1.0, 1.0]], ids=str)
def test_antiparallel_rows_bound_a_band(d, width):
    # 0.3 <= d.u <= 0.3 + width: a band, a plane when width = 0 (both rows
    # tight), and no point at all when width < 0, which ends the step
    d = np.array(d) / np.linalg.norm(d)
    sol = _solve(np.zeros(3), [d, -d], [0.3, -0.3 - width], a_max=10.0)
    if width < 0.0:
        assert sol.status == "infeasible" and sol.u is None
        return
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, 0.3 * d, rtol=0.0, atol=1e-15)
    assert sol.active_ids.size == (2 if width == 0.0 else 1)
    assert sol.kkt_residual < 1e-12


def test_hundreds_of_violated_rows_through_one_point():
    # 400 rows through the origin, all violated by the reference: the
    # projection ends at the origin with every row tight, as the reference
    # solver's does
    rng = np.random.default_rng(0)
    normals = rng.normal(size=(400, 3))
    normals[:, 0] = np.abs(normals[:, 0])
    problem = FilterProblem(reference=np.array([-20.0, 0.0, 0.0]), a_max=10.0,
                            normals=normals, offsets=np.zeros(400))
    sol = solve_filter(problem)
    assert sol.status == "optimal"
    assert sol.active_ids.size > 350
    assert np.abs(sol.u).max() < 1e-12
    assert sol.kkt_residual < 1e-9
    want = reference_step.solve_filter(problem)
    assert np.array_equal(sol.active_ids, want.active_ids)
    assert np.array_equal(sol.u, want.u)


def test_rows_satisfied_at_the_reference_keep_it():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ubar = rng.normal(size=3)
        normals = rng.normal(size=(3, 3))
        offsets = normals @ ubar - rng.uniform(0.5, 2.0, size=3)  # satisfied at ubar
        sol = _solve(ubar, normals, offsets, a_max=50.0)
        assert sol.status == "optimal"
        assert sol.u.tolist() == ubar.tolist() and sol.active_ids.size == 0


def test_halfspace_outside_ball_infeasible():
    sol = _solve([0.0, 0.0, 0.0], [[1, 0, 0]], [100.0], a_max=1.0)
    assert sol.status == "infeasible"


def test_velocity_ball_binds():
    # huge v_max ball normally inactive; tight one clips along v
    v = np.array([1.0, 0.0, 0.0])
    sol = _solve([5.0, 0.0, 0.0], np.zeros((0, 3)), [], a_max=10.0,
                 v_current=v, v_max=1.05, dt=0.1)
    assert sol.status == "optimal"
    # ||v + dt u|| <= v_max -> u_x <= (1.05 - 1.0)/0.1 = 0.5
    assert np.linalg.norm(v + 0.1 * sol.u) <= 1.05 * (1 + 1e-9)
    np.testing.assert_allclose(sol.u, [0.5, 0.0, 0.0], atol=1e-7)


_V = np.array([1.0, 0.0, 0.0])
_ROWS = dict(normals=np.eye(3)[:2], offsets=np.zeros(2))


@pytest.mark.parametrize("kw, message", [
    (dict(a_max=float("nan")), "a_max"), (dict(a_max=0.0), "a_max"),
    # a NaN bound or velocity made LAPACK fail to converge in an SVD
    pytest.param(dict(v_current=_V, v_max=float("nan"), dt=0.02), "v_max", id="nan-v_max"),
    pytest.param(dict(v_current=_V, v_max=2.5, dt=float("nan")), "dt", id="nan-dt"),
    pytest.param(dict(v_current=np.array([np.nan, 0.0, 0.0]), v_max=2.5, dt=0.02), "v_current",
                 id="nan-v_current"),
    # a negative bound solved as infeasible, a negative step as optimal
    pytest.param(dict(v_current=_V, v_max=-1.0, dt=0.02), "v_max", id="negative-v_max"),
    pytest.param(dict(v_current=_V, v_max=2.5, dt=-0.02), "dt", id="negative-dt"),
    pytest.param(dict(v_current=np.zeros(2), v_max=2.5, dt=0.02), "v_current", id="short-v_current"),
    # a bad reference failed to unpack without rows and broadcast with them
    pytest.param(dict(reference=np.array([0.0, np.inf, 0.0])), "reference", id="inf-reference"),
    pytest.param(dict(reference=np.array([np.nan, 0.0, 0.0]), **_ROWS), "reference",
                 id="nan-reference-rows"),
    pytest.param(dict(reference=np.zeros(2)), "reference", id="short-reference"),
    pytest.param(dict(reference=np.zeros((3, 1)), **_ROWS), "reference", id="column-reference-rows"),
    # two normals with one offset broadcast and solved as optimal
    pytest.param(dict(normals=np.eye(3)[:2], offsets=np.zeros(1)), "offsets", id="offsets-for-rows"),
    pytest.param(dict(normals=np.zeros(3), offsets=np.zeros(1)), "normals", id="flat-normals"),
], ids=str)
def test_bad_weight_or_bound_rejected(kw, message):
    # a NaN a_max must fail here, not deep inside the solve; so must every
    # other malformed field
    with pytest.raises(ValueError, match=message):
        FilterProblem(**{"reference": np.zeros(3), "a_max": 1.0, **kw})


def test_slack_weight_is_not_a_field():
    # a program's rows are hard: there is no penalty weight to relax them
    assert "slack_weight" not in {f.name for f in dataclasses.fields(FilterProblem)}
    with pytest.raises(TypeError, match="slack_weight"):
        FilterProblem(reference=np.zeros(3), a_max=1.0, slack_weight=1e4)


def test_splat_ids_filled_only_when_none_given():
    # rows without ids are labelled -1; ids that do not match the rows are
    # an error, not silently replaced
    rows = dict(normals=np.eye(3)[:2], offsets=np.zeros(2))
    prob = FilterProblem(reference=np.zeros(3), a_max=1.0, **rows)
    assert prob.splat_ids.tolist() == [-1, -1]
    prob = FilterProblem(reference=np.zeros(3), a_max=1.0, splat_ids=np.array([4, 9]), **rows)
    assert prob.splat_ids.tolist() == [4, 9]
    for ids in ([7], [1, 2, 3]):
        with pytest.raises(ValueError, match="splat_ids"):
            FilterProblem(reference=np.zeros(3), a_max=1.0, splat_ids=np.array(ids), **rows)
    with pytest.raises(ValueError, match="splat_ids"):
        FilterProblem(reference=np.zeros(3), a_max=1.0, splat_ids=np.array([5]))


@pytest.mark.parametrize("rows, message", [
    # an infinite offset made the violation tolerance infinite: every row
    # passed, and the reference came back as optimal
    pytest.param(dict(offsets=[100.0, -np.inf]), "offsets", id="inf-offset"),
    pytest.param(dict(offsets=[100.0, np.nan]), "offsets", id="nan-offset"),
    # NaN rows came back infeasible
    pytest.param(dict(normals=[(0, 0, 1), (np.inf, 0, 0)]), "normals", id="inf-normal"),
    pytest.param(dict(normals=[(0, 0, 1), (np.nan, 0, 0)]), "normals", id="nan-normal"),
    # a zero row is dropped, its offset with it
    pytest.param(dict(normals=[(0, 0, 0), (1, 0, 0)], offsets=[np.nan, 1.0]), "offsets",
                 id="nan-offset-zero-normal"),
], ids=str)
def test_non_finite_rows_rejected(rows, message):
    kw = {"normals": [(0, 0, 1), (1, 0, 0)], "offsets": [100.0, 1.0], **rows}
    with pytest.raises(ValueError, match=message):
        _solve((1.0, 2.0, 3.0), kw["normals"], kw["offsets"], 1000.0)
    # the finite program solves: u_z is raised to 100
    sol = _solve((1.0, 2.0, 3.0), [(0, 0, 1), (1, 0, 0)], [100.0, 1.0], 1000.0)
    assert sol.status == "optimal" and sol.u.tolist() == [1.0, 2.0, 100.0]


@pytest.mark.parametrize("huge", [-1e300, -1e20])
@pytest.mark.parametrize("first", [False, True], ids=["huge-last", "huge-first"])
def test_one_huge_offset_does_not_excuse_the_other_rows(huge, first):
    # the violation tolerance scaled with the largest |b|: 1e-12 * 1e300
    # let u_z >= 100 pass at u_z = 3, and the reference came back as optimal
    rows = [((0, 0, 1), 100.0), ((1, 0, 0), huge)]
    if first:
        rows.reverse()
    normals, offsets = zip(*rows)
    sol = _solve((1.0, 2.0, 3.0), normals, offsets, 1000.0)
    assert sol.status == "optimal" and sol.u.tolist() == [1.0, 2.0, 100.0]
    assert sol.active_ids.tolist() == [-1]  # the first row, which carries no id


def test_row_whose_squared_norm_overflows_is_kept():
    # (1e200)^2 overflows: the row normalised to 0 >= 0 and was dropped, so
    # the reference came back as optimal although the row demands u_z >= 10
    with np.errstate(over="ignore"):
        alone = _solve((1.0, 2.0, 3.0), [(0, 0, 1e200)], [1e201], 1000.0)
        mixed = _solve((1.0, 2.0, 3.0), [(0, 0, 1e200), (1, 0, 0)], [1e201, 1.5], 1000.0)
    assert alone.status == "optimal" and alone.u.tolist() == [1.0, 2.0, 10.0]
    # the same bits as the row at unit scale
    unit = _solve((1.0, 2.0, 3.0), [(0, 0, 1), (1, 0, 0)], [10.0, 1.5], 1000.0)
    assert mixed.status == "optimal" and mixed.u.tolist() == unit.u.tolist() == [1.5, 2.0, 10.0]


@pytest.mark.parametrize("a_max", [10.0, 1e160])
@pytest.mark.parametrize("ref", [(1.0, 2.0, 3.0), (10.0, 20.0, 30.0)])
def test_ball_radius_whose_square_overflows_is_solved(ref, a_max):
    # (r0 + r1) ** 2 and the dual bound's square raised OverflowError on
    # Python floats; a radius this large is a bound that never binds
    sol = _solve(ref, np.zeros((0, 3)), [], a_max, v_current=(1.0, 0.0, 0.0),
                 v_max=1e160, dt=1.0)
    free = _solve(ref, np.zeros((0, 3)), [], a_max)
    assert sol.status == free.status == "optimal" and sol.u.tolist() == free.u.tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_instances_match_enumeration_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(120):
        m = rng.integers(0, 6)
        ubar = rng.normal(scale=3.0, size=3)
        normals = rng.normal(size=(m, 3))
        # offsets chosen so the feasible set is nonempty (contains anchor)
        anchor = rng.normal(size=3) * 0.5
        offsets = normals @ anchor - rng.uniform(0.0, 2.0, size=m)
        a_max = rng.uniform(np.linalg.norm(anchor) + 0.1, 6.0)
        sol = _solve(ubar, normals, offsets, a_max=a_max)
        assert sol.status == "optimal"
        hs = [(normals[i], offsets[i]) for i in range(m)]
        ref = enumeration_projection(ubar, hs, (np.zeros(3), a_max))
        np.testing.assert_allclose(sol.u, ref, atol=1e-6)
        assert sol.kkt_residual < 1e-6


def test_dykstra_cross_check_small_sample():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.integers(1, 4)
        ubar = rng.normal(scale=2.0, size=3)
        normals = rng.normal(size=(m, 3))
        anchor = rng.normal(size=3) * 0.5
        offsets = normals @ anchor - rng.uniform(0.2, 2.0, size=m)
        a_max = 5.0
        sol = _solve(ubar, normals, offsets, a_max=a_max)
        ref = dykstra_projection(ubar, [(normals[i], offsets[i]) for i in range(m)],
                                 [(np.zeros(3), a_max)], iters=200000, tol=1e-15)
        np.testing.assert_allclose(sol.u, ref, atol=1e-4)


def test_matches_dense_grid_spot_check():
    # Single fat half-space + ball: the regime where a refined grid search is
    # a sound reference. Thin multi-constraint wedges go to the enumeration
    # oracle instead.
    rng = np.random.default_rng(11)
    for _ in range(5):
        ubar = rng.normal(scale=2.0, size=3)
        normals = rng.normal(size=(1, 3))
        anchor = rng.normal(size=3) * 0.3
        offsets = normals @ anchor - rng.uniform(0.1, 1.0, size=1)
        a_max = 4.0
        sol = _solve(ubar, normals, offsets, a_max=a_max)
        hs = [(normals[0], offsets[0])]
        ref = grid_refine_projection(ubar, hs, [(np.zeros(3), a_max)],
                                     center=anchor, width=a_max)
        # curve-active optima (plane AND sphere) limit grid resolution; the
        # enumeration oracle covers the tight tolerance
        assert np.linalg.norm(sol.u - ref) < 5e-3


def test_kkt_stationarity_with_active_ball_and_halfspaces():
    rng = np.random.default_rng(21)
    for _ in range(60):
        ubar = rng.normal(scale=5.0, size=3)
        m = rng.integers(1, 6)
        normals = rng.normal(size=(m, 3))
        anchor = rng.normal(size=3) * 0.2
        offsets = normals @ anchor - rng.uniform(0.0, 1.0, size=m)
        a_max = rng.uniform(np.linalg.norm(anchor) + 0.05, 2.0)
        sol = _solve(ubar, normals, offsets, a_max=a_max)
        assert sol.status == "optimal"
        assert np.linalg.norm(sol.u) <= a_max * (1 + 1e-9)
        resid = normals @ sol.u - offsets
        assert resid.min() >= -1e-6
        assert sol.kkt_residual < 1e-6


def test_iteration_cap_raises_solver_error(monkeypatch):
    monkeypatch.setattr(qp, "_ROW_ITER", 0)
    with pytest.raises(SolverError) as exc:
        qp._project_polyhedron(np.zeros(3), np.array([[1.0, 0, 0]]), np.array([1.0]),
                               np.array([1.0]), 2.0)
    assert "min_violation" in exc.value.residuals


def test_both_balls_active():
    rng = np.random.default_rng(33)
    for _ in range(30):
        ubar = rng.normal(scale=6.0, size=3)
        v = rng.normal(scale=1.0, size=3)
        dt = 0.1
        v_max = np.linalg.norm(v) * 1.02 + 0.01
        a_max = rng.uniform(1.0, 3.0)
        sol = _solve(ubar, np.zeros((0, 3)), [], a_max=a_max,
                     v_current=v, v_max=v_max, dt=dt)
        assert sol.status == "optimal"
        balls = [(np.zeros(3), a_max), (-v / dt, v_max / dt)]
        ref = dykstra_projection(ubar, [], balls)
        np.testing.assert_allclose(sol.u, ref, atol=1e-6)
        assert np.linalg.norm(sol.u) <= a_max * (1 + 1e-9)
        assert np.linalg.norm(v + dt * sol.u) <= v_max * (1 + 1e-9)


@pytest.mark.parametrize("n_rows", [1, 2, 3])
def test_rows_and_both_balls_active(n_rows):
    # the solve's tail in closed loop: cruising at v_max with the
    # acceleration bound and barrier rows binding together
    rng = np.random.default_rng(40 + n_rows)
    for dt, a_max, oracle in ((0.1, 4.0, True), (0.02, 10.0, False)):
        for _ in range(8):
            ubar, normals, offsets, v, u_star, balls = lens_instance(rng, n_rows, dt, a_max)
            sol = _solve(ubar, normals, offsets, a_max=a_max, v_current=v, v_max=2.5, dt=dt)
            assert sol.status == "optimal"
            np.testing.assert_allclose(sol.u, u_star, atol=1e-9)
            assert kkt_residual(ubar, sol.u, list(zip(normals, offsets)), balls) < 1e-9
            assert sol.kkt_residual < 1e-9
            if oracle:
                # Dykstra converges sublinearly on the thin lens of the
                # closed-loop geometry (dt = 0.02), so it checks dt = 0.1
                ref = dykstra_projection(ubar, list(zip(normals, offsets)), balls)
                np.testing.assert_allclose(sol.u, ref, atol=1e-4)


def test_two_balls_closed_form():
    a_max, dt, v_max = 10.0, 0.02, 2.5

    def clip(u_ref, v):
        return _clip_reference(u_ref, norm_balls(a_max, v, v_max, dt))

    # start from rest: concentric balls, the smaller one is the projection
    u_ref = np.array([30.0, -40.0, 0.0])
    sol = _solve(u_ref, np.zeros((0, 3)), [], a_max=a_max, v_current=np.zeros(3), v_max=v_max, dt=dt)
    np.testing.assert_allclose(sol.u, u_ref / 5.0, atol=1e-12)
    np.testing.assert_allclose(clip(u_ref, np.zeros(3)), u_ref / 5.0, atol=1e-12)
    # at v_max, pushing along v: the optimum is on the intersection circle
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.normal(size=3)
        v *= v_max * rng.uniform(0.9, 1.0) / np.linalg.norm(v)
        u_ref = rng.normal(size=3) * 3.0 + 20.0 * v / np.linalg.norm(v)
        balls = [(np.zeros(3), a_max), (-v / dt, v_max / dt)]
        u, nus = project_balls(u_ref, np.array([q for q, _ in balls]), np.array([a_max, v_max / dt]))
        assert np.linalg.norm(u) <= a_max * (1 + 1e-12)
        assert np.linalg.norm(v + dt * u) <= v_max * (1 + 1e-12)
        assert (nus >= 0.0).all()
        assert kkt_residual(u_ref, u, [], balls) < 1e-9
        ref = dykstra_projection(u_ref, [], balls, iters=200000, tol=1e-15)
        np.testing.assert_allclose(u, ref, atol=1e-6)
        np.testing.assert_allclose(clip(u_ref, v), u, atol=0.0)
    # above v_max with dt * a_max too small to recover: the balls are disjoint
    v = np.array([3.0, 0.0, 0.0])
    assert project_balls(np.zeros(3), np.array([np.zeros(3), -v / dt]),
                         np.array([a_max, v_max / dt])) is None
    assert clip(np.zeros(3), v) is None
    sol = _solve(np.zeros(3), [[1.0, 0.0, 0.0]], [-1.0], a_max=a_max, v_current=v,
                 v_max=v_max, dt=dt)
    assert sol.status == "infeasible" and sol.u is None


def test_project_balls_on_axis_with_both_spheres_binding():
    """A point on the line through both centres whose two single-ball
    projections each miss the other ball: the balls touch at one point (the
    sum R1 + R2 rounds up, so they are not disjoint), and the circle branch
    runs with no direction off the axis."""
    R1, R2 = 1.25e-4, 1e4
    D = R1 + R2
    assert D - R2 > R1  # rounded up by about 5e-13
    Q, R = np.array([[0.0, 0.0, 0.0], [-D, 0.0, 0.0]]), np.array([R1, R2])
    point = np.array([1.0, 0.0, 0.0])
    # each single-ball projection lies outside the other ball beyond the
    # membership tolerance, so neither is the answer
    for k in range(2):
        d = point - Q[k]
        u_k = Q[k] + d * (R[k] / np.linalg.norm(d))
        assert np.linalg.norm(u_k - Q[1 - k]) > R[1 - k] * (1 + 1e-9)
    u, nus = project_balls(point, Q, R)
    for q, r in zip(Q, R):
        assert abs(np.linalg.norm(u - q) - r) <= 4 * np.finfo(float).eps * D
    assert (nus >= 0.0).all()
    G = np.stack([u - Q[0], u - Q[1]], axis=1)
    assert np.linalg.norm((u - point) + G @ nus) < 1e-12


def test_ball_budget_raises_solver_error(monkeypatch):
    # a row projection that never moves toward the ball, with three rows
    # active (a zero null-space projector): the working set cannot be met,
    # and the reference is far enough that the dual bound cannot end the
    # search before the budget does
    N = np.eye(3)

    def stuck(*args):
        return np.array([2.0, 0.0, 0.0]), np.ones(3), np.zeros(3)

    monkeypatch.setattr(qp, "_project_polyhedron", stuck)
    monkeypatch.setattr(qp, "_BALL_BUDGET", 7)
    with pytest.raises(SolverError) as exc:
        qp._project_with_balls(np.array([1e3, 0.0, 0.0]), N, np.zeros(3), np.zeros(3), 1.0,
                               np.zeros((1, 3)), np.array([1.0]))
    assert {"ball_residual", "working_set", "nu", "evaluations"} <= exc.value.residuals.keys()
    assert exc.value.residuals["evaluations"] == 7
    assert exc.value.residuals["ball_residual"] > 0.0


def test_feasible_set_of_one_point_is_optimal():
    # cruising at v_max with p_k = 8: every cone row passes through the
    # braking apex -p_k v / 2, which lies on the a_max sphere, and the rows
    # open away from the ball. The apex is the only feasible point, exactly
    # opposite the reference, where the dual bound of the solve is attained.
    rng = np.random.default_rng(12)
    for _ in range(20):
        v = rng.normal(size=3)
        v *= 2.5 / np.linalg.norm(v)
        apex = -4.0 * v
        e = apex / np.linalg.norm(apex)
        normals = e + 0.5 * rng.normal(size=(6, 3))
        normals[0] = e  # keeps the rows' cone on the far side of the apex
        sol = _solve(-rng.uniform(0.5, 20.0) * e, normals, normals @ apex, a_max=10.0,
                     v_current=v, v_max=2.5, dt=0.02)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.u, apex, atol=1e-9)


@pytest.mark.xfail(strict=True, reason="known defect: the row projection takes a violated row "
                   "nearly antiparallel to a working-set row for unreachable")
def test_nearly_antiparallel_rows_are_feasible():
    # u_y >= 0 and u_y <= 1e-8 u_z meet in a thin wedge that contains u = 0
    sol = _solve([0.0, 0.0, -1.0], [[0.0, 1.0, 0.0], [0.0, -1.0, 1e-8]], [0.0, 0.0], a_max=1.0)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, np.zeros(3), atol=1e-6)


# Both programs below have a redundant row (the balls lie inside its
# half-space), so their optimum is the closed-form projection onto the balls.
def test_two_ball_solve_with_large_velocity_ball_converges():
    # the velocity ball (R = v_max / dt = 125) joins the working set first;
    # the two-ball step takes the intersection circle from the acceleration
    # ball, where sqrt(R1^2 - a^2) at R1 ~ a ~ 125 would lose ~1e-9 relative
    # and floor the residual at 6.35e-10, above _BALL_TOL
    v = np.array([2.1695328761021178, -0.21181178013997382, -1.2240354853132365])
    ref = np.array([25.621379452576274, -2.3571109340257754, -14.306413165842558])
    kw = dict(a_max=0.05, v_current=v, v_max=2.5, dt=0.02)
    balls_only = _solve(ref, np.zeros((0, 3)), [], **kw)
    sol = _solve(ref, [[0.0, 0.0, 1.0]], [-100.0], **kw)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, balls_only.u, atol=1e-9)


@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="known defect: a row tangent to the velocity ball at u = 0 drives the "
                   "velocity-ball multiplier to 2.6e5 and the ball search out of budget, "
                   "although u = 0 is feasible")
def test_row_tangent_to_velocity_ball_is_feasible():
    kw = dict(a_max=1.0, v_current=2.5 * np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0),
              v_max=2.5, dt=0.02)
    ref = np.array([0.0, 0.0, 2.0])
    balls_only = _solve(ref, np.zeros((0, 3)), [], **kw)
    sol = _solve(ref, [[0.0, -1.0, -1.0]], [0.0], **kw)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, balls_only.u, atol=1e-9)


def test_normals_layout_does_not_change_the_solve():
    """solve_filter gives the same bytes for C- and F-ordered normals: it
    normalises the rows into a C-contiguous array whatever the caller's
    layout, since BLAS rounds N @ u otherwise for an F-ordered N. (Without
    that rule, 340 of 5,100 replayed ring programs moved in `u`, pair 3's
    apex steps among them.) The kernels hand over F-ordered normals, so the
    C-ordered ones are made here."""
    problems = [p for p in ring_problems("cone", 3, 30) if p.normals.shape[0]]
    assert len(problems) >= 20
    for problem in problems:
        want = solve_filter(dataclasses.replace(problem,
                                                normals=np.ascontiguousarray(problem.normals)))
        got = solve_filter(dataclasses.replace(problem, normals=np.asfortranarray(problem.normals)))
        assert got.status == want.status
        for name in ("u", "active_ids", "kkt_residual"):
            assert np.asarray(getattr(got, name)).tobytes() == \
                np.asarray(getattr(want, name)).tobytes(), name


def test_lapack_calls_give_numpy_linalg_bits():
    """Assumption test. The solve calls LAPACK's dgesv and dgesdd through
    scipy.linalg.lapack (`qp._solve`, `qp._svd`), the routines
    np.linalg.solve and np.linalg.svd call, without numpy's wrappers. numpy
    and scipy may link different LAPACK builds, so on random Gram systems
    of 2 and 3 unit rows, on 2x2 systems of the two-ball step's kind and
    on blocks of 2 to 4 unit rows, the results and the products the solve
    takes of them must have numpy.linalg's bytes. A build where they
    differ fails here, in one place, rather than across the bit pins."""
    rng = np.random.default_rng(23)
    why = ("scipy.linalg.lapack's dgesv/dgesdd give other bytes than numpy.linalg here; "
           "qp's solve and the bit pins assume the same "
           "(see ROADMAP item 11 on retiring the bit-mimicry)")

    def unit_rows(k):
        rows = rng.normal(size=(k, 3))
        return rows / np.sqrt((rows * rows).sum(axis=1))[:, None]

    solves = svds = 0
    for _ in range(20000):
        rows = unit_rows(int(rng.integers(2, 4)))
        M, rhs = rows @ rows.T, rows @ unit_rows(1)[0]
        J, r = rng.normal(size=(2, 2)), rng.normal(size=2)
        solves += qp._solve(M, rhs).tobytes() != np.linalg.solve(M, rhs).tobytes()
        solves += qp._solve(J, r).tobytes() != np.linalg.solve(J, r).tobytes()
        block = unit_rows(int(rng.integers(2, 5)))
        _, s, vt = np.linalg.svd(block)
        rank = int(rng.integers(1, 3))
        want = np.eye(3) - vt[:rank].T @ vt[:rank]
        _, s2, vt2 = qp._svd(block)
        svds += (s2.tobytes() != s.tobytes() or np.ascontiguousarray(vt2).tobytes() != vt.tobytes()
                 or (np.eye(3) - vt2[:rank].T @ vt2[:rank]).tobytes() != want.tobytes())
    assert solves == 0, why
    assert svds == 0, why
    with pytest.raises(np.linalg.LinAlgError):
        qp._solve(np.ones((2, 2)), np.ones(2))


def test_lapack_calls_keep_replayed_solves_bytes(monkeypatch):
    """Replayed ring programs solve to the same bytes when numpy.linalg's
    solve and svd stand in for the direct LAPACK calls
    (`test_step_pins.py` pins the same solves against the reference
    solver)."""
    problems = [p for name in ("cone", "distance_baseline") for pair in (2, 3)
                for p in ring_problems(name, pair, 200)[::4] if p.normals.shape[0]]

    def outputs():
        out = []
        for problem in problems:
            sol = solve_filter(problem)
            out.append((None if sol.u is None else sol.u.tobytes(), sol.status,
                        sol.active_ids.tobytes(), repr(sol.kkt_residual)))
        return out

    direct = outputs()
    monkeypatch.setattr(qp, "_solve", np.linalg.solve)
    monkeypatch.setattr(qp, "_svd", np.linalg.svd)
    assert outputs() == direct


# ---------------------------------------------------------------------------
# diagnostics on first read
#
# The control loop reads `u`, `status` and `solve_time` of a solution; the
# solve leaves `active_ids` and `kkt_residual` to their first read.
# ---------------------------------------------------------------------------

_FIELDS = ("u", "status", "active_ids", "solve_time", "kkt_residual")


def test_closed_loop_computes_no_diagnostics(monkeypatch):
    """A ring pair flown by `run_trajectory` under either filter computes
    neither deferred value; reading them afterwards does."""
    from helpers import RING_KW, RING_PAIRS, ring_scene
    from splatcone.simulator import SimConfig, batch_start_goal, run_trajectory

    calls = {"_stationarity": 0, "_tight_ids": 0}
    for name in calls:
        def counted(*args, _fn=getattr(qp, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(qp, name, counted)
    scene = ring_scene()
    for filter_name in ("cone", "distance_baseline"):
        cfg = SimConfig(filter=filter_name, **RING_KW)
        start, goal = batch_start_goal(scene, 3, RING_PAIRS, cfg, cfg.rho)
        record = run_trajectory(scene, start, goal, cfg)
        assert len(record) > 100
    assert calls == {"_stationarity": 0, "_tight_ids": 0}
    problem = next(p for p in ring_problems("cone", 3, 40) if np.abs(p.normals).max() > 0)
    sol = solve_filter(problem)
    first, again = [(sol.active_ids, sol.kkt_residual) for _ in range(2)]
    assert calls == {"_stationarity": 1, "_tight_ids": 1}  # computed once, then kept
    assert again[0] is first[0] and again[1] == first[1]


def test_diagnostics_read_late_give_the_eager_bytes(monkeypatch):
    """`active_ids` and `kkt_residual` read after the solve are the bytes
    computed at its end, for the normals as the row kernels hand them over
    (columns) and as C-ordered rows, and with no rows, even after the
    caller has changed its reference and splat ids."""
    problems = [p for name in ("cone", "distance_baseline") for pair in (2, 3)
                for p in ring_problems(name, pair, 120)[::3]]
    problems += [dataclasses.replace(p, normals=np.zeros((0, 3)), offsets=np.zeros(0),
                                     splat_ids=np.zeros(0, dtype=np.intp)) for p in problems[::8]]
    with monkeypatch.context() as m:
        m.setattr(qp, "_Later", lambda fn, *args: fn(*args))  # computed in the solve
        eager = [solve_filter(p) for p in problems]
    tight = 0
    for problem, want in zip(problems, eager):
        for normals in (problem.normals, np.ascontiguousarray(problem.normals)):
            reference, ids = problem.reference.copy(), problem.splat_ids.copy()
            sol = solve_filter(dataclasses.replace(problem, reference=reference, normals=normals,
                                                   splat_ids=ids))
            reference[:], ids[:] = 1e3, -7
            for name in ("u", "status", "active_ids", "kkt_residual"):
                assert np.asarray(getattr(sol, name)).tobytes() == \
                    np.asarray(getattr(want, name)).tobytes(), name
        tight += want.active_ids.size > 0
    assert tight > 0


def test_a_solution_built_with_values_compares_and_prints_as_before():
    values = dict(u=np.array([1.0, 0.0, -2.0]), status="optimal", active_ids=np.array([4, 9]),
                  solve_time=0.5, kkt_residual=1e-15)
    sol = qp.FilterSolution(**values)
    assert [f.name for f in dataclasses.fields(sol)] == list(_FIELDS)
    assert repr(sol) == ("FilterSolution(u=array([ 1.,  0., -2.]), status='optimal', "
                         "active_ids=array([4, 9]), solve_time=0.5, "
                         "kkt_residual=1e-15)")
    assert sol == qp.FilterSolution(*values.values())
    assert sol != dataclasses.replace(sol, kkt_residual=2e-15)
    with pytest.raises(TypeError, match="active_ids"):
        qp.FilterSolution(u=None, status="infeasible", solve_time=0.0, kkt_residual=np.nan)


class _Captured(Exception):
    pass


def test_apex_program_of_the_clutter_scene_is_solved():
    """The program of step 65 of pair 2 of a four-pair placement on
    criterion 9's scene (seed 11, start height 0, p_k 8): 440 cone rows,
    all through the braking apex u* = -p_k v / 2, their only feasible
    point, which lies inside both balls. The solve used to call it
    infeasible: a row dependent on a working set of three nearly coplanar
    rows was violated by 5.1e-11, more than the feasibility tolerance and
    less than it inherits from the rounding of the working-set point."""
    from splatcone import filter as filter_mod
    from splatcone.simulator import SimConfig, batch_start_goal, run_trajectory
    from splatcone.synthetic import SyntheticSpec, make_synthetic_scene

    scene = make_synthetic_scene(SyntheticSpec(pattern="clutter", count=170000, extent=17.7,
                                               scale_range=(0.05, 0.15),
                                               anisotropy_range=(1.0, 3.0)), seed=11)
    cfg = SimConfig(filter="cone", p_k=8.0, a_max=10.0, v_max=2.5, activation_radius=5.0,
                    start_height=0.0)
    start, goal = batch_start_goal(scene, 2, 4, cfg, cfg.rho)
    problems = []

    def capture(problem):
        problems.append(problem)
        if len(problems) == 66:
            raise _Captured
        return inner(problem)

    inner = filter_mod.solve_filter
    filter_mod.solve_filter = capture
    try:
        with pytest.raises(_Captured):
            run_trajectory(scene, start, goal, cfg)
    finally:
        filter_mod.solve_filter = inner
    prob = problems[-1]
    apex = -cfg.p_k * prob.v_current / 2.0
    assert prob.normals.shape == (440, 3)
    assert np.linalg.norm(apex) < cfg.a_max
    assert np.linalg.norm(prob.v_current + prob.dt * apex) < cfg.v_max
    sol = solve_filter(prob)
    assert sol.status == "optimal" and sol.kkt_residual < 1e-10
    np.testing.assert_allclose(sol.u, apex, rtol=1e-9)
