"""Closed-loop simulator: integrator exactness, PD behavior, filter outcomes,
metrics oracles, batch determinism, and audit independence."""
import numpy as np
import pytest

from splatcone.scene import ConfigError
from splatcone.simulator import (
    RobotState,
    SimConfig,
    SimulationError,
    TrajectoryRecord,
    batch_start_goal,
    compute_metrics,
    first_intervention_distance,
    pd_reference,
    run_batch,
    run_trajectory,
    scene_margins,
    step,
)
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene


def single_splat_scene(scale=0.5):
    return make_synthetic_scene(
        SyntheticSpec(pattern="single", count=1, scale_range=(scale, scale)), seed=0)


def empty_like_scene():
    # a far-away splat acts as an empty scene for trajectories near the origin
    spec = SyntheticSpec(pattern="single", count=1, scale_range=(0.3, 0.3))
    scene = make_synthetic_scene(spec, seed=0)
    shifted = scene.means.copy()
    shifted.setflags(write=True)
    shifted += 500.0
    from splatcone.scene import Scene
    return Scene.from_arrays(shifted, scene.quats, scene.scales, scene.opacities,
                             scene.options)


def test_step_exact_hand_case():
    s = RobotState(p=np.zeros(3), v=np.zeros(3), t=0.0)
    s2 = step(s, np.array([1.0, 0, 0]), dt=1.0)
    np.testing.assert_allclose(s2.p, [0.5, 0, 0])
    np.testing.assert_allclose(s2.v, [1.0, 0, 0])
    # u = 0: straight-line drift
    s3 = step(RobotState(p=np.zeros(3), v=np.array([1.0, 2.0, 0]), t=0.0),
              np.zeros(3), dt=0.5)
    np.testing.assert_allclose(s3.p, [0.5, 1.0, 0])


def test_step_endpoint_independent_of_dt():
    u = np.array([0.3, -0.7, 1.1])
    v0 = np.array([1.0, 0.5, -0.2])
    expect_p = v0 * 2.0 + 0.5 * u * 4.0  # closed form at t = 2
    expect_v = v0 + u * 2.0
    for n in (100, 1000):
        s = RobotState(p=np.zeros(3), v=v0, t=0.0)
        for _ in range(n):
            s = step(s, u, 2.0 / n)
        np.testing.assert_allclose(s.p, expect_p, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(s.v, expect_v, rtol=1e-12, atol=1e-12)


def test_pd_reference_hand_cases():
    at_goal = RobotState(p=np.array([1.0, 2.0, 3.0]), v=np.zeros(3), t=0.0)
    np.testing.assert_array_equal(pd_reference(at_goal, np.array([1.0, 2.0, 3.0]), (2.0, 1.0)), 0.0)
    s = RobotState(p=np.zeros(3), v=np.zeros(3), t=0.0)
    np.testing.assert_allclose(pd_reference(s, np.array([1.0, 0, 0]), (2.0, 1.0)), [2.0, 0, 0])
    with pytest.raises(SimulationError):
        pd_reference(s, np.zeros(3), (0.0, 1.0))


def test_critically_damped_no_overshoot():
    # closed-form second-order dynamics: kd = 2 sqrt(kp) never overshoots
    kp = 4.0
    kd = 2.0 * np.sqrt(kp)
    scene = empty_like_scene()
    cfg = SimConfig(filter="off", kp=kp, kd=kd, a_max=1000.0, v_max=None,
                    dt=0.002, timeout=20.0)
    goal = np.array([1.0, 0.0, 0.0])
    rec = run_trajectory(scene, np.zeros(3), goal, cfg)
    assert rec.outcome == "reached_goal"
    assert rec.p[:, 0].max() <= 1.0 + 1e-6


def test_empty_scene_reaches_goal_without_intervention():
    scene = empty_like_scene()
    cfg = SimConfig(filter="cone", a_max=10.0, v_max=2.5, timeout=30.0)
    rec = run_trajectory(scene, np.zeros(3), np.array([3.0, 1.0, 0.5]), cfg)
    assert rec.outcome == "reached_goal"
    assert rec.interventions == 0
    assert np.isinf(rec.min_h).all()
    assert np.isinf(rec.audit_min_margin)


def test_blocking_splat_cone_filter_safe():
    scene = single_splat_scene()
    cfg = SimConfig(filter="cone", a_max=10.0, v_max=2.5, p_k=8.0,
                    activation_radius=6.0, timeout=60.0)
    rec = run_trajectory(scene, np.array([-8.0, 0.12, 0.0]), np.array([8.0, 0.0, 0.0]), cfg)
    assert rec.outcome == "reached_goal"
    assert rec.audit_min_margin >= -1e-6
    assert rec.interventions > 0


def test_blocking_splat_filter_off_collides():
    scene = single_splat_scene()
    cfg = SimConfig(filter="off", a_max=10.0, v_max=2.5, timeout=30.0)
    rec = run_trajectory(scene, np.array([-8.0, 0.12, 0.0]), np.array([8.0, 0.0, 0.0]), cfg)
    assert rec.outcome == "collided"
    assert rec.audit_min_margin < 0
    assert rec.interventions == 0


def test_tangential_pass_no_intervention():
    scene = single_splat_scene(scale=0.3)
    # passes 4 away from the splat moving tangentially: cone never entered
    cfg = SimConfig(filter="cone", a_max=10.0, v_max=2.5, p_k=8.0,
                    activation_radius=6.0, timeout=40.0)
    rec = run_trajectory(scene, np.array([-8.0, 4.0, 0.0]), np.array([8.0, 4.0, 0.0]), cfg)
    assert rec.outcome == "reached_goal"
    assert rec.interventions == 0
    finite = np.isfinite(rec.min_h)
    assert finite.any() and rec.min_h[finite].min() > 0


def test_start_inside_rejected():
    scene = single_splat_scene()
    cfg = SimConfig(filter="cone")
    with pytest.raises(SimulationError, match="inside"):
        run_trajectory(scene, np.zeros(3), np.array([5.0, 0, 0]), cfg)


def test_baseline_far_from_splats_passthrough():
    scene = single_splat_scene()
    cfg = SimConfig(filter="distance_baseline", a_max=10.0, v_max=2.5,
                    activation_radius=3.0, timeout=30.0)
    rec = run_trajectory(scene, np.array([-8.0, 6.0, 0.0]), np.array([-6.0, 6.0, 0.0]), cfg)
    assert rec.outcome == "reached_goal"
    assert rec.interventions == 0


def test_baseline_reacts_at_standstill_unlike_cone():
    """A static robot near a splat with an inward reference: the distance
    barrier activates at v = 0 while the cone (velocity-based) does not."""
    from splatcone.filter import FilterConfig, baseline_distance_filter_step, filter_step

    scene = single_splat_scene()
    c = np.sqrt(scene.confidence)  # ellipsoid surface at 0.5 c =~ 1.68
    state = RobotState(p=np.array([2.2, 0.0, 0.0]), v=np.zeros(3), t=0.0)
    u_ref = np.array([-10.0, 0.0, 0.0])  # pushing straight at the splat
    fcfg = FilterConfig(p_k=1.0, activation_radius=6.0, a_max=10.0)
    sol_b, _ = baseline_distance_filter_step(scene, state, u_ref, fcfg)
    assert np.linalg.norm(sol_b.u - u_ref) > 1e-3  # constraint active
    sol_c, _ = filter_step(scene, state, u_ref, fcfg)
    np.testing.assert_allclose(sol_c.u, u_ref, atol=1e-9)  # cone blind at v=0


def test_cone_first_intervention_farther_than_baseline():
    scene = single_splat_scene()
    kw = dict(a_max=10.0, v_max=2.5, p_k=8.0, activation_radius=6.0, timeout=60.0)
    start, goal = np.array([-9.0, 0.15, 0.0]), np.array([9.0, 0.0, 0.0])
    rec_c = run_trajectory(scene, start, goal, SimConfig(filter="cone", **kw))
    rec_b = run_trajectory(scene, start, goal, SimConfig(filter="distance_baseline", **kw))
    d_c = first_intervention_distance(rec_c, np.zeros(3))
    d_b = first_intervention_distance(rec_b, np.zeros(3))
    assert d_c is not None and d_b is not None
    assert d_c >= d_b


def test_infeasible_outcome_when_cornered():
    # start legally but aimed point-blank: hard mode gives up quickly
    scene = single_splat_scene()
    cfg = SimConfig(filter="cone", a_max=0.5, v_max=None, p_k=0.5,
                    activation_radius=2.5, timeout=10.0)
    rec = run_trajectory(scene, np.array([-2.4, 0.0, 0.0]), np.array([8.0, 0.0, 0.0]), cfg)
    assert rec.outcome in ("infeasible", "collided", "timeout")


def _record_from_u(u_seq, dt=0.02, p0=None, v0=None):
    n = len(u_seq)
    p = np.zeros((n, 3))
    v = np.zeros((n, 3))
    pos = np.zeros(3) if p0 is None else np.asarray(p0, dtype=float)
    vel = np.zeros(3) if v0 is None else np.asarray(v0, dtype=float)
    for i, u in enumerate(u_seq):
        p[i] = pos
        v[i] = vel
        pos = pos + vel * dt + 0.5 * np.asarray(u) * dt * dt
        vel = vel + np.asarray(u) * dt
    return TrajectoryRecord(
        t=np.arange(n) * dt, p=p, v=v, u=np.asarray(u_seq, dtype=float),
        min_h=np.full(n, np.inf), solve_time=np.zeros(n), build_time=np.zeros(n),
        outcome="reached_goal", start=p[0], goal=p[-1], dt=dt,
    )


def test_metrics_constant_u_zero_jerk():
    rec = _record_from_u([[1.0, 0, 0]] * 50)
    m = compute_metrics(rec)
    assert m.isj == 0.0
    assert m.rms_j == 0.0


def test_metrics_alternating_u_closed_form():
    a, dt, n = 2.0, 0.02, 40
    u = [[a * (1 if i % 2 == 0 else -1), 0, 0] for i in range(n)]
    rec = _record_from_u(u, dt=dt)
    m = compute_metrics(rec)
    # each of the n-1 switches contributes (2a/dt)^2 * dt
    expected = (n - 1) * (2 * a / dt) ** 2 * dt
    assert m.isj == pytest.approx(expected, rel=1e-12)


def test_metrics_straight_line_path_length():
    dt, n = 0.02, 100
    speed = 1.5
    rec = _record_from_u([[0.0, 0, 0]] * n, dt=dt, v0=[speed, 0, 0])
    m = compute_metrics(rec)
    assert m.path_length == pytest.approx(speed * m.duration, rel=1e-9)


def test_metrics_identity_isj_rms_duration():
    rng = np.random.default_rng(2)
    rec = _record_from_u(rng.normal(size=(64, 3)))
    m = compute_metrics(rec)
    assert m.isj == pytest.approx(m.rms_j ** 2 * m.duration, rel=1e-9)


def test_metrics_too_few_samples():
    rec = _record_from_u([[0.0, 0, 0]] * 3)
    with pytest.raises(SimulationError, match="4 samples"):
        compute_metrics(rec)


def test_discrete_cbf_decrease_band():
    """First-order forward-invariance audit: along optimal steps,
    h(k+1) >= (1 - p_k dt) h(k) - C dt^2 * scale with C frozen at 50."""
    scene = single_splat_scene()
    pk, dt = 8.0, 0.02
    cfg = SimConfig(filter="cone", a_max=10.0, v_max=2.5, p_k=pk,
                    activation_radius=6.0, timeout=60.0, dt=dt)
    rec = run_trajectory(scene, np.array([-8.0, 0.12, 0.0]), np.array([8.0, 0.0, 0.0]), cfg)
    assert rec.outcome == "reached_goal"
    h = rec.min_h
    fin = np.isfinite(h[:-1]) & np.isfinite(h[1:])
    lhs = h[1:][fin]
    rhs = (1 - pk * dt) * h[:-1][fin]
    band = 50.0 * dt * dt * np.maximum(np.abs(h[:-1][fin]), 1.0)
    assert (lhs >= rhs - band).all()


def test_record_time_grid_uniform():
    scene = single_splat_scene()
    cfg = SimConfig(filter="cone", a_max=10.0, v_max=2.5, p_k=8.0,
                    activation_radius=6.0, timeout=20.0)
    rec = run_trajectory(scene, np.array([-8.0, 0.12, 0.0]), np.array([8.0, 0.0, 0.0]), cfg)
    dts = np.diff(rec.t)
    assert (dts > 0).all()
    np.testing.assert_allclose(dts, cfg.dt, rtol=1e-12)
    n = len(rec)
    assert rec.t[0] == 0.0
    assert rec.p.shape == rec.v.shape == rec.u.shape == (n, 3)
    assert rec.min_h.shape == rec.solve_time.shape == (n,)
    assert rec.min_h.dtype == rec.solve_time.dtype == np.float64
    np.testing.assert_array_equal(rec.p[0], [-8.0, 0.12, 0.0])
    np.testing.assert_array_equal(rec.v[0], 0.0)


def test_audit_independence_flags_manufactured_penetration():
    scene = single_splat_scene()
    # a fabricated record passing through the splat center: the audit must
    # flag it regardless of any filter bookkeeping (min_h says all clear)
    p = np.linspace([-3, 0, 0], [3, 0, 0], 30)
    n = len(p)
    rec = TrajectoryRecord(
        t=np.arange(n) * 0.02, p=p, v=np.zeros((n, 3)), u=np.zeros((n, 3)),
        min_h=np.full(n, np.inf), solve_time=np.zeros(n), build_time=np.zeros(n),
        outcome="reached_goal", start=p[0], goal=p[-1], dt=0.02,
    )
    margins = scene_margins(scene, rec.p, rho=0.0)
    assert margins.min() < 0


def test_batch_empty_scene_antipodal_pairs():
    scene = empty_like_scene()
    cfg = SimConfig(filter="cone", a_max=10.0, v_max=2.5, timeout=60.0,
                    start_radius=3.0, start_height=0.0)
    res = run_batch(scene, 2, cfg, seed=0)
    assert res.aggregate["success_rate"] == 1.0
    recs = [r for r, _ in res.runs]
    center = 0.5 * (scene.bounds[0] + scene.bounds[1])
    for rec in recs:
        # antipodal in the placement plane, at the configured height
        np.testing.assert_allclose(rec.start[:2] + rec.goal[:2], 2 * center[:2], atol=1e-9)
        assert rec.start[2] == rec.goal[2] == 0.0


def test_batch_deterministic_aggregate():
    scene = make_synthetic_scene(
        SyntheticSpec(pattern="clutter", count=60, extent=4.0, scale_range=(0.1, 0.2)),
        seed=5)
    cfg = SimConfig(filter="cone", a_max=10.0, v_max=2.5, p_k=8.0,
                    activation_radius=4.0, timeout=20.0, start_radius=7.0)
    a = run_batch(scene, 3, cfg, seed=9).aggregate
    b = run_batch(scene, 3, cfg, seed=9).aggregate
    a.pop("timing")
    b.pop("timing")
    assert a == b


def test_batch_start_perturbed_out_of_obstacle():
    # dense blob at the default placement ring: starts must be pushed outward
    spec = SyntheticSpec(pattern="single", count=1, scale_range=(1.0, 1.0))
    scene = make_synthetic_scene(spec, seed=0)
    cfg = SimConfig(filter="cone", start_radius=0.5, start_height=0.0)
    with pytest.warns(RuntimeWarning, match="pushed radially"):
        start, goal = batch_start_goal(scene, 0, 1, cfg)
    assert scene_margins(scene, start[None, :])[0] > 0


@pytest.mark.parametrize("kw", [dict(inside_policy="hrad"), dict(inflation_mode="exakt"),
                                dict(rho=-1.0), dict(p_k=0.0), dict(p_k=float("nan")),
                                dict(v_max=-1.0), dict(slack_weight=0.0),
                                dict(slack_weight=float("inf")),
                                dict(baseline_alpha2=-1.0)], ids=str)
def test_filter_settings_checked_once(kw):
    """FilterConfig rejects a bad filter setting; SimConfig, which extends
    it, reports the same message as the same ConfigError."""
    from splatcone.filter import FilterConfig

    with pytest.raises(ValueError) as exc:
        FilterConfig(**kw)
    with pytest.raises(ConfigError) as sim_exc:
        SimConfig(**kw)
    assert str(sim_exc.value) == str(exc.value)


@pytest.mark.parametrize("kw, message", [
    (dict(start_radius=0.0), "start_radius must be positive and finite when set"),
    (dict(start_radius=-1.0), "start_radius must be positive and finite when set"),
    (dict(start_radius=float("nan")), "start_radius must be positive and finite when set"),
    (dict(start_radius=float("inf")), "start_radius must be positive and finite when set"),
    (dict(start_height=float("nan")), "start_height must be finite when set"),
    (dict(start_height=float("-inf")), "start_height must be finite when set"),
    (dict(dt=1e-300, timeout=1e10), "timeout / dt must be a finite step count"),
], ids=str)
def test_simconfig_checks_placement_and_step_count(kw, message):
    with pytest.raises(ConfigError, match=message):
        SimConfig(**kw)


def test_simconfig_placement_range_ends():
    # any finite height, and a step count that is large but finite
    SimConfig(start_radius=1e-9, start_height=-5.0)
    SimConfig(start_height=0.0, dt=1e-300, timeout=1e-10)


@pytest.mark.parametrize("name", ["cone", "distance_baseline", "off"])
def test_inside_policy(monkeypatch, name):
    """Robot inside the splat ellipsoid: 'hard' reports infeasible without a
    solve, 'slack' solves with the default slack weight, 'off' never refuses."""
    from splatcone import filter as filter_mod
    from splatcone import simulator
    from splatcone.filter import DEFAULT_SLACK_WEIGHT, FilterConfig

    scene = single_splat_scene()
    state = RobotState(p=np.array([0.4, 0.1, 0.0]), v=np.array([1.0, 0.2, 0.0]), t=0.0)
    assert scene_margins(scene, state.p[None, :])[0] < 0
    u_ref = np.array([2.0, 0.0, 0.0])
    problems = []

    def capture(problem):
        problems.append(problem)
        return solve(problem)

    solve = filter_mod.solve_filter
    # both module bindings: the step may look the solver up in either
    monkeypatch.setattr(filter_mod, "solve_filter", capture)
    monkeypatch.setattr(simulator, "solve_filter", capture)
    step_fn = simulator._FILTER_STEPS[name]
    fcfg = FilterConfig(p_k=1.0, activation_radius=6.0, a_max=10.0, inside_policy="hard")

    sol, diag = step_fn(scene, state, u_ref, fcfg)
    if name == "off":
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.u, u_ref)
        assert diag["min_h"] < 0 and len(problems) == 1
        return
    assert sol.status == "infeasible" and sol.u is None
    assert diag["inside_ids"].tolist() == [0]
    assert sol.active_ids.tolist() == [0]
    assert problems == []

    slack_cfg = FilterConfig(p_k=1.0, activation_radius=6.0, a_max=10.0, inside_policy="slack")
    sol, diag = step_fn(scene, state, u_ref, slack_cfg)
    assert diag["inside_ids"].tolist() == [0]
    assert len(problems) == 1 and problems[0].slack_weight == DEFAULT_SLACK_WEIGHT
    assert sol.status in ("optimal", "degraded") and sol.u is not None
    # an explicit weight is kept
    sol, _ = step_fn(scene, state, u_ref,
                     FilterConfig(p_k=1.0, activation_radius=6.0, a_max=10.0,
                                  inside_policy="slack", slack_weight=50.0))
    assert len(problems) == 2 and problems[1].slack_weight == 50.0


@pytest.mark.parametrize("name", ["cone", "distance_baseline", "off"])
def test_every_filter_solves_through_the_filter_module(monkeypatch, name):
    """Each step of a trajectory passes once through the simulator's step
    table and once through `filter.solve_filter`, whatever the filter."""
    from splatcone import filter as filter_mod
    from splatcone import simulator

    counts = {"step": 0, "solve": 0}
    inner_step = simulator._FILTER_STEPS[name]
    inner_solve = filter_mod.solve_filter

    def counted_step(*args, **kwargs):
        counts["step"] += 1
        return inner_step(*args, **kwargs)

    def counted_solve(problem):
        counts["solve"] += 1
        return inner_solve(problem)

    monkeypatch.setitem(simulator._FILTER_STEPS, name, counted_step)
    monkeypatch.setattr(filter_mod, "solve_filter", counted_solve)
    scene = single_splat_scene()
    cfg = SimConfig(filter=name, a_max=10.0, v_max=2.5, p_k=8.0,
                    activation_radius=6.0, timeout=1.0)
    rec = run_trajectory(scene, np.array([-4.0, 0.12, 0.0]), np.array([8.0, 0.0, 0.0]), cfg)
    assert rec.outcome == "timeout"
    assert counts == {"step": len(rec), "solve": len(rec)}
