"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The batch-based criteria
share module-scoped fixtures (a 2400-splat ring scene, 50 trajectories per
filter), so the whole suite runs in a few minutes.
"""
import time

import numpy as np
import pytest

from splatcone import kernels
from splatcone.cone import (
    GeometryError,
    InsideEllipsoidError,
    RelativeGeometry,
    ZeroVelocityError,
    barrier_value,
    cone_status,
    in_forward_cone,
    inflate,
    oracle_ray_hits,
    whitened_test,
)
from splatcone.constraints import build_constraint, lie_derivative_w
from splatcone.qp import FilterProblem, solve_filter
from splatcone.scene import Scene, PreprocessOptions
from splatcone.simulator import (
    SimConfig,
    SimulationError,
    first_intervention_distance,
    run_batch,
    run_trajectory,
)
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene
from splatcone.filter import FilterConfig, filter_step
from splatcone.simulator import RobotState
from helpers import (
    enumeration_projection,
    finite_difference_gradient,
    random_spd,
)


def _report(num: int, ok: bool, text: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    return ok


def _sample_geometries(n, seed):
    """Random SPD A (rotation + scales in [0.1, 10]), gamma > 0, |v| in [0.1, 10]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        A, s, R = random_spd(rng, 0.1, 10.0)
        c2 = rng.uniform(0.5, 12.0)
        d = rng.normal(size=3)
        m = d @ A @ d
        r = d * np.sqrt(rng.uniform(1.05, 40.0) * c2 / m)
        v = rng.normal(size=3)
        v *= rng.uniform(0.1, 10.0) / np.linalg.norm(v)
        out.append((RelativeGeometry(r=r, v=v, A=A, c2=c2), s, R))
    return out


RING_SPEC = SyntheticSpec(pattern="ring", count=2400, ring_radius=6.5, pillar_count=10,
                          pillar_radius=0.45, height=4.0, scale_range=(0.08, 0.2),
                          anisotropy_range=(1.0, 4.0))
BATCH_KW = dict(a_max=10.0, v_max=2.5, activation_radius=5.0, timeout=60.0,
                p_k=8.0, start_radius=10.0, start_height=2.0)


@pytest.fixture(scope="module")
def ring_scene():
    return make_synthetic_scene(RING_SPEC, seed=7)


@pytest.fixture(scope="module")
def ring_batches(ring_scene):
    batches = {}
    for filt in ("cone", "distance_baseline"):
        cfg = SimConfig(filter=filt, **BATCH_KW)
        batches[filt] = run_batch(ring_scene, 50, cfg, seed=1)
    return batches


def test_criterion_1_cone_oracle_equivalence():
    t0 = time.perf_counter()
    geoms = _sample_geometries(10000, seed=42)
    checked = mism = 0
    for g, _, _ in geoms:
        h = barrier_value(g)
        scale = g.beta * (abs(g.gamma) + g.c2) + g.delta ** 2
        if abs(h) <= 1e-9 * scale:
            continue
        checked += 1
        if in_forward_cone(g) != oracle_ray_hits(g, steps=64):
            mism += 1
    elapsed = time.perf_counter() - t0
    ok = mism == 0 and checked > 9500 and elapsed < 5.0
    assert _report(1, ok, f"cone vs analytic-root oracle: {checked} cases, "
                          f"{mism} mismatches, {elapsed:.2f}s (< 5 s)")


def test_criterion_2_whitening_equivalence():
    geoms = _sample_geometries(10000, seed=43)
    checked = verdict_mism = 0
    worst_rel = 0.0
    for g, s, R in geoms:
        L = np.diag(1.0 / s) @ R.T
        h = barrier_value(g)
        scale = g.beta * (abs(g.gamma) + g.c2) + g.delta ** 2
        rt, vt = L @ g.r, L @ g.v
        h_w = float(vt @ vt) * (float(rt @ rt) - g.c2) - float(rt @ vt) ** 2
        worst_rel = max(worst_rel, abs(h_w - h) / max(scale, 1e-300))
        if abs(h) <= 1e-9 * scale:
            continue
        checked += 1
        if whitened_test(g, L) != in_forward_cone(g):
            verdict_mism += 1
    ok = verdict_mism == 0 and worst_rel < 1e-8 and checked > 9500
    assert _report(2, ok, f"whitened verdicts equal on {checked} cases "
                          f"({verdict_mism} mismatches), scalar identity rel err "
                          f"{worst_rel:.2e} (< 1e-8)")


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(44)
    worst_w = 0.0
    n_w = 0
    while n_w < 1000:
        A, s, _ = random_spd(rng, 0.3, 4.0)
        r = rng.normal(size=3) * 4.0
        v = rng.normal(size=3) * 2.0
        g = RelativeGeometry(r=r, v=v, A=A, c2=1.5)
        w = lie_derivative_w(g)
        fd = finite_difference_gradient(
            lambda vv: barrier_value(RelativeGeometry(r=r, v=vv, A=A, c2=1.5)), v)
        worst_w = max(worst_w, np.linalg.norm(fd - 2 * w) / max(np.linalg.norm(fd), 1e-2))
        n_w += 1

    # the filter's inflated rows: kernels.cone_rows on (c + rho / s_min)^2
    # encode hdot = 2 n.u of the inflated barrier, hdot taken by central
    # difference along the flow p + v t + u t^2/2, v + u t
    rho, dt = 0.3, 1e-6
    worst_row = 0.0
    n_row = 0
    while n_row < 400:
        A, s, _ = random_spd(rng, 0.3, 3.0)
        mu = rng.normal(size=3) * 4.0
        p = rng.normal(size=3) * 4.0
        v = rng.normal(size=3) * 2.0
        u = rng.normal(size=3) * 2.0
        c2eff = (np.sqrt(2.0) + rho / np.array([s.min()])) ** 2
        normals, _, h, _ = kernels.cone_rows(p, v, mu[None, :], A[None], c2eff, 1.0)

        def h_at(pp, vv):
            return barrier_value(inflate(RelativeGeometry(r=mu - pp, v=vv, A=A, c2=2.0), s, rho))

        hdot = (h_at(p + v * dt + 0.5 * u * dt * dt, v + u * dt)
                - h_at(p - v * dt + 0.5 * u * dt * dt, v - u * dt)) / (2 * dt)
        scale = max(abs(hdot), abs(h[0]), 1.0)
        worst_row = max(worst_row, abs(hdot - 2.0 * float(normals[0] @ u)) / scale)
        n_row += 1
    ok = worst_w < 1e-5 and worst_row < 1e-4
    assert _report(3, ok, f"grad_v h = 2w rel err {worst_w:.2e} (< 1e-5, n={n_w}); "
                          f"inflated rows 2 n.u = hdot rel err {worst_row:.2e} "
                          f"(< 1e-4, n={n_row}, rho {rho})")


def test_criterion_4_forward_invariance(ring_batches):
    agg = ring_batches["cone"].aggregate
    records = [r for r, _ in ring_batches["cone"].runs]
    reached = [r for r in records if r.outcome == "reached_goal"]
    min_margin = min((r.audit_min_margin for r in reached), default=float("inf"))
    success = agg["success_rate"]
    ok = min_margin >= -1e-6 and success >= 0.90
    assert _report(4, ok, f"ring batch (n=50, {RING_SPEC.count} splats): "
                          f"success {success:.0%} (>= 90%), audited min ellipsoid margin "
                          f"{min_margin:.3e} (>= -1e-6)")


def test_criterion_5_proactivity_ordering():
    rng = np.random.default_rng(17)
    wins = total = 0
    details = []
    for _ in range(24):
        mean = np.zeros((1, 3))
        q = rng.normal(size=(1, 4))
        q /= np.linalg.norm(q)
        base = rng.uniform(0.25, 0.6)
        anis = rng.uniform(1.0, 4.0)
        scales = base * anis ** (-rng.uniform(0, 1, size=(1, 3)))
        scene = Scene.from_arrays(mean, q, scales, np.array([0.9]),
                                  PreprocessOptions(scale_min=0.01, scale_max=5.0))
        ang = rng.uniform(0, 2 * np.pi)
        lateral = rng.uniform(0.08, 0.25)
        d_xy = np.array([np.cos(ang), np.sin(ang), 0.0])
        perp = np.array([-np.sin(ang), np.cos(ang), 0.0])
        start, goal = -9.0 * d_xy + lateral * perp, 9.0 * d_xy
        kw = dict(a_max=10.0, v_max=2.5, p_k=8.0, activation_radius=6.0, timeout=60.0)
        rec_c = run_trajectory(scene, start, goal, SimConfig(filter="cone", **kw))
        rec_b = run_trajectory(scene, start, goal, SimConfig(filter="distance_baseline", **kw))
        d_c = first_intervention_distance(rec_c, np.zeros(3))
        d_b = first_intervention_distance(rec_b, np.zeros(3))
        if d_c is None or d_b is None:
            continue
        total += 1
        if d_c >= d_b - 1e-9:
            wins += 1
        details.append((d_c, d_b))
    frac = wins / total if total else 0.0
    ok = total >= 20 and frac >= 0.80
    med_c = np.median([d[0] for d in details])
    med_b = np.median([d[1] for d in details])
    assert _report(5, ok, f"head-on scenarios: cone intervened farther in {wins}/{total} "
                          f"({frac:.0%} >= 80%); median first-intervention distance "
                          f"cone {med_c:.2f} vs baseline {med_b:.2f}")


def test_criterion_6_smoothness(ring_batches):
    mc = ring_batches["cone"].aggregate["metrics"]
    mb = ring_batches["distance_baseline"].aggregate["metrics"]
    ok = (mc["isj"]["median"] <= mb["isj"]["median"]
          and mc["rms_j"]["median"] <= mb["rms_j"]["median"])
    assert _report(6, ok, f"median ISJ cone {mc['isj']['median']:.1f} <= baseline "
                          f"{mb['isj']['median']:.1f}; median RMS-J cone "
                          f"{mc['rms_j']['median']:.2f} <= baseline {mb['rms_j']['median']:.2f}")


def test_criterion_7_planning_time(ring_batches):
    tc = ring_batches["cone"].aggregate["timing"]["step_time"]["median"]
    tb = ring_batches["distance_baseline"].aggregate["timing"]["step_time"]["median"]
    ratio = tb / tc
    ok = tc <= tb
    assert _report(7, ok, f"median per-step (build+solve) cone {tc*1e3:.3f} ms <= baseline "
                          f"{tb*1e3:.3f} ms; measured ratio baseline/cone = {ratio:.2f}x "
                          f"(3x not required: different baseline internals)")


def test_criterion_8_solver_correctness():
    rng = np.random.default_rng(55)
    worst_u = worst_kkt = 0.0
    n = 0
    while n < 1000:
        m = rng.integers(0, 6)
        ubar = rng.normal(scale=3.0, size=3)
        normals = rng.normal(size=(m, 3))
        anchor = rng.normal(size=3) * 0.5
        offsets = normals @ anchor - rng.uniform(0.0, 2.0, size=m)
        a_max = rng.uniform(np.linalg.norm(anchor) + 0.1, 6.0)
        prob = FilterProblem(reference=ubar, a_max=a_max,
                             normals=normals.reshape(-1, 3).astype(float),
                             offsets=np.asarray(offsets, dtype=float).ravel())
        sol = solve_filter(prob)
        assert sol.status == "optimal"
        ref = enumeration_projection(ubar, [(normals[i], offsets[i]) for i in range(m)],
                                     (np.zeros(3), a_max))
        worst_u = max(worst_u, float(np.linalg.norm(sol.u - ref)))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        n += 1
    ok = worst_u < 1e-4 and worst_kkt < 1e-6
    assert _report(8, ok, f"{n} random instances: max |u - oracle| {worst_u:.2e} (< 1e-4), "
                          f"max KKT stationarity residual {worst_kkt:.2e} (< 1e-6)")


def test_criterion_9_scale_throughput(tmp_path):
    from splatcone.sceneio import load_ply, save_ply

    scene0 = make_synthetic_scene(
        SyntheticSpec(pattern="clutter", count=170000, extent=17.7,
                      scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0)),
        seed=11)
    ply = tmp_path / "big.ply"
    save_ply(ply, scene0)
    t0 = time.perf_counter()
    scene = load_ply(ply, PreprocessOptions(opacity_min=0.0,
                                            scale_min=scene0.options.scale_min,
                                            scale_max=scene0.options.scale_max))
    build_s = time.perf_counter() - t0
    # float32 round trip is lossless at float32 precision
    assert len(scene) == len(scene0)
    np.testing.assert_allclose(scene.means, scene0.means, rtol=1e-6, atol=1e-5)
    np.testing.assert_allclose(scene.scales, scene0.scales, rtol=1e-5)
    fcfg = FilterConfig(p_k=8.0, activation_radius=5.0, a_max=10.0, v_max=2.5)
    state = RobotState(p=np.zeros(3), v=np.array([1.0, 0.5, 0.2]), t=0.0)
    n_active = scene.query_nearby(state.p, fcfg.activation_radius).size
    u_ref = np.array([2.0, 0.0, 0.0])
    for _ in range(3):
        filter_step(scene, state, u_ref, fcfg)  # warm the JIT cache
    rng = np.random.default_rng(0)
    times = []
    for _ in range(200):
        st = RobotState(p=rng.uniform(-10, 10, size=3), v=rng.normal(size=3), t=0.0)
        t1 = time.perf_counter()
        filter_step(scene, st, u_ref, fcfg)
        times.append(time.perf_counter() - t1)
    hz = 1.0 / float(np.median(times))
    ok = len(scene) >= 170000 and n_active >= 1500 and hz >= 50.0
    assert _report(9, ok, f"{len(scene)} splats PLY-loaded+indexed in {build_s:.1f}s "
                          f"(float32 round trip lossless); filter steps at {hz:.0f} Hz "
                          f"median with ~{n_active}-splat activation set (>= 50 Hz)")


def test_criterion_10_degenerate_suite(ring_scene):
    checks = []
    # v = 0: stationary is not in the cone; strict op raises a distinct error
    g0 = RelativeGeometry(r=np.array([2.0, 0, 0]), v=np.zeros(3), A=np.eye(3), c2=1.0)
    checks.append(cone_status(g0) == "stationary")
    try:
        in_forward_cone(g0)
        checks.append(False)
    except ZeroVelocityError:
        checks.append(True)
    # start inside an ellipsoid: rejected up front by the simulator
    try:
        run_trajectory(ring_scene, np.array([6.5, 0.0, 2.0]), np.array([0.0, 0.0, 2.0]),
                       SimConfig(filter="cone", **BATCH_KW))
        checks.append(False)
    except SimulationError:
        checks.append(True)
    # inside-ellipsoid geometry reports a distinct status
    gi = RelativeGeometry(r=np.array([0.5, 0, 0]), v=np.array([1.0, 0, 0]),
                          A=np.eye(3), c2=1.0)
    try:
        in_forward_cone(gi)
        checks.append(False)
    except InsideEllipsoidError:
        checks.append(True)
    # receding velocity: h < 0 but not in the forward cone
    gr = RelativeGeometry(r=np.array([2.0, 0, 0]), v=np.array([-1.0, 0, 0]),
                          A=np.eye(3), c2=1.0)
    checks.append(in_forward_cone(gr) is False and not oracle_ray_hits(gr))
    # isotropic splat: the rule is the exact Minkowski sum, so a point at
    # distance c s + rho from the mean lies on the inflated surface
    s_iso, rho = 0.5, 0.7
    giso = RelativeGeometry(r=np.array([2.0, 1.0, 0]), v=np.array([0.3, 1.0, 0.2]),
                            A=np.eye(3), c2=1.0)
    r_iso = np.array([0.6, 0.0, 0.8]) * (1.0 * s_iso + rho)
    ginf = inflate(RelativeGeometry(r=r_iso, v=giso.v, A=np.eye(3) / s_iso ** 2, c2=1.0),
                   np.full(3, s_iso), rho)
    checks.append(abs(ginf.gamma) < 1e-12)
    # rho = 0: inflation is the identity, and so is the constraint
    checks.append(inflate(giso, np.array([0.5, 1.0, 2.0]), rho=0.0) is giso)
    c_plain = build_constraint(giso, p_k=2.0)
    c_infl = build_constraint(inflate(giso, np.array([0.5, 1.0, 2.0]), rho=0.0), p_k=2.0)
    checks.append(np.allclose(c_plain.normal, c_infl.normal, atol=1e-12)
                  and abs(c_plain.offset - c_infl.offset) < 1e-12)
    # a negative, NaN or infinite robot radius is rejected
    for bad in (-0.1, float("nan"), float("inf")):
        try:
            inflate(giso, np.ones(3), rho=bad)
            checks.append(False)
        except GeometryError:
            checks.append(True)
    ok = all(checks)
    assert _report(10, ok, f"degenerate-input suite: {sum(checks)}/{len(checks)} behaviors as specified")
