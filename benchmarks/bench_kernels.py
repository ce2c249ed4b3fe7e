"""Timing of the per-step numpy kernels, the filter solve and one filter step.

Run:  PYTHONPATH=src python3 benchmarks/bench_kernels.py [n_splats] [repeats]

Times the hot per-step kernels (cone rows, exact-inflation cone rows,
baseline rows, audit margins) on a synthetic activation set, the filter
solve on programs whose optimum binds 0, 1 and 2 norm balls, plus the
kd-tree query, the gather and one end-to-end filter step on a 170k-splat
scene. Kernel and solve timings are the best of `repeats` calls after one
warmup call; the 170k-scene timings are medians over 50 distinct
free-space states.
"""
import sys
import time

import numpy as np

from splatcone import kernels
from splatcone.filter import FilterConfig, _gather, filter_step
from splatcone.qp import FilterProblem, norm_balls, solve_filter
from splatcone.simulator import RobotState, pd_reference, scene_margins
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene


N_STATES = 50


def make_batch(rng, m):
    means = rng.normal(size=(m, 3)) * 8.0
    q = rng.normal(size=(m, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    from splatcone.scene import rotation_from_quat
    R = rotation_from_quat(q)
    s = rng.uniform(0.08, 0.3, size=(m, 3))
    inv_s = 1.0 / s
    L = inv_s[:, :, None] * np.swapaxes(R, 1, 2)
    inv_cov = np.einsum("nji,njk->nik", L, L)
    return means, np.ascontiguousarray(inv_cov), s.min(axis=1)


def solve_cases(rng, m):
    """Filter programs with m rows, all slack inside the acceleration ball,
    at a speed just under v_max: the reference decides which balls bind."""
    normals = rng.normal(size=(m, 3))
    offsets = -10.0 * np.linalg.norm(normals, axis=1) * rng.uniform(1.05, 2.0, size=m)
    kw = dict(a_max=10.0, v_current=np.array([2.49, 0.0, 0.0]), v_max=2.5, dt=0.02,
              normals=normals, offsets=offsets)
    refs = (np.array([-1.0, 0.5, 0.2]),   # inside both balls
            np.array([0.0, 3.0, 30.0]),   # beyond a_max, speed kept
            np.array([5.0, 30.0, 0.0]))   # beyond a_max, and faster
    return [FilterProblem(reference=ref, **kw) for ref in refs]


def binding_balls(prob, u):
    Q, R = norm_balls(prob.a_max, prob.v_current, prob.v_max, prob.dt)
    return int((np.linalg.norm(u - Q, axis=1) >= R * (1 - 1e-7)).sum())


def free_space_states(scene, rng, n):
    """n robot states in [-10, 10]^3 outside every ellipsoid, with a speed
    up to v_max and a PD reference toward a random goal. Distinct states
    keep each call's gathered rows out of cache, as in a closed loop."""
    states, refs = [], []
    while len(states) < n:
        p = rng.uniform(-10.0, 10.0, size=3)
        if scene_margins(scene, p)[0] <= 0.0:
            continue
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 2.5) / np.linalg.norm(v)
        states.append(RobotState(p=p, v=v, t=0.0))
        refs.append(pd_reference(states[-1], rng.uniform(-10.0, 10.0, size=3), (1.0, 2.0)))
    return states, refs


def median_over_states(fn, n, repeats):
    """Median time of fn(k) over k = 0..n-1, `repeats` passes after a warmup pass."""
    for k in range(n):
        fn(k)
    times = []
    for _ in range(repeats):
        for k in range(n):
            t0 = time.perf_counter()
            fn(k)
            times.append(time.perf_counter() - t0)
    return float(np.median(times))


def timeit(fn, repeats):
    fn()  # warmup
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    repeats = int(sys.argv[2]) if len(sys.argv) > 2 else 50
    rng = np.random.default_rng(0)
    means, inv_cov, s_min = make_batch(rng, m)
    p = np.zeros(3)
    v = np.array([1.0, 0.4, -0.2])
    c2eff = np.full(m, 11.345)
    pts = rng.normal(size=(256, 3)) * 8.0

    cases = {
        "cone_rows": lambda: kernels.cone_rows(p, v, means, inv_cov, c2eff, 1.0),
        "cone_rows_inflated": lambda: kernels.cone_rows_inflated(
            p, v, means, inv_cov, s_min, 3.368, 0.3, 1.0),
        "baseline_rows": lambda: kernels.baseline_rows(p, v, means, inv_cov, c2eff, 1.0, 1.0),
        "min_margin(256 pts)": lambda: kernels.min_margin(pts, means, inv_cov, c2eff),
    }

    print(f"batch kernels, m = {m} splats, best of {repeats}")
    for name, fn in cases.items():
        print(f"{name:24s} {timeit(fn, repeats)*1e6:10.1f}us")

    print(f"\nfilter solve, {min(m, 400)} rows, by binding norm balls, best of {repeats}")
    for prob in solve_cases(rng, min(m, 400)):
        k = binding_balls(prob, solve_filter(prob).u)
        print(f"{f'solve_filter, {k} binding':24s} {timeit(lambda: solve_filter(prob), repeats)*1e6:10.1f}us")

    print(f"\n170k-splat scene, ~2000 active, {N_STATES} free-space states, "
          f"median per call over {repeats} passes")
    scene = make_synthetic_scene(
        SyntheticSpec(pattern="clutter", count=170000, extent=17.7,
                      scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0)),
        seed=11)
    cfg = FilterConfig(p_k=8.0, activation_radius=5.0, a_max=10.0, v_max=2.5)
    states, refs = free_space_states(scene, rng, N_STATES)
    idxs = [scene.query_nearby(s.p, cfg.activation_radius) for s in states]
    print(f"active splats: median {int(np.median([i.size for i in idxs]))}")
    calls = {
        "query_nearby": lambda k: scene.query_nearby(states[k].p, cfg.activation_radius),
        "gather": lambda k: _gather(scene, idxs[k]),
        "filter_step": lambda k: filter_step(scene, states[k], refs[k], cfg),
    }
    med = {name: median_over_states(fn, N_STATES, repeats) for name, fn in calls.items()}
    for name, t in med.items():
        print(f"{name:24s} {t*1e6:10.1f}us")
    print(f"{'filter_step rate':24s} {1.0/med['filter_step']:10.0f}Hz")


if __name__ == "__main__":
    main()
