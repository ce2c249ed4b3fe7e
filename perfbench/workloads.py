"""The benchmark's workloads: input generation, timed execution, checks.

Each workload is split in two:

* `prepare_*` turns (seed, run length) into inputs. Scene generation, start
  and goal placement and free-space sampling happen here, untimed.
* `execute_*` times set-up (raw inputs to a queryable `Scene`) and the
  control loop, checks every operation, and returns raw measurements.

The program is driven only through its public functions, looked up on their
modules at call time so that `tracing.Tracer` can wrap them.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from splatcone import filter as filter_mod
from splatcone import qp, scene as scene_mod, sceneio, simulator
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene

import checks
from speed import SpeedGauge

# The acceptance suite's ring batch (criteria 4-7).
RING_SPEC = SyntheticSpec(pattern="ring", count=2400, ring_radius=6.5, pillar_count=10,
                          pillar_radius=0.45, height=4.0, scale_range=(0.08, 0.2),
                          anisotropy_range=(1.0, 4.0))
RING_SCENE_SEED = 7
BATCH_KW = dict(a_max=10.0, v_max=2.5, activation_radius=5.0, timeout=60.0,
                p_k=8.0, start_radius=10.0, start_height=2.0)
N_PAIRS = 50
# 10 pillars and 50 pairs: the placement repeats every 5 pairs, and pairs in
# one class (k mod 5) meet the pillars alike. Each run draws the same number
# of pairs from every class, so runs with different seeds hold the same mix.
N_CLASSES = 5

# Criterion 9's clutter scene.
CLUTTER_SPEC = SyntheticSpec(pattern="clutter", count=170000, extent=17.7,
                             scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0))
CLUTTER_SCENE_SEED = 11
CLUTTER_FCFG = filter_mod.FilterConfig(p_k=8.0, activation_radius=5.0, a_max=10.0, v_max=2.5)
PROBE_LEN = 10        # consecutive states per probe, dt apart
PROBE_BOX = 10.0      # probe positions in [-10, 10]^3, as in criterion 9
PD_GAINS = (1.0, 2.0)  # the simulator's default kp, kd
PROBE_BATCH = 64      # candidate probes drawn and checked together

# Nominal cost of one unit of work, used only to size a run to --seconds
# (measured on a 2-core x86 container; a faster machine finishes early).
# The clutter figure includes the untimed solution check of each step.
PAIR_SECONDS = {"cone": 0.95, "distance_baseline": 0.76}
CLUTTER_STEP_SECONDS = 2.2e-3

SETUP_REPEATS = {"ring": 21, "clutter": 5}
GAUGE_EVERY = 32  # filter calls between speed samples (about 50 ms of work)


@dataclass
class Measurement:
    """Raw output of one timed pass."""

    setup_s: list = field(default_factory=list)
    setup_t: list = field(default_factory=list)     # midpoint of each set-up
    step_s: list = field(default_factory=list)      # one filter call each
    step_t: list = field(default_factory=list)      # start of each filter call
    unit_wall_s: list = field(default_factory=list) # per trajectory / per probe
    unit_t: list = field(default_factory=list)      # (start, end) of each unit
    steps: int = 0                                  # control steps completed
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)    # (op id, reason), first few
    success: int = 0                                # reached goal / optimal steps
    outcomes: dict = field(default_factory=dict)
    isj: list = field(default_factory=list)
    untraced: "Measurement | None" = None           # traced runs: the untraced twin
    pass_wall_s: float = 0.0                        # traced runs: whole units, checks included
    gauge: SpeedGauge | None = None                 # untraced runs: machine speed

    def add_step(self, t0: float, t1: float) -> None:
        """Record one filter call; let the gauge sample between calls."""
        self.step_s.append(t1 - t0)
        self.step_t.append(t0)
        if self.gauge is not None:
            self.gauge.tick()

    def add_unit(self, t0: float, t1: float, wall: float) -> None:
        """Record one unit that ran from t0 to t1 and spent `wall` seconds in
        the program."""
        self.unit_wall_s.append(wall)
        self.unit_t.append((t0, t1))

    def gauge_spent(self) -> float:
        return self.gauge.spent_s if self.gauge is not None else 0.0

    @property
    def loop_wall_s(self) -> float:
        """Wall time of the control loop (trajectories, or filter calls)."""
        return float(sum(self.unit_wall_s))

    def fail(self, op, reasons) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append((op, "; ".join(reasons)))


@contextlib.contextmanager
def _timed_filter(filter_name: str, sink: list):
    """Time each call of the simulator's filter step (query through solve).

    Each call is recorded in the Measurement held in `sink[0]`.
    """
    steps = simulator._FILTER_STEPS
    inner = steps[filter_name]
    now = time.perf_counter

    def timed(*args, **kwargs):
        t0 = now()
        out = inner(*args, **kwargs)
        sink[0].add_step(t0, now())
        return out

    steps[filter_name] = timed
    try:
        yield
    finally:
        steps[filter_name] = inner


def _capture_raw_arrays(spec: SyntheticSpec, seed: int):
    """The generator's raw arrays, as passed to `Scene.from_arrays`, and its scene."""
    captured = {}
    orig = scene_mod.Scene.__dict__["from_arrays"]

    def capture(cls, *args, **kwargs):
        captured["args"], captured["kwargs"] = args, kwargs
        return orig.__func__(cls, *args, **kwargs)

    scene_mod.Scene.from_arrays = classmethod(capture)
    try:
        scene = make_synthetic_scene(spec, seed=seed)
    finally:
        scene_mod.Scene.from_arrays = orig
    return captured["args"], captured["kwargs"], scene


def _isj(u: np.ndarray, dt: float) -> float:
    """Integrated squared jerk of a control sequence sampled every dt."""
    j = np.diff(u, axis=0) / dt
    return float(np.sum(j * j) * dt)


# ---------------------------------------------------------------------------
# ring workloads: closed loop through simulator.run_trajectory
# ---------------------------------------------------------------------------

@dataclass
class RingInputs:
    filter: str
    cfg: simulator.SimConfig
    raw_args: tuple
    raw_kwargs: dict
    pairs: list          # (k, start, goal)


def ring_pair_ids(seed: int, per_class: int) -> list[int]:
    """Seeded draw of `per_class` pair indices from each placement class."""
    rng = np.random.default_rng(seed)
    per_class = min(per_class, N_PAIRS // N_CLASSES)
    picks = [rng.choice(np.arange(c, N_PAIRS, N_CLASSES), per_class, replace=False)
             for c in range(N_CLASSES)]
    return [int(k) for k in np.stack(picks, axis=1).ravel()]


def prepare_ring(filter_name: str, seed: int, seconds: float) -> RingInputs:
    cfg = simulator.SimConfig(filter=filter_name, **BATCH_KW)
    raw_args, raw_kwargs, scene = _capture_raw_arrays(RING_SPEC, RING_SCENE_SEED)
    per_class = max(1, int(seconds / (N_CLASSES * PAIR_SECONDS[filter_name]) + 0.5))
    pairs = []
    for k in ring_pair_ids(seed, per_class):
        start, goal = simulator.batch_start_goal(scene, k, N_PAIRS, cfg, cfg.rho)
        pairs.append((k, start, goal))
    return RingInputs(filter_name, cfg, raw_args, raw_kwargs, pairs)


def _units(m: Measurement, units, tracer) -> None:
    """Run each unit of work `fn(measurement)` once, or, with a tracer, twice
    back to back: untraced into `m.untraced` and traced into `m`. Both runs
    of a unit see about the same machine speed, and the order alternates
    between units so that the second run's warm caches favour neither; the
    difference is the tracing overhead."""
    if tracer is None:
        for _, fn in units:
            fn(m)
        return
    m.untraced = Measurement()
    for n, (uid, fn) in enumerate(units):
        for target in ((m.untraced, m) if n % 2 == 0 else (m, m.untraced)):
            t0 = time.perf_counter()
            with tracer.installed() if target is m else contextlib.nullcontext():
                tracer.cur_traj, tracer.cur_step = uid, -1
                fn(target)
            target.pass_wall_s += time.perf_counter() - t0


def _setup(m: Measurement, repeats: int, build, tracer):
    """Time `build()` `repeats` times (traced if a tracer is given), with a
    speed sample before each build and after the last."""
    scene = None
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        for _ in range(repeats):
            scene = None  # drop the previous copy before building the next
            if m.gauge is not None:
                m.gauge.sample()
            t0 = time.perf_counter()
            scene = build()
            t1 = time.perf_counter()
            m.setup_s.append(t1 - t0)
            m.setup_t.append(0.5 * (t0 + t1))
    if m.gauge is not None:
        m.gauge.sample()
    return scene


def _ring_pair(scene, inp: RingInputs, k: int, start, goal, m: Measurement,
               step_sink: list) -> None:
    """One closed-loop trajectory, timed and checked."""
    step_sink[0] = m
    m.attempted += 1
    spent = m.gauge_spent()
    t0 = time.perf_counter()
    try:
        rec = simulator.run_trajectory(scene, start, goal, inp.cfg)
    except qp.SolverError as exc:
        rec = exc
    t1 = time.perf_counter()
    m.add_unit(t0, t1, t1 - t0 - (m.gauge_spent() - spent))
    if isinstance(rec, qp.SolverError):
        m.fail(f"pair {k}", [f"SolverError: {rec}"])
        return
    m.steps += len(rec)
    m.outcomes[rec.outcome] = m.outcomes.get(rec.outcome, 0) + 1
    m.success += rec.outcome == "reached_goal"
    bad = checks.trajectory_violations(rec)
    if bad:
        m.fail(f"pair {k}", bad)
    if len(rec) >= 4:  # compute_metrics' minimum
        m.isj.append(simulator.compute_metrics(rec).isj)


def execute_ring(inp: RingInputs, setup_repeats: int = SETUP_REPEATS["ring"],
                 tracer=None) -> Measurement:
    """One timed pass: set-up, then every pair through `run_trajectory`.
    Untraced passes sample the machine's speed as they go."""
    m = Measurement(gauge=SpeedGauge(GAUGE_EVERY) if tracer is None else None)
    scene = _setup(m, setup_repeats,
                   lambda: scene_mod.Scene.from_arrays(*inp.raw_args, **inp.raw_kwargs), tracer)
    sink = [m]
    units = [(k, lambda mm, k=k, s=s, g=g: _ring_pair(scene, inp, k, s, g, mm, sink))
             for k, s, g in inp.pairs]
    with _timed_filter(inp.filter, sink):
        _units(m, units, tracer)
    return m


# ---------------------------------------------------------------------------
# clutter170k_step: open loop of filter_step calls on a PLY-loaded scene
# ---------------------------------------------------------------------------

@dataclass
class ClutterInputs:
    ply: Path
    load_opts: scene_mod.PreprocessOptions
    states: np.ndarray   # (n_probes, PROBE_LEN, 2, 3): position, velocity
    u_ref: np.ndarray    # (n_probes, PROBE_LEN, 3)
    drawn: int           # probes drawn, including rejected ones
    rejected: int        # probes with some state inside an ellipsoid


def make_probes(scene, rng: np.random.Generator, n_probes: int):
    """Seeded short flights of the nominal controller, all in free space.

    A probe starts at a uniform position in the box with a velocity drawn
    from N(0, I) and flies PROBE_LEN steps under the unfiltered PD reference
    toward a uniform goal (clipped to a_max, as an actuator would). The
    filter is then called at each state with that reference: an open loop,
    since the states do not depend on the filter's output. Probes with a
    state inside an ellipsoid (it would end at `infeasible` before any solve)
    or at or above v_max are redrawn. Candidates are drawn and checked in
    fixed batches, so the result depends only on the generator's state.
    Returns (states, u_ref, drawn, rejected_inside).
    """
    kp, kd = PD_GAINS
    fcfg, dt = CLUTTER_FCFG, CLUTTER_FCFG.dt
    states = np.empty((n_probes, PROBE_LEN, 2, 3))
    u_ref = np.empty((n_probes, PROBE_LEN, 3))
    drawn = rejected = got = 0
    while got < n_probes:
        p = rng.uniform(-PROBE_BOX, PROBE_BOX, size=(PROBE_BATCH, 3))
        v = rng.normal(size=(PROBE_BATCH, 3))
        goal = rng.uniform(-PROBE_BOX, PROBE_BOX, size=(PROBE_BATCH, 3))
        cand_x = np.empty((PROBE_BATCH, PROBE_LEN, 2, 3))
        cand_u = np.empty((PROBE_BATCH, PROBE_LEN, 3))
        for j in range(PROBE_LEN):
            cand_x[:, j, 0], cand_x[:, j, 1] = p, v
            u = kp * (goal - p) - kd * v
            cand_u[:, j] = u
            norm = np.linalg.norm(u, axis=1, keepdims=True)
            u = u * np.minimum(1.0, fcfg.a_max / norm)
            p, v = p + v * dt + 0.5 * dt * dt * u, v + dt * u
        fast = (np.linalg.norm(cand_x[:, :, 1], axis=2) >= fcfg.v_max).any(axis=1)
        margins = simulator.scene_margins(scene, cand_x[~fast, :, 0].reshape(-1, 3))
        inside = np.zeros(PROBE_BATCH, dtype=bool)
        inside[~fast] = (margins.reshape(-1, PROBE_LEN) <= 0.0).any(axis=1)
        for b in np.nonzero(~fast)[0]:
            if got == n_probes:
                break
            drawn += 1
            if inside[b]:
                rejected += 1
                continue
            states[got], u_ref[got] = cand_x[b], cand_u[b]
            got += 1
    return states, u_ref, drawn, rejected


def prepare_clutter(seed: int, seconds: float, workdir: Path) -> ClutterInputs:
    workdir.mkdir(parents=True, exist_ok=True)
    scene0 = make_synthetic_scene(CLUTTER_SPEC, seed=CLUTTER_SCENE_SEED)
    ply = workdir / f"clutter170k-{seed}.ply"
    sceneio.save_ply(ply, scene0)
    opts = scene_mod.PreprocessOptions(opacity_min=0.0, scale_min=scene0.options.scale_min,
                                       scale_max=scene0.options.scale_max)
    del scene0
    scene = sceneio.load_ply(ply, opts)
    n_probes = max(1, int(seconds / (PROBE_LEN * CLUTTER_STEP_SECONDS) + 0.5))
    states, u_ref, drawn, rejected = make_probes(scene, np.random.default_rng(seed), n_probes)
    return ClutterInputs(ply, opts, states, u_ref, drawn, rejected)


@contextlib.contextmanager
def _capture_problems(sink: list):
    """Keep the last program the filter step handed to `solve_filter`."""
    inner = filter_mod.solve_filter

    def capture(problem):
        sink[0] = problem
        return inner(problem)

    filter_mod.solve_filter = capture
    try:
        yield
    finally:
        filter_mod.solve_filter = inner


def _probe(scene, states, u_ref, i: int, last: list, m: Measurement) -> None:
    """Time one `filter_step` per state of probe i and check each solution."""
    now = time.perf_counter
    us = []
    probe_wall = 0.0
    first = now()
    for j in range(states.shape[1]):
        state = simulator.RobotState(p=states[i, j, 0], v=states[i, j, 1])
        last[0] = None
        m.attempted += 1
        t0 = now()
        try:
            sol, _ = filter_mod.filter_step(scene, state, u_ref[i, j], CLUTTER_FCFG)
        except qp.SolverError as exc:
            t1 = now()
            m.add_step(t0, t1)
            probe_wall += t1 - t0
            m.fail(f"probe {i} step {j}", [f"SolverError: {exc}"])
            continue
        t1 = now()
        m.add_step(t0, t1)
        probe_wall += t1 - t0
        m.steps += 1
        m.outcomes[sol.status] = m.outcomes.get(sol.status, 0) + 1
        if sol.status == "optimal":
            m.success += 1
            us.append(sol.u)
            bad = checks.solution_violations(last[0], sol)
            if bad:
                m.fail(f"probe {i} step {j}", bad)
    # the probe's wall time is its filter calls only, without the checks
    m.add_unit(first, now(), probe_wall)
    if len(us) == states.shape[1]:
        m.isj.append(_isj(np.asarray(us), CLUTTER_FCFG.dt))


def run_probes(scene, states, u_ref, m: Measurement, tracer=None) -> None:
    """Every probe of the open loop, timed and checked."""
    last = [None]
    units = [(i, lambda mm, i=i: _probe(scene, states, u_ref, i, last, mm))
             for i in range(states.shape[0])]
    with _capture_problems(last):
        _units(m, units, tracer)


def execute_clutter(inp: ClutterInputs, setup_repeats: int = SETUP_REPEATS["clutter"],
                    tracer=None) -> Measurement:
    """One timed pass: PLY loads, then every probe through `filter_step`.
    Untraced passes sample the machine's speed as they go."""
    m = Measurement(gauge=SpeedGauge(GAUGE_EVERY) if tracer is None else None)
    scene = _setup(m, setup_repeats, lambda: sceneio.load_ply(inp.ply, inp.load_opts), tracer)
    run_probes(scene, inp.states, inp.u_ref, m, tracer=tracer)
    return m


def median(values) -> float:
    """Median, or 0 for no values (keeps the JSON result valid)."""
    return float(statistics.median(values)) if len(values) else 0.0
