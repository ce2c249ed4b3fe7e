#!/usr/bin/env python3
"""In-process A/B of the filter step's cost on recorded ring states, or on
perfbench's clutter probes.

    python3 tools/step_ab.py PARENT CHANGE [--pairs 0-49] [--passes 5]
        [--steps 0] [--out step_ab.json]
    python3 tools/step_ab.py PARENT CHANGE --clutter SEED [--probes 455]
        [--passes 5] [--out step_ab.json]

PARENT and CHANGE are source trees (a checkout, or a `git archive` copy:
any directory holding `src/splatcone`). Each tree's package is loaded in
this process under a name of its own. The acceptance ring batch's pairs
(`tests/helpers.py`: `RING_SPEC_KW`, `RING_KW`, pair k of `RING_PAIRS`)
are flown once with PARENT's closed loop under `cone` and under
`distance_baseline`, recording each step's state and reference
(p, v, u_ref); `--steps N` keeps the first N steps of a pair.
Every pass then steps each pair's states, in trajectory order, through
each tree's filter step on that tree's own ring scene, with a fresh
neighbour list per pair so that the list behaves as in the loop. The
pairs of all filters are interleaved, and the two trees take turns on each
pair, the tree that goes first alternating.
Paired measurement in one process removes the drift between batches
(Kalibera & Jones 2013, "Rigorous benchmarking in reasonable time").

Per filter the report gives the step count, the steps whose status or `u`
bytes differ between the trees (the first pass's), the steps whose active
splats (`diag["active_splats"]`, the neighbour query's answer) differ as
bytes (`active_changed`: an answer that changes without moving `u` shows
there), the steps whose solver diagnostics (`active_ids`, `kkt_residual`)
differ as bytes (`diagnostics_changed`; they are read after the step's
clock stops, in the first pass only, since a solve may leave them to their
first read), and the largest relative change of `u`; these are
deterministic.
Each step's time is the minimum over the passes; the `timing` block holds
their sum, p50 and p99 per tree, CHANGE against PARENT in percent, and
each tree's distance_baseline over cone reading (criterion 7 compares the
medians).
The `bands` block splits each filter's steps by the number of splats the
step's query returned (`n_active`, from PARENT's first pass) into BANDS,
with each band's step count and, per tree, its timing summary. The
`refills` block gives the same for the steps whose query rebuilt the
neighbour list (a new `Scene._memo.sup`) in PARENT's first pass, and the
`filtered` block for the other steps.

`--clutter SEED` steps perfbench's `clutter170k_step` probes instead
(`perfbench/workloads.py`): criterion 9's 170k-splat scene, written by
PARENT's `save_ply` and loaded by each tree's `load_ply` with the
benchmark's options, and the first `--probes` probes that perfbench's
`make_probes` draws for SEED (455, the count of a 10 s run), drawn with
PARENT's audit. Each probe's PROBE_LEN states go through each tree's
`filter.filter_step` under the benchmark's cone config, on a fresh
neighbour list per probe, so that its first step refills the list as in
the benchmark; the probes stand for the pairs above.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from helpers import RING_KW, RING_PAIRS, RING_SCENE_SEED, RING_SPEC_KW  # noqa: E402

SIDES = ("parent", "change")
FILTERS = ("cone", "distance_baseline")
# probes of perfbench's clutter170k_step in a 10 s run
PROBES = 455
# criterion 9's clutter scene, as the benchmark makes it
CLUTTER_SPEC_KW = dict(pattern="clutter", count=170000, extent=17.7,
                       scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0))
CLUTTER_SCENE_SEED = 11
# (label, lowest n_active, highest) of the row-count bands
BANDS = (("0", 0, 0), ("1-199", 1, 199), ("200-499", 200, 499), ("500+", 500, np.inf))


class _Done(Exception):
    pass


def load_tree(tree: Path, name: str) -> dict:
    """The `simulator`, `synthetic`, `scene`, `sceneio` and `filter`
    modules of the splatcone package under `tree` (or `tree/src`),
    imported as package `name`."""
    pkg = tree / "src" / "splatcone" if (tree / "src" / "splatcone").is_dir() else tree / "splatcone"
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # a tree loaded under this name before
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("simulator", "synthetic", "scene", "sceneio", "filter")}


def ring_scene(mods: dict):
    synthetic = mods["synthetic"]
    return synthetic.make_synthetic_scene(synthetic.SyntheticSpec(**RING_SPEC_KW),
                                          seed=RING_SCENE_SEED)


def write_clutter(mods: dict, count: int, path: Path):
    """Write the clutter scene of `count` splats to `path`; the load
    options the benchmark uses."""
    synthetic, scene_mod = mods["synthetic"], mods["scene"]
    spec = synthetic.SyntheticSpec(**{**CLUTTER_SPEC_KW, "count": count})
    scene0 = synthetic.make_synthetic_scene(spec, seed=CLUTTER_SCENE_SEED)
    mods["sceneio"].save_ply(path, scene0)
    return scene_mod.PreprocessOptions(opacity_min=0.0, scale_min=scene0.options.scale_min,
                                       scale_max=scene0.options.scale_max)


def _perfbench_workloads():
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return importlib.import_module("workloads")


def clutter_probes(mods: dict, seed: int, probes: int) -> tuple:
    """(scenes, states, cfgs, drawn, rejected): each tree's clutter scene,
    the first `probes` probes perfbench draws for `seed` as lists of
    (p, v, u_ref), each tree's cone config, and perfbench's counts of
    probes drawn and rejected."""
    workloads = _perfbench_workloads()
    assert workloads.CLUTTER_SPEC == workloads.SyntheticSpec(**CLUTTER_SPEC_KW)
    with tempfile.TemporaryDirectory() as tmp:
        ply = Path(tmp) / "clutter.ply"
        fields = dataclasses.asdict(write_clutter(mods[SIDES[0]], CLUTTER_SPEC_KW["count"], ply))
        scenes = {side: m["sceneio"].load_ply(ply, m["scene"].PreprocessOptions(**fields))
                  for side, m in mods.items()}
    # the probes' audit is PARENT's, as in a perfbench run of PARENT
    own = workloads.simulator
    workloads.simulator = mods[SIDES[0]]["simulator"]
    try:
        states, u_ref, drawn, rejected = workloads.make_probes(
            scenes[SIDES[0]], np.random.default_rng(seed), probes)
    finally:
        workloads.simulator = own
    fcfg = dataclasses.asdict(workloads.CLUTTER_FCFG)
    cfgs = {side: m["filter"].FilterConfig(**fcfg) for side, m in mods.items()}
    probe_states = [[(x[0], x[1], u) for x, u in zip(xs, us)] for xs, us in zip(states, u_ref)]
    return scenes, probe_states, cfgs, drawn, rejected


def record_states(mods: dict, scene, filter_name: str, pairs: list[int], steps: int) -> list:
    """Per pair, the (p, v, u_ref) of every filter step of its closed-loop
    run under `filter_name` (the first `steps` of them when steps > 0)."""
    sim = mods["simulator"]
    cfg = sim.SimConfig(filter=filter_name, **RING_KW)
    inner = sim._FILTER_STEPS[filter_name]
    out = []
    for k in pairs:
        states = []

        def recorder(scene_, state, u_ref, cfg_):
            states.append((state.p.copy(), state.v.copy(), np.array(u_ref, dtype=np.float64)))
            if len(states) == steps:
                raise _Done
            return inner(scene_, state, u_ref, cfg_)

        start, goal = sim.batch_start_goal(scene, k, RING_PAIRS, cfg, cfg.rho)
        sim._FILTER_STEPS[filter_name] = recorder
        try:
            sim.run_trajectory(dataclasses.replace(scene), start, goal, cfg)
        except _Done:
            pass
        finally:
            sim._FILTER_STEPS[filter_name] = inner
        out.append(states)
    return out


def _ring_step(mods: dict, filter_name: str) -> tuple:
    """One tree's (filter step, config) of the ring batch's `filter_name`."""
    sim = mods["simulator"]
    return sim._FILTER_STEPS[filter_name], sim.SimConfig(filter=filter_name, **RING_KW)


def _step_all(mods: dict, scene, stepper: tuple, states: list, diagnose: bool = False):
    """Each state's (seconds, status, u bytes, active-splat bytes,
    diagnostics bytes, n_active, refill) through one tree's filter step
    `stepper`, (step, config), on a fresh neighbour list; refill tells
    whether the step's query rebuilt the list. The diagnostics bytes (the
    solution's `active_ids` and `kkt_residual`, read outside the timed
    region) are None unless `diagnose`."""
    sim = mods["simulator"]
    step, cfg = stepper
    scene = dataclasses.replace(scene)
    robot = [(sim.RobotState(p=p, v=v, t=0.0), u_ref) for p, v, u_ref in states]
    out = []
    clock = time.perf_counter
    sup = None
    for state, u_ref in robot:
        t0 = clock()
        sol, diag = step(scene, state, u_ref, cfg)
        t1 = clock()
        listed = getattr(scene._memo, "sup", None)
        solver = (np.asarray(sol.active_ids).tobytes() + np.float64(sol.kkt_residual).tobytes()
                  if diagnose else None)
        out.append((t1 - t0, sol.status, None if sol.u is None else sol.u.tobytes(),
                    diag["active_splats"].tobytes(), solver, diag["n_active"],
                    listed is not sup))
        sup = listed
    return out


def _summary(seconds: np.ndarray) -> dict:
    return {"sum_ms": 1e3 * float(seconds.sum()),
            "p50_us": 1e6 * float(np.percentile(seconds, 50)),
            "p99_us": 1e6 * float(np.percentile(seconds, 99))}


def _timing(seconds: dict) -> dict:
    """Per tree the summary of its per-step seconds, and CHANGE against
    PARENT in percent."""
    timing = {side: _summary(seconds[side]) for side in SIDES}
    timing["change_pct"] = {key: 100.0 * (timing[SIDES[1]][key] / timing[SIDES[0]][key] - 1.0)
                            for key in timing[SIDES[0]]}
    return timing


def _rel_change(a: bytes | None, b: bytes | None) -> float:
    if a is None or b is None:
        return 0.0 if a == b else float("inf")
    ua, ub = np.frombuffer(a), np.frombuffer(b)
    return float(np.linalg.norm(ub - ua) / max(np.linalg.norm(ua), 1e-300))


def compare(trees: dict, filters: list[str], pairs: list[int], passes: int, steps: int,
            clutter: int | None = None, probes: int = PROBES) -> dict:
    """The report (see the module docstring) for `trees`, side -> tree
    path: of the ring batch's `pairs`, or with `clutter` a seed, of that
    seed's first `probes` clutter probes under `cone`."""
    mods = {side: load_tree(Path(tree), f"splatcone_ab_{side}") for side, tree in trees.items()}
    report = {"trees": {side: str(tree) for side, tree in trees.items()}, "passes": passes,
              "filters": {}, "timing": {}, "bands": {}, "refills": {}, "filtered": {}}
    if clutter is None:
        report.update(pairs=pairs, steps=steps)
        scenes = {side: ring_scene(m) for side, m in mods.items()}
        recorded = {name: record_states(mods[SIDES[0]], scenes[SIDES[0]], name, pairs, steps)
                    for name in filters}
        steppers = {(side, name): _ring_step(mods[side], name) for side in SIDES for name in filters}
    else:
        filters = ["cone"]
        scenes, states, cfgs, drawn, rejected = clutter_probes(mods, clutter, probes)
        report["clutter"] = {"seed": clutter, "probes": probes, "drawn": drawn,
                             "rejected": rejected}
        recorded = {"cone": states}
        steppers = {(side, "cone"): (mods[side]["filter"].filter_step, cfgs[side])
                    for side in SIDES}
    count = len(recorded[filters[0]])
    # one unit per pair and filter, the filters interleaved pair by pair, so
    # that the machine's drift reaches both filters and both trees alike
    units = [(name, i) for i in range(count) for name in filters]
    best = {(side, name, i): np.full(len(recorded[name][i]), np.inf)
            for side in SIDES for name, i in units}
    first, n_active, refill = {}, {}, {}
    gc.disable()
    try:
        for n in range(passes):
            for k, (name, i) in enumerate(units):
                for side in (SIDES if (n + k) % 2 == 0 else SIDES[::-1]):
                    result = _step_all(mods[side], scenes[side], steppers[side, name],
                                       recorded[name][i], diagnose=n == 0)
                    np.minimum(best[side, name, i], [r[0] for r in result],
                               out=best[side, name, i])
                    if n == 0:
                        first[side, name, i] = [r[1:5] for r in result]
                        if side == SIDES[0]:
                            n_active[name, i] = [r[5] for r in result]
                            refill[name, i] = [r[6] for r in result]
    finally:
        gc.enable()
    for name in filters:
        got = {side: [x for i in range(count) for x in first[side, name, i]] for side in SIDES}
        both = list(zip(*got.values()))
        changed = [(a, b) for a, b in both if a[:2] != b[:2]]
        report["filters"][name] = {
            "steps": len(both),
            "changed": len(changed),
            "active_changed": sum(a[2] != b[2] for a, b in both),
            "diagnostics_changed": sum(a[3] != b[3] for a, b in both),
            "max_rel_change": max((_rel_change(a[1], b[1]) for a, b in changed), default=0.0),
        }
        seconds = {side: np.concatenate([best[side, name, i] for i in range(count)])
                   for side in SIDES}
        report["timing"][name] = _timing(seconds)
        active = np.concatenate([n_active[name, i] for i in range(count)])
        report["bands"][name] = {}
        for label, lo, hi in BANDS:
            report["bands"][name][label] = _part(seconds, (active >= lo) & (active <= hi))
        rebuilt = np.concatenate([refill[name, i] for i in range(count)]).astype(bool)
        report["refills"][name] = _part(seconds, rebuilt)
        report["filtered"][name] = _part(seconds, ~rebuilt)
    if "cone" in filters and "distance_baseline" in filters:
        t = report["timing"]
        report["timing"]["baseline_over_cone"] = {
            side: {key: t["distance_baseline"][side][key] / t["cone"][side][key]
                   for key in ("sum_ms", "p50_us")} for side in SIDES}
    return report


def _part(seconds: dict, steps: np.ndarray) -> dict:
    """The step count of the mask `steps` and, when it selects any, per
    tree the timing of those steps."""
    part = {"steps": int(steps.sum())}
    if steps.any():
        part.update(_timing({side: t[steps] for side, t in seconds.items()}))
    return part


def _pairs(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="the source tree to compare against")
    ap.add_argument("change", type=Path, help="the source tree under test")
    ap.add_argument("--pairs", type=_pairs, default=_pairs(f"0-{RING_PAIRS - 1}"),
                    help="ring batch pairs, e.g. 0-9,20 (default: all)")
    ap.add_argument("--passes", type=int, default=5, help="timed passes; a step's time is their minimum")
    ap.add_argument("--steps", type=int, default=0, help="steps kept per pair (0: all)")
    ap.add_argument("--clutter", type=int, metavar="SEED",
                    help="step perfbench's clutter probes of this seed instead of the ring")
    ap.add_argument("--probes", type=int, default=PROBES,
                    help=f"clutter probes stepped (default {PROBES})")
    ap.add_argument("--out", type=Path, help="also write the report to this JSON file")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    if args.probes < 1:
        ap.error("--probes must be at least 1")
    report = compare(dict(zip(SIDES, (args.parent, args.change))), list(FILTERS),
                     args.pairs, args.passes, args.steps, args.clutter, args.probes)
    if "clutter" in report:
        c = report["clutter"]
        print(f"clutter seed {c['seed']}: {c['probes']} probes, {c['drawn']} drawn, "
              f"{c['rejected']} rejected")
    for name, f in report["filters"].items():
        t = report["timing"][name]
        print(f"{name}: {f['steps']} steps, {f['changed']} changed (max rel {f['max_rel_change']:.3g}), "
              f"{f['active_changed']} active sets changed, "
              f"{f['diagnostics_changed']} diagnostics changed; "
              + "; ".join(f"{key} {t['parent'][key]:.1f} -> {t['change'][key]:.1f} "
                          f"({t['change_pct'][key]:+.1f}%)" for key in t["parent"]))
        for label, band in report["bands"][name].items():
            print(f"  n_active {label}: {band['steps']} steps"
                  + "".join(f"; {key} {band['parent'][key]:.1f} -> {band['change'][key]:.1f} "
                            f"({band['change_pct'][key]:+.1f}%)"
                            for key in ("sum_ms", "p50_us") if band["steps"]))
        for part in ("refills", "filtered"):
            r = report[part][name]
            print(f"  {part}: {r['steps']} steps"
                  + "".join(f"; {key} {r['parent'][key]:.1f} -> {r['change'][key]:.1f} "
                            f"({r['change_pct'][key]:+.1f}%)"
                            for key in ("sum_ms", "p50_us", "p99_us") if r["steps"]))
    if "baseline_over_cone" in report["timing"]:
        for side, r in report["timing"]["baseline_over_cone"].items():
            print(f"baseline/cone {side}: sum {r['sum_ms']:.3f}, p50 {r['p50_us']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
