#!/usr/bin/env python3
"""In-process A/B of the filter step's cost on recorded ring states.

    python3 tools/step_ab.py PARENT CHANGE [--pairs 0-49] [--passes 5]
        [--steps 0] [--out step_ab.json]

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
there), and the largest relative change of `u`; these are deterministic.
Each step's time is the minimum over the passes; the `timing` block holds
their sum, p50 and p99 per tree, CHANGE against PARENT in percent, and
each tree's distance_baseline over cone reading (criterion 7 compares the
medians).
The `bands` block splits each filter's steps by the number of splats the
step's query returned (`n_active`, from PARENT's first pass) into BANDS,
with each band's step count and, per tree, its timing summary. The
`refills` block gives the same for the steps whose query rebuilt the
neighbour list (a new `Scene._memo.sup`) in PARENT's first pass.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from helpers import RING_KW, RING_PAIRS, RING_SCENE_SEED, RING_SPEC_KW  # noqa: E402

SIDES = ("parent", "change")
FILTERS = ("cone", "distance_baseline")
# (label, lowest n_active, highest) of the row-count bands
BANDS = (("0", 0, 0), ("1-199", 1, 199), ("200-499", 200, 499), ("500+", 500, np.inf))


class _Done(Exception):
    pass


def load_tree(tree: Path, name: str) -> dict:
    """The `simulator`, `synthetic`, `scene` and `sceneio` modules of the
    splatcone package under `tree` (or `tree/src`), imported as package
    `name`."""
    pkg = tree / "src" / "splatcone" if (tree / "src" / "splatcone").is_dir() else tree / "splatcone"
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]  # a tree loaded under this name before
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("simulator", "synthetic", "scene", "sceneio")}


def ring_scene(mods: dict):
    synthetic = mods["synthetic"]
    return synthetic.make_synthetic_scene(synthetic.SyntheticSpec(**RING_SPEC_KW),
                                          seed=RING_SCENE_SEED)


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


def _step_all(mods: dict, scene, filter_name: str, states: list):
    """Each state's (seconds, status, u bytes, active-splat bytes,
    n_active, refill) through one tree's filter step, on a fresh neighbour
    list; refill tells whether the step's query rebuilt the list."""
    sim = mods["simulator"]
    cfg = sim.SimConfig(filter=filter_name, **RING_KW)
    step = sim._FILTER_STEPS[filter_name]
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
        out.append((t1 - t0, sol.status, None if sol.u is None else sol.u.tobytes(),
                    diag["active_splats"].tobytes(), diag["n_active"], listed is not sup))
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


def compare(trees: dict, filters: list[str], pairs: list[int], passes: int, steps: int) -> dict:
    """The report (see the module docstring) for `trees`, side -> tree path."""
    mods = {side: load_tree(Path(tree), f"splatcone_ab_{side}") for side, tree in trees.items()}
    scenes = {side: ring_scene(m) for side, m in mods.items()}
    recorded = {name: record_states(mods[SIDES[0]], scenes[SIDES[0]], name, pairs, steps)
                for name in filters}
    # one unit per pair and filter, the filters interleaved pair by pair, so
    # that the machine's drift reaches both filters and both trees alike
    units = [(name, i) for i in range(len(pairs)) for name in filters]
    best = {(side, name, i): np.full(len(recorded[name][i]), np.inf)
            for side in SIDES for name, i in units}
    first, n_active, refill = {}, {}, {}
    gc.disable()
    try:
        for n in range(passes):
            for k, (name, i) in enumerate(units):
                for side in (SIDES if (n + k) % 2 == 0 else SIDES[::-1]):
                    result = _step_all(mods[side], scenes[side], name, recorded[name][i])
                    np.minimum(best[side, name, i], [r[0] for r in result],
                               out=best[side, name, i])
                    if n == 0:
                        first[side, name, i] = [r[1:4] for r in result]
                        if side == SIDES[0]:
                            n_active[name, i] = [r[4] for r in result]
                            refill[name, i] = [r[5] for r in result]
    finally:
        gc.enable()
    report = {"trees": {side: str(tree) for side, tree in trees.items()}, "pairs": pairs,
              "passes": passes, "steps": steps, "filters": {}, "timing": {}, "bands": {},
              "refills": {}}
    for name in filters:
        got = {side: [x for i in range(len(pairs)) for x in first[side, name, i]]
               for side in SIDES}
        both = list(zip(*got.values()))
        changed = [(a, b) for a, b in both if a[:2] != b[:2]]
        report["filters"][name] = {
            "steps": len(both),
            "changed": len(changed),
            "active_changed": sum(a[2] != b[2] for a, b in both),
            "max_rel_change": max((_rel_change(a[1], b[1]) for a, b in changed), default=0.0),
        }
        seconds = {side: np.concatenate([best[side, name, i] for i in range(len(pairs))])
                   for side in SIDES}
        report["timing"][name] = _timing(seconds)
        active = np.concatenate([n_active[name, i] for i in range(len(pairs))])
        report["bands"][name] = {}
        for label, lo, hi in BANDS:
            inside = (active >= lo) & (active <= hi)
            band = {"steps": int(inside.sum())}
            if inside.any():
                band.update(_timing({side: t[inside] for side, t in seconds.items()}))
            report["bands"][name][label] = band
        rebuilt = np.concatenate([refill[name, i] for i in range(len(pairs))])
        report["refills"][name] = {"steps": int(rebuilt.sum())}
        if rebuilt.any():
            report["refills"][name].update(_timing({side: t[rebuilt] for side, t in seconds.items()}))
    if "cone" in filters and "distance_baseline" in filters:
        t = report["timing"]
        report["timing"]["baseline_over_cone"] = {
            side: {key: t["distance_baseline"][side][key] / t["cone"][side][key]
                   for key in ("sum_ms", "p50_us")} for side in SIDES}
    return report


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
    ap.add_argument("--out", type=Path, help="also write the report to this JSON file")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    report = compare(dict(zip(SIDES, (args.parent, args.change))), list(FILTERS),
                     args.pairs, args.passes, args.steps)
    for name, f in report["filters"].items():
        t = report["timing"][name]
        print(f"{name}: {f['steps']} steps, {f['changed']} changed (max rel {f['max_rel_change']:.3g}), "
              f"{f['active_changed']} active sets changed; "
              + "; ".join(f"{key} {t['parent'][key]:.1f} -> {t['change'][key]:.1f} "
                          f"({t['change_pct'][key]:+.1f}%)" for key in t["parent"]))
        for label, band in report["bands"][name].items():
            print(f"  n_active {label}: {band['steps']} steps"
                  + "".join(f"; {key} {band['parent'][key]:.1f} -> {band['change'][key]:.1f} "
                            f"({band['change_pct'][key]:+.1f}%)"
                            for key in ("sum_ms", "p50_us") if band["steps"]))
        refills = report["refills"][name]
        print(f"  refills: {refills['steps']} steps"
              + "".join(f"; {key} {refills['parent'][key]:.1f} -> {refills['change'][key]:.1f} "
                        f"({refills['change_pct'][key]:+.1f}%)"
                        for key in ("sum_ms", "p50_us", "p99_us") if refills["steps"]))
    if "baseline_over_cone" in report["timing"]:
        for side, r in report["timing"]["baseline_over_cone"].items():
            print(f"baseline/cone {side}: sum {r['sum_ms']:.3f}, p50 {r['p50_us']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
