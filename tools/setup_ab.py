#!/usr/bin/env python3
"""In-process A/B of scene set-up: the ring's build and the 170k-splat PLY load.

    python3 tools/setup_ab.py PARENT CHANGE [--rounds 40]
        [--clutter-count 170000] [--out setup_ab.json]

PARENT and CHANGE are source trees (a checkout, or a `git archive` copy:
any directory holding `src/splatcone`), each loaded in this process under
a name of its own (`step_ab.load_tree`). Two set-ups are timed, as the
benchmark times them:

* `ring_from_arrays`: `Scene.from_arrays` of the acceptance ring's raw
  splat arrays (`tests/helpers.py`: `RING_SPEC_KW`, `RING_SCENE_SEED`), as
  PARENT's generator hands them to it;
* `clutter_load_ply`: `sceneio.load_ply` of criterion 9's clutter scene
  (`--clutter-count` splats, 170,000 by default), written once by PARENT's
  `save_ply` (`step_ab.write_clutter`) to a temporary directory, with the
  benchmark's load options.

Each tree builds each set-up once untimed; then every round times each
tree on each set-up, the tree that goes first alternating from round to
round, so that the machine's drift reaches both trees alike (Kalibera &
Jones 2013, "Rigorous benchmarking in reasonable time"). A round's time is
the mean of REPEATS consecutive builds: the ring's build runs warm, as in
the benchmark's repeated set-up, and not just after a 170k-splat load has
flushed the caches. No scene is held from one build to the next. Per
set-up the report gives whether the two trees' first scenes have the same
arrays and, where both have one, the same spatial grid (`same_bits`),
per tree the median and quartiles of its times in ms, CHANGE's median over
PARENT's (`ratio`), and the rounds each tree was faster in.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from step_ab import CLUTTER_SPEC_KW, SIDES, load_tree, write_clutter  # noqa: E402
from helpers import RING_SCENE_SEED, RING_SPEC_KW  # noqa: E402  (on step_ab's path)

ARRAYS = ("means", "quats", "scales", "opacities", "inv_cov", "s_min", "bounds")
# consecutive builds per round and set-up
REPEATS = {"ring_from_arrays": 5, "clutter_load_ply": 1}


def ring_raw(mods: dict) -> tuple:
    """The (args, kwargs) the ring's generator passes to `Scene.from_arrays`."""
    scene_cls = mods["scene"].Scene
    build = scene_cls.__dict__["from_arrays"]
    captured = []

    def capture(cls, *args, **kwargs):
        captured.append((args, kwargs))
        return build.__func__(cls, *args, **kwargs)

    scene_cls.from_arrays = classmethod(capture)
    try:
        synthetic = mods["synthetic"]
        synthetic.make_synthetic_scene(synthetic.SyntheticSpec(**RING_SPEC_KW),
                                       seed=RING_SCENE_SEED)
    finally:
        scene_cls.from_arrays = build
    return captured[0]


def same_bits(a, b) -> bool:
    """Whether scenes a and b have the same arrays and, when both index
    their means with a grid (a tree from before the grid has a kd-tree),
    the same grid: every field, arrays as bytes."""
    grids = [getattr(scene, "_grid", None) for scene in (a, b)]
    return (all(np.array_equal(getattr(a, name), getattr(b, name)) for name in ARRAYS)
            and (None in grids or all(np.array_equal(x, y) for x, y in zip(*grids))))


def _summary(seconds: list[float]) -> dict:
    q1, median, q3 = np.percentile(seconds, [25, 50, 75])
    return {"median_ms": 1e3 * median, "q1_ms": 1e3 * q1, "q3_ms": 1e3 * q3}


def compare(trees: dict, rounds: int, clutter_count: int) -> dict:
    """The report (see the module docstring) for `trees`, side -> tree path."""
    mods = {side: load_tree(Path(tree), f"splatcone_setup_{side}") for side, tree in trees.items()}
    args, kwargs = ring_raw(mods[SIDES[0]])
    with tempfile.TemporaryDirectory() as tmp:
        ply = Path(tmp) / "clutter.ply"
        fields = dataclasses.asdict(write_clutter(mods[SIDES[0]], clutter_count, ply))
        opts = {side: m["scene"].PreprocessOptions(**fields) for side, m in mods.items()}
        builds = {
            "ring_from_arrays": {side: (lambda m=m: m["scene"].Scene.from_arrays(*args, **kwargs))
                                 for side, m in mods.items()},
            "clutter_load_ply": {side: (lambda m=m, o=opts[side]: m["sceneio"].load_ply(ply, o))
                                 for side, m in mods.items()},
        }
        report = {"trees": {side: str(tree) for side, tree in trees.items()},
                  "rounds": rounds, "clutter_count": clutter_count,
                  "cpus": len(os.sched_getaffinity(0)), "setups": {}}
        seconds = {(name, side): [] for name in builds for side in SIDES}
        for name, build in builds.items():
            first = {side: build[side]() for side in SIDES}
            report["setups"][name] = {"same_bits": same_bits(*first.values())}
            del first
        clock = time.perf_counter
        gc.disable()
        try:
            for n in range(rounds):
                for name, build in builds.items():
                    for side in (SIDES if n % 2 == 0 else SIDES[::-1]):
                        t0 = clock()
                        for _ in range(REPEATS[name]):
                            build[side]()
                        seconds[name, side].append((clock() - t0) / REPEATS[name])
        finally:
            gc.enable()
    for name in builds:
        entry = report["setups"][name]
        for side in SIDES:
            entry[side] = _summary(seconds[name, side])
        entry["ratio"] = entry[SIDES[1]]["median_ms"] / entry[SIDES[0]]["median_ms"]
        paired = list(zip(seconds[name, SIDES[0]], seconds[name, SIDES[1]]))
        entry[f"{SIDES[1]}_wins"] = sum(c < p for p, c in paired)
        entry[f"{SIDES[0]}_wins"] = sum(p < c for p, c in paired)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="the source tree to compare against")
    ap.add_argument("change", type=Path, help="the source tree under test")
    ap.add_argument("--rounds", type=int, default=40, help="timed rounds")
    ap.add_argument("--clutter-count", type=int, default=CLUTTER_SPEC_KW["count"],
                    help="splats in the clutter scene (default: criterion 9's)")
    ap.add_argument("--out", type=Path, help="also write the report to this JSON file")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    report = compare(dict(zip(SIDES, (args.parent, args.change))), args.rounds,
                     args.clutter_count)
    for name, r in report["setups"].items():
        print(f"{name}: same bits {r['same_bits']}; median {r['parent']['median_ms']:.3f} -> "
              f"{r['change']['median_ms']:.3f} ms (ratio {r['ratio']:.3f}); "
              f"change faster in {r['change_wins']} of {report['rounds']} rounds, "
              f"parent in {r['parent_wins']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
