#!/usr/bin/env python3
"""Rounding-sensitivity gauge of the acceptance ring batch.

    python3 tools/rounding_gauge.py [--out GAUGE_rounding.json]

Reruns the acceptance batch (`tests/helpers.py`: `ring_scene`, `RING_KW`,
its 50 pairs) under `cone` and `distance_baseline`, once clean and once
per noise seed 0 .. SEEDS - 1. A noisy run wraps `kernels.cone_rows` and
`kernels.baseline_rows` from outside, as perfbench's tracer does, and
multiplies their normals and offsets by 1 + EPS N(0, 1), drawn from
`np.random.default_rng(seed)`; the kernels are restored when the run ends.
This is Monte Carlo arithmetic (Parker, Pierce & Eggert 2000,
CiSE) applied at the row kernels' outputs: it shows how far a change of a
few ulp in the rows moves the batch.

Per pair the gauge reports the outcome, the steps, the steps at
|v| < 1e-3 (`slow_steps`) and the longest run of them (`longest_stall`).
Per filter it lists the outcomes that changed under noise, the pairs whose
step count moved by more than 10 in each seed, and each pair's min and max
over the noise seeds. Wall-clock seconds go in the `timing` block only.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import RING_KW, RING_PAIRS, ring_scene  # noqa: E402
from splatcone import kernels  # noqa: E402
from splatcone.simulator import SimConfig, batch_start_goal, run_trajectory  # noqa: E402

FILTERS = ("cone", "distance_baseline")
SLOW = 1e-3      # |v| below which a step counts as stalled
MOVED = 10       # a pair's step count moved when it changed by more than this
SEEDS = 3        # noise seeds 0 .. SEEDS - 1
EPS = 2e-16      # relative scale of the row noise, about one ulp


@contextlib.contextmanager
def row_noise(seed: int, eps: float):
    """Within the block, the row kernels' normals and offsets carry relative
    noise eps N(0, 1), drawn in call order from one generator."""
    rng = np.random.default_rng(seed)
    saved = {name: getattr(kernels, name) for name in ("cone_rows", "baseline_rows")}

    def noisy(kernel):
        def wrapped(*args, **kwargs):
            normals, offsets, *rest = kernel(*args, **kwargs)
            normals = normals * (1.0 + eps * rng.standard_normal(normals.shape))
            offsets = offsets * (1.0 + eps * rng.standard_normal(offsets.shape))
            return (normals, offsets, *rest)
        return wrapped

    try:
        for name, kernel in saved.items():
            setattr(kernels, name, noisy(kernel))
        yield
    finally:
        for name, kernel in saved.items():
            setattr(kernels, name, kernel)


def run_pairs(filter_name: str, pairs: int) -> list[dict]:
    """Outcome, steps, slow steps and longest stall of each pair."""
    scene = ring_scene()
    cfg = SimConfig(filter=filter_name, **RING_KW)
    out = []
    for k in range(pairs):
        start, goal = batch_start_goal(scene, k, RING_PAIRS, cfg, cfg.rho)
        record = run_trajectory(scene, start, goal, cfg)
        slow = np.linalg.norm(record.v, axis=1) < SLOW
        longest = run = 0
        for s in slow.tolist():
            run = run + 1 if s else 0
            longest = max(longest, run)
        out.append({"pair": k, "outcome": record.outcome, "steps": len(record),
                    "slow_steps": int(slow.sum()), "longest_stall": longest})
    return out


def summarize(clean: list[dict], noisy: dict[str, list[dict]]) -> dict:
    """The changes noise made to one filter's batch."""
    changed = [{"pair": c["pair"], "seed": seed, "clean": c["outcome"], "noisy": n["outcome"]}
               for seed, runs in noisy.items() for c, n in zip(clean, runs)
               if n["outcome"] != c["outcome"]]
    moved = {seed: [c["pair"] for c, n in zip(clean, runs) if abs(n["steps"] - c["steps"]) > MOVED]
             for seed, runs in noisy.items()}
    spread = [{"pair": c["pair"],
               **{key: [min(r[key] for r in per_seed), max(r[key] for r in per_seed)]
                  for key in ("steps", "slow_steps", "longest_stall")}}
              for c, *per_seed in zip(clean, *noisy.values())]
    totals = {key: sum(r[key] for r in clean) for key in ("steps", "slow_steps")}
    return {"clean_reached_goal": sum(c["outcome"] == "reached_goal" for c in clean),
            "clean_totals": totals, "outcome_changes": changed,
            f"pairs_moved_over_{MOVED}_steps": moved, "spread_over_seeds": spread}


def gauge(pairs: int, seeds: int, eps: float) -> dict:
    report = {"pairs": pairs, "noise_seeds": list(range(seeds)), "eps": eps,
              "slow_speed": SLOW, "filters": {}, "timing": {}}
    for name in FILTERS:
        t0 = time.perf_counter()
        clean = run_pairs(name, pairs)
        noisy = {}
        for seed in range(seeds):
            with row_noise(seed, eps):
                noisy[str(seed)] = run_pairs(name, pairs)
        report["timing"][name + "_s"] = time.perf_counter() - t0
        report["filters"][name] = {"clean": clean, "noisy": noisy,
                                   "summary": summarize(clean, noisy)}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=str(ROOT / "GAUGE_rounding.json"))
    args = ap.parse_args(argv)
    report = gauge(RING_PAIRS, SEEDS, EPS)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for name, entry in report["filters"].items():
        s = entry["summary"]
        print(f"{name}: {s['clean_reached_goal']}/{RING_PAIRS} reached, "
              f"{len(s['outcome_changes'])} outcome changes, pairs moved per seed "
              f"{[len(v) for v in s[f'pairs_moved_over_{MOVED}_steps'].values()]}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
