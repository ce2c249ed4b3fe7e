#!/usr/bin/env python3
"""Fold perfbench result files into one committed BENCH_<label>.json.

    python3 tools/bench_record.py --label query_memo \\
        --side parent PARENT/.perfbench_out/result-*-seed93*-trace0.json \\
        --side change .perfbench_out/result-*-seed93*-trace0.json

Each `--side NAME FILE...` names one version of the program and the
perfbench result files (`result-<workload>-seed<n>-trace<t>.json`) of its
runs. Per side and workload the record keeps the runs' seeds, whether every
run was `correct`, the attempted and failed operation counts, the checkout's
HEAD and source digest as perfbench recorded them, and per metric the value
of every run with its median and quartiles. Untraced runs (`--trace 0`) give
the end-to-end metrics, traced runs the per-layer metrics. With two sides,
`pairs` compares the second against the first on the seeds both ran: per
metric, the number of pairs in which the second side is better, in the
direction BENCHMARK.json declares, and the ratio of the medians. A metric
is `resolved` as better when the second side wins at least nine tenths of
the pairs (ties count for neither) and its median beats the first side's by
more than the first side's interquartile range (`base_iqr`). Each
end-to-end metric also gets the no-regression reading against the bound
BENCHMARK.json fixes for it, relative to the first side's median:
`regression` is "no" when the second side's median is worse by no more than
the bound, "yes" when it is worse by more, and "unresolved" when the first
side's interquartile range is wider than the bound, unless every run of the
second side beats every run of the first.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def fold(paths: list[str]) -> dict:
    """workload -> {"end_to_end" | "per_layer": summary of its runs}."""
    runs: dict[tuple[str, str], list[dict]] = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        kind = "per_layer" if rec["meta"]["trace"] else "end_to_end"
        runs.setdefault((rec["meta"]["workload"], kind), []).append(rec)
    out: dict[str, dict] = {}
    for (workload, kind), recs in sorted(runs.items()):
        recs.sort(key=lambda r: r["meta"]["seed"])
        metrics = {}
        for name, m in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs]
            metrics[name] = {"unit": m["unit"], **quartiles(values), "values": values}
        out.setdefault(workload, {})[kind] = {
            "seeds": [r["meta"]["seed"] for r in recs],
            "seconds": sorted({r["meta"]["seconds"] for r in recs}),
            "correct": all(r["correct"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "head": sorted({str(r["meta"]["commit"]) for r in recs}),
            "source_sha1": sorted({r["meta"]["source_sha1"] for r in recs}),
            "metrics": metrics,
        }
    return out


def regression(base: dict, other: dict, sign: float, bound: float) -> str:
    """The no-regression reading of one metric, `sign` 1 when higher is
    better: "no", "yes" or "unresolved" (see the module docstring)."""
    allowed = bound * abs(base["median"])
    if base["q3"] - base["q1"] > allowed:
        bv, ov = base["values"], other["values"]
        if not (min(ov) > max(bv) if sign > 0 else max(ov) < min(bv)):
            return "unresolved"
    return "yes" if sign * (base["median"] - other["median"]) > allowed else "no"


def compare(base: dict, other: dict, better: dict, bounds: dict) -> dict:
    """Per workload and metric: pairs on common seeds where `other` is
    better, and for a metric with a bound its no-regression reading."""
    out: dict[str, dict] = {}
    for workload, kinds in other.items():
        for kind, o in kinds.items():
            b = base.get(workload, {}).get(kind)
            if b is None:
                continue
            common = sorted(set(b["seeds"]) & set(o["seeds"]))
            if not common:
                continue
            table = {}
            for name, om in o["metrics"].items():
                bm = b["metrics"].get(name)
                if bm is None or name not in better:
                    continue
                bv = dict(zip(b["seeds"], bm["values"]))
                ov = dict(zip(o["seeds"], om["values"]))
                sign = 1.0 if better[name] == "higher" else -1.0
                wins = sum(sign * (ov[s] - bv[s]) > 0 for s in common)
                base_iqr = bm["q3"] - bm["q1"]
                table[name] = {
                    "pairs": len(common),
                    "better": wins,
                    "worse": sum(sign * (ov[s] - bv[s]) < 0 for s in common),
                    "median_ratio": (om["median"] / bm["median"] if bm["median"] else None),
                    "base_iqr": base_iqr,
                    "resolved": bool(10 * wins >= 9 * len(common)
                                     and sign * (om["median"] - bm["median"]) > base_iqr),
                }
                if kind == "end_to_end" and name in bounds:
                    table[name]["regression"] = regression(bm, om, sign, bounds[name])
            out.setdefault(workload, {})[kind] = table
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="the record is BENCH_<label>.json")
    ap.add_argument("--side", nargs="+", action="append", required=True,
                    metavar=("NAME", "FILE"), help="a side's name and its result files")
    ap.add_argument("--note", default="", help="free text kept in the record")
    ap.add_argument("--out", help="output path (default: BENCH_<label>.json at the root)")
    args = ap.parse_args(argv)
    if any(len(side) < 2 for side in args.side):
        ap.error("each --side takes a name and at least one result file")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    sides = {side[0]: fold(side[1:]) for side in args.side}
    record = {"label": args.label, "note": args.note, "sides": sides}
    if len(sides) == 2:
        base, other = sides.values()
        record["pairs"] = compare(base, other, better, bounds)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
