#!/usr/bin/env python3
"""Closed-loop benchmark of the splatcone safety filter.

    python3 perfbench/run.py --workload ring_cone --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root (or any checkout of it). `--trace 0` measures
the end-to-end metrics; `--trace 1` runs every trajectory (or probe) of the
same inputs untraced and then traced, and reports the per-layer metrics plus
the tracing overhead. Human-readable lines come first; the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Run metadata,
per-metric sample counts and (traced) spans are written under
`.perfbench_out/` at the checkout root. See perfbench/README.md.
"""
from __future__ import annotations

import os

# One simulated robot on one core: cap BLAS / OpenMP pools before numpy loads.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("ring_cone", "ring_baseline", "clutter170k_step")



def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) as name -> unit, in BENCHMARK.json's order.

    BENCHMARK.json is the one list of metric names and units; a run whose
    computed metrics differ from it fails instead of printing a result.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-1 over the program's source files, for checkouts without .git."""
    h = hashlib.sha1()
    for path in sorted((SRC / "splatcone").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


CALIBRATION_SAMPLES = 15


def calibrate() -> float:
    """Median wall seconds of the reference loop; recorded before and after
    each workload so that machine drift shows next to its numbers."""
    import workloads as wl
    from speed import reference_loop

    return wl.median([reference_loop() for _ in range(CALIBRATION_SAMPLES)])


def metadata(args) -> dict:
    import numpy
    import scipy
    from splatcone import kernels

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "source_sha1": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "kernel_backend": kernels.active_backend(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _prepare(name: str, seed: int, seconds: float):
    import workloads as wl

    if name == "ring_cone":
        return wl.prepare_ring("cone", seed, seconds)
    if name == "ring_baseline":
        return wl.prepare_ring("distance_baseline", seed, seconds)
    return wl.prepare_clutter(seed, seconds, OUT)


def _execute(name: str, inputs, **kwargs):
    import workloads as wl

    if name == "clutter170k_step":
        return wl.execute_clutter(inputs, **kwargs)
    return wl.execute_ring(inputs, **kwargs)


def _timings(steps_s, unit_wall_s, setup_s, steps: int) -> dict:
    import numpy as np
    import workloads as wl

    return {
        "steps_per_s": steps / float(np.sum(unit_wall_s)),
        "step_p50_ms": float(np.percentile(steps_s, 50)) * 1e3,
        "step_p99_ms": float(np.percentile(steps_s, 99)) * 1e3,
        "setup_s": wl.median(setup_s),
    }


def end_to_end(m, meta: dict) -> tuple[dict, dict]:
    """(metrics, sample counts) from one untraced measurement.

    Timed figures are scaled to the reference speed by the run's speed
    gauge (see speed.py); the raw wall-clock figures go to `meta`.
    """
    import numpy as np
    import workloads as wl

    g = m.gauge
    unit_scale = [float(np.mean(g.scale(np.linspace(a, b, 9)))) for a, b in m.unit_t]
    metrics = _timings(np.asarray(m.step_s) * g.scale(m.step_t),
                       np.asarray(m.unit_wall_s) * unit_scale,
                       np.asarray(m.setup_s) * g.scale(m.setup_t), m.steps)
    meta["raw_wall_clock"] = _timings(m.step_s, m.unit_wall_s, m.setup_s, m.steps)
    meta["gauge"] = {"samples": len(g.ref), "ref_median_s": wl.median(g.ref),
                     "ref_min_s": min(g.ref), "ref_max_s": max(g.ref),
                     "spent_s": g.spent_s}
    metrics.update({
        "success_rate": m.success / m.attempted,
        "isj_median": wl.median(m.isj),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    samples = {
        "steps_per_s": m.steps,
        "step_p50_ms": len(m.step_s),
        "step_p99_ms": len(m.step_s),
        "success_rate": m.attempted,
        "isj_median": len(m.isj),
        "setup_s": len(m.setup_s),
        "peak_rss_mb": 1,
    }
    return metrics, samples


def run_one(args) -> int:
    import workloads as wl

    OUT.mkdir(parents=True, exist_ok=True)
    meta = metadata(args)
    t_start = time.perf_counter()
    meta["calibration_before_s"] = calibrate()
    # a traced run executes every unit twice, so it gets half the inputs
    inputs = _prepare(args.workload, args.seed, args.seconds / (2 if args.trace else 1))
    meta["prepare_s"] = time.perf_counter() - t_start
    if args.workload == "clutter170k_step":
        meta["probes"] = int(inputs.states.shape[0])
        meta["probe_draws"] = inputs.drawn
        meta["probe_rejected_inside"] = inputs.rejected
        meta["probe_rejection_rate"] = inputs.rejected / max(1, inputs.drawn)
    else:
        meta["pairs"] = [k for k, _, _ in inputs.pairs]

    try:
        if args.trace:
            metrics, samples, runs = _traced(args, inputs, meta)
        else:
            m = _execute(args.workload, inputs)
            metrics, samples = end_to_end(m, meta)
            runs = [m]
    finally:
        if args.workload == "clutter170k_step":
            inputs.ply.unlink(missing_ok=True)
    meta["calibration_after_s"] = calibrate()
    meta["outcomes"] = runs[0].outcomes
    meta["loop_wall_s"] = [r.loop_wall_s for r in runs]
    failures = [f for r in runs for f in r.failures]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    meta["failures"] = failures
    meta["total_s"] = time.perf_counter() - t_start

    units = declared_metrics()[1 if args.trace else 0]
    if set(metrics) != set(units):
        raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    metrics = {k: metrics[k] for k in units}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]:9s} n={samples[name]}")
    for op, why in failures[:5]:
        print(f"  FAILED {op}: {why}")
    print("meta " + json.dumps(meta, default=str))

    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, samples=samples, meta=meta)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


def _traced(args, inputs, meta):
    """One pass in which every trajectory (or probe) runs untraced and
    traced, back to back. The program is deterministic, so the two runs of
    each unit must agree."""
    import layers
    from tracing import Tracer

    tracer = Tracer()
    traced = _execute(args.workload, inputs, setup_repeats=3, tracer=tracer)
    plain = traced.untraced
    if (len(plain.step_s) != len(traced.step_s) or plain.outcomes != traced.outcomes
            or plain.isj != traced.isj):
        traced.fail("traced pass", ["differs from the untraced pass (steps, outcomes or ISJ)"])
    metrics, samples = layers.layer_metrics(tracer, traced_wall=traced.loop_wall_s,
                                            untraced_wall=plain.loop_wall_s,
                                            pass_wall=traced.pass_wall_s)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans)
    meta["spans_file"] = str(spans.relative_to(ROOT))
    meta["spans"] = len(tracer.start)
    return metrics, samples, [plain, traced]


# ---------------------------------------------------------------------------
# all workloads, one command
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        rows[name] = json.loads(lines[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print()
    print(f"{'metric':36s}" + "".join(f"{w:>20s}" for w in rows))
    for metric in names:
        unit = rows[WORKLOADS[0]]["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':36s}"
              + "".join(f"{r['metrics'][metric]['value']:20.6g}" for r in rows.values()))
    print(f"{'failed/attempted':36s}"
          + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>20s}" for r in rows.values()))
    combined = {
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{w}.{k}": v for w, r in rows.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "splatcone" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'splatcone'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
