"""tools/bench_record.py folds perfbench result files into one record."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _result(tmp_path, side, seed, steps_per_s, p99, trace=0, failed=0):
    rec = {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"steps_per_s": {"value": steps_per_s, "unit": "1/s"},
                    "step_p99_ms": {"value": p99, "unit": "ms"}},
        "meta": {"workload": "clutter170k_step", "seed": seed, "seconds": 25.0,
                 "trace": trace, "commit": "abc", "source_sha1": side},
    }
    path = tmp_path / f"{side}-{seed}-{trace}.json"
    path.write_text(json.dumps(rec))
    return str(path)


def test_sides_fold_into_quartiles_and_pairs(tmp_path):
    parent = [_result(tmp_path, "p", s, v, 1.0) for s, v in ((1, 100.0), (2, 110.0), (3, 90.0))]
    change = [_result(tmp_path, "c", s, v, p99, failed=f)
              for s, v, p99, f in ((1, 120.0, 0.9, 0), (2, 105.0, 1.2, 1), (3, 130.0, 1.0, 0))]
    out = tmp_path / "BENCH_x.json"
    assert bench_record.main(["--label", "x", "--out", str(out),
                              "--side", "parent", *parent, "--side", "change", *change]) == 0
    rec = json.loads(out.read_text())
    par = rec["sides"]["parent"]["clutter170k_step"]["end_to_end"]
    assert par["seeds"] == [1, 2, 3]
    assert par["metrics"]["steps_per_s"]["values"] == [100.0, 110.0, 90.0]
    assert (par["metrics"]["steps_per_s"]["median"], par["metrics"]["steps_per_s"]["q1"],
            par["metrics"]["steps_per_s"]["q3"]) == (100.0, 95.0, 105.0)
    chg = rec["sides"]["change"]["clutter170k_step"]["end_to_end"]
    assert (chg["correct"], chg["attempted"], chg["failed"]) == (False, 300, 1)
    pairs = rec["pairs"]["clutter170k_step"]["end_to_end"]
    assert (pairs["steps_per_s"]["better"], pairs["steps_per_s"]["worse"]) == (2, 1)
    assert pairs["steps_per_s"]["median_ratio"] == pytest.approx(1.2)
    assert pairs["steps_per_s"]["base_iqr"] == pytest.approx(10.0)
    # lower is better for the tail; a tie counts for neither side
    assert (pairs["step_p99_ms"]["better"], pairs["step_p99_ms"]["worse"]) == (1, 1)


def _pairs(tmp_path, base, change, trace=0):
    """The record's pairs for parent runs `base` and change runs `change`,
    each a list of (steps_per_s, step_p99_ms), one seed per entry."""
    files = []
    for seed, (b, c) in enumerate(zip(base, change)):
        files.append(_result(tmp_path, f"p{seed}", seed, *b, trace=trace))
        files.append(_result(tmp_path, f"c{seed}", seed, *c, trace=trace))
    out = tmp_path / "BENCH_r.json"
    bench_record.main(["--label", "r", "--out", str(out),
                       "--side", "parent", *files[0::2], "--side", "change", *files[1::2]])
    kind = "per_layer" if trace else "end_to_end"
    return json.loads(out.read_text())["pairs"]["clutter170k_step"][kind]


def test_resolved_needs_nine_tenths_of_pairs_and_a_gain_beyond_the_iqr(tmp_path):
    # ten pairs; the parent's steps_per_s quartiles are 102.25 and 106.75
    base = [100.0 + s for s in range(10)]

    def record(change):
        return _pairs(tmp_path, [(b, 1.0) for b in base], [(c, 1.0) for c in change])

    # better in 10 of 10 pairs by 10, beyond the IQR of 4.5
    pairs = record([b + 10.0 for b in base])
    assert pairs["steps_per_s"]["base_iqr"] == pytest.approx(4.5)
    assert pairs["steps_per_s"]["resolved"] is True
    # a tie counts for neither side: 9 of 10 still resolves
    assert record([base[0]] + [b + 10.0 for b in base[1:]])["steps_per_s"]["resolved"] is True
    # 8 of 10 does not, however large the gain
    assert record(base[:2] + [b + 50.0 for b in base[2:]])["steps_per_s"]["resolved"] is False
    # 10 of 10 by less than the IQR does not
    assert record([b + 4.0 for b in base])["steps_per_s"]["resolved"] is False
    # nor does a metric that got worse
    assert record(base)["step_p99_ms"]["resolved"] is False


def test_regression_reads_the_bound_of_benchmark_json(tmp_path):
    # steps_per_s (higher is better) and step_p99_ms (lower) both have the
    # bound 0.25; the parent's steps_per_s median is 104.5, its IQR 4.5
    base = [(100.0 + s, 1.0) for s in range(10)]

    def reading(change, parent=base):
        pairs = _pairs(tmp_path, parent, change)
        return pairs["steps_per_s"]["regression"], pairs["step_p99_ms"]["regression"]

    assert reading(base) == ("no", "no")
    # worse by 20 of 104.5 and by 0.2 of 1.0: within the bound
    assert reading([(v - 20.0, p99 + 0.2) for v, p99 in base]) == ("no", "no")
    # worse by 30 and by 0.3: beyond it
    assert reading([(v - 30.0, p99 + 0.3) for v, p99 in base]) == ("yes", "yes")
    # a parent spread wider than the bound (IQR 54 of a median 94) tells
    # nothing, unless every change run beats every parent run
    wide = [(40.0 + 12.0 * s, 1.0) for s in range(10)]
    assert reading(wide, wide)[0] == "unresolved"
    assert reading([(v + 200.0, p99) for v, p99 in wide], wide)[0] == "no"
    assert reading([(v + 100.0, p99) for v, p99 in wide], wide)[0] == "unresolved"
    # the per-layer (traced) metrics carry no reading
    assert "regression" not in _pairs(tmp_path, base, base, trace=1)["steps_per_s"]
