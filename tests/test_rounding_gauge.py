"""tools/rounding_gauge.py perturbs the row kernels and nothing else."""
import importlib.util
from pathlib import Path

import numpy as np

from splatcone import kernels

_PATH = Path(__file__).resolve().parent.parent / "tools" / "rounding_gauge.py"
_spec = importlib.util.spec_from_file_location("rounding_gauge", _PATH)
rounding_gauge = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rounding_gauge)


def test_zero_noise_reproduces_the_clean_batch():
    report = rounding_gauge.gauge(pairs=2, seeds=1, eps=0.0)
    assert set(report["filters"]) == {"cone", "distance_baseline"}
    for entry in report["filters"].values():
        assert entry["noisy"]["0"] == entry["clean"]
        summary = entry["summary"]
        assert summary["outcome_changes"] == [] and summary["pairs_moved_over_10_steps"] == {"0": []}
        assert [s["steps"] for s in summary["spread_over_seeds"]] == [[c["steps"]] * 2
                                                                      for c in entry["clean"]]


def test_noise_reaches_both_row_kernels_and_is_removed():
    rng = np.random.default_rng(1)
    means = rng.normal(size=(5, 3))
    inv_cov = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
    p, v = np.zeros(3), np.array([1.0, 0.5, 0.0])
    calls = {"cone_rows": (p, v, means, inv_cov, 1.0, 8.0),
             "baseline_rows": (p, v, means, inv_cov, 1.0, 2.0, 2.0)}
    clean = {name: getattr(kernels, name)(*args) for name, args in calls.items()}
    with rounding_gauge.row_noise(0, 1e-6):
        noisy = {name: getattr(kernels, name)(*args) for name, args in calls.items()}
    for name, args in calls.items():
        got, want = noisy[name], clean[name]
        for k in (0, 1):  # normals and offsets: relative noise of about 1e-6
            rel = np.abs(got[k] / want[k] - 1.0)
            assert 0.0 < rel.max() < 1e-4
        for g, w in zip(got[2:], want[2:]):  # the rest passes through
            assert np.array_equal(g, w)
        # restored on exit
        assert all(np.array_equal(g, w) for g, w in zip(getattr(kernels, name)(*args), want))
