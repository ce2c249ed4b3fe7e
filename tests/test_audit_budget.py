"""The collision audit's pair budget: however the points are split into runs
of (point, splat) pairs, each point's margin is the reference audit's bit for
bit, and a reach that holds millions of pairs is audited in bounded memory."""
import tracemalloc
import types

import numpy as np
import pytest

import reference_step as ref
from helpers import ring_scene
from splatcone import simulator
from splatcone.scene import _pair_blocks
from splatcone.simulator import scene_margins
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene
from test_step_pins import dense_min_margin


@pytest.fixture(autouse=True)
def _reference_audit_kernel(monkeypatch):
    monkeypatch.setattr(ref, "kernels", types.SimpleNamespace(min_margin=dense_min_margin))


def test_pair_blocks_cover_the_points_within_budget():
    counts = np.array([0, 3, 4, 0, 0, 9, 1, 1, 2, 0])
    blocks = list(_pair_blocks(counts, 4))
    assert blocks == [(0, 2), (2, 5), (5, 6), (6, 10)]
    assert list(_pair_blocks(counts, 10**9)) == [(0, 10)]
    assert list(_pair_blocks(np.zeros(0, dtype=np.intp), 4)) == []


@pytest.mark.parametrize("budget", [1, 40, 5000])
def test_split_audit_bit_identical(budget, monkeypatch):
    monkeypatch.setattr(simulator, "_AUDIT_PAIRS", budget)
    scene = ring_scene()
    points = np.random.default_rng(5).uniform(-8.0, 8.0, (300, 3))
    points[:100] = scene.means[:100] + 0.05
    for rho in (0.0, 0.2):
        got = scene_margins(scene, points, rho)
        assert (got < 0).any() and np.isinf(got).any()
        assert np.array_equal(got, ref.scene_margins(scene, points, rho))


def test_wide_reach_audit_bit_identical_in_bounded_memory():
    # criterion 9's splat density at rho 3: about 6k pairs per point, 3.7M
    # in all, which one 128-point block used to hold at up to 819k pairs
    # (137.5 MB traced)
    clutter = make_synthetic_scene(
        SyntheticSpec(pattern="clutter", count=20000, extent=8.67,
                      scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0)),
        seed=11)
    rng = np.random.default_rng(3)
    points = np.concatenate([rng.uniform(-8.67, 8.67, (400, 3)),
                             clutter.means[:200] + rng.normal(scale=0.1, size=(200, 3)),
                             rng.uniform(12.0, 20.0, (20, 3))])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = scene_margins(clutter, points, 3.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert (got < 0).any() and np.isinf(got).any()
    assert np.array_equal(got, ref.scene_margins(clutter, points, 3.0))
