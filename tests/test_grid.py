"""The scene's cell grid (`scene._Grid`): every search it serves finds the
means that a brute-force pass of `_d2`'s rule over all of the scene's
means finds, including means on cell faces, queries outside the scene,
degenerate scenes and radii larger than the scene."""
import dataclasses
import functools

import numpy as np
import pytest

from splatcone import scene as scene_mod
from splatcone.scene import _SCAN_MAX, Scene
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene


def _scene(means):
    n = len(means)
    return Scene.from_arrays(np.asarray(means, dtype=np.float64), np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                             np.full((n, 3), 0.1), np.full(n, 0.9))


def _rule(scene, p, radius):
    """The indices whose mean passes `_d2`'s test, over every mean."""
    p = tuple(np.asarray(p, dtype=np.float64).tolist())
    return (scene_mod._d2(p, scene.means.T) <= radius * radius).nonzero()[0]


def _faces_scene():
    """A scene whose means lie on the faces, edges and corners of its own
    grid's cells: a first scene fixes the bounds, the count and so the
    cells; the second keeps its two corner means and count and puts every
    other mean on a face coordinate of those cells."""
    rng = np.random.default_rng(4)
    n = 400
    corners = np.array([[-3.0, -2.0, -1.0], [4.0, 5.0, 2.5]])
    first = _scene(np.vstack([corners, rng.uniform(corners[0], corners[1], (n - 2, 3))]))
    grid = first._grid
    faces = [a + grid.edge * np.arange(size + 1) for a, size in zip(grid.lo, grid.shape)]
    inner = np.stack([rng.choice(f[(f >= lo) & (f <= hi)], n - 2)
                      for f, lo, hi in zip(faces, corners[0], corners[1])], axis=1)
    scene = _scene(np.vstack([corners, inner]))
    assert scene._grid[:3] == grid[:3]
    return scene, faces


def _degenerate_scenes():
    rng = np.random.default_rng(6)
    wall = rng.uniform(-4.0, 4.0, (300, 3))
    wall[:, 0] = 0.0  # flat: one cell thick
    line = np.zeros((200, 3))
    line[:, 2] = rng.uniform(0.0, 9.0, 200)
    return {"flat": _scene(wall), "line": _scene(line), "single": _scene([[1.0, 2.0, 3.0]]),
            "one_point": _scene(np.tile([0.5, -0.5, 2.0], (7, 1)))}


@functools.cache
def _clutter_25k():
    spec = SyntheticSpec(pattern="clutter", count=25000, extent=17.7 * (25000 / 170000) ** (1 / 3),
                         scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0))
    return make_synthetic_scene(spec, seed=11)


def _queries(scene, rng, k):
    """Points inside the scene, on its means, and outside it."""
    lo, hi = scene.bounds
    span = hi - lo + 1.0
    return np.vstack([rng.uniform(lo, hi, (k, 3)), scene.means[rng.integers(len(scene), size=k)],
                      rng.uniform(lo - 2.0 * span, hi + 2.0 * span, (k, 3))])


def _check_scene(scene, points, radii, monkeypatch):
    """query_nearby (refilled from the grid), nearby_pairs and
    candidate_counts against the rule at every point and radius."""
    monkeypatch.setattr(scene_mod, "_SCAN_MAX", 0)
    for radius in radii:
        owner, idx = scene.nearby_pairs(points, radius)
        assert owner.dtype == idx.dtype == np.intp
        assert (np.diff(owner) >= 0).all()  # point by point
        counts = scene.candidate_counts(points, radius)
        for k, p in enumerate(points):
            want = _rule(scene, p, radius)
            fresh = dataclasses.replace(scene)
            assert np.array_equal(fresh.query_nearby(p, radius), want)
            assert np.array_equal(np.sort(idx[owner == k]), want)
            assert counts[k] >= want.size
    return owner.size


def test_means_on_cell_faces(monkeypatch):
    scene, faces = _faces_scene()
    rng = np.random.default_rng(7)
    # query points on faces too, and radii that reach exactly to faces
    on_faces = np.stack([rng.choice(f, 60) for f in faces], axis=1)
    points = np.vstack([on_faces, _queries(scene, rng, 20)])
    edge = scene._grid.edge
    pairs = _check_scene(scene, points, [edge, 2.0 * edge, 0.37, 1.5, 5.5], monkeypatch)
    assert pairs > 0


@pytest.mark.parametrize("name", ["flat", "line", "single", "one_point"])
def test_degenerate_scenes(name, monkeypatch):
    scene = _degenerate_scenes()[name]
    rng = np.random.default_rng(8)
    points = np.vstack([_queries(scene, rng, 15), scene.means[:3]])
    _check_scene(scene, points, [0.05, 0.7, 3.0], monkeypatch)


@pytest.mark.parametrize("radius", [40.0, 1e6, 1e200])
def test_radius_larger_than_the_scene(radius, monkeypatch):
    scene = _faces_scene()[0]
    points = _queries(scene, np.random.default_rng(9), 4)
    _check_scene(scene, points, [radius], monkeypatch)
    owner, idx = scene.nearby_pairs(points[:1], radius)
    assert idx.size == len(scene)


def test_clutter_above_the_scan_size():
    """A scene larger than _SCAN_MAX refills its list from the grid without
    any patch: each refill's list and answer are the rule's, and so are
    the audit's batched pairs."""
    scene = _clutter_25k()
    assert len(scene) > _SCAN_MAX
    rng = np.random.default_rng(10)
    points = _queries(scene, rng, 20)
    for p in points:
        fresh = dataclasses.replace(scene)
        got = fresh.query_nearby(p, 5.0)
        assert np.array_equal(got, _rule(scene, p, 5.0))
        memo = fresh._memo
        assert np.array_equal(memo.sup, _rule(scene, p, 5.5))
        assert memo.xyz.flags.c_contiguous and np.array_equal(memo.xyz, scene.means[memo.sup].T)
        assert np.array_equal(memo.inv_cov, scene.inv_cov[memo.sup])
    owner, idx = scene.nearby_pairs(points, 1.2)
    for k, p in enumerate(points):
        assert np.array_equal(np.sort(idx[owner == k]), _rule(scene, p, 1.2))


def test_batched_pairs_of_a_trajectory_match_brute_force(monkeypatch):
    """Points along a path share cells; each point still gets its own
    pairs, and the candidate counts bound them."""
    scene = make_synthetic_scene(SyntheticSpec(pattern="ring", count=2400), seed=7)
    t = np.linspace(0.0, 1.0, 300)[:, None]
    points = np.array([-9.0, -1.0, 0.5]) * (1.0 - t) + np.array([9.0, 2.0, 3.5]) * t
    assert _check_scene(scene, points, [0.67, 2.0], monkeypatch) > 0
