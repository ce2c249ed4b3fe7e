"""The scene's cell grid (`scene._Grid`): every search it serves finds the
means that a brute-force pass of `_d2`'s rule over all of the scene's
means finds, including means on cell faces, queries outside the scene,
degenerate scenes and radii larger than the scene."""
import dataclasses
import functools
import math
import types

import numpy as np
import pytest

import reference_step as ref
from helpers import all_pairs, candidate_counts, ring_scene
from splatcone import scene as scene_mod, simulator
from splatcone.scene import _SCAN_MAX, PreprocessOptions, Scene
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene
from test_step_pins import dense_min_margin


def _scene(means, opts=None):
    n = len(means)
    return Scene.from_arrays(np.asarray(means, dtype=np.float64), np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)),
                             np.full((n, 3), 0.1), np.full(n, 0.9), opts)


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
    assert scene._grid[:4] == grid[:4]  # lo, hi, edge, shape
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


def _check_starts(grid):
    """The grid's table of cell starts is `searchsorted` of its means'
    sorted cell keys over every cell and one past, and its order sorts
    those keys."""
    key = np.zeros(len(grid.order), dtype=np.intp)
    for col, a, size in zip(grid.means.T, grid.lo, grid.shape):
        key = key * size + scene_mod._cells(col, a, grid.edge, 0.0, size - 1.0)
    keys = np.sort(key)
    assert np.array_equal(key[grid.order], keys)
    assert grid.starts.dtype == np.intp
    assert np.array_equal(grid.starts, np.searchsorted(keys, np.arange(math.prod(grid.shape) + 1)))


def _check_scene(scene, points, radii, monkeypatch):
    """The grid's table of cell starts, then query_nearby (refilled from
    the grid), nearby_pairs (in blocks of at most 64 candidates) and the
    candidate counts of its grid search against the rule at every point
    and radius."""
    _check_starts(scene._grid)
    monkeypatch.setattr(scene_mod, "_SCAN_MAX", 0)
    for radius in radii:
        owner, idx = all_pairs(scene, points, radius, 64)
        assert owner.dtype == idx.dtype == np.intp
        assert (np.diff(owner) >= 0).all()  # point by point
        counts = candidate_counts(scene, points, radius)
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


def test_means_spanning_more_than_a_float_make_one_cell(monkeypatch):
    """Means at x = +-1e308, whose extent overflows to inf, and a few near
    the origin: the grid is one cell of infinite edge, and every search,
    and the audit's margins, still find what a scan of every mean finds."""
    rng = np.random.default_rng(12)
    means = np.vstack([[[-1e308, 0.0, 0.0], [1e308, 0.0, 0.0]], rng.uniform(-1.0, 1.0, (30, 3))])
    # explicit clamps: the default ones scale with the scene's diameter, inf here
    with np.errstate(over="ignore", invalid="ignore"):
        scene = _scene(means, PreprocessOptions(scale_min=0.01, scale_max=1.0))
    grid = scene._grid
    assert grid.edge == math.inf and grid.shape == (1, 1, 1)
    points = np.vstack([means[:3], rng.uniform(-1.5, 1.5, (40, 3))])
    # the reference audit scans every mean (the scene is below _SCAN_MAX)
    monkeypatch.setattr(ref, "kernels", types.SimpleNamespace(min_margin=dense_min_margin))
    with np.errstate(over="ignore", invalid="ignore"):
        want = ref.scene_margins(scene, points)
        got = simulator.scene_margins(scene, points)
        assert (want < 0).any() and np.array_equal(got, want)
        _check_scene(scene, points, [0.05, 0.7, 3.0], monkeypatch)


def test_points_just_beyond_the_side_faces(monkeypatch):
    """Audit points just beyond the grid's -x, -y, +x and +y faces, their
    other coordinates inside it: their stencils' columns off the grid have
    keys that read an end of the table of cell starts or, at iy = -1 or
    ny, a real cell at the grid's far y side, and each such run is
    emptied: every candidate lies within the radius plus two cell
    diagonals of its point. The audit's margins and every search match
    brute force."""
    scene = _faces_scene()[0]
    grid = scene._grid
    lo, hi = np.array(grid.lo), np.array(grid.hi)
    reach = simulator.audit_reach(scene)
    assert reach < grid.edge
    rng = np.random.default_rng(14)
    points = []
    for axis, face, out in ((0, lo, -1.0), (1, lo, -1.0), (0, hi, 1.0), (1, hi, 1.0)):
        p = rng.uniform(lo, hi, (40, 3))
        p[:, axis] = face[axis] + out * reach * rng.uniform(0.01, 0.9, 40)
        points.append(p)
    points = np.vstack(points)
    monkeypatch.setattr(ref, "kernels", types.SimpleNamespace(min_margin=dense_min_margin))
    want = ref.scene_margins(scene, points)
    assert np.isfinite(want).sum() >= 20
    assert np.array_equal(simulator.scene_margins(scene, points), want)
    for radius in (reach, 1.5):
        start, end = scene_mod._runs(grid, points, radius)
        for p, a, b in zip(points, start, end):
            near = grid.xyz[:, scene_mod._positions(a, b)]
            assert (np.linalg.norm(near.T - p, axis=1) <= radius + 2.0 * math.sqrt(3.0) * grid.edge).all()
    assert _check_scene(scene, points, [0.37, grid.edge, 1.5], monkeypatch) > 0


@pytest.mark.parametrize("radius", [40.0, 1e6, 1e200])
def test_radius_larger_than_the_scene(radius, monkeypatch):
    scene = _faces_scene()[0]
    points = _queries(scene, np.random.default_rng(9), 4)
    _check_scene(scene, points, [radius], monkeypatch)
    owner, idx = all_pairs(scene, points[:1], radius)
    assert idx.size == len(scene)


def test_clutter_above_the_scan_size():
    """A scene larger than _SCAN_MAX refills its list from the grid without
    any patch: each refill's list and answer are the rule's, and so are
    the audit's batched pairs."""
    scene = _clutter_25k()
    assert len(scene) > _SCAN_MAX
    _check_starts(scene._grid)
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
    owner, idx = all_pairs(scene, points, 1.2)
    for k, p in enumerate(points):
        assert np.array_equal(np.sort(idx[owner == k]), _rule(scene, p, 1.2))


def test_batched_pairs_of_a_trajectory_match_brute_force(monkeypatch):
    """Points along a path share cells; each point still gets its own
    pairs, and the candidate counts bound them."""
    scene = make_synthetic_scene(SyntheticSpec(pattern="ring", count=2400), seed=7)
    t = np.linspace(0.0, 1.0, 300)[:, None]
    points = np.array([-9.0, -1.0, 0.5]) * (1.0 - t) + np.array([9.0, 2.0, 3.5]) * t
    assert _check_scene(scene, points, [0.67, 2.0], monkeypatch) > 0


@pytest.mark.parametrize("budget", [1, 60, 1 << 12])
def test_pair_blocks_stay_in_one_grid_search(budget, monkeypatch):
    """nearby_pairs searches the grid once per _COUNT_ROWS rows and splits
    those rows into blocks that cover them in order: no block crosses a
    search's rows, and each holds at most `budget` candidates unless it is
    one row."""
    monkeypatch.setattr(scene_mod, "_COUNT_ROWS", 16)
    searches = []
    runs = scene_mod._runs

    def counted(grid, points, radius):
        searches.append(len(points))
        return runs(grid, points, radius)

    monkeypatch.setattr(scene_mod, "_runs", counted)
    scene = ring_scene()
    t = np.linspace(0.0, 1.0, 90)[:, None]
    points = np.vstack([np.array([-9.0, -1.0, 0.5]) * (1.0 - t) + np.array([9.0, 2.0, 3.5]) * t,
                        scene.means[::300]])
    counts = candidate_counts(scene, points, 2.0)
    searches.clear()
    blocks = list(scene.nearby_pairs(points, 2.0, budget))
    assert searches == [16] * (len(points) // 16) + [len(points) % 16]
    assert [lo for lo, *_ in blocks] == [0] + [hi for _, hi, *_ in blocks[:-1]]
    assert blocks[-1][1] == len(points)
    for lo, hi, owner, idx in blocks:
        assert lo // 16 == (hi - 1) // 16
        assert hi - lo == 1 or counts[lo:hi].sum() <= budget
        assert ((0 <= owner) & (owner < hi - lo)).all() and owner.size == idx.size
    # a small budget splits a search's rows, the default keeps them whole
    assert (len(blocks) > len(searches)) == (budget < 1 << 12)


def test_replace_rebuilds_the_grid_of_other_means():
    """`dataclasses.replace` keeps the grid of the same means, so a fresh
    neighbour list costs no build, and builds one for other means: a grid
    carried over would search the old positions, and the audit would find
    no splat at a splat's own mean."""
    ring = ring_scene()
    assert dataclasses.replace(ring)._grid is ring._grid
    moved = dataclasses.replace(ring, means=ring.means + 100.0)
    assert moved._grid is not ring._grid
    for got, want in zip(moved._grid, scene_mod._index(moved.means)):
        assert np.array_equal(got, want)
    margin = simulator.scene_margins(moved, moved.means[:1])[0]
    rebuilt = dataclasses.replace(moved, _grid=None)
    assert margin < 0.0 and margin == simulator.scene_margins(rebuilt, rebuilt.means[:1])[0]
