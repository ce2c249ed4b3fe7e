"""Gaussian splat scenes: geometric types, preprocessing, spatial indexing.

A splat is an anisotropic Gaussian primitive. For collision work only its
geometry matters: the confidence ellipsoid

    (x - mean)^T A (x - mean) <= c^2,   A = (R S S^T R^T)^-1

with R the rotation from a unit quaternion (scalar-first), S = diag(scales),
and c^2 a scene-wide chi-squared confidence level. Each splat carries the
precomputed inverse covariance A = L^T L, formed from the whitening factor
L = S^-1 R^T.
"""
from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import gammaincinv


class SceneError(ValueError):
    """Malformed or degenerate scene input."""


def chi2_confidence(dof: int, quantile: float) -> float:
    """Inverse CDF of the chi-squared distribution with `dof` degrees of freedom.

    The default scene confidence is the 99th percentile with 3 dof
    (about 11.3449), which makes the ellipsoid cover 99% of the Gaussian mass.
    """
    if int(dof) != dof or dof < 1:
        raise SceneError(f"unsupported dof {dof!r}: must be a positive integer")
    if not (0.0 < quantile < 1.0):
        raise SceneError(f"quantile {quantile!r} outside (0, 1)")
    return float(2.0 * gammaincinv(dof / 2.0, quantile))


def rotation_from_quat(quats: np.ndarray) -> np.ndarray:
    """Rotation matrices from scalar-first unit quaternions, shape (..., 4) -> (..., 3, 3)."""
    q = np.asarray(quats, dtype=np.float64)
    R = np.empty(q.shape[:-1] + (3, 3))
    for i, row in enumerate(_rotation(q[..., 0], q[..., 1], q[..., 2], q[..., 3])):
        for j, entry in enumerate(row):
            R[..., i, j] = entry
    return R


def _rotation(*q: np.ndarray) -> list[list[np.ndarray]]:
    """The entries R[i][j] of the rotations of the quaternions whose
    components (scalar first) are given one array each, renormalised."""
    norm = _norm(*q)
    w, x, y, z = (c / norm for c in q)
    return [[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]]


def _norm(*cols: np.ndarray) -> np.ndarray:
    """Euclidean norms of rows given column by column: the bits of
    `np.linalg.norm(..., axis=-1)`, which sums each row in column order,
    without its inner loop over each short row."""
    total = cols[0] * cols[0]
    for c in cols[1:]:
        total = total + c * c
    return np.sqrt(total)


@dataclass(frozen=True)
class PreprocessOptions:
    """Knobs applied when building a scene from raw splat parameters.

    scale_min / scale_max default to 1e-3 x and 1 x a scene diameter proxy
    (bounding-box diagonal of the means). The anisotropy cap raises a splat's
    small axes so max(s)/min(s) stays bounded, keeping eigenvalues of the
    inverse covariance away from float-breaking magnitudes.
    """

    opacity_min: float = 0.1
    scale_min: float | None = None
    scale_max: float | None = None
    anisotropy_cap: float = 100.0  # inf: no cap
    confidence: float | None = None  # c^2; None -> chi2_confidence(3, 0.99)

    def __post_init__(self):
        # The fields also arrive from outside the program (a scene dump, the
        # command line); each comparison below fails on NaN.
        if not 0.0 <= self.opacity_min <= 1.0:
            raise SceneError(f"opacity_min must lie in [0, 1], got {self.opacity_min!r}")
        for name in ("scale_min", "scale_max", "confidence"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise SceneError(f"{name} must be positive and finite, got {value!r}")
        if not self.anisotropy_cap >= 1.0:
            raise SceneError(f"anisotropy_cap must be at least 1, got {self.anisotropy_cap!r}")

    def resolved_confidence(self) -> float:
        if self.confidence is not None:
            return float(self.confidence)
        return chi2_confidence(3, 0.99)


# Splats per chunk of `Scene.from_arrays`' covariance pass: the chunk's
# temporaries (about thirty arrays of 16 KB) stay in a core's L2 cache, and
# the pass holds no whole-scene array but its output.
_BUILD_CHUNK = 2048

# Skin of `Scene.query_nearby`'s neighbour list, relative to the radius: one
# refill at radius (1 + _SKIN) serves every later query of that radius
# whose centre lies within _SKIN * radius of the first one's (less 1e-9
# relative, so that no mean the later query needs sits on the list's edge).
_SKIN = 0.1
# Scenes of at most this many splats refill the neighbour list with one
# numpy scan of every mean (`_d2`); larger scenes read the means of the
# grid cells the list's sphere meets (`_Grid`). The scan's cost grows with
# the scene, a search's with the splats it finds: at radius 5.5 a scan of
# 20,000 means cost less than a kd-tree's walk and list conversion on ring
# and clutter scenes, and one of 40,000 more on clutter; the scan cut the
# ring's step_p99_ms by 15.5-19% (README).
_SCAN_MAX = 20000


class _Grid(NamedTuple):
    """The scene's spatial index: cubic cells of edge `edge` from the
    corner `lo` of the means' bounding box, `shape` cells along each axis,
    and the splats sorted by the key (ix * ny + iy) * nz + iz of the cell
    their mean lies in (ids ascending within a cell), so that the cells of
    one (x, y) column are one run of that order, located by `searchsorted`
    on the sorted keys. Only cells that hold a mean take memory."""

    lo: tuple          # (3,) the corner, Python floats
    edge: float
    shape: tuple       # (nx, ny, nz)
    scale: float       # bounds every |coordinate| of the grid's box
    keys: np.ndarray   # (n,) sorted cell keys
    order: np.ndarray  # (n,) splat ids in key order
    xyz: np.ndarray    # (3, n) their means, column by column


def _cell_edge(extents: list, n: int) -> float:
    """The edge at which the bounding box of n means, with these extents,
    holds n cells, one mean per cell on average; an axis narrower than that
    edge counts as one cell, so a flat or linear scene is cut along its
    other axes only. All means at one point give one cell of edge 1. (Two
    or four means per cell refilled the 170k-splat scene's list as fast,
    and audited a ring trajectory up to twice as slowly: README.)"""
    ext = sorted(extents)
    for d in (3, 2, 1):
        edge = (math.prod(ext[3 - d:]) / n) ** (1.0 / d)
        if edge <= ext[3 - d]:
            break
    return edge if edge > 0.0 else 1.0


def _cells(x: np.ndarray, lo: float, edge: float, low: float, top: float) -> np.ndarray:
    """Cell indices floor((x - lo) / edge) of the coordinates x along one
    axis, clamped to [low, top]; fmax and fmin also clamp the NaN of an
    axis that is one cell of infinite edge."""
    return np.fmin(np.fmax(np.floor((x - lo) / edge), low), top).astype(np.intp)


def _index(means: np.ndarray) -> _Grid:
    """The scene's `_Grid` over its means."""
    n = means.shape[0]
    lo = [float(col.min()) if n else 0.0 for col in means.T]
    extents = [float(col.max()) - a if n else 0.0 for col, a in zip(means.T, lo)]
    edge = _cell_edge(extents, max(n, 1))
    if not all(map(math.isfinite, (edge, *extents))):
        edge = math.inf  # coordinates that span more than a float: one cell
    # the top cell of each axis is the cell of its largest coordinate
    shape = [1 if edge == math.inf else math.floor(e / edge) + 1 for e in extents]
    key = np.zeros(n, dtype=np.intp)
    for col, a, size in zip(means.T, lo, shape):
        key *= size
        key += _cells(col, a, edge, 0.0, size - 1.0)
    # sorted by key, then id: one sort of the keys with the ids in the low
    # bits (a stable argsort took seven times as long)
    bits = n.bit_length()
    key <<= bits
    key |= np.arange(n)
    key.sort()
    order = key & ((1 << bits) - 1)
    key >>= bits
    xyz = np.empty((3, n))
    for col, out in zip(means.T, xyz):
        np.take(col, order, out=out)
    corner = [abs(a) + e for a, e in zip(lo, extents)]
    return _Grid(tuple(lo), edge, tuple(shape), max(corner) + (edge if edge < math.inf else 0.0),
                 key, order, xyz)


@functools.lru_cache(maxsize=16)
def _stencil(edge: float, shape: tuple, w: float, tol: float) -> tuple:
    """The cells that may hold a mean within w of a point, relative to the
    point's own cell: (reach, below, above, dx, dy, dz, dz_end, keys).
    Column (dx[j], dy[j]) of cells, |dx|, |dy| <= reach, is read from cell
    dz[j] >= -below up to dz_end[j] <= above; keys (2, T) holds the key
    offsets of each run's first and end cell. A point anywhere in its cell
    lies at least (|d| - 1) edges from a cell d away along an axis; those
    gaps gx, gy, less `tol`, leave the ball a half-height sqrt(w^2 - gx^2 -
    gy^2) over the column, which, plus `tol`, gives its z-cells. Read-only,
    cached."""
    _, ny, nz = shape
    reach = math.floor(w / edge) + 1
    d = np.arange(-reach, reach + 1)
    gap = np.fmax((np.abs(d) - 1) * edge - tol, 0.0)
    gap *= gap
    h2 = w * w - (gap[:, None] + gap)
    a, b = (h2 >= 0.0).nonzero()
    hz = (np.sqrt(h2[a, b]) + tol) / edge
    dx, dy = a - reach, b - reach
    dz = np.floor(-hz).astype(np.intp)
    dz_end = np.floor(hz).astype(np.intp) + 2
    column = (dx * ny + dy) * nz
    out = (dx, dy, dz, dz_end, np.stack([column + dz, column + dz_end]))
    return (reach, -int(dz.min()), int(dz_end.max()), *map(_frozen, out))


def _runs(grid: _Grid, points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """(start, end), each (k, T): per row of `points` (k, 3), runs [start,
    end) of the grid's order, one per (x, y) column of cells of the
    stencil (`_stencil`; empty where it leaves the grid), that together
    hold every mean that passes `_d2`'s test d2 <= radius * radius for that
    row, and other means of the same cells. When the stencil spans more
    columns than the grid has, each row's one run is the whole order.

    The test passes only means within radius (1 + 3u) of the point (u =
    2^-53), and only points within the radius of the grid's box have such
    means. `tol`, 2^-40 times a bound on every coordinate of both, is more
    than all the roundings of the cells' and the point's positions, so a
    mean on a cell face is never missed."""
    lo, edge, (nx, ny, nz) = grid.lo, grid.edge, grid.shape
    k = points.shape[0]
    tol = 2.0**-40 * 2.0 * (grid.scale + radius)
    w = radius + tol
    if not w / edge <= max(nx, ny):
        return np.zeros((k, 1), dtype=np.intp), np.full((k, 1), grid.order.size)
    reach, below, above, dx, dy, dz, dz_end, offsets = _stencil(edge, grid.shape, w, tol)
    if k == 1:
        hx, hy, hz = (math.floor(c) if math.isfinite(c) else -1
                      for c in ((x - a) / edge for x, a in zip(points[0].tolist(), lo)))
        if (reach <= hx < nx - reach and reach <= hy < ny - reach
                and below <= hz <= nz - above):
            # every cell of the stencil is in the grid: its runs as they are
            bounds = np.searchsorted(grid.keys, offsets + ((hx * ny + hy) * nz + hz))
            return bounds[:1], bounds[1:]
    # the points' own cells, clamped to where the stencil still meets the
    # grid, each cell once (a trajectory's points share cells); then the
    # stencil's columns, and its z-cells in each column
    home = [_cells(c, a, edge, -reach - 1.0, size + reach)
            for c, a, size in zip(points.T, lo, grid.shape)]
    span = 2 * reach + 2
    _, first, inverse = np.unique(((home[0] * (ny + span) + home[1]) * (nz + span) + home[2]),
                                  return_index=True, return_inverse=True)
    hx, hy, hz = (np.take(h, first)[:, None] for h in home)
    cx, cy = hx + dx, hy + dy
    column = (cx * ny + cy) * nz
    start = np.searchsorted(grid.keys, column + np.clip(hz + dz, 0, nz))
    end = np.searchsorted(grid.keys, column + np.clip(hz + dz_end, 0, nz))
    # unsigned, a negative column index is out of the grid too
    np.copyto(end, start, where=(cx.view(np.uintp) >= nx) | (cy.view(np.uintp) >= ny))
    return np.take(start, inverse, axis=0), np.take(end, inverse, axis=0)


def _positions(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The positions start[j], ..., end[j] - 1 of every run, run by run
    (row by row for 2-d runs)."""
    start = start.ravel()
    lens = end.ravel() - start
    ends = np.cumsum(lens)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(start - ends + lens, lens)


# Rows of points per `_runs` call of `Scene.candidate_counts`: the runs of
# 256 points at an audit reach of 7 m on a clutter scene (a 23 x 23-column
# stencil) take about 1 MB per array.
_COUNT_ROWS = 256


# One worker thread that builds `Scene.from_arrays`' grid while the
# calling thread computes the covariances (numpy's sort and ufuncs release
# the GIL). It builds the grids of scenes of more than _WORKER_MIN splats;
# a smaller scene's build (0.18 ms on the 2,400-splat ring) is a few dozen
# short numpy calls, which contend with the covariance pass for the GIL,
# and built on the worker it made perfbench's ring set-up about 25%
# slower, so the calling thread builds it. The worker is made on first
# use, under the lock, and kept: a thread started per call would cost more
# than the overlap saves. A forked child inherits the executor but not its thread, and would
# queue its next build behind a worker that no longer runs; it may also
# inherit the lock held by a thread that is gone. So the child drops both
# and makes its own.
_WORKER_MIN = 20000
_indexer: concurrent.futures.ThreadPoolExecutor | None = None
_indexer_lock = threading.Lock()


def _drop_indexer() -> None:
    global _indexer, _indexer_lock
    _indexer, _indexer_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_indexer)


def _index_later(means: np.ndarray) -> concurrent.futures.Future:
    """`_index(means)`, built on the worker thread."""
    global _indexer
    with _indexer_lock:
        if _indexer is None:
            _indexer = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="splatcone-index")
        return _indexer.submit(_index, means)


def _d2(p: tuple, xyz: np.ndarray) -> np.ndarray:
    """Squared distances from `p` to the means given as the columns of
    `xyz` (3, k), summed (dx^2 + dy^2) + dz^2. `xyz` may be a strided
    view, and p's coordinates arrays of k, one point per mean."""
    e = xyz[0] - p[0]
    d2 = e * e
    e = xyz[1] - p[1]
    e *= e
    d2 += e
    e = xyz[2] - p[2]
    e *= e
    d2 += e
    return d2


def _within(p: tuple, radius: float, xyz: np.ndarray) -> tuple[np.ndarray, float]:
    """(mask, gap): the mask of the neighbour list's means (columns of
    `xyz`) whose squared distance to `p`, as `_d2` sums it, is at most
    r2 = radius * radius, and the smallest |d2 - r2| over the list (inf
    for an empty list)."""
    d2 = _d2(p, xyz)
    r2 = radius * radius
    inner = d2 <= r2
    d2 -= r2
    return inner, float(np.abs(d2, out=d2).min(initial=math.inf))


def _reach(gap: float, radius: float) -> float:
    """How far from the point a that `_within` filtered, with that `gap`,
    a query of the same radius may lie and still get a's answer: a lower
    bound on the distance delta, rounding included, within which every
    mean of the list keeps its side of the sphere d2 = r2.

    Take D(x), the exact distance from a point x to a mean of the list, and
    the query point p at |p - a| <= delta. Then |D(p) - D(a)| <= delta, and

        |D(p)^2 - D(a)^2| <= delta (2 D(a) + delta) <= delta (2 D_max + delta),

    with D_max <= R (1 + 2 _SKIN): the list holds means within R (1 + _SKIN)
    of its anchor, and a and p both pass the skin test, so lie within
    _SKIN R of it (the test's 1e-9 relative slack covers the refill's
    rounding and its own). `_d2` sums d2 with five roundings, so
    |d2 - D^2| <= 6u D_max^2 < 8.7u r2 at a and at p (u = 2^-53), and the
    rounded gap understates |d2(a) - r2| by at most u of itself, so
    g_a = min(gap, r2) by at most u r2. So a mean's d2(p) lies strictly on
    d2(a)'s side of r2 when

        delta (2 D_max + delta) < g_a - 18.4u r2,

    and g = min(gap, r2) - 32u r2 is smaller than that right side by more
    than 13u r2, which absorbs the rounding of g itself. The root
    delta = g / (D_max + sqrt(D_max^2 + g)) is taken less 1e-9 relative,
    which covers its own rounding and that of the caller's `math.dist`.
    The answer at such a p is then a's mask, so a's answer. A gap of at
    most 32u r2, a mean on the sphere included, gives a negative reach,
    which serves no query; so does the NaN of an r2 that overflows.
    """
    r2 = radius * radius
    g = min(gap, r2) - 32.0 * 2.0**-53 * r2
    d_max = radius * (1.0 + 2.0 * _SKIN)
    return g / (d_max + math.sqrt(d_max * d_max + g)) * (1.0 - 1e-9)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _NeighbourList(NamedTuple):
    """One refill of `query_nearby` at radius (1 + _SKIN) around `anchor`,
    with the means (as columns) and inverse covariances of the splats it
    found, and the last answer filtered from it, with the point
    where that answer was made and the reach `_reach` proves for it around
    that point."""

    radius: float
    anchor: tuple
    sup: np.ndarray    # (k,) sorted splat indices
    xyz: np.ndarray    # (3, k) their means, column by column
    inv_cov: np.ndarray  # (k, 3, 3)
    idx: np.ndarray    # the last answer, read-only
    rows: tuple        # its (means, inv_cov), read-only; means is the
                       # .T view of a C-contiguous (3, k') block
    point: tuple       # where `_within` made that answer
    reach: float       # a query within it of `point` gets `idx`

    @property
    def means(self) -> np.ndarray:
        """The means row by row: the (k, 3) view of `xyz`, not a copy."""
        return self.xyz.T


@dataclass
class Scene:
    """Immutable splat collection with a spatial index over the means: a
    uniform grid of cells (`_Grid`), built once.

    Arrays are read-only after construction. `confidence` is the shared
    squared confidence radius c^2.

    `query_nearby` keeps a neighbour list with a skin: the sorted indices of
    the means within radius (1 + _SKIN) of its last refill's centre, with
    those splats' means, as a (3, k) block of columns, and inverse
    covariances gathered. A scene of at most _SCAN_MAX splats is refilled
    by one scan of all its means, a larger one from the means of the grid
    cells near the centre (`_Grid`); both keep the means that pass `_d2`'s
    test, so both build the same list. A later query of the same radius
    centred within the skin filters that list instead of searching again.
    The answer is the rule `_within` applies: the listed means whose
    squared distance to the query point, summed as (dx^2 + dy^2) + dz^2
    (`_d2`), is at most r^2, with r^2 the rounded radius * radius. That is
    a kd-tree query's answer except for a mean within rounding of the
    sphere, which a tree may decide otherwise. Each filtering makes a new read-only answer and copies its
    rows out of the blocks by position: the means as a C-contiguous (3, k)
    block of columns, the layout the row kernels read, handed out as its
    (k, 3) `.T` view. `gather` serves them for that answer. Each filtering
    also certifies how far its answer holds: from the smallest |d^2 - r^2|
    over the list it proves a reach around the query point (`_reach`), and
    a later query within that reach of that point returns the last answer
    without filtering; this is the displacement test of a Verlet list's
    skin, applied to the answer. The list is one tuple, replaced by a
    single attribute store with each new answer (a refill makes one too)
    and read once per call, so concurrent readers always see a consistent
    entry and the scene stays safe to share; two threads that replace it at
    once cost each other only a rebuild or a filtering.
    """

    means: np.ndarray       # (n, 3)
    quats: np.ndarray       # (n, 4)
    scales: np.ndarray      # (n, 3)
    opacities: np.ndarray   # (n,)
    inv_cov: np.ndarray     # (n, 3, 3)
    s_min: np.ndarray       # (n,)
    confidence: float       # c^2
    bounds: np.ndarray      # (2, 3) AABB of means padded by max splat extent
    options: PreprocessOptions = field(default_factory=PreprocessOptions)
    _grid: _Grid | None = field(default=None, repr=False, compare=False)
    _memo: _NeighbourList | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.means, self.quats, self.scales, self.opacities,
                    self.inv_cov, self.s_min, self.bounds):
            arr.setflags(write=False)
        if self._grid is None:
            object.__setattr__(self, "_grid", _index(self.means))

    def __len__(self) -> int:
        return self.means.shape[0]

    def query_nearby(self, p: np.ndarray, radius: float) -> np.ndarray:
        """Indices i with ||mean_i - p|| <= radius, ascending and read-only,
        by the neighbour list's rule (see the class docstring).
        Raises SceneError for a non-positive radius or a non-finite `p`."""
        if not radius > 0:
            raise SceneError(f"radius must be positive, got {radius!r}")
        p = np.asarray(p, dtype=np.float64)
        pt = tuple(p.tolist())
        memo = self._memo
        if not (memo is not None and memo.radius == radius
                and math.dist(pt, memo.anchor) <= _SKIN * radius * (1.0 - 1e-9)):
            # a NaN or infinite coordinate fails the skin test above, so it
            # is caught here; the scan would read it as "no splats near"
            if not all(map(math.isfinite, pt)):
                raise SceneError(f"query point must be finite, got {pt!r}")
            skin = radius + _SKIN * radius
            if len(self) <= _SCAN_MAX:
                sup = (_d2(pt, self.means.T) <= skin * skin).nonzero()[0]
                # rows, then columns: np.take from the (3, n) view self.means.T
                # would first copy all n means into a contiguous array
                xyz = np.take(self.means, sup, axis=0).T.copy()
            else:
                grid = self._grid
                pos = _positions(*_runs(grid, p[None], skin))
                near = np.take(grid.xyz, pos, axis=1)
                keep = (_d2(pt, near) <= skin * skin).nonzero()[0]
                # sorted by splat id, each with its column of `near` in the
                # low bits: a sort of one integer array, not an argsort
                bits = pos.size.bit_length()
                found = np.take(grid.order, np.take(pos, keep)) << bits
                found |= keep
                found.sort()
                sup = found >> bits
                xyz = np.take(near, found & ((1 << bits) - 1), axis=1)
            head = (radius, pt, sup, xyz, np.take(self.inv_cov, sup, axis=0))
        elif math.dist(pt, memo.point) <= memo.reach:
            return memo.idx
        else:
            head = memo[:5]
        _, _, sup, xyz, inv_cov = head
        inner, gap = _within(pt, radius, xyz)
        pos = inner.nonzero()[0]
        idx = _frozen(sup[pos])
        self._memo = _NeighbourList(*head, idx, (
            _frozen(np.take(xyz, pos, axis=1)).T,
            _frozen(np.take(inv_cov, pos, axis=0))), pt, _reach(gap, radius))
        return idx

    def gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (means, inv_cov) rows of the splats `idx`: the
        neighbour list's when `idx` is `query_nearby`'s last answer from it
        (means the (k, 3) view of a C-contiguous block of columns), else
        taken from the scene's arrays (C-ordered rows): for a caller's own
        indices, or an answer whose list another thread has since replaced."""
        memo = self._memo
        if memo is not None and memo.idx is idx:
            return memo.rows
        return (_frozen(np.take(self.means, idx, axis=0)),
                _frozen(np.take(self.inv_cov, idx, axis=0)))

    def candidate_counts(self, points: np.ndarray, radius: float) -> np.ndarray:
        """Per row of `points` (k, 3), the number of splats whose means lie
        in the grid cells that `nearby_pairs` reads for it: a bound on the
        pairs it finds for that row and on the candidates it holds, read
        from the grid's sorted keys alone, with no distance test. Rows are
        taken _COUNT_ROWS at a time, which bounds the runs held at once."""
        points = np.asarray(points, dtype=np.float64)
        counts = np.zeros(len(points), dtype=np.intp)
        for k in range(0, len(points), _COUNT_ROWS):
            start, end = _runs(self._grid, points[k:k + _COUNT_ROWS], radius)
            counts[k:k + _COUNT_ROWS] = (end - start).sum(axis=1)
        return counts

    def nearby_pairs(self, points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(owner, idx) of every pair of a row of `points` (k, 3) and a splat
        whose mean lies within `radius`, by `_d2`'s rule: the grid's cells
        near each row, batched; the neighbour list is left alone. Pairs
        come point by point."""
        points = np.asarray(points, dtype=np.float64)
        grid = self._grid
        start, end = _runs(grid, points, radius)
        pos = _positions(start, end)
        owner = np.repeat(np.arange(len(points)), (end - start).sum(axis=1))
        keep = (_d2(np.take(points.T, owner, axis=1), np.take(grid.xyz, pos, axis=1))
                <= radius * radius).nonzero()[0]
        return np.take(owner, keep), np.take(grid.order, np.take(pos, keep))

    @classmethod
    def from_arrays(
        cls,
        means: np.ndarray,
        quats: np.ndarray,
        scales: np.ndarray,
        opacities: np.ndarray,
        opts: PreprocessOptions | None = None,
        *,
        copy: bool = True,
    ) -> "Scene":
        """Build a scene from raw (already linearized) splat parameters.

        Applies the preprocessing pipeline: finiteness checks, degenerate
        quaternion rejection, opacity filtering, scale clamping with the
        anisotropy cap, then precomputes inverse covariances (chunk by chunk,
        so no whole-scene temporary is held) and builds the spatial index.
        The grid (`_Grid`, about 9 ms at 170k splats) of a scene of more
        than _WORKER_MIN splats is built on a worker thread
        (`_index_later`; a forked child makes its own) from the kept means
        while this thread computes the bounds, clamps and covariances, and
        is the grid a serial build gives; built on this thread instead, it
        would add 6-10 ms to a two-core 170k-splat load (README). A smaller
        scene's grid is built here, after the covariances.
        The caller's arrays are left writable and are not aliased. With
        `copy=False` the caller hands its arrays over instead: the scene may
        keep float64 `means` and `opacities` as they are, and freezes them.
        """
        opts = opts or PreprocessOptions()
        # stored as they are, so copied unless handed over; a 0-d input gets one axis
        means, opacities = (np.array(x, dtype=np.float64, order="C", ndmin=1) if copy
                            else np.ascontiguousarray(x, dtype=np.float64) for x in (means, opacities))
        quats = np.ascontiguousarray(quats, dtype=np.float64)
        scales = np.ascontiguousarray(scales, dtype=np.float64)
        n = means.shape[0]
        if not (means.shape == (n, 3) and quats.shape == (n, 4) and scales.shape == (n, 3)
                and opacities.shape == (n,)):
            raise SceneError("field arrays have inconsistent shapes")

        for name, arr in (("mean", means), ("rot", quats), ("scale", scales), ("opacity", opacities)):
            bad = ~np.isfinite(arr)
            if bad.any():
                i = int(np.argwhere(bad)[0][0])
                raise SceneError(f"non-finite value in property '{name}' at splat index {i}")
        if (scales <= 0).any():
            i = int(np.argwhere(scales <= 0)[0][0])
            raise SceneError(f"non-positive scale at splat index {i}")

        qnorm = np.empty(n)
        for k in range(0, n, _BUILD_CHUNK):
            qnorm[k:k + _BUILD_CHUNK] = _norm(*quats[k:k + _BUILD_CHUNK].T)
        degenerate = qnorm < 1e-8
        if degenerate.any():
            warnings.warn(
                f"dropping {int(degenerate.sum())} splat(s) with near-zero quaternion norm",
                RuntimeWarning,
                stacklevel=2,
            )
        keep = ~degenerate
        keep &= opacities >= opts.opacity_min
        if not keep.any():
            raise SceneError("zero splats after opacity/quaternion filtering")

        # The outputs come before the kept splats' copies below: allocated
        # after them, they sometimes missed the heap space a freed scene had
        # left, and the 170k-splat benchmark's peak RSS rose by 8 MB on 3 to
        # 6 runs in 10.
        unit = np.empty((np.count_nonzero(keep), 4))
        inv_cov = np.empty((len(unit), 3, 3))
        s_min = np.empty(len(unit))
        if not keep.all():
            means, quats, qnorm = means[keep], quats[keep], qnorm[keep]
            scales, opacities = scales[keep], opacities[keep]
        # the means are final: index a large scene's on the worker meanwhile;
        # an error below leaves the build to finish unread
        grid = _index_later(means) if len(means) > _WORKER_MIN else None

        lo = np.array([col.min() for col in means.T])
        hi = np.array([col.max() for col in means.T])
        diam = float(np.linalg.norm(hi - lo))
        if diam < 1e-12:
            diam = max(1.0, 2.0 * float(scales.max()))
        s_lo = opts.scale_min if opts.scale_min is not None else 1e-3 * diam
        s_hi = opts.scale_max if opts.scale_max is not None else diam
        if not (0 < s_lo <= s_hi):
            raise SceneError(f"invalid scale clamp range [{s_lo}, {s_hi}]")
        scales = np.clip(scales, s_lo, s_hi)
        # Rows of 3 or 4 are handled column by column: a reduction or
        # broadcast over such short rows runs numpy's inner loop once per row.
        for k in range(0, len(means), _BUILD_CHUNK):
            part = slice(k, k + _BUILD_CHUNK)
            s0, s1, s2 = scales[part].T
            # Anisotropy cap: raise the small axes so max(s)/min(s) <= cap.
            floor = np.maximum(s0, s1)
            np.maximum(floor, s2, out=floor)
            floor /= opts.anisotropy_cap
            for col in (s0, s1, s2):
                np.maximum(col, floor, out=col)
            np.minimum(np.minimum(s0, s1), s2, out=s_min[part])

            q = [np.divide(c, qnorm[part], out=u) for c, u in zip(quats[part].T, unit[part].T)]
            R = _rotation(*q)
            inv_s = 1.0 / scales[part]
            # A = L^T L with whitening L = diag(1/s) R^T, whose row j is
            # w[j] = (1/s_j) R[:, j]. Each of A's six unique entries is summed
            # in the order numpy's einsum("nji,njk->nik", L, L) sums it,
            # (w0i w0k + w2i w2k) + w1i w1k, and mirrored.
            w = [[inv_s[:, j] * R[i][j] for i in range(3)] for j in range(3)]
            A = inv_cov[part]
            for i, m in itertools.combinations_with_replacement(range(3), 2):
                a = w[0][i] * w[0][m]
                a += w[2][i] * w[2][m]
                a += w[1][i] * w[1][m]
                A[:, i, m] = a
                A[:, m, i] = a

        c2 = opts.resolved_confidence()
        pad = float(np.sqrt(c2) * scales.max())
        bounds = np.stack([lo - pad, hi + pad])

        return cls(
            means=means,
            quats=unit,
            scales=scales,
            opacities=opacities,
            inv_cov=inv_cov,
            s_min=s_min,
            confidence=c2,
            bounds=bounds,
            options=opts,
            _grid=None if grid is None else grid.result(),
        )
