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

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree
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
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (y * y + z * z)
    R[..., 0, 1] = 2 * (x * y - w * z)
    R[..., 0, 2] = 2 * (x * z + w * y)
    R[..., 1, 0] = 2 * (x * y + w * z)
    R[..., 1, 1] = 1 - 2 * (x * x + z * z)
    R[..., 1, 2] = 2 * (y * z - w * x)
    R[..., 2, 0] = 2 * (x * z - w * y)
    R[..., 2, 1] = 2 * (y * z + w * x)
    R[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return R


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
    anisotropy_cap: float = 100.0
    confidence: float | None = None  # c^2; None -> chi2_confidence(3, 0.99)

    def resolved_confidence(self) -> float:
        if self.confidence is not None:
            if not self.confidence > 0:
                raise SceneError("confidence must be positive")
            return float(self.confidence)
        return chi2_confidence(3, 0.99)


# Splats per chunk of `Scene.from_arrays`' covariance pass: the chunk's
# (k, 3, 3) temporaries (147 KB each) stay in a core's L2 cache, and the
# pass holds no whole-scene array but its output.
_BUILD_CHUNK = 2048

# Skin of `Scene.query_nearby`'s neighbour list, relative to the radius: one
# tree query at radius (1 + _SKIN) serves every later query of that radius
# whose centre lies within _SKIN * radius of the first one's (less 1e-9
# relative, so that no mean the later query needs sits on the list's edge).
_SKIN = 0.1
# Relative width of the shell around the radius inside which a filtered
# result is not trusted to round as the tree does (see `_within`).
_SHELL = 1e-12


def _within(p: tuple, radius: float, sup: np.ndarray, xyz: np.ndarray) -> np.ndarray | None:
    """The entries of `sup` whose means (columns of `xyz`) lie within
    `radius` of `p`, in `sup`'s order; None when a mean lies within
    _SHELL relative of the sphere, where the tree might round otherwise.

    d2 is summed as the tree's leaf test sums it, but the tree admits whole
    subtrees that lie inside the sphere without that test, so only a mean
    clear of the shell is decided here.
    """
    e = xyz[0] - p[0]
    d2 = e * e
    e = xyz[1] - p[1]
    e *= e
    d2 += e
    e = xyz[2] - p[2]
    e *= e
    d2 += e
    r2 = radius * radius
    inner = d2 <= r2 * (1.0 - _SHELL)
    if np.count_nonzero(inner) != np.count_nonzero(d2 <= r2 * (1.0 + _SHELL)):
        return None
    return sup[inner]


@dataclass
class Scene:
    """Immutable splat collection with a spatial index over the means.

    Arrays are read-only after construction. `confidence` is the shared
    squared confidence radius c^2.

    `query_nearby` keeps a neighbour list with a skin: the sorted result of
    its last kd-tree query, made at radius (1 + _SKIN), with those means.
    A later query of the same radius centred within the skin filters that
    list instead of searching the tree. It returns the same indices, bit
    for bit, as a fresh tree query; a mean too close to the sphere to be
    decided the tree's way sends the query to the tree. The list is one
    tuple, replaced by a single attribute store, so concurrent readers
    always see a consistent entry and the scene stays safe to share; two
    threads that replace it at once cost each other only a rebuild.
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
    _tree: cKDTree | None = field(default=None, repr=False, compare=False)
    # (radius, anchor, slack, sup, xyz) of query_nearby's neighbour list
    _memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.means, self.quats, self.scales, self.opacities,
                    self.inv_cov, self.s_min, self.bounds):
            arr.setflags(write=False)
        if self._tree is None:
            object.__setattr__(self, "_tree", cKDTree(self.means))

    def __len__(self) -> int:
        return self.means.shape[0]

    def query_nearby(self, p: np.ndarray, radius: float) -> np.ndarray:
        """Indices i with ||mean_i - p|| <= radius, ascending: the kd-tree's
        result, from the neighbour list when it covers `p`."""
        if not radius > 0:
            raise SceneError(f"radius must be positive, got {radius!r}")
        p = np.asarray(p, dtype=np.float64)
        pt = tuple(p.tolist())
        memo = self._memo
        if not (memo is not None and memo[0] == radius
                and math.dist(pt, memo[1]) <= memo[2] * (1.0 - 1e-9)):
            slack = _SKIN * radius
            sup = self._ball(p, radius + slack)
            memo = (radius, pt, slack, sup, np.take(self.means, sup, axis=0).T.copy())
            self._memo = memo
        found = _within(pt, radius, memo[3], memo[4])
        return self._ball(p, radius) if found is None else found

    def _ball(self, p: np.ndarray, radius: float) -> np.ndarray:
        idx = self._tree.query_ball_point(p, radius)
        return np.sort(np.fromiter(idx, dtype=np.intp, count=len(idx)))

    def count_nearby(self, points: np.ndarray, radius: float) -> np.ndarray:
        """Per row of `points` (k, 3), the number of splats whose mean lies
        within `radius`: the lengths of `nearby_pairs`' per-point results."""
        return self._tree.query_ball_point(points, radius, return_length=True)

    def nearby_pairs(self, points: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(owner, idx) of every pair of a row of `points` (k, 3) and a splat
        whose mean lies within `radius`: the tree's own ball search, as in
        `query_nearby`, batched; the neighbour list is left alone."""
        found = self._tree.query_ball_point(points, radius)
        counts = np.fromiter(map(len, found), dtype=np.intp, count=len(found))
        idx = np.fromiter(itertools.chain.from_iterable(found), dtype=np.intp)
        return np.repeat(np.arange(len(found)), counts), idx

    @classmethod
    def from_arrays(
        cls,
        means: np.ndarray,
        quats: np.ndarray,
        scales: np.ndarray,
        opacities: np.ndarray,
        opts: PreprocessOptions | None = None,
    ) -> "Scene":
        """Build a scene from raw (already linearized) splat parameters.

        Applies the preprocessing pipeline: finiteness checks, degenerate
        quaternion rejection, opacity filtering, scale clamping with the
        anisotropy cap, then precomputes inverse covariances (chunk by chunk,
        so no whole-scene temporary is held) and builds the spatial index.
        The caller's arrays are left writable and are not aliased.
        """
        opts = opts or PreprocessOptions()
        given_means, given_opacities = means, opacities
        means = np.ascontiguousarray(means, dtype=np.float64)
        quats = np.ascontiguousarray(quats, dtype=np.float64)
        scales = np.ascontiguousarray(scales, dtype=np.float64)
        opacities = np.ascontiguousarray(opacities, dtype=np.float64)
        n = means.shape[0]
        if not (quats.shape == (n, 4) and scales.shape == (n, 3) and opacities.shape == (n,)):
            raise SceneError("field arrays have inconsistent shapes")

        for name, arr in (("mean", means), ("rot", quats), ("scale", scales), ("opacity", opacities)):
            bad = ~np.isfinite(arr)
            if bad.any():
                i = int(np.argwhere(bad)[0][0])
                raise SceneError(f"non-finite value in property '{name}' at splat index {i}")
        if (scales <= 0).any():
            i = int(np.argwhere(scales <= 0)[0][0])
            raise SceneError(f"non-positive scale at splat index {i}")

        qnorm = np.linalg.norm(quats, axis=1)
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

        if keep.all():
            # The scene stores means and opacities as they are, so they must
            # not alias the caller's arrays (which the scene would freeze).
            if np.may_share_memory(means, given_means):
                means = means.copy()
            if np.may_share_memory(opacities, given_opacities):
                opacities = opacities.copy()
        else:
            means, quats, qnorm = means[keep], quats[keep], qnorm[keep]
            scales, opacities = scales[keep], opacities[keep]

        lo, hi = means.min(axis=0), means.max(axis=0)
        diam = float(np.linalg.norm(hi - lo))
        if diam < 1e-12:
            diam = max(1.0, 2.0 * float(scales.max()))
        s_lo = opts.scale_min if opts.scale_min is not None else 1e-3 * diam
        s_hi = opts.scale_max if opts.scale_max is not None else diam
        if not (0 < s_lo <= s_hi):
            raise SceneError(f"invalid scale clamp range [{s_lo}, {s_hi}]")
        scales = np.clip(scales, s_lo, s_hi)
        # Anisotropy cap: raise the small axes so max(s)/min(s) <= cap.
        floor = scales.max(axis=1, keepdims=True) / opts.anisotropy_cap
        np.maximum(scales, floor, out=scales)

        quats = quats / qnorm[:, None]
        inv_cov = np.empty((quats.shape[0], 3, 3))
        for k in range(0, quats.shape[0], _BUILD_CHUNK):
            part = slice(k, k + _BUILD_CHUNK)
            R = rotation_from_quat(quats[part])
            # A = R diag(1/s^2) R^T, L = diag(1/s) R^T; both exact in this factored form.
            whitening = (1.0 / scales[part])[:, :, None] * np.swapaxes(R, 1, 2)
            np.einsum("nji,njk->nik", whitening, whitening, out=inv_cov[part])
        s_min = scales.min(axis=1)

        c2 = opts.resolved_confidence()
        pad = float(np.sqrt(c2) * scales.max())
        bounds = np.stack([lo - pad, hi + pad])

        return cls(
            means=means,
            quats=quats,
            scales=scales,
            opacities=opacities,
            inv_cov=inv_cov,
            s_min=s_min,
            confidence=c2,
            bounds=bounds,
            options=opts,
        )
