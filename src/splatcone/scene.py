"""Gaussian splat scenes: geometric types, preprocessing, spatial indexing.

A splat is an anisotropic Gaussian primitive. For collision work only its
geometry matters: the confidence ellipsoid

    (x - mean)^T A (x - mean) <= c^2,   A = (R S S^T R^T)^-1

with R the rotation from a unit quaternion (scalar-first), S = diag(scales),
and c^2 a scene-wide chi-squared confidence level. Each splat carries the
precomputed inverse covariance A and whitening factor L = S^-1 R^T with
L^T L = A.
"""
from __future__ import annotations

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
            if self.confidence <= 0:
                raise SceneError("confidence must be positive")
            return float(self.confidence)
        return chi2_confidence(3, 0.99)


@dataclass
class Scene:
    """Immutable splat collection with a spatial index over the means.

    Arrays are read-only after construction; the scene is safe for concurrent
    reads. `confidence` is the shared squared confidence radius c^2.
    """

    means: np.ndarray       # (n, 3)
    quats: np.ndarray       # (n, 4)
    scales: np.ndarray      # (n, 3)
    opacities: np.ndarray   # (n,)
    inv_cov: np.ndarray     # (n, 3, 3)
    whitening: np.ndarray   # (n, 3, 3)
    s_min: np.ndarray       # (n,)
    confidence: float       # c^2
    bounds: np.ndarray      # (2, 3) AABB of means padded by max splat extent
    options: PreprocessOptions = field(default_factory=PreprocessOptions)
    _tree: cKDTree | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.means, self.quats, self.scales, self.opacities,
                    self.inv_cov, self.whitening, self.s_min, self.bounds):
            arr.setflags(write=False)
        if self._tree is None:
            object.__setattr__(self, "_tree", cKDTree(self.means))

    def __len__(self) -> int:
        return self.means.shape[0]

    def query_nearby(self, p: np.ndarray, radius: float) -> np.ndarray:
        """Indices i with ||mean_i - p|| <= radius, ascending."""
        if radius <= 0:
            raise SceneError(f"radius must be positive, got {radius!r}")
        idx = self._tree.query_ball_point(np.asarray(p, dtype=np.float64), radius)
        return np.sort(np.asarray(idx, dtype=np.intp))

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
        anisotropy cap, then precomputes inverse covariances and whitening
        factors and builds the spatial index.
        """
        opts = opts or PreprocessOptions()
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

        keep = np.ones(n, dtype=bool)
        qnorm = np.linalg.norm(quats, axis=1)
        degenerate = qnorm < 1e-8
        if degenerate.any():
            warnings.warn(
                f"dropping {int(degenerate.sum())} splat(s) with near-zero quaternion norm",
                RuntimeWarning,
                stacklevel=2,
            )
            keep &= ~degenerate
        keep &= opacities >= opts.opacity_min
        if not keep.any():
            raise SceneError("zero splats after opacity/quaternion filtering")

        means, quats = means[keep], quats[keep]
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
        scales = np.maximum(scales, floor)

        quats = quats / np.linalg.norm(quats, axis=1, keepdims=True)
        R = rotation_from_quat(quats)
        inv_s = 1.0 / scales
        # A = R diag(1/s^2) R^T, L = diag(1/s) R^T; both exact in this factored form.
        whitening = inv_s[:, :, None] * np.swapaxes(R, 1, 2)
        inv_cov = np.einsum("nji,njk->nik", whitening, whitening)
        s_min = scales.min(axis=1)

        c2 = opts.resolved_confidence()
        pad = float(np.sqrt(c2) * scales.max())
        bounds = np.stack([means.min(axis=0) - pad, means.max(axis=0) + pad])

        return cls(
            means=means,
            quats=quats,
            scales=scales,
            opacities=opacities,
            inv_cov=inv_cov,
            whitening=whitening,
            s_min=s_min,
            confidence=c2,
            bounds=bounds,
            options=opts,
        )
