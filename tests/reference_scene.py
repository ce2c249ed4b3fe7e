"""References for the scene build: `Scene.from_arrays`, `load_ply` and
`save_ply` as they stood before preprocessing was chunked and PLY I/O
stopped copying whole records. Kept verbatim (`from_arrays` as a plain
function that returns a `Scene`), so a test can compare the library's
scenes and files with these bit for bit; helpers that did not change are
imported from the library. Nothing in the library imports this module.
"""
from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from splatcone.scene import PreprocessOptions, Scene, SceneError, rotation_from_quat
from splatcone.sceneio import _REQUIRED, _atomic_write_bytes, _parse_header, _sigmoid


def from_arrays(
    means: np.ndarray,
    quats: np.ndarray,
    scales: np.ndarray,
    opacities: np.ndarray,
    opts: PreprocessOptions | None = None,
) -> Scene:
    """Build a scene from raw (already linearized) splat parameters.

    Applies the preprocessing pipeline: finiteness checks, degenerate
    quaternion rejection, opacity filtering, scale clamping with the
    anisotropy cap, then precomputes inverse covariances and builds the
    spatial index.
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

    return Scene(
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


def load_ply(path: str | Path, opts: PreprocessOptions | None = None) -> Scene:
    """Load a splat PLY and run the preprocessing pipeline.

    Stored scales are exponentiated and the stored opacity logit is passed
    through a sigmoid before filtering; quaternions are normalized.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        count, props = _parse_header(fh)
        names = [p[0] for p in props]
        for req in _REQUIRED:
            if req not in names:
                raise SceneError(f"missing required property '{req}'")
        dtype = np.dtype(props)
        raw = np.fromfile(fh, dtype=dtype, count=count)
    if raw.shape[0] != count:
        raise SceneError(f"truncated body: expected {count} vertices, got {raw.shape[0]}")

    for name in _REQUIRED:
        col = raw[name]
        bad = ~np.isfinite(col.astype(np.float64))
        if bad.any():
            i = int(np.argmax(bad))
            raise SceneError(f"non-finite value in property '{name}' at splat index {i}")

    means = np.stack([raw["x"], raw["y"], raw["z"]], axis=1).astype(np.float64)
    scales = np.exp(np.stack([raw["scale_0"], raw["scale_1"], raw["scale_2"]], axis=1).astype(np.float64))
    quats = np.stack([raw["rot_0"], raw["rot_1"], raw["rot_2"], raw["rot_3"]], axis=1).astype(np.float64)
    opacities = _sigmoid(raw["opacity"].astype(np.float64))
    return from_arrays(means, quats, scales, opacities, opts)


def save_ply(path: str | Path, scene: Scene) -> None:
    """Write a scene back out in the reference splat PLY layout (float32).

    Inverse of the load transforms: scales go out as logs, opacity as a logit.
    """
    n = len(scene)
    dtype = np.dtype([(name, "<f4") for name in _REQUIRED])
    rec = np.empty(n, dtype=dtype)
    rec["x"], rec["y"], rec["z"] = scene.means.T.astype(np.float32)
    log_s = np.log(scene.scales)
    rec["scale_0"], rec["scale_1"], rec["scale_2"] = log_s.T.astype(np.float32)
    rec["rot_0"], rec["rot_1"], rec["rot_2"], rec["rot_3"] = scene.quats.T.astype(np.float32)
    op = np.clip(scene.opacities, 1e-12, 1.0 - 1e-9)
    rec["opacity"] = np.log(op / (1.0 - op)).astype(np.float32)

    header = (
        "ply\n"
        "format binary_little_endian 1.0\n"
        f"element vertex {n}\n"
        + "".join(f"property float {name}\n" for name in _REQUIRED)
        + "end_header\n"
    )
    _atomic_write_bytes(path, header.encode("ascii") + rec.tobytes())
