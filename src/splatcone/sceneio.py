"""Scene I/O: binary PLY splat files and the versioned scene dump format.

The PLY reader targets the reference splat export layout: a single binary
little-endian `vertex` element with properties x, y, z, scale_0..2 (stored in
log-space), rot_0..3 (scalar-first quaternion), and opacity (stored as a
logit). Extra properties (colors, normals, SH coefficients) are ignored.

The scene dump is an .npz holding the post-preprocessing arrays and the
resolved preprocessing options, so a dump reloads without re-deriving clamp
defaults (exact up to unit-quaternion renormalization rounding). The
dataclasses name its entries: `version` ("splatcone-scene-v1"); the `Scene`
fields that `Scene.from_arrays` takes (means, quats, scales, opacities) and
c^2 `confidence`; then the other `PreprocessOptions` fields, each a 0-d
float64 (an unset scale clamp is written as the scene's own scale extreme).
A missing or non-numeric entry, or an option that is not 0-d or is out of
its range, fails to load with a `SceneError` naming it.
"""
from __future__ import annotations

import dataclasses
import inspect
import io
import os
import tempfile
from pathlib import Path

import numpy as np
from numpy.lib import recfunctions

from .scene import ConfigError, PreprocessOptions, Scene, SceneError

DUMP_VERSION = "splatcone-scene-v1"
# The dump's entries, in the order they are written: the Scene fields that
# `Scene.from_arrays` takes or that are an option (c^2), then the other options.
_OPTIONS = tuple(f.name for f in dataclasses.fields(PreprocessOptions))
_FROM_SCENE = tuple(f.name for f in dataclasses.fields(Scene)
                    if f.name in (*inspect.signature(Scene.from_arrays).parameters, *_OPTIONS))
_ENTRIES = tuple(dict.fromkeys(_FROM_SCENE + _OPTIONS))

_PLY_TYPES = {
    "float": "<f4", "float32": "<f4",
    "double": "<f8", "float64": "<f8",
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "<i2", "int16": "<i2",
    "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4",
    "uint": "<u4", "uint32": "<u4",
}

_REQUIRED = ("x", "y", "z", "scale_0", "scale_1", "scale_2",
             "rot_0", "rot_1", "rot_2", "rot_3", "opacity")
# The required properties in the four arrays `load_ply` reads them into:
# positions, log scales, rotations and the opacity logit.
_GROUPS = (_REQUIRED[:3], _REQUIRED[3:6], _REQUIRED[6:10], _REQUIRED[10:])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _parse_header(fh) -> tuple[int, list[tuple[str, str]]]:
    """Returns (vertex_count, [(name, dtype_str), ...]) for the vertex element."""
    magic = fh.readline()
    if magic.strip() != b"ply":
        raise SceneError("malformed header: missing 'ply' magic")
    fmt = fh.readline().split()
    if len(fmt) < 2 or fmt[0] != b"format" or fmt[1] != b"binary_little_endian":
        raise SceneError("malformed header: only binary_little_endian PLY is supported")
    count = None
    props: list[tuple[str, str]] = []
    in_vertex = False
    while True:
        line = fh.readline()
        if not line:
            raise SceneError("malformed header: truncated before end_header")
        toks = line.decode("ascii", errors="replace").split()
        if not toks or toks[0] == "comment":
            continue
        if toks[0] == "end_header":
            break
        if toks[0] == "element":
            if len(toks) != 3:
                raise SceneError(f"malformed header: element line {' '.join(toks)!r}")
            if toks[1] == "vertex":
                if count is not None:
                    raise SceneError("malformed header: element 'vertex' given twice")
                in_vertex = True
                if not toks[2].isdigit():
                    raise SceneError(f"malformed header: vertex count {toks[2]!r} is not "
                                     "a non-negative integer")
                count = int(toks[2])
            else:
                if count is None:
                    raise SceneError(f"malformed header: element '{toks[1]}' precedes vertex data")
                in_vertex = False
        elif toks[0] == "property" and in_vertex:
            if len(toks) < 3:
                raise SceneError(f"malformed header: property line {' '.join(toks)!r}")
            if toks[1] == "list":
                raise SceneError("malformed header: list property in vertex element")
            if toks[1] not in _PLY_TYPES:
                raise SceneError(f"malformed header: unknown property type '{toks[1]}'")
            if toks[2] in (name for name, _ in props):
                raise SceneError(f"malformed header: vertex property '{toks[2]}' named twice")
            props.append((toks[2], _PLY_TYPES[toks[1]]))
    if count is None:
        raise SceneError("malformed header: no vertex element")
    return count, props


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
        # no more records than the file holds, whatever count the header claims
        room = (os.fstat(fh.fileno()).st_size - fh.tell()) // dtype.itemsize
        raw = np.fromfile(fh, dtype=dtype, count=min(count, room))
    if raw.shape[0] != count:
        raise SceneError(f"truncated body: expected {count} vertices, got {raw.shape[0]}")

    # one pass over the record per group, into a float64 array of its own;
    # the record is freed before the scene is built
    means, scales, quats, logit = (
        recfunctions.structured_to_unstructured(raw[list(names)], dtype=np.float64)
        for names in _GROUPS)
    del raw
    for names, arr in zip(_GROUPS, (means, scales, quats, logit)):
        finite = np.isfinite(arr)
        if not finite.all():
            j = int(np.argmin(finite.all(axis=0)))
            i = int(np.argmin(finite[:, j]))
            raise SceneError(f"non-finite value in property '{names[j]}' at splat index {i}")
    np.exp(scales, out=scales)
    opacities = _sigmoid(logit[:, 0])
    del logit
    # the arrays are this function's own: the scene keeps them without a copy
    return Scene.from_arrays(means, quats, scales, opacities, opts, copy=False)


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
    _atomic_write_bytes(path, header.encode("ascii"), rec)


def save_scene_dump(path: str | Path, scene: Scene) -> None:
    """Write the versioned .npz scene dump (atomic)."""
    opts = scene.options
    # an unset scale clamp is written as the scene's own scale extreme
    lo = opts.scale_min if opts.scale_min is not None else float(scene.scales.min())
    hi = opts.scale_max if opts.scale_max is not None else float(scene.scales.max())
    opts = dataclasses.replace(opts, scale_min=lo, scale_max=hi)
    entries = {name: getattr(scene if name in _FROM_SCENE else opts, name) for name in _ENTRIES}
    buf = io.BytesIO()
    np.savez(buf, version=DUMP_VERSION, **entries)
    _atomic_write_bytes(path, buf.getbuffer())


def load_scene_dump(path: str | Path, confidence: float | None = None) -> Scene:
    """Reload a scene dump; preprocessing is idempotent on dumped arrays."""
    with np.load(path, allow_pickle=False) as z:
        if "version" not in z or str(z["version"]) != DUMP_VERSION:
            raise SceneError(f"unrecognized scene dump version in {path}")
        missing = [k for k in _ENTRIES if k not in z]
        if missing:
            raise SceneError(f"scene dump {path} lacks {', '.join(missing)}")
        entries = {}
        for name in _ENTRIES:
            try:
                entries[name] = value = z[name]
                numeric = value.dtype.kind in "iuf"
            except ValueError:  # an object array, which does not load without pickle
                numeric = False
            if not numeric:
                raise SceneError(f"scene dump {path}: {name} is not numeric")
            if name in _OPTIONS and value.ndim != 0:
                raise SceneError(f"scene dump {path}: option {name} is not a single number")
    options = {name: float(entries.pop(name)) for name in _OPTIONS}
    if confidence is not None:
        options["confidence"] = confidence
    try:
        opts = PreprocessOptions(**options)
    except ConfigError as e:  # an option out of range: a malformed dump
        raise SceneError(str(e)) from None
    return Scene.from_arrays(**entries, opts=opts)


def _atomic_write_bytes(path: str | Path, *chunks) -> None:
    """Write the chunks (bytes-like objects, such as a contiguous array) to
    `path` one after another, atomically."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."))
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _atomic_write_text(path: str | Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))
