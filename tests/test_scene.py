"""Scene construction, preprocessing invariants, PLY I/O, spatial queries,
and the chi-squared confidence quantile."""
import dataclasses
import functools
import math
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

from splatcone import scene as scene_mod
from splatcone.scene import (
    PreprocessOptions,
    Scene,
    SceneError,
    chi2_confidence,
    rotation_from_quat,
)
from splatcone.sceneio import load_ply, load_scene_dump, save_ply, save_scene_dump
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene


def _write_ply(path, rows, props=None, fmt="binary_little_endian"):
    props = props or ["x", "y", "z", "scale_0", "scale_1", "scale_2",
                      "rot_0", "rot_1", "rot_2", "rot_3", "opacity"]
    header = (
        f"ply\nformat {fmt} 1.0\nelement vertex {len(rows)}\n"
        + "".join(f"property float {p}\n" for p in props)
        + "end_header\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for row in rows:
            fh.write(struct.pack(f"<{len(props)}f", *row))


def _fixture_rows():
    # three handcrafted splats: stored scales are logs, opacity is a logit
    return [
        # identity rotation, unit scales, opacity logit 0 -> 0.5
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        # rotated anisotropic splat, high opacity
        [1.0, 2.0, 3.0, np.log(0.5), np.log(0.2), np.log(0.8),
         0.9, 0.1, -0.3, 0.2, 3.0],
        # another pose, moderate opacity
        [-2.0, 0.5, 1.0, np.log(0.3), np.log(0.3), np.log(1.2),
         0.5, 0.5, 0.5, 0.5, 1.0],
    ]


def test_rotation_matches_scipy_oracle():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(50, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    ours = rotation_from_quat(q)
    # scipy uses scalar-last ordering
    theirs = Rotation.from_quat(q[:, [1, 2, 3, 0]]).as_matrix()
    np.testing.assert_allclose(ours, theirs, atol=1e-12)


def _reference_rotation(quats):
    """`rotation_from_quat` as it stood before it worked column by column:
    renormalise with np.linalg.norm and a broadcast, then fill R."""
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


def test_rotation_from_quat_bit_identical_to_reference():
    # the scene build's reference (tests/reference_scene.py) calls the
    # library's rotation_from_quat, so it is pinned here on its own
    rng = np.random.default_rng(4)
    for shape in [(4,), (1, 4), (2049, 4), (3, 5, 4)]:
        q = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape[:-1] + (1,))
        assert np.array_equal(rotation_from_quat(q), _reference_rotation(q)), shape
    for q in rng.normal(size=(500, 4)):  # one quaternion at a time, as svgplot calls it
        assert np.array_equal(rotation_from_quat(q), _reference_rotation(q))


def test_load_ply_fixture_inv_cov_matches_dense_oracle(tmp_path):
    path = tmp_path / "three.ply"
    _write_ply(path, _fixture_rows())
    scene = load_ply(path, PreprocessOptions(opacity_min=0.0))
    assert len(scene) == 3
    for i, row in enumerate(_fixture_rows()):
        q = np.array(row[6:10], dtype=np.float64)
        q32 = q.astype(np.float32).astype(np.float64)
        q32 /= np.linalg.norm(q32)
        R = Rotation.from_quat(q32[[1, 2, 3, 0]]).as_matrix()
        s = np.exp(np.array(row[3:6], dtype=np.float32).astype(np.float64))
        Sigma = R @ np.diag(s) @ np.diag(s) @ R.T
        A_expected = np.linalg.inv(Sigma)
        np.testing.assert_allclose(scene.inv_cov[i], A_expected, rtol=1e-10, atol=1e-13)
        # whitening consistency L^T L = A, with L = diag(1/s) R^T
        L = rotation_from_quat(scene.quats[i:i + 1])[0].T / scene.scales[i][:, None]
        np.testing.assert_allclose(L.T @ L, scene.inv_cov[i], rtol=1e-10, atol=1e-14)


def test_load_ply_sigmoid_opacity_and_filter(tmp_path):
    path = tmp_path / "three.ply"
    _write_ply(path, _fixture_rows())
    scene = load_ply(path, PreprocessOptions(opacity_min=0.0))
    assert scene.opacities[0] == pytest.approx(0.5)
    # opacity_min = 0.6 discards the logit-0 splat
    scene2 = load_ply(path, PreprocessOptions(opacity_min=0.6))
    assert len(scene2) == 2


def test_load_ply_unit_scale_identity(tmp_path):
    path = tmp_path / "one.ply"
    _write_ply(path, [_fixture_rows()[0]])
    scene = load_ply(path, PreprocessOptions(opacity_min=0.0))
    np.testing.assert_allclose(scene.scales[0], 1.0)
    np.testing.assert_allclose(scene.inv_cov[0], np.eye(3), atol=1e-12)


def test_load_ply_error_reporting(tmp_path):
    bad = tmp_path / "bad.ply"
    bad.write_bytes(b"not a ply at all\n")
    with pytest.raises(SceneError, match="magic"):
        load_ply(bad)

    ascii_ply = tmp_path / "ascii.ply"
    ascii_ply.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 0\nend_header\n")
    with pytest.raises(SceneError, match="binary_little_endian"):
        load_ply(ascii_ply)

    missing = tmp_path / "missing.ply"
    _write_ply(missing, [[0.0] * 10], props=["x", "y", "z", "scale_0", "scale_1",
                                             "scale_2", "rot_0", "rot_1", "rot_2", "rot_3"])
    with pytest.raises(SceneError, match="opacity"):
        load_ply(missing)

    nonfinite = tmp_path / "nan.ply"
    rows = _fixture_rows()
    rows[1][0] = np.nan
    _write_ply(nonfinite, rows)
    with pytest.raises(SceneError, match="property 'x' at splat index 1"):
        load_ply(nonfinite)

    allfiltered = tmp_path / "filtered.ply"
    _write_ply(allfiltered, [_fixture_rows()[0]])
    with pytest.raises(SceneError, match="zero splats"):
        load_ply(allfiltered, PreprocessOptions(opacity_min=0.9))

    # malformed element and property lines, and counts that are no
    # vertex count, fail as bad input, not as an IndexError or ValueError;
    # so do headers that end early, name no vertex element or a vertex
    # property numpy cannot read. Blank and comment lines are skipped, and
    # the properties of another element are not the vertex's.
    header = tmp_path / "header.ply"
    end = "end_header"
    for lines, match in ((["element vertex", end], "element line"),
                         (["element", end], "element line"),
                         (["element vertex three", end], "vertex count 'three'"),
                         (["element vertex 2.5", end], "vertex count '2.5'"),
                         (["element vertex -3", end], "vertex count '-3'"),
                         (["element vertex 1", "property float", end], "property line"),
                         (["element vertex 1", "property float x"], "truncated before end_header"),
                         (["comment by hand", "", "element vertex 1", "property float", end],
                          "property line"),
                         (["element face 1", "element vertex 1", end], "'face' precedes vertex"),
                         (["element vertex 1", "property float x", "element face 1",
                           "property float y", end], "missing required property 'y'"),
                         (["element vertex 1", "property list uchar int idx", end], "list property"),
                         (["element vertex 1", "property half x", end], "property type 'half'"),
                         ([end], "no vertex element")):
        header.write_bytes("\n".join(["ply", "format binary_little_endian 1.0", *lines,
                                        ""]).encode("ascii"))
        with pytest.raises(SceneError, match=match):
            load_ply(header)
    # a count far beyond the body reads only the records there are
    huge = tmp_path / "huge.ply"
    _write_ply(huge, [_fixture_rows()[0]])
    huge.write_bytes(huge.read_bytes().replace(b"element vertex 1\n",
                                               b"element vertex 1000000000000000000\n"))
    with pytest.raises(SceneError, match="expected 1000000000000000000 vertices, got 1"):
        load_ply(huge)


def test_extra_properties_ignored(tmp_path):
    props = ["x", "y", "z", "nx", "ny", "nz", "f_dc_0", "scale_0", "scale_1",
             "scale_2", "rot_0", "rot_1", "rot_2", "rot_3", "opacity"]
    row = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.3, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0]
    path = tmp_path / "extras.ply"
    _write_ply(path, [row], props=props)
    scene = load_ply(path)
    assert len(scene) == 1
    np.testing.assert_allclose(scene.scales[0], 1.0)


def test_degenerate_quaternion_rejected_with_warning():
    means = np.zeros((2, 3))
    means[1, 0] = 5.0
    quats = np.array([[1.0, 0, 0, 0], [1e-12, 0, 0, 0]])
    scales = np.full((2, 3), 0.5)
    opac = np.array([0.9, 0.9])
    with pytest.warns(RuntimeWarning, match="quaternion"):
        scene = Scene.from_arrays(means, quats, scales, opac)
    assert len(scene) == 1


@pytest.mark.parametrize("means, quats, scales, opacities", [
    ((4, 2), (4, 4), (4, 3), (4,)),   # a 2-D scene fails here, not at its first query
    ((4, 3), (4, 3), (4, 3), (4,)),
    ((4, 3), (4, 4), (3, 3), (4,)),
    ((4, 3), (4, 4), (4, 3), (4, 1)),
    ((), (1, 4), (1, 3), (1,)),       # 0-d means: a SceneError, not an IndexError
])
def test_from_arrays_rejects_inconsistent_shapes(means, quats, scales, opacities):
    arrays = [np.ones(shape) for shape in (means, quats, scales, opacities)]
    arrays[0] = np.arange(np.prod(means), dtype=float).reshape(means)
    with pytest.raises(SceneError, match="inconsistent shapes"):
        Scene.from_arrays(*arrays)


def test_whitening_and_covariance_identity_synthetic():
    spec = SyntheticSpec(pattern="clutter", count=500, anisotropy_range=(1.0, 10.0))
    scene = make_synthetic_scene(spec, seed=3)
    R = rotation_from_quat(scene.quats)
    S = scene.scales
    Sigma = np.einsum("nij,nj,nkj->nik", R, S * S, R)
    # L Sigma L^T = I, with L = diag(1/s) R^T
    L = np.swapaxes(R, 1, 2) / S[:, :, None]
    prod = np.einsum("nij,njk,nlk->nil", L, Sigma, L)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), prod.shape),
                               rtol=1e-8, atol=1e-8)
    # inv_cov equals the dense inverse of Sigma
    A_dense = np.linalg.inv(Sigma)
    np.testing.assert_allclose(scene.inv_cov, A_dense, rtol=1e-7, atol=1e-9)


def test_eigenvalue_cap_by_scale_clamp():
    opts = PreprocessOptions(scale_min=0.05, scale_max=10.0)
    spec = SyntheticSpec(pattern="clutter", count=300, scale_range=(0.001, 0.3),
                         anisotropy_range=(1.0, 50.0))
    scene = make_synthetic_scene(spec, seed=9, opts=opts)
    eigs = np.linalg.eigvalsh(scene.inv_cov)
    assert eigs.max() <= 1.0 / 0.05**2 * (1 + 1e-9)
    assert (eigs > 0).all()
    ratio = scene.scales.max(axis=1) / scene.scales.min(axis=1)
    assert (ratio <= scene.options.anisotropy_cap * (1 + 1e-12)).all()


def test_ply_round_trip_float32(tmp_path):
    spec = SyntheticSpec(pattern="clutter", count=200, anisotropy_range=(1.0, 5.0))
    scene = make_synthetic_scene(spec, seed=11)
    path = tmp_path / "dump.ply"
    save_ply(path, scene)
    opts = PreprocessOptions(opacity_min=0.0, scale_min=scene.options.scale_min,
                             scale_max=scene.options.scale_max)
    back = load_ply(path, opts)
    assert len(back) == len(scene)
    np.testing.assert_allclose(back.means, scene.means, rtol=1e-6, atol=1e-5)
    np.testing.assert_allclose(back.scales, scene.scales, rtol=1e-5)
    # quaternions match up to float32 rounding (normalization preserved)
    dots = np.abs(np.einsum("ni,ni->n", back.quats, scene.quats))
    np.testing.assert_allclose(dots, 1.0, atol=1e-7)
    np.testing.assert_allclose(back.opacities, scene.opacities, atol=1e-5)


def test_synth_wall_slab_deterministic_and_ply_round_trip(tmp_path):
    spec = SyntheticSpec(pattern="wall", count=300, extent=4.0, height=3.0)
    scene = make_synthetic_scene(spec, seed=4)
    again = make_synthetic_scene(spec, seed=4)
    for name in ("means", "quats", "scales", "opacities", "inv_cov"):
        np.testing.assert_array_equal(getattr(again, name), getattr(scene, name))
    assert not np.array_equal(make_synthetic_scene(spec, seed=5).means, scene.means)
    # the slab: x jittered about 0 (sd 0.1), y within the half-width, z within the height
    x, y, z = scene.means.T
    assert len(scene) == 300
    assert np.abs(x).max() < 0.6 and abs(x.mean()) < 0.05
    assert (np.abs(y) <= spec.extent).all() and (0.0 <= z).all() and (z <= spec.height).all()
    path = tmp_path / "wall.ply"
    save_ply(path, scene)
    back = load_ply(path, PreprocessOptions(opacity_min=0.0, scale_min=scene.options.scale_min,
                                            scale_max=scene.options.scale_max))
    assert len(back) == len(scene)
    np.testing.assert_allclose(back.means, scene.means, rtol=1e-6, atol=1e-5)
    np.testing.assert_allclose(back.scales, scene.scales, rtol=1e-5)
    np.testing.assert_allclose(np.abs(np.einsum("ni,ni->n", back.quats, scene.quats)), 1.0, atol=1e-7)
    np.testing.assert_allclose(back.opacities, scene.opacities, atol=1e-5)


def test_scene_dump_round_trip(tmp_path):
    scene = make_synthetic_scene(SyntheticSpec(pattern="ring", count=150), seed=2)
    path = tmp_path / "scene.npz"
    save_scene_dump(path, scene)
    back = load_scene_dump(path)
    np.testing.assert_array_equal(back.means, scene.means)
    np.testing.assert_array_equal(back.scales, scene.scales)
    # renormalizing unit quaternions can wobble the last ulp
    np.testing.assert_allclose(back.quats, scene.quats, rtol=0, atol=5e-16)
    np.testing.assert_array_equal(back.opacities, scene.opacities)
    assert back.confidence == scene.confidence
    # the caller's c^2 replaces the dumped one
    assert load_scene_dump(path, confidence=9.0).confidence == 9.0


def test_synthetic_single_unit_sphere():
    scene = make_synthetic_scene(SyntheticSpec(pattern="single", count=1,
                                               scale_range=(1.0, 1.0)), seed=0)
    assert len(scene) == 1
    np.testing.assert_array_equal(scene.means[0], 0.0)
    np.testing.assert_allclose(scene.inv_cov[0], np.eye(3), atol=1e-12)


def test_synthetic_determinism():
    spec = SyntheticSpec(pattern="ring", count=1000)
    a = make_synthetic_scene(spec, seed=42)
    b = make_synthetic_scene(spec, seed=42)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.quats, b.quats)
    np.testing.assert_array_equal(a.scales, b.scales)
    np.testing.assert_array_equal(a.opacities, b.opacities)


def test_synthetic_invariant_audit_clutter():
    spec = SyntheticSpec(pattern="clutter", count=5000, anisotropy_range=(1.0, 10.0))
    scene = make_synthetic_scene(spec, seed=42)
    assert len(scene) == 5000
    assert (scene.scales > 0).all()
    eigs = np.linalg.eigvalsh(scene.inv_cov)
    assert (eigs > 0).all()
    ratio = scene.scales.max(axis=1) / scene.scales.min(axis=1)
    assert (ratio <= scene.options.anisotropy_cap * (1 + 1e-12)).all()
    qn = np.linalg.norm(scene.quats, axis=1)
    np.testing.assert_allclose(qn, 1.0, atol=1e-9)


def test_synthetic_bad_spec():
    with pytest.raises(SceneError):
        make_synthetic_scene(SyntheticSpec(count=0), seed=1)
    with pytest.raises(SceneError):
        make_synthetic_scene(SyntheticSpec(scale_range=(2.0, 1.0)), seed=1)
    with pytest.raises(SceneError):
        make_synthetic_scene(SyntheticSpec(pattern="spiral"), seed=1)
    # opacities above 1 would be clipped by save_ply, so a PLY round trip
    # would change the scene
    with pytest.raises(SceneError, match="opacity_range above 1"):
        SyntheticSpec(pattern="clutter", count=50, opacity_range=(0.5, 3.0))
    SyntheticSpec(opacity_range=(0.5, 1.0))


def test_query_nearby_trivial():
    scene = make_synthetic_scene(SyntheticSpec(pattern="single", count=1,
                                               scale_range=(1.0, 1.0)), seed=0)
    assert scene.query_nearby(np.array([10.0, 0, 0]), 5.0).size == 0
    assert scene.query_nearby(np.array([3.0, 0, 0]), 5.0).tolist() == [0]
    with pytest.raises(SceneError):
        scene.query_nearby(np.zeros(3), -1.0)


def test_query_nearby_matches_linear_scan():
    scene = make_synthetic_scene(SyntheticSpec(pattern="clutter", count=1000), seed=5)
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = rng.uniform(-12, 12, size=3)
        radius = rng.uniform(0.5, 8.0)
        got = set(scene.query_nearby(p, radius).tolist())
        want = set(np.nonzero(np.linalg.norm(scene.means - p, axis=1) <= radius)[0].tolist())
        assert got == want


def test_query_nearby_rejects_nan_radius():
    # a NaN radius fails `radius > 0`; it must not read as "no splats near"
    scene = make_synthetic_scene(SyntheticSpec(pattern="single", count=1), seed=0)
    with pytest.raises(SceneError, match="radius must be positive"):
        scene.query_nearby(np.zeros(3), float("nan"))


def test_confidence_rejects_nan():
    with pytest.raises(SceneError, match="confidence must be positive"):
        PreprocessOptions(confidence=float("nan")).resolved_confidence()


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("anisotropy_cap", 0.0), ("anisotropy_cap", 0.5), ("anisotropy_cap", -2.0),
    ("anisotropy_cap", _NAN),
    ("opacity_min", _NAN), ("opacity_min", -0.1), ("opacity_min", 1.5),
    ("scale_min", 0.0), ("scale_min", -1.0), ("scale_min", _NAN), ("scale_min", _INF),
    ("scale_max", 0.0), ("scale_max", _NAN), ("scale_max", _INF),
    ("confidence", 0.0), ("confidence", -1.0), ("confidence", _INF),
])
def test_preprocess_options_reject_out_of_range(field, value):
    # a cap of 0 built infinite scales and zero inverse covariances, a NaN
    # cap NaN covariances, a cap of 0.5 spheres twice the longest axis
    with pytest.raises(SceneError, match=field):
        PreprocessOptions(**{field: value})


def test_preprocess_options_range_ends():
    PreprocessOptions(opacity_min=0.0, anisotropy_cap=1.0)
    opts = PreprocessOptions(opacity_min=1.0, scale_min=1e-6, scale_max=10.0,
                             anisotropy_cap=_INF)
    # an infinite cap is no cap
    scales = np.array([[1e-3, 0.5, 2.0]])
    scene = Scene.from_arrays(np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0, 0.0]]), scales,
                              np.ones(1), opts)
    assert np.array_equal(scene.scales, scales)


@pytest.mark.parametrize("field, value", [("anisotropy_cap", 0.0), ("anisotropy_cap", _NAN),
                                          ("opacity_min", _NAN), ("scale_min", -1.0),
                                          ("scale_max", _INF), ("opacity_min", None),
                                          ("means", None), ("opacity_min", [0.1, 0.2]),
                                          ("means", "x"), ("confidence", "x"),
                                          ("version", "splatcone-scene-v0")])
def test_tampered_scene_dump_rejected(tmp_path, field, value):
    # value None: the array is missing from the dump; a two-element option or
    # a string entry is no number
    path = tmp_path / "scene.npz"
    save_scene_dump(path, make_synthetic_scene(SyntheticSpec(pattern="ring", count=150), seed=2))
    with np.load(path) as z:
        arrays = dict(z)
    if value is None:
        del arrays[field]
    else:
        arrays[field] = np.asarray(value)
    np.savez(path, **arrays)
    with pytest.raises(SceneError, match=field):
        load_scene_dump(path)


# kd-trees over scenes' means, built here as the oracle of the neighbour
# queries, by the id of the means they hold; copies of a scene share its
# means, and so its tree
_TREES: dict = {}
_TREES_LOCK = threading.Lock()


def _tree(scene):
    with _TREES_LOCK:
        held = _TREES.get(id(scene.means))
        if held is None:
            if len(_TREES) > 8:
                _TREES.clear()
            held = _TREES[id(scene.means)] = (scene.means, cKDTree(scene.means))
        return held[1]


def _tree_ball(scene, p, radius):
    idx = _tree(scene).query_ball_point(p, radius)
    return np.sort(np.asarray(idx, dtype=np.intp))


def _rule(scene, p, radius):
    """`query_nearby`'s answer by its rule, written out over every mean of
    the scene: the indices whose squared distance to p, summed
    (dx^2 + dy^2) + dz^2, is at most radius * radius."""
    e = scene.means - np.asarray(p, dtype=np.float64)
    d2 = (e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1]) + e[:, 2] * e[:, 2]
    return np.nonzero(d2 <= radius * radius)[0]


def _off_sphere(scene, p, radius):
    """Whether no mean lies within 1e-9 relative of the sphere, where the
    tree may decide a mean otherwise than the rule."""
    d = np.linalg.norm(scene.means - p, axis=1)
    return np.abs(d - radius).min() > 1e-9 * radius


def _rows_match(scene, idx):
    """Whether `scene.gather(idx)` holds the scene's means and inverse
    covariances of `idx`, bit for bit, in read-only arrays."""
    rows = scene.gather(idx)
    want = [np.take(a, idx, axis=0) for a in (scene.means, scene.inv_cov)]
    return all(not got.flags.writeable and got.dtype == w.dtype and np.array_equal(got, w)
               for got, w in zip(rows, want))


@functools.cache
def _walk_scene():
    return make_synthetic_scene(SyntheticSpec(pattern="clutter", count=2000), seed=3)


_direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda d: np.linalg.norm(d) > 1e-3)
_step = st.tuples(st.just("step"), _direction, st.floats(0.0, 2.5 * 0.02))  # |v| dt
_jump = st.tuples(st.just("jump"), st.tuples(*[st.floats(-12.0, 12.0)] * 3).map(np.array))
_walk_move = st.one_of(_step, _step, _step, _jump, st.just(("audit",)), st.just(("empty",)),
                       st.just(("shell",)), st.just(("own",)))


@settings(max_examples=60, deadline=None)
@given(start=st.tuples(*[st.floats(-8.0, 8.0)] * 3).map(np.array),
       moves=st.lists(_walk_move, min_size=1, max_size=40))
def test_query_nearby_walk_matches_tree(start, moves):
    """On a walk of control-step moves, jumps past the skin, audit-sized
    radii between activation queries, empty neighbourhoods and centres that
    put a mean on the sphere, every query returns the indices the rule
    gives over all means, read-only, and the rows `gather` serves for them
    are the scene's rows of those indices; so are the rows of a caller's
    own indices. Off the sphere that is a fresh tree query's answer. A
    query within the reach certified for the last answer gets that answer,
    the same array with the same rows; any other query gets a new array."""
    scene = dataclasses.replace(_walk_scene())  # a fresh neighbour list
    radius, audit_radius = 5.0, 1.37
    p = start
    last = None  # the neighbour list after the last query, with its last answer
    for move in moves:
        kind, args = move[0], move[1:]
        r = radius
        if kind == "step":
            direction, length = args
            p = p + direction / np.linalg.norm(direction) * length
        elif kind == "jump":
            p = args[0]
        elif kind == "audit":
            r = audit_radius
        elif kind == "empty":
            p = scene.bounds[1] + 100.0
        elif kind == "shell":
            # move p radially so that the mean nearest the sphere lies on it
            d = np.linalg.norm(scene.means - p, axis=1)
            j = int(np.argmin(np.abs(d - radius)))
            if d[j] > 0:
                p = scene.means[j] + (p - scene.means[j]) * (radius / d[j])
        elif kind == "own":
            own = _tree_ball(scene, p, r)[::2].copy()
            assert _rows_match(scene, own)
        got = scene.query_nearby(p, r)
        assert got.dtype == np.intp and not got.flags.writeable
        assert np.array_equal(got, _rule(scene, p, r))
        if _off_sphere(scene, p, r):
            assert np.array_equal(got, _tree_ball(scene, p, r))
        assert _rows_match(scene, got)
        memo = scene._memo
        if last is not None:
            # a query that neither refills the list nor makes a new answer
            # was served by the reach
            if memo is last:
                assert math.dist(p.tolist(), last.point) <= last.reach
                assert got is last.idx and scene.gather(got) is last.rows
            else:
                assert got is not last.idx
        last = memo


def test_query_nearby_threads_share_the_neighbour_list():
    """Threads walking one scene from one start, at two radii, replace
    each other's neighbour list all the time; every result still equals a
    fresh tree query, and its rows the scene's rows. (A query that read the
    list twice, a check-then-act race, fails here about every other run.)"""
    scene = dataclasses.replace(_walk_scene())
    errors = []

    def walk(k, radius):
        rng = np.random.default_rng(k)
        p = np.array([1.0, -2.0, 0.5])
        for _ in range(1000):
            p = p + rng.normal(size=3) * 0.02
            idx = scene.query_nearby(p, radius)
            if not (np.array_equal(idx, _tree_ball(scene, p, radius))
                    and _rows_match(scene, idx)):
                errors.append((k, p.copy(), radius))

    threads = [threading.Thread(target=walk, args=(k, r))
               for k, r in enumerate((5.0, 1.37, 5.0, 1.37))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def _counting_grid(monkeypatch) -> list:
    """Record the radius of every search of the scene's grid (`_runs`)
    into the returned list."""
    radii = []
    runs = scene_mod._runs

    def counted(grid, points, radius):
        radii.append(radius)
        return runs(grid, points, radius)

    monkeypatch.setattr(scene_mod, "_runs", counted)
    return radii


def _steps_scene():
    rng = np.random.default_rng(2)
    means = np.vstack([[5.0, 0.0, 0.0], rng.uniform(-8.0, 8.0, size=(300, 3))])
    scene = Scene.from_arrays(means, np.tile([1.0, 0.0, 0.0, 0.0], (301, 1)),
                              np.full((301, 3), 0.2), np.full(301, 0.9))
    return scene, cKDTree(scene.means)


def _serve_steps(scene, tree, calls, searched):
    """Run `calls` of (p, radius, the grid search radii it should make,
    whether it refills the list) and check each answer against the tree;
    `searched` records the grid's searches (`_counting_grid`)."""
    for p, radius, radii, refill in calls:
        searched.clear()
        memo = scene._memo
        got = scene.query_nearby(np.array(p), radius)
        assert searched == pytest.approx(radii)
        assert (scene._memo.sup is not getattr(memo, "sup", None)) == refill
        if refill:
            assert scene._memo.anchor == p and scene._memo.radius == radius
        assert np.array_equal(got, np.sort(np.asarray(tree.query_ball_point(p, radius),
                                                      dtype=np.intp)))
    assert 0 in scene.query_nearby(np.zeros(3), 5.0)


def test_query_nearby_serves_steps_from_the_neighbour_list(monkeypatch):
    monkeypatch.setattr(scene_mod, "_SCAN_MAX", 0)  # the grid refills the list
    scene, tree = _steps_scene()
    _serve_steps(scene, tree, [
        ((0.0, 0.2, 0.0), 5.0, [5.5], True),   # a miss searches the grid at the skin's radius
        ((0.0, 0.1, 0.0), 5.0, [], False),     # a control step inside the skin: no search
        ((0.0, 0.0, 0.0), 5.0, [], False),     # mean 0 exactly on the sphere: no search either
        ((0.0, 0.05, 0.0), 5.0, [], False),
        ((0.0, 0.05, 0.0), 1.0, [1.1], True),  # another radius
        ((0.0, 0.05, 0.0), 5.0, [5.5], True),
        ((0.0, 0.6, 0.0), 5.0, [5.5], True),   # beyond the skin of the last miss
    ], _counting_grid(monkeypatch))


def test_query_nearby_scans_a_small_scene_to_refill_the_list(monkeypatch):
    """The twin of the test above on a scene small enough to scan: the
    same refills read every mean instead of searching the grid, and no call
    searches it."""
    scene, tree = _steps_scene()
    assert len(scene) <= scene_mod._SCAN_MAX
    _serve_steps(scene, tree, [
        ((0.0, 0.2, 0.0), 5.0, [], True),
        ((0.0, 0.1, 0.0), 5.0, [], False),
        ((0.0, 0.0, 0.0), 5.0, [], False),
        ((0.0, 0.05, 0.0), 5.0, [], False),
        ((0.0, 0.05, 0.0), 1.0, [], True),
        ((0.0, 0.05, 0.0), 5.0, [], True),
        ((0.0, 0.6, 0.0), 5.0, [], True),
    ], _counting_grid(monkeypatch))


def test_query_nearby_scan_builds_the_grids_list(monkeypatch):
    """At seeded anchors on a scene small enough to scan, the scan's
    neighbour list (indices, mean columns, inverse covariances) is the
    grid's, byte for byte: both keep the means that pass `_d2`'s test.
    Anchors that put a mean within rounding of the list's sphere are
    redrawn, as when the other refill was a kd-tree's."""
    base = _walk_scene()
    rng = np.random.default_rng(11)
    lists = []
    for _ in range(40):
        radius = float(rng.choice([0.7, 1.37, 5.0]))
        skin = radius + scene_mod._SKIN * radius
        while True:
            p = rng.uniform(-12.0, 12.0, size=3)
            d = np.linalg.norm(base.means - p, axis=1)
            if np.abs(d - skin).min() > 1e-9 * skin:
                break
        lists.append((p, radius))
    assert len(base) <= scene_mod._SCAN_MAX
    scanned = []
    for p, radius in lists:
        scene = dataclasses.replace(base)
        scene.query_nearby(p, radius)
        scanned.append(scene._memo)
    monkeypatch.setattr(scene_mod, "_SCAN_MAX", 0)
    sizes = []
    for (p, radius), scan in zip(lists, scanned):
        scene = dataclasses.replace(base)
        scene.query_nearby(p, radius)
        tree = scene._memo
        assert scan.anchor == tree.anchor and scan.radius == tree.radius
        for name in ("sup", "xyz", "inv_cov"):
            a, b = getattr(scan, name), getattr(tree, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous and b.flags.c_contiguous
        sizes.append(tree.sup.size)
    assert min(sizes) == 0 and max(sizes) > 100  # empty and crowded lists both drawn


@pytest.mark.parametrize("scan", [True, False], ids=["scan", "grid"])
def test_query_nearby_random_walk_matches_tree_on_both_paths(monkeypatch, scan):
    """A seeded walk of control steps, jumps past the skin, audit-sized
    radii and centres that put a mean on the sphere gets the rule's answer
    over all means, with the scene's rows, at every step, whichever way the
    list refills; off the sphere that is the tree's answer."""
    if not scan:
        monkeypatch.setattr(scene_mod, "_SCAN_MAX", 0)
    scene = dataclasses.replace(_walk_scene())
    rng = np.random.default_rng(21)
    p = np.array([1.0, -2.0, 0.5])
    refills = 0
    for k in range(600):
        radius = 5.0
        move = rng.uniform()
        if move < 0.03:
            p = rng.uniform(-12.0, 12.0, size=3)
        elif move < 0.06:
            radius = 1.37
        elif move < 0.09:
            d = np.linalg.norm(scene.means - p, axis=1)
            j = int(np.argmin(np.abs(d - radius)))
            p = scene.means[j] + (p - scene.means[j]) * (radius / d[j])
        else:
            p = p + rng.normal(size=3) * 0.03
        memo = scene._memo
        got = scene.query_nearby(p, radius)
        refills += scene._memo is not memo and scene._memo.sup is not getattr(memo, "sup", None)
        assert np.array_equal(got, _rule(scene, p, radius)) and not got.flags.writeable
        if _off_sphere(scene, p, radius):
            assert np.array_equal(got, _tree_ball(scene, p, radius))
        assert _rows_match(scene, got)
    assert refills > 50


@pytest.mark.parametrize("scan", [True, False], ids=["scan", "grid"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_query_nearby_rejects_a_non_finite_point(monkeypatch, scan, bad):
    """A non-finite query point is an error on both refill paths, with or
    without a neighbour list: the scan would read it as "no splats near"
    and the filter would pass the reference through."""
    if not scan:
        monkeypatch.setattr(scene_mod, "_SCAN_MAX", 0)
    scene = dataclasses.replace(_walk_scene())
    for axis in range(3):
        p = np.array([0.5, -1.0, 0.2])
        p[axis] = bad
        with pytest.raises(SceneError, match="query point must be finite"):
            scene.query_nearby(p, 5.0)
        scene.query_nearby(np.array([0.5, -1.0, 0.2]), 5.0)  # a list to fall back on
        with pytest.raises(SceneError, match="query point must be finite"):
            scene.query_nearby(p, 5.0)


@pytest.mark.parametrize("scan", [True, False], ids=["scan", "grid"])
def test_query_nearby_keeps_a_mean_on_the_sphere_and_filters_again(monkeypatch, scan):
    """A mean whose squared distance is r^2 exactly is in the answer, one a
    rounding step beyond it is not; the zero gap gives a reach that serves
    no query, so a repeat of the same query filters the list again."""
    if not scan:
        monkeypatch.setattr(scene_mod, "_SCAN_MAX", 0)
    p = np.array([1.0, 2.0, -0.5])
    # (3, 4, 0) sums to 25 exactly; 4.000000000000001^2 rounds above 16
    means = p + np.array([[3.0, 4.0, 0.0], [0.0, 3.0, 4.000000000000001],
                          [1.0, 1.0, 1.0], [6.0, 0.0, 0.0]])
    scene = Scene.from_arrays(means, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)),
                              np.full((4, 3), 0.1), np.full(4, 0.9))
    first = scene.query_nearby(p, 5.0)
    assert first.tolist() == [0, 2] and np.array_equal(first, _rule(scene, p, 5.0))
    assert scene._memo.reach <= 0.0 and _rows_match(scene, first)
    calls = _count_within(monkeypatch)
    again = scene.query_nearby(p, 5.0)
    assert len(calls) == 1 and again is not first and np.array_equal(again, first)
    assert scene._memo.idx is again and _rows_match(scene, again)


@pytest.mark.parametrize("scan", [True, False], ids=["scan", "grid"])
def test_query_nearby_radius_whose_square_overflows(monkeypatch, scan):
    """At a radius whose square overflows, every splat is in the answer and
    the reach is NaN, so it serves no later query: each one filters."""
    if not scan:
        monkeypatch.setattr(scene_mod, "_SCAN_MAX", 0)
    scene = dataclasses.replace(_walk_scene())
    p = np.array([0.5, -1.0, 0.2])
    first = scene.query_nearby(p, 1e200)
    assert np.array_equal(first, np.arange(len(scene))) and _rows_match(scene, first)
    assert math.isnan(scene._memo.reach)
    calls = _count_within(monkeypatch)
    for q in (p, p + 1e-9):
        got = scene.query_nearby(q, 1e200)
        assert np.array_equal(got, first) and got is not scene.query_nearby(q, 1e200)
    assert len(calls) == 4


def test_query_nearby_reuses_a_repeated_answer():
    """A step within the reach of the last answer gets the same read-only
    idx and rows; another answer from the same neighbour list, or a
    caller's copy of an answer, gets rows of its own."""
    scene = dataclasses.replace(_walk_scene())
    p = np.array([0.5, -1.0, 0.2])
    first = scene.query_nearby(p, 5.0)
    rows = scene.gather(first)
    step = np.full(3, 0.5 * scene._memo.reach / math.sqrt(3.0))
    again = scene.query_nearby(p + step, 5.0)
    assert again is first and scene.gather(again) is rows
    assert all(not a.flags.writeable for a in (first, *rows))
    with pytest.raises(ValueError):
        rows[1][0, 0, 0] = 0.0
    # a step that brings the nearest outside mean into the sphere: a new
    # answer from the same list
    memo = scene._memo
    d = np.linalg.norm(memo.means - p, axis=1)
    j = int(np.argmin(np.where(d > 5.0, d, np.inf)))
    step = (memo.means[j] - p) * (1.0 - 5.0 / d[j] + 1e-6)
    assert np.linalg.norm(step) < 0.5
    moved = scene.query_nearby(p + step, 5.0)
    assert scene._memo.sup is memo.sup and moved is not first
    assert memo.sup[j] in moved and memo.sup[j] not in first
    assert _rows_match(scene, moved)
    # a copy of an answer is a caller's own indices
    own = first.copy()
    assert scene.gather(own) is not rows and _rows_match(scene, own)


def test_query_nearby_answers_a_refilled_list_afresh():
    """After a refill, an answer whose mask over the new list has the bytes
    of the previous list's last answer is still the new list's: a fresh
    idx, with that list's rows."""
    # one pattern twice, far apart: each list (radius 1.1) holds a splat
    # inside the radius and one in the skin, so both masks read [1, 0]
    pattern = np.array([[0.5, 0.0, 0.0], [1.05, 0.0, 0.0]])
    a, b = np.zeros(3), np.array([20.0, 0.0, 0.0])
    scene = Scene.from_arrays(np.vstack([a + pattern, b + pattern]),
                              np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)),
                              np.full((4, 3), 0.1), np.full(4, 0.9))
    assert _tree_ball(scene, a, 1.1).tolist() == [0, 1]
    assert _tree_ball(scene, b, 1.1).tolist() == [2, 3]
    first = scene.query_nearby(a, 1.0)
    rows = scene.gather(first)
    second = scene.query_nearby(b, 1.0)
    assert first.tolist() == [0] and second.tolist() == [2]
    assert scene.gather(second) is not rows and _rows_match(scene, second)
    assert _rows_match(scene, first)


def _count_within(monkeypatch) -> list:
    """Record every call of `scene._within` into the returned list."""
    calls = []
    within = scene_mod._within

    def counted(*args):
        calls.append(args[0])
        return within(*args)

    monkeypatch.setattr(scene_mod, "_within", counted)
    return calls


def _nearest_to_sphere(memo, p, radius):
    """Index into the list of the mean nearest the sphere around p, and
    the signed distance to go toward it to put it on the sphere."""
    d = np.linalg.norm(memo.means - p, axis=1)
    j = int(np.argmin(np.abs(d - radius)))
    return j, d[j] - radius


def test_query_nearby_serves_a_walk_inside_the_reach_without_filtering(monkeypatch):
    """Queries within the reach certified at the last filtered point get
    that answer, the same array, without filtering the list; the reach is
    no longer than the way to the nearest sphere crossing."""
    scene = dataclasses.replace(_walk_scene())
    p = np.array([0.5, -1.0, 0.2])
    first = scene.query_nearby(p, 5.0)
    memo = scene._memo
    assert memo.point == tuple(p.tolist()) and memo.idx is first
    j, to_sphere = _nearest_to_sphere(memo, p, 5.0)
    assert 0.0 < memo.reach < abs(to_sphere)
    calls = _count_within(monkeypatch)
    rng = np.random.default_rng(5)
    for _ in range(60):
        d = rng.normal(size=3)
        q = p + d / np.linalg.norm(d) * memo.reach * rng.uniform(0.0, 0.999)
        got = scene.query_nearby(q, 5.0)
        assert got is first and np.array_equal(got, _tree_ball(scene, q, 5.0))
    # to the reach's edge, toward the mean nearest the sphere
    edge = p + (memo.means[j] - p) / np.linalg.norm(memo.means[j] - p) * memo.reach * (1.0 - 1e-12)
    assert scene.query_nearby(edge, 5.0) is first
    assert calls == [] and scene._memo is memo


def test_query_nearby_filters_a_step_past_the_reach(monkeypatch):
    """A step just past the reach is filtered and gets the tree's answer,
    and the step that brings the nearest outside mean into the sphere gets
    a new answer with that mean."""
    scene = dataclasses.replace(_walk_scene())
    p = np.array([0.5, -1.0, 0.2])
    first = scene.query_nearby(p, 5.0)
    memo = scene._memo
    d = np.linalg.norm(memo.means - p, axis=1)
    j = int(np.argmin(np.where(d > 5.0, d, np.inf)))
    toward = (memo.means[j] - p) / d[j]
    calls = _count_within(monkeypatch)
    past = p + toward * memo.reach * (1.0 + 1e-6)
    got = scene.query_nearby(past, 5.0)
    assert len(calls) == 1 and np.array_equal(got, _tree_ball(scene, past, 5.0))
    assert scene._memo.point == tuple(past.tolist())  # certified anew there
    inside = p + toward * (d[j] - 5.0) * (1.0 + 1e-6)
    moved = scene.query_nearby(inside, 5.0)
    assert len(calls) == 2 and moved is not first
    assert memo.sup[j] in moved and memo.sup[j] not in first
    assert np.array_equal(moved, _tree_ball(scene, inside, 5.0)) and _rows_match(scene, moved)


def test_query_nearby_answers_a_filtered_repeat_afresh(monkeypatch):
    """A step just past the reach that brings no mean across the sphere is
    filtered: its answer equals the last one but is a new read-only array,
    with the scene's rows, certified at its own point."""
    scene = dataclasses.replace(_walk_scene())
    p = np.array([0.5, -1.0, 0.2])
    first = scene.query_nearby(p, 5.0)
    rows = scene.gather(first)
    memo = scene._memo
    j, to_sphere = _nearest_to_sphere(memo, p, 5.0)
    # past the reach, short of the nearest sphere crossing
    length = 0.5 * (memo.reach + abs(to_sphere))
    assert memo.reach < length < abs(to_sphere)
    past = p + (memo.means[j] - p) / np.linalg.norm(memo.means[j] - p) * length
    assert np.array_equal(_tree_ball(scene, past, 5.0), first)
    calls = _count_within(monkeypatch)
    got = scene.query_nearby(past, 5.0)
    assert len(calls) == 1 and scene._memo.sup is memo.sup
    assert got is not first and np.array_equal(got, first) and not got.flags.writeable
    assert scene._memo.idx is got and scene._memo.point == tuple(past.tolist())
    assert scene.gather(got) is scene._memo.rows and scene.gather(got) is not rows
    assert _rows_match(scene, got)


_reach_move = st.one_of(
    st.tuples(st.just("step"), _direction, st.floats(0.0, 1.0)),
    st.tuples(st.just("edge"), st.floats(0.999, 1.001)))


@settings(max_examples=40, deadline=None)
@given(start=st.tuples(*[st.floats(-8.0, 8.0)] * 3).map(np.array),
       radius=st.sampled_from([0.7, 1.37, 5.0]),
       scale=st.sampled_from([1e-5, 1e-3, 1e-2]),
       moves=st.lists(_reach_move, min_size=1, max_size=40))
def test_query_nearby_reach_walk_matches_tree(start, radius, scale, moves):
    """On walks of steps small against the radius, and of moves to about the
    reach's edge toward the mean nearest the sphere (the direction in which
    the answer changes first), every query returns a fresh tree query's
    indices, with the scene's rows."""
    scene = dataclasses.replace(_walk_scene())
    p = start
    for move in moves:
        memo = scene._memo
        if move[0] == "step":
            _, direction, length = move
            p = p + direction / np.linalg.norm(direction) * length * scale * radius
        elif memo is not None and memo.reach > 0.0 and memo.sup.size:
            a = np.array(memo.point)
            j, to_sphere = _nearest_to_sphere(memo, a, radius)
            towards = np.sign(to_sphere) * (memo.means[j] - a)
            if towards.any():
                p = a + towards / np.linalg.norm(towards) * memo.reach * move[1]
        got = scene.query_nearby(p, radius)
        assert np.array_equal(got, _tree_ball(scene, p, radius))
        assert _rows_match(scene, got)


def test_chi2_confidence_against_integration_oracle():
    def density(x, k):
        from scipy.special import gamma
        return x ** (k / 2 - 1) * np.exp(-x / 2) / (2 ** (k / 2) * gamma(k / 2))

    for q in (0.5, 0.9, 0.99):
        v = chi2_confidence(3, q)
        integral, _ = quad(density, 0.0, v, args=(3,))
        assert integral == pytest.approx(q, abs=1e-9)
    # the default confidence level used for scenes
    assert chi2_confidence(3, 0.99) == pytest.approx(11.3449, abs=1e-4)
    assert chi2_confidence(3, 0.9) < chi2_confidence(3, 0.99)


def test_chi2_confidence_validation():
    with pytest.raises(SceneError):
        chi2_confidence(0, 0.5)
    with pytest.raises(SceneError):
        chi2_confidence(3, 1.0)
    with pytest.raises(SceneError):
        chi2_confidence(3, 0.0)


def test_scene_arrays_read_only():
    scene = make_synthetic_scene(SyntheticSpec(pattern="single", count=1), seed=0)
    with pytest.raises(ValueError):
        scene.means[0, 0] = 1.0
