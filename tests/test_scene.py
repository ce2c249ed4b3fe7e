"""Scene construction, preprocessing invariants, PLY I/O, spatial queries,
and the chi-squared confidence quantile."""
import dataclasses
import functools
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.spatial.transform import Rotation

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
        SyntheticSpec(pattern="clutter", count=50, opacity_range=(0.5, 3.0)).validate()
    SyntheticSpec(opacity_range=(0.5, 1.0)).validate()


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
                                          ("scale_max", _INF)])
def test_tampered_scene_dump_rejected(tmp_path, field, value):
    path = tmp_path / "scene.npz"
    save_scene_dump(path, make_synthetic_scene(SyntheticSpec(pattern="ring", count=150), seed=2))
    with np.load(path) as z:
        arrays = dict(z)
    arrays[field] = np.float64(value)
    np.savez(path, **arrays)
    with pytest.raises(SceneError, match=field):
        load_scene_dump(path)


def _tree_ball(scene, p, radius):
    idx = scene._tree.query_ball_point(p, radius)
    return np.sort(np.asarray(idx, dtype=np.intp))


@functools.cache
def _walk_scene():
    return make_synthetic_scene(SyntheticSpec(pattern="clutter", count=2000), seed=3)


_direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda d: np.linalg.norm(d) > 1e-3)
_step = st.tuples(st.just("step"), _direction, st.floats(0.0, 2.5 * 0.02))  # |v| dt
_jump = st.tuples(st.just("jump"), st.tuples(*[st.floats(-12.0, 12.0)] * 3).map(np.array))
_walk_move = st.one_of(_step, _step, _step, _jump, st.just(("audit",)), st.just(("empty",)),
                       st.just(("shell",)))


@settings(max_examples=60, deadline=None)
@given(start=st.tuples(*[st.floats(-8.0, 8.0)] * 3).map(np.array),
       moves=st.lists(_walk_move, min_size=1, max_size=40))
def test_query_nearby_walk_matches_tree(start, moves):
    """On a walk of control-step moves, jumps past the skin, audit-sized
    radii between activation queries, empty neighbourhoods and centres that
    put a mean exactly on the sphere, every query returns a fresh tree
    query's indices, bit for bit."""
    scene = dataclasses.replace(_walk_scene())  # a fresh neighbour list
    radius, audit_radius = 5.0, 1.37
    p = start
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
        got = scene.query_nearby(p, r)
        assert got.dtype == np.intp
        assert np.array_equal(got, _tree_ball(scene, p, r))


def test_query_nearby_threads_share_the_neighbour_list():
    """Threads walking one scene from one start, at two radii, replace
    each other's neighbour list all the time; every result still equals a
    fresh tree query. (A query that read the list twice, a check-then-act
    race, fails here about every other run.)"""
    scene = dataclasses.replace(_walk_scene())
    errors = []

    def walk(k, radius):
        rng = np.random.default_rng(k)
        p = np.array([1.0, -2.0, 0.5])
        for _ in range(1000):
            p = p + rng.normal(size=3) * 0.02
            if not np.array_equal(scene.query_nearby(p, radius), _tree_ball(scene, p, radius)):
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


class _CountingTree:
    """A kd-tree that records the radius of every `query_ball_point` call."""

    def __init__(self, tree):
        self.tree = tree
        self.radii = []

    def query_ball_point(self, p, r):
        self.radii.append(r)
        return self.tree.query_ball_point(p, r)

    def __getattr__(self, name):
        return getattr(self.tree, name)


def test_query_nearby_serves_steps_from_the_neighbour_list():
    rng = np.random.default_rng(2)
    means = np.vstack([[5.0, 0.0, 0.0], rng.uniform(-8.0, 8.0, size=(300, 3))])
    scene = Scene.from_arrays(means, np.tile([1.0, 0.0, 0.0, 0.0], (301, 1)),
                              np.full((301, 3), 0.2), np.full(301, 0.9))
    tree = scene._tree
    scene._tree = _CountingTree(tree)
    calls = [
        ((0.0, 0.2, 0.0), 5.0, [5.5]),   # a miss queries the tree at the skin's radius
        ((0.0, 0.1, 0.0), 5.0, []),      # a control step inside the skin: no tree query
        ((0.0, 0.0, 0.0), 5.0, [5.0]),   # mean 0 exactly on the sphere: the guard asks the tree
        ((0.0, 0.05, 0.0), 5.0, []),
        ((0.0, 0.05, 0.0), 1.0, [1.1]),  # another radius
        ((0.0, 0.05, 0.0), 5.0, [5.5]),
        ((0.0, 0.6, 0.0), 5.0, [5.5]),   # beyond the skin of the last miss
    ]
    for p, radius, radii in calls:
        scene._tree.radii.clear()
        got = scene.query_nearby(np.array(p), radius)
        assert scene._tree.radii == pytest.approx(radii)
        assert np.array_equal(got, np.sort(np.asarray(tree.query_ball_point(p, radius),
                                                      dtype=np.intp)))
    assert 0 in scene.query_nearby(np.zeros(3), 5.0)


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
