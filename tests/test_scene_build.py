"""Bit-identity and memory pins of the scene build: `Scene.from_arrays`,
`load_ply` and `save_ply` against their references in `reference_scene.py`.

The build computes inverse covariances chunk by chunk and the PLY reader and
writer copy no whole record, but every per-splat operation is the reference's,
in its order. So every scene array must equal the reference's
(np.array_equal) and every PLY file must be the same bytes.
"""
import dataclasses
import os
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import reference_scene as ref
from helpers import ring_scene
from splatcone import scene as scene_mod, sceneio, synthetic
from splatcone.scene import _BUILD_CHUNK, _SCAN_MAX, PreprocessOptions, Scene, SceneError
from splatcone.sceneio import load_ply, load_scene_dump, save_ply, save_scene_dump
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene

ARRAYS = ("means", "quats", "scales", "opacities", "inv_cov", "s_min", "bounds")
CLUTTER = SyntheticSpec(pattern="clutter", count=20000, extent=8.67,
                        scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0))
REFERENCE_BUILD = types.SimpleNamespace(from_arrays=ref.from_arrays)


def assert_same_scene(got, want):
    for name in ARRAYS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.confidence == want.confidence and got.options == want.options


def raw_splats(n, seed):
    """Unnormalised quaternions, scales spread past the anisotropy cap and
    the clamp defaults, opacities across [0, 1]."""
    rng = np.random.default_rng(seed)
    return (rng.uniform(-10.0, 10.0, (n, 3)),
            rng.normal(size=(n, 4)) * rng.uniform(0.1, 10.0, (n, 1)),
            rng.uniform(0.01, 0.5, (n, 3)) * rng.uniform(0.001, 3.0, (n, 1)),
            rng.uniform(0.0, 1.0, n))


def scene_bytes(scene):
    return sum(getattr(scene, name).nbytes for name in ARRAYS)


def traced_peak(fn, *args):
    """(result, bytes allocated at the peak of fn(*args) beyond those live
    before the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1, _BUILD_CHUNK - 1, _BUILD_CHUNK, _BUILD_CHUNK + 1,
                               2 * _BUILD_CHUNK + 3])
@pytest.mark.parametrize("opts", [PreprocessOptions(opacity_min=0.0),
                                  PreprocessOptions(opacity_min=0.0, anisotropy_cap=2.0,
                                                    scale_min=0.02, scale_max=0.3)])
def test_from_arrays_bit_identical_across_chunk_edges(n, opts):
    raw = raw_splats(n, seed=n)
    assert_same_scene(Scene.from_arrays(*raw, opts), ref.from_arrays(*raw, opts))


def test_from_arrays_bit_identical_with_splats_dropped():
    means, quats, scales, opacities = raw_splats(2 * _BUILD_CHUNK + 3, seed=5)
    quats[[3, _BUILD_CHUNK, 2 * _BUILD_CHUNK + 2]] = [1e-9, 0.0, 0.0, 0.0]
    opts = PreprocessOptions(opacity_min=0.3)
    with pytest.warns(RuntimeWarning, match="dropping 3 splat"):
        got = Scene.from_arrays(means, quats, scales, opacities, opts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = ref.from_arrays(means, quats, scales, opacities, opts)
    assert len(got) < len(means) - 3
    assert_same_scene(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("opacity_min", [0.0, 0.5])
def test_from_arrays_leaves_inputs_writable_and_unaliased(dtype, opacity_min):
    raw = [a.astype(dtype) for a in raw_splats(300, seed=6)]
    before = [a.copy() for a in raw]
    scene = Scene.from_arrays(*raw, PreprocessOptions(opacity_min=opacity_min))
    for arr, old in zip(raw, before):
        assert arr.flags.writeable and np.array_equal(arr, old)
        for name in ARRAYS:
            assert not np.shares_memory(arr, getattr(scene, name)), name


@pytest.mark.parametrize("opacity_min", [0.0, 0.5])
def test_from_arrays_keeps_handed_over_arrays(opacity_min):
    """With copy=False the scene keeps float64 means and opacities as they
    are (none dropped) and freezes them; every array keeps its bits."""
    raw = raw_splats(300, seed=10)
    opts = PreprocessOptions(opacity_min=opacity_min)
    want = Scene.from_arrays(*raw, opts)
    handed = [a.copy() for a in raw]
    got = Scene.from_arrays(*handed, opts, copy=False)
    assert_same_scene(got, want)
    kept = len(got) == len(raw[0])
    assert kept == (opacity_min == 0.0)
    for arr, name in ((handed[0], "means"), (handed[3], "opacities")):
        assert np.shares_memory(arr, getattr(got, name)) == kept
        assert arr.flags.writeable != kept


def test_load_ply_hands_its_arrays_over(tmp_path, monkeypatch):
    """load_ply's float64 means and opacities become the scene's own, with
    no second copy, and the scene keeps the reference's bits."""
    path = tmp_path / "scene.ply"
    save_ply(path, make_synthetic_scene(CLUTTER, seed=14))
    handed = {}
    build = Scene.from_arrays.__func__

    def capture(cls, *args, **kwargs):
        handed["args"] = args
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Scene, "from_arrays", classmethod(capture))
    opts = PreprocessOptions(opacity_min=0.0)
    got = load_ply(path, opts)
    assert got.means is handed["args"][0] and got.opacities is handed["args"][3]
    monkeypatch.undo()
    assert_same_scene(got, ref.load_ply(path, opts))


@pytest.mark.parametrize("make", [ring_scene, lambda: make_synthetic_scene(CLUTTER, seed=11)],
                         ids=["ring", "clutter"])
def test_synthetic_scenes_bit_identical(make, monkeypatch):
    got = make()
    monkeypatch.setattr(synthetic, "Scene", REFERENCE_BUILD)
    assert_same_scene(got, make())


def test_scene_dump_reload_bit_identical(tmp_path, monkeypatch):
    path = tmp_path / "scene.npz"
    save_scene_dump(path, make_synthetic_scene(CLUTTER, seed=12))
    got = load_scene_dump(path)
    monkeypatch.setattr(sceneio, "Scene", REFERENCE_BUILD)
    assert_same_scene(got, load_scene_dump(path))


def test_ply_bytes_and_reload_bit_identical(tmp_path):
    scene = make_synthetic_scene(CLUTTER, seed=13)
    got, want = tmp_path / "got.ply", tmp_path / "want.ply"
    save_ply(got, scene)
    ref.save_ply(want, scene)
    assert got.read_bytes() == want.read_bytes()
    for opts in (None, PreprocessOptions(opacity_min=0.0, scale_min=scene.options.scale_min,
                                         scale_max=scene.options.scale_max)):
        assert_same_scene(load_ply(got, opts), ref.load_ply(got, opts))


def test_ply_of_mixed_property_types_loads_bit_identical(tmp_path):
    # double and integer columns, and extra properties between the required ones
    means, quats, scales, opacities = raw_splats(_BUILD_CHUNK + 1, seed=7)
    props = [("x", "<f8"), ("red", "u1"), ("y", "<f4"), ("z", "<f8"),
             ("scale_0", "<f4"), ("scale_1", "<f8"), ("scale_2", "<f4"), ("nx", "<f4"),
             ("rot_0", "<i2"), ("rot_1", "<f4"), ("rot_2", "<f8"), ("rot_3", "<f4"),
             ("opacity", "<f8")]
    rec = np.zeros(len(means), dtype=props)
    rec["x"], rec["y"], rec["z"] = means.T
    rec["scale_0"], rec["scale_1"], rec["scale_2"] = np.log(scales).T
    rec["rot_0"] = np.round(quats[:, 0] * 100)
    rec["rot_1"], rec["rot_2"], rec["rot_3"] = quats[:, 1:].T
    rec["opacity"] = np.log(opacities / (1.0 - opacities))
    names = {"<f4": "float", "<f8": "double", "u1": "uchar", "<i2": "short"}
    header = (f"ply\nformat binary_little_endian 1.0\nelement vertex {len(rec)}\n"
              + "".join(f"property {names[t]} {p}\n" for p, t in props) + "end_header\n")
    path = tmp_path / "mixed.ply"
    path.write_bytes(header.encode("ascii") + rec.tobytes())
    opts = PreprocessOptions(opacity_min=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rot_0 rounds to 0 on some rows
        assert_same_scene(load_ply(path, opts), ref.load_ply(path, opts))


# Peak traced allocations of the build and of PLY I/O on a 50k-splat scene,
# against the scene's own array bytes (the PLY body for `save_ply`). Before
# the build was chunked: 2.16x, 2.95x and 3.7x.
MEMORY_SPLATS = 50000


def test_from_arrays_peak_memory():
    raw = raw_splats(MEMORY_SPLATS, seed=8)
    scene, peak = traced_peak(Scene.from_arrays, *raw, PreprocessOptions(opacity_min=0.0))
    assert peak <= 1.5 * scene_bytes(scene)


def test_ply_io_peak_memory(tmp_path):
    scene = Scene.from_arrays(*raw_splats(MEMORY_SPLATS, seed=9), PreprocessOptions(opacity_min=0.0))
    path = tmp_path / "scene.ply"
    _, peak = traced_peak(save_ply, path, scene)
    assert peak <= 2.5 * MEMORY_SPLATS * 11 * 4  # 11 float32 properties per splat
    del scene
    back, peak = traced_peak(load_ply, path, PreprocessOptions(opacity_min=0.0))
    assert len(back) == MEMORY_SPLATS
    assert peak <= 2.0 * scene_bytes(back)


# The grid of a scene of more than `_WORKER_MIN` splats is built on
# `scene._index_later`'s worker thread while the covariances are computed;
# it must be the grid a serial build gives. A smaller scene's grid is built
# on the calling thread.
_serial_index = scene_mod._index


def _serial_grid(scene):
    return _serial_index(scene.means)


def assert_same_grid(got, want, points, radius):
    assert type(got) is type(want)
    for name, a, b in zip(want._fields, got, want):
        assert np.array_equal(a, b), name
    for a, b in zip(scene_mod._runs(got, points, radius), scene_mod._runs(want, points, radius)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("make, radius, on_worker", [
    (ring_scene.__wrapped__, 5.0, False),  # built here, not the cached scene
    # a scene the neighbour list refills from the grid
    (lambda: make_synthetic_scene(dataclasses.replace(CLUTTER, count=_SCAN_MAX + 5000),
                                  seed=15), 5.5, True),
])
def test_worker_grid_equals_a_serial_build(make, radius, on_worker, monkeypatch):
    built_on, real = [], scene_mod._index

    def index(means):
        built_on.append(threading.current_thread())
        return real(means)

    monkeypatch.setattr(scene_mod, "_index", index)
    scene = make()
    assert (len(scene) > scene_mod._WORKER_MIN) == on_worker
    assert len(built_on) == 1 and (built_on[0] is not threading.current_thread()) == on_worker
    points = np.concatenate([scene.means[::97],
                             np.random.default_rng(3).uniform(*scene.bounds, (50, 3))])
    assert_same_grid(scene._grid, _serial_grid(scene), points, radius)


def test_an_error_after_the_submit_leaves_the_next_build_working(monkeypatch):
    submitted = []

    def submit(means):
        submitted.append(index_later(means))
        return submitted[-1]

    index_later = scene_mod._index_later
    monkeypatch.setattr(scene_mod, "_index_later", submit)
    # the scale clamp is checked after the means are final
    with pytest.raises(SceneError, match="invalid scale clamp range"):
        Scene.from_arrays(*raw_splats(2 * scene_mod._WORKER_MIN, seed=16),
                          PreprocessOptions(scale_min=2.0, scale_max=1.0))
    assert len(submitted) == 1
    raw = raw_splats(2 * scene_mod._WORKER_MIN, seed=17)
    scene = Scene.from_arrays(*raw)
    assert len(submitted) == 2 and submitted[1].result() is scene._grid
    assert_same_scene(scene, ref.from_arrays(*raw))
    assert_same_grid(scene._grid, _serial_grid(scene), scene.means[::50], 2.0)


def test_concurrent_builds_share_one_worker(monkeypatch):
    """Threads that build scenes at once, from a state with no worker yet,
    make one worker between them, and each gets its own scene's grid."""
    built_on, real = set(), scene_mod._index

    def index(means):
        built_on.add(threading.current_thread())
        return real(means)

    monkeypatch.setattr(scene_mod, "_index", index)
    monkeypatch.setattr(scene_mod, "_indexer", None)
    raws = [raw_splats(2 * scene_mod._WORKER_MIN + 50 * k, seed=100 + k) for k in range(6)]
    failures = []

    def build(k):
        for raw in raws[k % 2::2]:
            scene = Scene.from_arrays(*raw)
            if not all(np.array_equal(a, b) for a, b in zip(scene._grid, _serial_grid(scene))):
                failures.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == [] and len(built_on) == 1


_FORKED_BUILD = """
import os, signal, sys
import numpy as np
from splatcone.scene import Scene

N = 25000  # more than _WORKER_MIN: built on the worker

def build(seed):
    rng = np.random.default_rng(seed)
    return Scene.from_arrays(rng.uniform(-5, 5, (N, 3)), rng.normal(size=(N, 4)),
                             rng.uniform(0.05, 0.2, (N, 3)), np.ones(N))

build(0)  # the worker thread exists in this process before the fork
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a build that hangs ends the child
    os._exit(0 if len(build(1)) == N else 3)
code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
assert len(build(2)) == N  # and the parent's worker still builds
print(code)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_a_scene():
    """A child forked after the parent built a scene inherits the worker's
    executor but not its thread; it must build on a worker of its own.
    Run in a subprocess whose timeout kills it, so a hang fails the test."""
    src = str(Path(scene_mod.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", _FORKED_BUILD], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"  # the child's exit code; -14 is SIGALRM
