"""Batch kernels: consistency with the scalar constraint builders and with
direct per-splat evaluation of the barrier formulas."""
import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree

from splatcone import filter as filter_mod
from splatcone import kernels, simulator
from splatcone.cone import RelativeGeometry
from splatcone.constraints import build_constraint, build_constraint_inflated
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene
from helpers import all_pairs, candidate_counts, random_spd

@pytest.fixture
def batch():
    rng = np.random.default_rng(20)
    m = 64
    means = rng.normal(size=(m, 3)) * 6.0
    inv_cov = np.empty((m, 3, 3))
    smin = np.empty(m)
    for i in range(m):
        A, s, _ = random_spd(rng, 0.3, 3.0)
        inv_cov[i] = A
        smin[i] = s.min()
    p = rng.normal(size=3)
    v = rng.normal(size=3) * 2.0
    c2eff = rng.uniform(1.0, 12.0, size=m)
    return p, v, means, inv_cov, smin, c2eff


def test_cone_rows_match_scalar_builder(batch):
    p, v, means, inv_cov, smin, c2eff = batch
    normals, offsets, h, eta = kernels.cone_rows(p, v, means, inv_cov, c2eff, 1.3)
    for i in range(means.shape[0]):
        g = RelativeGeometry(r=means[i] - p, v=v, A=inv_cov[i], c2=float(c2eff[i]))
        c = build_constraint(g, p_k=1.3)
        scale = max(np.linalg.norm(c.normal), abs(c.offset), 1.0)
        assert np.linalg.norm(normals[i] - c.normal) <= 1e-12 * scale
        assert abs(offsets[i] - c.offset) <= 1e-12 * scale
        assert abs(h[i] - c.h_value) <= 1e-12 * scale


def test_inflated_rows_match_scalar_builder(batch):
    p, v, means, inv_cov, smin, c2eff = batch
    c = 2.0
    rho = 0.4
    normals, offsets, h, eta, fb = kernels.cone_rows_inflated(
        p, v, means, inv_cov, smin, c, rho, 1.0)
    assert not fb.any()  # random geometry: no degenerate directions expected
    for i in range(means.shape[0]):
        g = RelativeGeometry(r=means[i] - p, v=v, A=inv_cov[i], c2=c * c)
        scales = np.array([smin[i], 1.0, 1.0])  # only min matters for fallback
        con = build_constraint_inflated(g, scales, rho=rho, p_k=1.0, mode="exact")
        scale = max(np.linalg.norm(con.normal), abs(con.offset), 1.0)
        assert np.linalg.norm(normals[i] - con.normal) <= 1e-9 * scale
        assert abs(offsets[i] - con.offset) <= 1e-9 * scale


def test_margin_matches_direct_quadratic(batch):
    p, v, means, inv_cov, smin, c2eff = batch
    pts = np.random.default_rng(9).normal(size=(5, 3)) * 4.0
    # every (point, splat) pair, as explicit pairs
    m = means.shape[0]
    owner = np.repeat(np.arange(5), m)
    got = kernels.min_margin(pts, owner, np.tile(means, (5, 1)), np.tile(inv_cov, (5, 1, 1)),
                             np.tile(c2eff, 5))
    for k, pt in enumerate(pts):
        e = pt - means
        vals = np.einsum("mi,mij,mj->m", e, inv_cov, e) - c2eff
        assert got[k] == pytest.approx(vals.min(), rel=1e-12)
    none = np.zeros(0, dtype=np.intp)
    assert (kernels.min_margin(pts, none, means[:0], inv_cov[:0], c2eff[:0]) == np.inf).all()


def test_baseline_rows_match_direct_formula(batch):
    """Row i encodes hdd + (a1 + a2) hd + a1 a2 h >= 0 for the distance
    barrier h = (p - mu)^T A (p - mu) - c2eff under p'' = u; hd and hdd are
    checked by finite differences along a trajectory."""
    p, v, means, inv_cov, smin, c2eff = batch
    a1, a2 = 1.0, 1.5
    normals, offsets, h = kernels.baseline_rows(p, v, means, inv_cov, c2eff, a1, a2)
    u = np.array([0.7, -1.1, 0.4])
    dt = 1e-4
    for i in range(means.shape[0]):
        def h_at(t):
            e = p + v * t + 0.5 * u * t * t - means[i]
            return e @ inv_cov[i] @ e - c2eff[i]
        hd = (h_at(dt) - h_at(-dt)) / (2 * dt)
        hdd = (h_at(dt) - 2 * h_at(0.0) + h_at(-dt)) / dt ** 2
        scale = max(abs(h[i]), abs(offsets[i]), 1.0)
        assert abs(h[i] - h_at(0.0)) <= 1e-12 * scale
        lhs = normals[i] @ u - offsets[i]
        assert lhs == pytest.approx(hdd + (a1 + a2) * hd + a1 * a2 * h[i], rel=1e-5, abs=1e-5 * scale)


# ---------------------------------------------------------------------------
# bit-identity with the reference formulas
#
# The start-from-rest stall (ROADMAP, "starting from rest") ends by rounding:
# a 1e-15 change to the rows moves its length by hundreds of steps, and has
# turned an acceptance pair into a timeout. A speed-up of the row pipeline
# must therefore leave every bit of every row unchanged. The references below
# are the plain formulas (stacked `inv_cov @ v`, fancy-index gathers, the
# baseline and the margin over e = p - mu) and are compared byte for byte,
# signed zeros included, not with a tolerance.
# ---------------------------------------------------------------------------

def _ref_cone_rows(p, v, means, inv_cov, c2eff, p_k):
    r = means - p
    Ar = np.einsum("mij,mj->mi", inv_cov, r)
    Av = inv_cov @ v
    rar = np.einsum("mi,mi->m", r, Ar)
    delta = np.einsum("mi,mi->m", r, Av)
    beta = Av @ v
    eta = rar - c2eff
    h = beta * eta - delta * delta
    normals = eta[:, None] * Av - delta[:, None] * Ar
    return normals, -0.5 * p_k * h, h, eta


def _ref_cone_rows_inflated(p, v, means, inv_cov, s_min, c, rho, p_k):
    r = means - p
    Ar = np.einsum("mij,mj->mi", inv_cov, r)
    Av = inv_cov @ v
    rar = np.einsum("mi,mi->m", r, Ar)
    delta = np.einsum("mi,mi->m", r, Av)
    beta = Av @ v
    rnorm = np.linalg.norm(r, axis=1)
    safe_beta = np.where(beta > 0.0, beta, 1.0)
    t = r - v[None, :] * (delta / safe_beta)[:, None]
    tn = np.linalg.norm(t, axis=1)
    fallback = (beta <= 0.0) | (tn <= 1e-9 * rnorm)
    tn_s = np.where(fallback, 1.0, tn)
    At = np.einsum("mij,mj->mi", inv_cov, t)
    q2 = np.einsum("mi,mi->m", t, At)
    q = np.sqrt(np.where(q2 > 0.0, q2, 1.0))
    c_M = c + rho * np.where(fallback, 1.0 / s_min, q / tn_s)
    gt = At / (tn_s * q)[:, None] - (q / tn_s ** 3)[:, None] * t
    gt_dot_v = np.einsum("mi,i->m", gt, v)
    grad_p = -(rho * (gt - Av * (gt_dot_v / safe_beta)[:, None]))
    k_vec = (beta[:, None] * Ar - 2.0 * delta[:, None] * Av) / safe_beta[:, None] ** 2
    grad_v = rho * (-k_vec * gt_dot_v[:, None] - (delta / safe_beta)[:, None] * gt)
    grad_p[fallback] = 0.0
    grad_v[fallback] = 0.0
    eta = rar - c_M * c_M
    h = beta * eta - delta * delta
    bcm = beta * c_M
    normals = eta[:, None] * Av - delta[:, None] * Ar - bcm[:, None] * grad_v
    offsets = -0.5 * p_k * h + bcm * np.einsum("mi,i->m", grad_p, v)
    return normals, offsets, h, eta, fallback


def _ref_baseline_rows(p, v, means, inv_cov, c2eff, a1, a2):
    e = p - means
    Ae = np.einsum("mij,mj->mi", inv_cov, e)
    Av = inv_cov @ v
    h = np.einsum("mi,mi->m", e, Ae) - c2eff
    hdot = 2.0 * np.einsum("mi,mi->m", e, Av)
    curv = 2.0 * (Av @ v)
    return 2.0 * Ae, -curv - (a1 + a2) * hdot - (a1 * a2) * h, h


def _ref_min_margin(points, owner, means, inv_cov, c2eff):
    e = points[owner] - means
    Ae = np.einsum("mij,mj->mi", inv_cov, e)
    out = np.full(points.shape[0], np.inf)
    np.minimum.at(out, owner, np.einsum("mi,mi->m", e, Ae) - c2eff)
    return out


def _assert_bits_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


@pytest.fixture(scope="module")
def clutter_scene():
    # criterion 9's splat density (170k in a 35.4 m box) in a smaller box
    return make_synthetic_scene(
        SyntheticSpec(pattern="clutter", count=20000, extent=8.67,
                      scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0)),
        seed=11)


@pytest.fixture(scope="module")
def ring_scene():
    # the acceptance suite's ring scene
    return make_synthetic_scene(
        SyntheticSpec(pattern="ring", count=2400, ring_radius=6.5, pillar_count=10,
                      pillar_radius=0.45, height=4.0, scale_range=(0.08, 0.2),
                      anisotropy_range=(1.0, 4.0)),
        seed=7)


@pytest.fixture(scope="module")
def active_2000(clutter_scene):
    """About 2000 active splats around a free-space state of the clutter scene."""
    p = np.array([0.31, -0.22, 0.17])
    v = np.array([1.3, 0.6, -0.4])
    idx = clutter_scene.query_nearby(p, 5.0)
    assert 1500 <= idx.size <= 2500
    return clutter_scene, idx, p, v


def test_cone_rows_bit_identical(batch, active_2000):
    """cone_rows equals the reference bit for bit, on the fixture batch and
    through the filter's gathers on ~2000 splats (conservative inflation
    included): the start-from-rest stall ends by rounding, so rows must not
    move by one bit."""
    p, v, means, inv_cov, smin, c2eff = batch
    _assert_bits_equal(kernels.cone_rows(p, v, means, inv_cov, c2eff, 1.3),
                       _ref_cone_rows(p, v, means, inv_cov, c2eff, 1.3))
    scene, idx, p, v = active_2000
    for rho in (0.0, 0.2):
        cfg = filter_mod.FilterConfig(p_k=8.0, rho=rho)
        c2eff = (np.sqrt(scene.confidence) + rho / scene.s_min[idx]) ** 2
        normals, offsets, h, eta = _ref_cone_rows(
            p, v, scene.means[idx], scene.inv_cov[idx], c2eff, 8.0)
        got = filter_mod._cone_rows(scene, idx, p, v, cfg)
        _assert_bits_equal(got[:4], (normals, offsets, h, eta <= 0.0))
        assert np.array_equal(filter_mod._no_rows(scene, idx, p, v, cfg)[2], h)


def test_cone_rows_inflated_bit_identical(batch, active_2000):
    """cone_rows_inflated equals the reference bit for bit, on the fixture
    batch and through the filter's gathers on ~2000 splats: the
    start-from-rest stall ends by rounding, so rows must not move by one bit."""
    p, v, means, inv_cov, smin, c2eff = batch
    _assert_bits_equal(kernels.cone_rows_inflated(p, v, means, inv_cov, smin, 2.0, 0.4, 1.0),
                       _ref_cone_rows_inflated(p, v, means, inv_cov, smin, 2.0, 0.4, 1.0))
    scene, idx, p, _ = active_2000
    v = 0.5 * (scene.means[idx[7]] - p)  # aimed at a splat: its row falls back to 1/s_min
    cfg = filter_mod.FilterConfig(p_k=8.0, rho=0.2, inflation_mode="exact")
    c = float(np.sqrt(scene.confidence))
    normals, offsets, h, eta, fb = _ref_cone_rows_inflated(
        p, v, scene.means[idx], scene.inv_cov[idx], scene.s_min[idx], c, 0.2, 8.0)
    assert fb[7]
    got = filter_mod._cone_rows(scene, idx, p, v, cfg)
    _assert_bits_equal(got, (normals, offsets, h, eta <= 0.0, int(fb.sum())))


def test_baseline_rows_bit_identical(batch, active_2000):
    """baseline_rows equals the reference bit for bit, on the fixture batch
    and through the filter's gathers on ~2000 splats: the start-from-rest
    stall ends by rounding, so rows must not move by one bit."""
    p, v, means, inv_cov, smin, c2eff = batch
    _assert_bits_equal(kernels.baseline_rows(p, v, means, inv_cov, c2eff, 1.0, 1.5),
                       _ref_baseline_rows(p, v, means, inv_cov, c2eff, 1.0, 1.5))
    scene, idx, p, v = active_2000
    cfg = filter_mod.FilterConfig(p_k=8.0, rho=0.2)
    c2eff = (np.sqrt(scene.confidence) + 0.2 / scene.s_min[idx]) ** 2
    normals, offsets, h = _ref_baseline_rows(
        p, v, scene.means[idx], scene.inv_cov[idx], c2eff, 8.0, 8.0)
    got = filter_mod._baseline_rows(scene, idx, p, v, cfg)
    _assert_bits_equal(got, (normals, offsets, h, h <= 0.0, 0))
    # one inside rule: the baseline's barrier is the conservative cone's eta
    eta = kernels.cone_rows(p, v, scene.means[idx], scene.inv_cov[idx], c2eff, 8.0)[3]
    _assert_bits_equal((h,), (eta,))


def test_scalar_c2eff_gives_the_bits_of_the_array(batch, active_2000):
    """At rho = 0 effective_c2 is the scene's c^2 itself, a scalar, and the
    cone and baseline kernels give the same bits from it as from the
    per-splat array of that value."""
    scene, idx, p, v = active_2000
    c2 = filter_mod.effective_c2(scene, 0.0, idx)
    assert c2 == scene.confidence and np.ndim(c2) == 0
    bp, bv, bmeans, binv_cov = batch[:4]
    for p, v, means, inv_cov in ((p, v, scene.means[idx], scene.inv_cov[idx]),
                                 (bp, bv, bmeans, binv_cov), (bp, 0.0 * bv, bmeans, binv_cov)):
        full = np.full(means.shape[0], c2)
        _assert_bits_equal(kernels.cone_rows(p, v, means, inv_cov, c2, 8.0),
                           kernels.cone_rows(p, v, means, inv_cov, full, 8.0))
        _assert_bits_equal(kernels.baseline_rows(p, v, means, inv_cov, c2, 8.0, 8.0),
                           kernels.baseline_rows(p, v, means, inv_cov, full, 8.0, 8.0))


@pytest.mark.parametrize("scene_name", ["clutter_scene", "ring_scene"])
def test_query_nearby_matches_tree(request, scene_name):
    """query_nearby returns a kd-tree's indices, sorted, as intp: the
    active set orders the rows, and the start-from-rest stall ends by
    rounding, so a reordered row set could move it."""
    scene = request.getfixturevalue(scene_name)
    tree = cKDTree(scene.means)
    rng = np.random.default_rng(5)
    lo, hi = scene.bounds
    points = np.vstack([rng.uniform(lo, hi, size=(40, 3)), hi + 100.0])  # last: none near
    for pt in points:
        for radius in (1.0, 5.0):
            got = scene.query_nearby(pt, radius)
            want = np.sort(np.asarray(tree.query_ball_point(pt, radius)))
            assert got.dtype == np.intp
            assert np.array_equal(got, want)


@pytest.mark.parametrize("scene_name", ["clutter_scene", "ring_scene"])
def test_scene_queries_match_a_balanced_tree(request, scene_name):
    """A balanced kd-tree (median splits) over the scene's means finds the
    splats that query_nearby and nearby_pairs find with the scene's grid,
    and no more than its grid search's candidates, at the activation radii,
    the neighbour list's skin radius and the audit's reach."""
    scene = request.getfixturevalue(scene_name)
    balanced = cKDTree(scene.means, balanced_tree=True)
    rng = np.random.default_rng(6)
    lo, hi = scene.bounds
    points = rng.uniform(lo, hi, size=(60, 3))
    for radius in (1.0, 5.0, 5.5, simulator.audit_reach(scene, 0.2) + 1e-9):
        want = [set(found) for found in balanced.query_ball_point(points, radius)]
        assert sum(map(len, want)) > 0
        assert [set(scene.query_nearby(p, radius).tolist()) for p in points] == want
        assert (candidate_counts(scene, points, radius) >= list(map(len, want))).all()
        owner, idx = all_pairs(scene, points, radius)
        assert len(idx) == sum(map(len, want))
        got = [set() for _ in points]
        for o, i in zip(owner.tolist(), idx.tolist()):
            got[o].add(i)
        assert got == want


def test_baseline_rows_bit_identical_at_exact_zeros():
    """Where a term is exactly zero (v = 0 at the start from rest, an
    axis-aligned splat level with the robot, a robot on the boundary) the
    baseline rows still carry the reference's bits, the sign of every zero
    normal entry and offset included."""
    means = np.array([[1.0, 2.0, 3.0], [1.0, -4.0, 0.5], [0.0, 2.0, 3.0], [2.0, 2.0, 0.0]])
    inv_cov = np.stack([np.diag([2.0, 3.0, 4.0]), np.diag([1.0, 0.5, 0.25]), np.eye(3), np.eye(3)])
    c2eff = np.array([1.5, 1.5, 1.5, 1.0])  # the last splat's boundary passes through p
    p = np.array([1.0, 2.0, 0.0])
    for v in (np.zeros(3), np.array([0.0, 1.0, 0.0]), np.array([0.3, -0.2, 0.0])):
        got = kernels.baseline_rows(p, v, means, inv_cov, c2eff, 1.0, 1.5)
        assert (got[0] == 0.0).any()
        _assert_bits_equal(got, _ref_baseline_rows(p, v, means, inv_cov, c2eff, 1.0, 1.5))


@pytest.mark.parametrize("scene_name", ["clutter_scene", "ring_scene"])
@pytest.mark.parametrize("rho", [0.0, 0.2])
def test_min_margin_bit_identical(request, scene_name, rho):
    """min_margin over the audit's (point, splat) pairs equals the pass over
    e = p - mu byte for byte: r^T A r with r = -e is the same sum."""
    scene = request.getfixturevalue(scene_name)
    lo, hi = scene.bounds
    points = np.random.default_rng(3).uniform(lo, hi, size=(40, 3))
    owner, idx = all_pairs(scene, points, simulator.audit_reach(scene, rho) + 1e-9)
    assert idx.size > 0
    args = (points, owner, scene.means[idx], scene.inv_cov[idx],
            filter_mod.effective_c2(scene, rho, idx))
    _assert_bits_equal((kernels.min_margin(*args),), (_ref_min_margin(*args),))


@pytest.mark.parametrize("scene_name", ["clutter_scene", "ring_scene"])
@pytest.mark.parametrize("rho", [0.0, 0.2])
def test_audit_reach_matches_row_max(request, scene_name, rho):
    """audit_reach's per-column maximum of the scales is the row-wise
    `scales.max(axis=1)` formula, bit for bit: the reach sets which pairs
    the audit finds."""
    scene = request.getfixturevalue(scene_name)
    c_m = np.sqrt(scene.confidence) + (rho / scene.s_min if rho else 0.0)
    want = float((c_m * scene.scales.max(axis=1)).max())
    assert np.float64(simulator.audit_reach(scene, rho)).tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# memory layout
#
# The neighbour list hands the kernels its means as the .T view of a
# C-contiguous (3, m) block; the scene's arrays and the callers' own arrays
# are C-ordered (m, 3) rows, and a caller may pass F-ordered ones. Every
# kernel must give the reference's bytes for each, the reference taken on
# C-ordered rows (einsum itself sums otherwise over an F-ordered operand).
# ---------------------------------------------------------------------------

_LAYOUTS = {
    "C": np.ascontiguousarray,
    "F": np.asfortranarray,
    "columns": lambda rows: np.ascontiguousarray(rows.T).T,
}


def _splat_sets(batch, active_2000):
    """(p, v, means, inv_cov, s_min, c2eff) of the fixture batch and of the
    ~2000 active splats, with a velocity aimed at one splat so that one
    inflated row falls back to 1/s_min."""
    scene, idx, p, v = active_2000
    means = np.take(scene.means, idx, axis=0)
    s_min = np.take(scene.s_min, idx)
    c2eff = (np.sqrt(scene.confidence) + 0.2 / s_min) ** 2
    return [batch, (p, v, means, np.take(scene.inv_cov, idx, axis=0), s_min, c2eff),
            (p, 0.5 * (means[7] - p), means, np.take(scene.inv_cov, idx, axis=0), s_min, c2eff)]


@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_row_kernels_give_the_reference_bytes_for_every_layout(batch, active_2000, layout):
    """cone_rows, cone_rows_inflated and baseline_rows give the bytes of the
    einsum formulas whatever the memory layout of `means`, and their
    normals are handed over as columns: normals.T is C-contiguous."""
    for p, v, means, inv_cov, s_min, c2eff in _splat_sets(batch, active_2000):
        given = _LAYOUTS[layout](means)
        assert np.array_equal(given, means)
        for kernel, ref, args in (
                (kernels.cone_rows, _ref_cone_rows, (c2eff, 8.0)),
                (kernels.cone_rows_inflated, _ref_cone_rows_inflated, (s_min, 2.0, 0.2, 8.0)),
                (kernels.baseline_rows, _ref_baseline_rows, (c2eff, 8.0, 8.0))):
            got = kernel(p, v, given, inv_cov, *args)
            _assert_bits_equal(got, ref(p, v, means, inv_cov, *args))
            assert got[0].T.flags.c_contiguous


@pytest.mark.parametrize("layout", list(_LAYOUTS))
def test_min_margin_gives_the_reference_bytes_for_every_layout(ring_scene, layout):
    lo, hi = ring_scene.bounds
    points = np.random.default_rng(8).uniform(lo, hi, size=(40, 3))
    owner, idx = all_pairs(ring_scene, points, simulator.audit_reach(ring_scene, 0.2) + 1e-9)
    means = np.take(ring_scene.means, idx, axis=0)
    rest = (np.take(ring_scene.inv_cov, idx, axis=0),
            filter_mod.effective_c2(ring_scene, 0.2, idx))
    _assert_bits_equal((kernels.min_margin(points, owner, _LAYOUTS[layout](means), *rest),),
                       (_ref_min_margin(points, owner, means, *rest),))


def test_neighbour_list_hands_out_contiguous_mean_columns(clutter_scene):
    """An answer's means are the .T view of a C-contiguous, read-only (3, k)
    block: the layout the kernels read column by column."""
    scene = dataclasses.replace(clutter_scene)  # a fresh neighbour list
    for p in (np.array([0.31, -0.22, 0.17]), np.array([0.35, -0.2, 0.2])):
        idx = scene.query_nearby(p, 5.0)
        means, inv_cov = scene.gather(idx)
        assert scene._memo.idx is idx  # served from the list
        assert means.T.flags.c_contiguous and inv_cov.flags.c_contiguous
        assert not means.flags.writeable and not means.T.base.flags.writeable
        assert np.array_equal(means, np.take(scene.means, idx, axis=0))


def test_einsum_sums_a_row_of_three_as_the_kernels_do():
    """Assumption test. The kernels sum each row of three as
    (x0 + x2) + x1, the order this numpy build's einsum takes for
    "mij,mj->mi" and "mi,mi->m", so that their rows keep the bits of the
    einsum formulas the pins compare against. A build that sums otherwise
    fails here, in one place, rather than across the bit pins."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(20000, 3)) * np.exp(rng.uniform(-8.0, 8.0, size=(20000, 3)))
    y = rng.normal(size=(20000, 3))
    mats = rng.normal(size=(20000, 3, 3))
    xy = x * y
    order = (xy[:, 0] + xy[:, 2]) + xy[:, 1]
    # the data tells the kernels' order from the other two
    assert (order != (xy[:, 0] + xy[:, 1]) + xy[:, 2]).any()
    assert (order != xy[:, 0] + (xy[:, 1] + xy[:, 2])).any()
    why = ("this numpy's einsum sums a row of three otherwise than (x0 + x2) + x1; "
           "the kernels' sums and the bit pins in this file assume that order "
           "(see ROADMAP item 11 on retiring the bit-mimicry)")
    assert np.einsum("mi,mi->m", x, y).tobytes() == order.tobytes(), why
    prod = mats * x[:, None, :]
    rows = (prod[..., 0] + prod[..., 2]) + prod[..., 1]
    assert np.einsum("mij,mj->mi", mats, x).tobytes() == rows.tobytes(), why
    # the kernels' own sums take that order
    assert kernels.dot3(x.T, y.T).tobytes() == order.tobytes()
    assert np.ascontiguousarray(kernels._cov_dot(mats, x.T).T).tobytes() == rows.tobytes()
