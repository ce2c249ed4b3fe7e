"""Batch kernels: consistency with the scalar constraint builders and with
direct per-splat evaluation of the barrier formulas."""
import numpy as np
import pytest
from scipy.spatial import cKDTree

from splatcone import filter as filter_mod
from splatcone import kernels, simulator
from splatcone.cone import RelativeGeometry
from splatcone.constraints import build_constraint, build_constraint_inflated
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene
from helpers import random_spd

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
# are the plain formulas (stacked `inv_cov @ v`, fancy-index gathers) and are
# compared with np.array_equal, not a tolerance.
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


def _assert_bits_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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


@pytest.mark.parametrize("scene_name", ["clutter_scene", "ring_scene"])
def test_query_nearby_matches_tree(request, scene_name):
    """query_nearby returns the kd-tree's indices, sorted, as intp: the
    active set orders the rows, and the start-from-rest stall ends by
    rounding, so a reordered row set could move it."""
    scene = request.getfixturevalue(scene_name)
    rng = np.random.default_rng(5)
    lo, hi = scene.bounds
    points = np.vstack([rng.uniform(lo, hi, size=(40, 3)), hi + 100.0])  # last: none near
    for pt in points:
        for radius in (1.0, 5.0):
            got = scene.query_nearby(pt, radius)
            want = np.sort(np.asarray(scene._tree.query_ball_point(pt, radius)))
            assert got.dtype == np.intp
            assert np.array_equal(got, want)


@pytest.mark.parametrize("scene_name", ["clutter_scene", "ring_scene"])
def test_scene_queries_match_a_balanced_tree(request, scene_name):
    """The scene's kd-tree splits at sliding midpoints; a balanced tree
    (median splits) over the same means finds the same splats for
    query_nearby, count_nearby and nearby_pairs, at the activation radii,
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
        assert scene.count_nearby(points, radius).tolist() == list(map(len, want))
        owner, idx = scene.nearby_pairs(points, radius)
        assert len(idx) == sum(map(len, want))
        got = [set() for _ in points]
        for o, i in zip(owner.tolist(), idx.tolist()):
            got[o].add(i)
        assert got == want
