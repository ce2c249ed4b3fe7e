"""Batch kernels: consistency with the scalar constraint builders and with
direct per-splat evaluation of the barrier formulas."""
import numpy as np
import pytest

from splatcone import kernels
from splatcone.cone import RelativeGeometry
from splatcone.constraints import build_constraint, build_constraint_inflated
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
    got = kernels.min_margin(pts, means, inv_cov, c2eff)
    for k, pt in enumerate(pts):
        e = pt - means
        vals = np.einsum("mi,mij,mj->m", e, inv_cov, e) - c2eff
        assert got[k] == pytest.approx(vals.min(), rel=1e-12)
    assert (kernels.min_margin(pts, means[:0], inv_cov[:0], c2eff[:0]) == np.inf).all()


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
