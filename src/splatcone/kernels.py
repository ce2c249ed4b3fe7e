"""Batch per-splat kernels for the closed-loop hot path.

One vectorized numpy implementation per row type. Each kernel is checked
against the scalar builders in `cone.py` and `constraints.py`
(`tests/test_kernels.py`).

Row conventions match the scalar constraint builders: each active splat i
contributes one half-space `normals[i] @ u >= offsets[i]` in acceleration
space, plus its barrier value for diagnostics.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark metadata."""
    return "numpy"


# ---------------------------------------------------------------------------
# cone constraint rows (fixed effective confidence per splat)
# ---------------------------------------------------------------------------

def cone_rows(p, v, means, inv_cov, c2eff, p_k):
    """Half-space rows of the cone barrier constraint, one per splat.

    c2eff is the per-splat effective squared confidence radius (already
    inflated for conservative robot-radius handling).
    """
    p, v, means, inv_cov, c2eff = _as_batch(p, v, means, inv_cov, c2eff)
    p_k = float(p_k)
    r = means - p
    Ar = np.einsum("mij,mj->mi", inv_cov, r)
    Av = _matvec(inv_cov, v)
    rar = np.einsum("mi,mi->m", r, Ar)
    delta = np.einsum("mi,mi->m", r, Av)
    beta = Av @ v
    eta = rar - c2eff
    h = beta * eta - delta * delta
    normals = eta[:, None] * Av - delta[:, None] * Ar
    offsets = -0.5 * p_k * h
    return normals, offsets, h, eta


# ---------------------------------------------------------------------------
# cone rows with exact direction-dependent inflation
# ---------------------------------------------------------------------------

def cone_rows_inflated(p, v, means, inv_cov, s_min, c, rho, p_k):
    """Cone rows with exact Minkowski inflation c_M = c + rho * psi(p, v).

    Splats with a degenerate direction (v parallel to the sight line, or
    beta = 0) fall back per-splat to the conservative radius c + rho/s_min;
    the returned mask marks them.
    """
    p, v, means, inv_cov, _ = _as_batch(p, v, means, inv_cov, None)
    s_min = np.ascontiguousarray(s_min, dtype=np.float64)
    c, rho, p_k = float(c), float(rho), float(p_k)
    r = means - p
    Ar = np.einsum("mij,mj->mi", inv_cov, r)
    Av = _matvec(inv_cov, v)
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
    psi = np.where(fallback, 1.0 / s_min, q / tn_s)
    c_M = c + rho * psi

    # grad_t psi = At/(|t| q) - (q/|t|^3) t
    gt = At / (tn_s * q)[:, None] - (q / tn_s ** 3)[:, None] * t
    # dt/dr = I - v (Av)^T / beta ; grad wrt p flips sign through r = mu - p
    gt_dot_v = np.einsum("mi,i->m", gt, v)
    grad_r = rho * (gt - Av * (gt_dot_v / safe_beta)[:, None])
    grad_p = -grad_r
    # dt/dv = -v (beta Ar - 2 delta Av)^T / beta^2 - (delta/beta) I
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


# ---------------------------------------------------------------------------
# distance-barrier (second-order) rows for the comparison baseline
# ---------------------------------------------------------------------------

def baseline_rows(p, v, means, inv_cov, c2eff, a1, a2):
    """Half-space rows of the second-order Mahalanobis-distance barrier."""
    p, v, means, inv_cov, c2eff = _as_batch(p, v, means, inv_cov, c2eff)
    a1, a2 = float(a1), float(a2)
    e = p - means
    Ae = np.einsum("mij,mj->mi", inv_cov, e)
    Av = _matvec(inv_cov, v)
    h = np.einsum("mi,mi->m", e, Ae) - c2eff
    hdot = 2.0 * np.einsum("mi,mi->m", e, Av)
    curv = 2.0 * (Av @ v)
    normals = 2.0 * Ae
    offsets = -curv - (a1 + a2) * hdot - (a1 * a2) * h
    return normals, offsets, h


# ---------------------------------------------------------------------------
# ellipsoid margins (audits, inside checks)
# ---------------------------------------------------------------------------

def min_margin(points, owner, means, inv_cov, c2eff):
    """Per-point min of (p - mu)^T A (p - mu) - c2eff over its pairs; pair j
    joins point owner[j] to row j of means, inv_cov and c2eff. Negative means
    inside some (inflated) ellipsoid; a point with no pair gets +inf."""
    e = np.take(points, owner, axis=0) - means
    Ae = np.einsum("mij,mj->mi", inv_cov, e)
    out = np.full(points.shape[0], np.inf)
    np.minimum.at(out, owner, np.einsum("mi,mi->m", e, Ae) - c2eff)
    return out


def _matvec(mats, x):
    """Stacked (m, 3, 3) @ (3,) as one (3m, 3) matrix-vector product.

    The same sums as `mats @ x`, bit for bit, without the stacked product's
    per-matrix overhead (about 10x faster at m = 2000). Rows must stay
    bit-identical: rounding changes move the start-from-rest stall.
    """
    return (mats.reshape(-1, 3) @ x).reshape(-1, 3)


def _as_batch(p, v, means, inv_cov, c2eff):
    p = np.ascontiguousarray(p, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    means = np.ascontiguousarray(means, dtype=np.float64)
    inv_cov = np.ascontiguousarray(inv_cov, dtype=np.float64)
    if c2eff is not None:
        c2eff = np.ascontiguousarray(c2eff, dtype=np.float64)
    return p, v, means, inv_cov, c2eff
