"""Batch per-splat kernels for the closed-loop hot path.

One vectorized numpy implementation per row type, checked against the
scalar builders in `cone.py` and `constraints.py` (`tests/test_kernels.py`).
Every kernel starts from one Mahalanobis pass over its splats (`_terms`, the
batch form of `cone.RelativeGeometry`). The distance baseline's barrier
(p - mu)^T A (p - mu) - c2eff is the cone's eta, so its rows come from the
same terms; negating r = mu - p is exact, so they are the bits of a pass
over p - mu.

Each active splat i contributes one half-space `normals[i] @ u >= offsets[i]`
in acceleration space, plus its barrier value for diagnostics. Inputs are
float64 arrays.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark metadata."""
    return "numpy"


def cone_rows(p, v, means, inv_cov, c2eff, p_k):
    """Half-space rows of the cone barrier constraint, one per splat.

    c2eff is the effective squared confidence radius (already inflated for
    conservative robot-radius handling), per splat or one for all.
    """
    _, Ar, Av, rar, delta, beta = _terms(p, v, means, inv_cov)
    eta = rar - c2eff
    h = beta * eta - delta * delta
    normals = eta[:, None] * Av - delta[:, None] * Ar
    return normals, -0.5 * p_k * h, h, eta


def cone_rows_inflated(p, v, means, inv_cov, s_min, c, rho, p_k):
    """Cone rows with exact Minkowski inflation c_M = c + rho * psi(p, v).

    Splats with a degenerate direction (v parallel to the sight line, or
    beta = 0) fall back per-splat to the conservative radius c + rho/s_min;
    the returned mask marks them.
    """
    r, Ar, Av, rar, delta, beta = _terms(p, v, means, inv_cov)
    safe_beta = np.where(beta > 0.0, beta, 1.0)
    t = r - v[None, :] * (delta / safe_beta)[:, None]
    tn = np.linalg.norm(t, axis=1)
    fallback = (beta <= 0.0) | (tn <= 1e-9 * np.linalg.norm(r, axis=1))

    tn_s = np.where(fallback, 1.0, tn)
    At = np.einsum("mij,mj->mi", inv_cov, t)
    q2 = row_dot(t, At)
    q = np.sqrt(np.where(q2 > 0.0, q2, 1.0))
    psi = np.where(fallback, 1.0 / s_min, q / tn_s)
    c_M = c + rho * psi

    # grad_t psi = At/(|t| q) - (q/|t|^3) t
    gt = At / (tn_s * q)[:, None] - (q / tn_s ** 3)[:, None] * t
    # dt/dr = I - v (Av)^T / beta ; grad wrt p flips sign through r = mu - p
    gt_dot_v = row_dot(gt, v)
    grad_p = -(rho * (gt - Av * (gt_dot_v / safe_beta)[:, None]))
    # dt/dv = -v (beta Ar - 2 delta Av)^T / beta^2 - (delta/beta) I
    k_vec = (beta[:, None] * Ar - 2.0 * delta[:, None] * Av) / safe_beta[:, None] ** 2
    grad_v = rho * (-k_vec * gt_dot_v[:, None] - (delta / safe_beta)[:, None] * gt)
    grad_p[fallback] = 0.0
    grad_v[fallback] = 0.0

    eta = rar - c_M * c_M
    h = beta * eta - delta * delta
    bcm = beta * c_M
    normals = eta[:, None] * Av - delta[:, None] * Ar - bcm[:, None] * grad_v
    offsets = -0.5 * p_k * h + bcm * row_dot(grad_p, v)
    return normals, offsets, h, eta, fallback


def baseline_rows(p, v, means, inv_cov, c2eff, a1, a2):
    """Half-space rows of the second-order Mahalanobis-distance barrier
    h = (p - mu)^T A (p - mu) - c2eff: hdd + (a1 + a2) hd + a1 a2 h >= 0
    under p'' = u, with grad h = -2 A r, hd = -2 delta and
    hdd = 2 beta + grad h . u."""
    _, Ar, _, rar, delta, beta = _terms(p, v, means, inv_cov)
    # 0 - 2x rather than -2x: an exact zero stays +0, as 2 A (p - mu) gives it
    h, hdot, curv = rar - c2eff, 0.0 - 2.0 * delta, 2.0 * beta
    return 0.0 - 2.0 * Ar, -curv - (a1 + a2) * hdot - (a1 * a2) * h, h


def min_margin(points, owner, means, inv_cov, c2eff):
    """Per-point min of (p - mu)^T A (p - mu) - c2eff over its pairs; pair j
    joins point owner[j] to row j of means, inv_cov and c2eff (a scalar
    c2eff serves every pair). Negative means inside some (inflated)
    ellipsoid; a point with no pair gets +inf."""
    _, _, rar = _position_terms(np.take(points, owner, axis=0), means, inv_cov)
    out = np.full(points.shape[0], np.inf)
    np.minimum.at(out, owner, rar - c2eff)
    return out


def _position_terms(p, means, inv_cov):
    """r = mu - p, A r and r^T A r per splat; p is one point or one per splat."""
    r = means - p
    Ar = np.einsum("mij,mj->mi", inv_cov, r)
    return r, Ar, row_dot(r, Ar)


def _terms(p, v, means, inv_cov):
    """The batch form of `cone.RelativeGeometry`: r, A r, A v, r^T A r,
    delta = r^T A v and beta = v^T A v, one row or entry per splat."""
    r, Ar, rar = _position_terms(p, means, inv_cov)
    Av = _matvec(inv_cov, v)
    return r, Ar, Av, rar, row_dot(r, Av), Av @ v


def row_dot(x, y):
    """Row-wise x_i . y_i of a C-contiguous (m, 3) array x and an (m, 3)
    array or 3-vector y, summed in einsum's order for a row of three,
    (x0 y0 + x2 y2) + x1 y1: the bits of np.einsum("mi,mi->m", x, y) (or
    "mi,i->m") without its set-up cost, 1.6x faster at m = 350."""
    xy = x * y
    return (xy[:, 0] + xy[:, 2]) + xy[:, 1]


def _matvec(mats, x):
    """Stacked (m, 3, 3) @ (3,) as one (3m, 3) matrix-vector product.

    The same sums as `mats @ x`, bit for bit, without the stacked product's
    per-matrix overhead (about 10x faster at m = 2000). Rows must stay
    bit-identical: rounding changes move the start-from-rest stall.
    """
    return (mats.reshape(-1, 3) @ x).reshape(-1, 3)
