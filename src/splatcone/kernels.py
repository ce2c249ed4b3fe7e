"""Batch per-splat kernels for the closed-loop hot path.

One vectorized numpy implementation per row type. The cone rows are checked
against the scalar `constraints.build_constraint`, inflated or not by
`cone.inflate` (`tests/test_kernels.py`).
Every kernel starts from one Mahalanobis pass over its splats (`_terms`, the
batch form of `cone.RelativeGeometry`). The distance baseline's barrier
(p - mu)^T A (p - mu) - c2eff is the cone's eta, so its rows come from the
same terms; negating r = mu - p is exact, so they are the bits of a pass
over p - mu.

Each active splat i contributes one half-space `normals[i] @ u >= offsets[i]`
in acceleration space, plus its barrier value for diagnostics. Inputs are
float64 arrays; `means` is (m, 3) in any memory layout (the neighbour list
hands out the transpose of a C-contiguous (3, m) block of mean columns), and
the outputs are the same bytes for every layout. The normals come out as
columns too: the (m, 3) .T view of a C-contiguous (3, m) array, from which
`qp.solve_filter` takes the row norms and writes the unit rows it solves
with in C order.

The pass works on columns: r, A r and the normals are (3, m) arrays, one
contiguous row per coordinate, because a broadcast or a reduction over an
(m, 3) array runs numpy's inner loop over 3 entries m times. Each sum of
three is taken in the order numpy's einsum("mij,mj->mi") and
einsum("mi,mi->m") take it on this build, (x0 + x2) + x1 (`dot3`,
`_cov_dot`), so the rows keep the bits of the einsum formulas
(`tests/test_kernels.py` pins them, and
`test_einsum_sums_a_row_of_three_as_the_kernels_do` checks the order
itself). A v and v^T A v stay BLAS products on the (m, 3, 3) rows: BLAS
rounds them with FMA, which no elementwise order reproduces.
"""
from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark metadata."""
    return "numpy"


def cone_rows(p, v, means, inv_cov, c2eff, p_k):
    """Half-space rows of the cone barrier constraint, one per splat.

    c2eff is the effective squared confidence radius, per splat or one for
    all: c^2 inflated by the robot radius (`filter.effective_c2`).
    """
    Ar, Av, rar, delta, beta = _terms(p, v, means, inv_cov)
    eta = rar - c2eff
    h = beta * eta - delta * delta
    return _rows_of(eta * Av, delta * Ar), -0.5 * p_k * h, h, eta


def baseline_rows(p, v, means, inv_cov, c2eff, a1, a2):
    """Half-space rows of the second-order Mahalanobis-distance barrier
    h = (p - mu)^T A (p - mu) - c2eff: hdd + (a1 + a2) hd + a1 a2 h >= 0
    under p'' = u, with grad h = -2 A r, hd = -2 delta and
    hdd = 2 beta + grad h . u."""
    Ar, _, rar, delta, beta = _terms(p, v, means, inv_cov)
    # 0 - 2x rather than -2x: an exact zero stays +0, as 2 A (p - mu) gives it
    h, hdot, curv = rar - c2eff, 0.0 - 2.0 * delta, 2.0 * beta
    return _rows_of(0.0, 2.0 * Ar), -curv - (a1 + a2) * hdot - (a1 * a2) * h, h


def min_margin(points, owner, means, inv_cov, c2eff):
    """Per-point min of (p - mu)^T A (p - mu) - c2eff over its pairs; pair j
    joins point owner[j] to row j of means, inv_cov and c2eff (a scalar
    c2eff serves every pair). Negative means inside some (inflated)
    ellipsoid; a point with no pair gets +inf."""
    r = np.subtract(means.T, np.take(points, owner, axis=0).T, order="C")
    out = np.full(points.shape[0], np.inf)
    np.minimum.at(out, owner, dot3(r, _cov_dot(inv_cov, r)) - c2eff)
    return out


def _terms(p, v, means, inv_cov):
    """The batch form of `cone.RelativeGeometry`: the columns (3, m) of
    A r and A v for r = mu - p, and per splat r^T A r, delta = r^T A v and
    beta = v^T A v."""
    r = np.subtract(means.T, p[:, None], order="C")  # C whatever means' layout
    Ar = _cov_dot(inv_cov, r)
    Av = _matvec(inv_cov, v)
    beta = Av @ v
    Av = Av.T.copy()  # contiguous columns
    return Ar, Av, dot3(r, Ar), dot3(r, Av), beta


def dot3(x, y):
    """Column-wise x_j . y_j of (3, m) arrays, summed in einsum's order for
    a row of three, (x0 y0 + x2 y2) + x1 y1: the bits of
    np.einsum("mi,mi->m") over C-ordered rows x.T and y.T, without its
    set-up cost. The rows of an (m, 3) array N are the columns of N.T."""
    xy = x * y
    return (xy[0] + xy[2]) + xy[1]


def _cov_dot(inv_cov, x):
    """(A x) per splat, as (3, m) columns, for (m, 3, 3) rows A and (3, m)
    columns x: the bits of np.einsum("mij,mj->mi") over inv_cov and the
    C-ordered rows x.T (over F-ordered rows einsum sums otherwise), each
    entry summed (A_i0 x0 + A_i2 x2) + A_i1 x1."""
    prod = np.multiply(inv_cov.T, x[:, None], order="C")  # [j, i] = A_ij x_j
    return (prod[0] + prod[2]) + prod[1]


def _rows_of(a, b):
    """The (m, 3) rows of the (3, m) columns a - b: the .T view of their
    C-contiguous difference, so the rows are written once, by the solve."""
    return np.subtract(a, b).T


def _matvec(mats, x):
    """Stacked (m, 3, 3) @ (3,) as one (3m, 3) matrix-vector product.

    The same sums as `mats @ x`, bit for bit, without the stacked product's
    per-matrix overhead (about 10x faster at m = 2000). Rows must stay
    bit-identical: rounding changes move the start-from-rest stall.
    """
    return (mats.reshape(-1, 3) @ x).reshape(-1, 3)
