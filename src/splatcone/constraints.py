"""Per-splat barrier constraints in acceleration space, one splat at a time.

For the double integrator (p_dot = v, v_dot = u) the barrier condition
h_dot + p_k h >= 0 is affine in u. With w = eta * A v - delta * A r (eta is
gamma for a point robot, or the inflated variant) the constraint reads

    w_eff^T u >= -(p_k / 2) h - (drift terms),

where both sides carry the same factor-of-two normalization of h_dot; for a
point robot there is no drift and it reduces to w^T u >= -(p_k / 2) h. These
scalar builders are the oracles the vectorized row kernels are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import RelativeGeometry, barrier_value, inflate


@dataclass(frozen=True)
class LinearControlConstraint:
    """One half-space `normal @ u >= offset` in control space."""

    normal: np.ndarray
    offset: float
    h_value: float = float("nan")


def lie_derivative_w(geom: RelativeGeometry) -> np.ndarray:
    """w = gamma * A v - delta * A r; the barrier's velocity gradient is 2w."""
    A = geom.A
    return geom.gamma * (A @ geom.v) - geom.delta * (A @ geom.r)


def build_constraint(geom: RelativeGeometry, p_k: float = 1.0) -> LinearControlConstraint:
    """Point-robot barrier constraint for one splat."""
    if p_k <= 0:
        raise ValueError("p_k must be positive")
    h = barrier_value(geom)
    return LinearControlConstraint(normal=lie_derivative_w(geom), offset=-0.5 * p_k * h, h_value=h)


def build_constraint_inflated(
    geom: RelativeGeometry,
    scales: np.ndarray,
    rho: float,
    p_k: float = 1.0,
    mode: str = "exact",
) -> LinearControlConstraint:
    """Robot-sphere-inflated barrier constraint for one splat.

    Replaces c^2 by c_M(p, v)^2 in the barrier; the state dependence of c_M
    adds -beta c_M grad_v(c_M) to the control direction and the
    grad_p(c_M)^T p_dot drift to the offset. Degenerate-direction errors from
    exact inflation propagate to the caller.
    """
    if p_k <= 0:
        raise ValueError("p_k must be positive")
    inf = inflate(geom, scales, rho, mode)
    A, r, v = geom.A, geom.r, geom.v
    beta, delta = geom.beta, geom.delta
    eta = float(r @ A @ r) - inf.c_M ** 2
    h = beta * eta - delta ** 2
    bcm = beta * inf.c_M
    w_eff = eta * (A @ v) - delta * (A @ r) - bcm * inf.grad_cM_v
    # h_dot = grad_p(h)^T p_dot + grad_v(h)^T v_dot, with p_dot = v:
    # the position part reduces to -2 beta c_M grad_p(c_M)^T v.
    drift_p = -bcm * float(inf.grad_cM_p @ v)
    return LinearControlConstraint(normal=w_eff, offset=-0.5 * p_k * h - drift_p, h_value=h)
