"""Per-splat barrier constraints in acceleration space, one splat at a time.

For the double integrator (p_dot = v, v_dot = u) the barrier condition
h_dot + p_k h >= 0 is affine in u. With w = gamma * A v - delta * A r the
position part of h_dot cancels, h_dot = 2 w^T u, and the constraint reads

    w^T u >= -(p_k / 2) h,

both sides carrying the same factor-of-two normalization of h_dot. A robot
sphere changes only c2 (`cone.inflate`), so its rows are
`build_constraint(inflate(geom, scales, rho), p_k)`. These scalar builders
are the oracles the vectorized row kernels are tested against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import RelativeGeometry, barrier_value


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
    """Barrier constraint for one splat at `geom`'s c2 (inflated or not)."""
    if p_k <= 0:
        raise ValueError("p_k must be positive")
    h = barrier_value(geom)
    return LinearControlConstraint(normal=lie_derivative_w(geom), offset=-0.5 * p_k * h, h_value=h)

