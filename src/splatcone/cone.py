"""Forward collision cone geometry for a single ellipsoidal obstacle.

A point robot at p with velocity v approaches an ellipsoid
{x : (x - mu)^T A (x - mu) <= c2}. With r = mu - p and the scalars

    beta  = v^T A v,   delta = r^T A v,   gamma = r^T A r - c2,

the ray p + t v (t >= 0) intersects the ellipsoid iff

    h = beta * gamma - delta^2 <= 0   and   delta >= 0,

provided the robot starts outside (gamma > 0). h doubles as a barrier
function: h >= 0 is the safe (no-collision) set. A robot sphere of radius
rho enters only through c2 (`inflate`). All functions here are pure and
stateless; batch versions live in `kernels`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric configuration for the requested operation."""


class InsideEllipsoidError(GeometryError):
    """Robot position is inside the (inflated) confidence ellipsoid."""


class ZeroVelocityError(GeometryError):
    """Operation requires a nonzero relative velocity."""


@dataclass(frozen=True)
class RelativeGeometry:
    """Relative robot/obstacle state: r = mu - p, relative velocity v,
    inverse covariance A, and effective squared confidence radius c2."""

    r: np.ndarray
    v: np.ndarray
    A: np.ndarray
    c2: float

    @property
    def beta(self) -> float:
        return float(self.v @ self.A @ self.v)

    @property
    def delta(self) -> float:
        return float(self.r @ self.A @ self.v)

    @property
    def gamma(self) -> float:
        return float(self.r @ self.A @ self.r - self.c2)


def barrier_value(geom: RelativeGeometry) -> float:
    """h = beta * gamma - delta^2. Nonnegative outside the forward cone."""
    return geom.beta * geom.gamma - geom.delta ** 2


def cone_status(geom: RelativeGeometry) -> str:
    """Total classifier: 'inside_ellipsoid', 'stationary', 'in_cone' or 'clear'.

    A stationary robot outside the ellipsoid never enters it, so v = 0 maps
    to 'clear'. The boundary h = 0 counts as in-cone (conservative).
    """
    if geom.gamma <= 0.0:
        return "inside_ellipsoid"
    if not np.any(geom.v):
        return "stationary"
    if barrier_value(geom) <= 0.0 and geom.delta >= 0.0:
        return "in_cone"
    return "clear"


def in_forward_cone(geom: RelativeGeometry) -> bool:
    """Strict forward-cone membership test.

    Requires gamma > 0 and v != 0; violations raise InsideEllipsoidError or
    ZeroVelocityError so callers can distinguish them. Use `cone_status` for
    the non-raising policy variant.
    """
    if geom.gamma <= 0.0:
        raise InsideEllipsoidError(
            f"robot inside ellipsoid (r^T A r = {geom.gamma + geom.c2:.6g} <= c2 = {geom.c2:.6g})"
        )
    if not np.any(geom.v):
        raise ZeroVelocityError("forward cone undefined for v = 0")
    return barrier_value(geom) <= 0.0 and geom.delta >= 0.0


def oracle_ray_hits(geom: RelativeGeometry, t_max: float = 10.0, steps: int = 2048) -> bool:
    """Ground-truth ray/ellipsoid hit test, independent of the cone algebra.

    Evaluates phi(t) = (r - t v)^T A (r - t v) - c2 two ways: an analytic
    quadratic-root check (primary) and dense sampling of phi on [0, t_max]
    (cross-check); reports a hit if either sees phi <= 0. t_max is extended
    to at least twice the analytic minimizer so the vertex is always covered.
    """
    if steps < 2:
        raise GeometryError("steps must be >= 2")
    a = geom.beta
    b = geom.delta
    d = geom.gamma
    if a == 0.0:
        return d <= 0.0
    t_star = b / a
    if t_star > 0:
        t_max = max(t_max, 2.0 * t_star)

    disc = b * b - a * d
    if d <= 0.0:
        analytic = True  # phi(0) <= 0
    else:
        # both roots share the sign of b when they exist
        analytic = disc >= 0.0 and b >= 0.0

    ts = np.linspace(0.0, t_max, steps)
    phi = a * ts * ts - 2.0 * b * ts + d
    sampled = bool(phi.min() <= 0.0)
    return analytic or sampled


def whitened_test(geom: RelativeGeometry, L: np.ndarray) -> bool:
    """Forward-cone test in whitened coordinates (L maps the ellipsoid to a
    sphere of radius sqrt(c2)); must agree with `in_forward_cone`.

    Requires L^T L = A to modest relative tolerance.
    """
    L = np.asarray(L, dtype=np.float64)
    err = np.linalg.norm(L.T @ L - geom.A) / max(np.linalg.norm(geom.A), 1e-300)
    if err > 1e-6:
        raise GeometryError(f"whitening mismatch: ||L^T L - A|| relative error {err:.3g}")
    rt = L @ geom.r
    vt = L @ geom.v
    gamma_t = float(rt @ rt - geom.c2)
    if gamma_t <= 0.0:
        raise InsideEllipsoidError("whitened position inside confidence sphere")
    if not np.any(vt):
        raise ZeroVelocityError("forward cone undefined for v = 0")
    h_t = float(vt @ vt) * gamma_t - float(rt @ vt) ** 2
    return h_t <= 0.0 and float(rt @ vt) >= 0.0


def inflate(geom: RelativeGeometry, scales: np.ndarray, rho: float) -> RelativeGeometry:
    """Minkowski-sum inflation of the confidence radius by a robot sphere:
    c_M = c + rho / s_min, the filter's rule (`filter.effective_c2`).

    The c_M-ellipsoid covers the c-ellipsoid grown by rho in every
    direction, and is that Minkowski sum exactly for an isotropic splat.
    Returns `geom` with c2 = c_M^2, or `geom` itself when rho = 0.
    """
    # written so that NaN fails each test
    if not 0.0 <= rho < float("inf"):
        raise GeometryError("robot radius must be finite and nonnegative")
    s_min = float(np.min(scales))
    if not s_min > 0:
        raise GeometryError("scales must be positive")
    if rho == 0.0:
        return geom
    c_m = float(np.sqrt(geom.c2)) + rho / s_min
    return replace(geom, c2=c_m * c_m)
