"""Collision-cone geometry: hand cases, ray oracle equivalence, whitening,
scale invariance, and robot-sphere inflation (the filter's rule, its input
checks and the Minkowski sum it covers)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splatcone import filter as filter_mod
from splatcone.cone import (
    GeometryError,
    InsideEllipsoidError,
    RelativeGeometry,
    ZeroVelocityError,
    barrier_value,
    cone_status,
    in_forward_cone,
    inflate,
    oracle_ray_hits,
    whitened_test,
)
from helpers import random_spd, ring_scene


def geom(r, v, A=None, c2=1.0):
    A = np.eye(3) if A is None else np.asarray(A, dtype=np.float64)
    return RelativeGeometry(r=np.asarray(r, dtype=np.float64),
                            v=np.asarray(v, dtype=np.float64), A=A, c2=c2)


def test_barrier_orthogonal_sight_line():
    g = geom([2, 0, 0], [0, 1, 0])
    assert barrier_value(g) == pytest.approx(3.0)


def test_barrier_head_on():
    g = geom([2, 0, 0], [1, 0, 0])
    assert barrier_value(g) == pytest.approx(-1.0)


def test_barrier_anisotropic_hand_case():
    g = geom([3, 0, 0], [1, 0.2, 0], A=np.diag([1.0, 4.0, 1.0]))
    # beta = 1.16, gamma = 8, delta = 3
    assert barrier_value(g) == pytest.approx(1.16 * 8 - 9, abs=1e-12)
    # positive barrier must mean the ray misses
    assert not oracle_ray_hits(g)


def test_in_cone_head_on_and_receding():
    assert in_forward_cone(geom([2, 0, 0], [1, 0, 0]))
    # receding: h = -1 but delta = -2 < 0 excludes the rear cone
    assert not in_forward_cone(geom([2, 0, 0], [-1, 0, 0]))


def test_in_cone_precondition_errors_distinct():
    with pytest.raises(InsideEllipsoidError):
        in_forward_cone(geom([0.5, 0, 0], [1, 0, 0]))
    with pytest.raises(ZeroVelocityError):
        in_forward_cone(geom([2, 0, 0], [0, 0, 0]))
    assert cone_status(geom([0.5, 0, 0], [1, 0, 0])) == "inside_ellipsoid"
    assert cone_status(geom([2, 0, 0], [0, 0, 0])) == "stationary"
    assert cone_status(geom([2, 0, 0], [1, 0, 0])) == "in_cone"
    assert cone_status(geom([2, 0, 0], [-1, 0, 0])) == "clear"


def test_oracle_quadratic_hand_cases():
    # phi with a=1, b=2, d=3: minimum 3 - 4 = -1 at t* = 2 -> hit
    g = geom([np.sqrt(3 + 1), 0, 0], [0, 0, 0])  # placeholder; build via A=I below
    r = np.array([2.0, 1.0, 0.0])  # r.r = 5 -> d = 4 with c2=1... construct directly:
    # use r=(2,0,0), v=(1,0,0) scaled: a=1, b=2 needs r.v=2 -> v=(1,0,0), r=(2,y,0)
    # with d = r.r - c2 = 3 -> r.r = 4 -> y = 0. So a=1,b=2,d=3:
    g = geom([2, 0, 0], [1, 0, 0], c2=1.0)
    assert g.beta == 1.0 and g.delta == 2.0 and g.gamma == 3.0
    assert oracle_ray_hits(g)
    # receding (b < 0, d > 0): phi increasing on t >= 0 -> no hit
    assert not oracle_ray_hits(geom([2, 0, 0], [-1, 0, 0]))


def sample_outside_geometry(rng, c2):
    """Random SPD A and (r, v) with r guaranteed outside the ellipsoid."""
    A, s, R = random_spd(rng)
    direction = rng.normal(size=3)
    m = direction @ A @ direction
    # scale so r^T A r = k * c2 with k > 1
    k = rng.uniform(1.05, 40.0)
    r = direction * np.sqrt(k * c2 / m)
    v = rng.normal(size=3)
    v *= rng.uniform(0.1, 10.0) / np.linalg.norm(v)
    return RelativeGeometry(r=r, v=v, A=A, c2=c2), s, R


def test_cone_condition_matches_ray_oracle_randomized():
    rng = np.random.default_rng(42)
    n_checked = 0
    for _ in range(10000):
        g, _, _ = sample_outside_geometry(rng, c2=rng.uniform(0.5, 12.0))
        h = barrier_value(g)
        scale = g.beta * (abs(g.gamma) + g.c2) + g.delta ** 2
        if abs(h) <= 1e-9 * scale:
            continue
        assert in_forward_cone(g) == oracle_ray_hits(g)
        n_checked += 1
    assert n_checked > 9900


def test_whitened_hand_case():
    A = np.diag([1.0, 4.0, 1.0])
    L = np.diag([1.0, 2.0, 1.0])
    g = geom([3, 0, 0], [1, 0, 0], A=A)
    # h = 1*8 - 9 = -1, delta = 3 >= 0: in cone; whitened verdict must agree
    assert in_forward_cone(g) is True
    assert whitened_test(g, L) is True


def test_whitened_equivalence_randomized():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(10000):
        g, s, R = sample_outside_geometry(rng, c2=rng.uniform(0.5, 12.0))
        L = np.diag(1.0 / s) @ R.T
        h = barrier_value(g)
        scale = g.beta * (abs(g.gamma) + g.c2) + g.delta ** 2
        if abs(h) <= 1e-9 * scale:
            continue
        assert whitened_test(g, L) == in_forward_cone(g)
        # the whitened scalar expression reproduces h itself
        rt, vt = L @ g.r, L @ g.v
        h_w = float(vt @ vt) * (float(rt @ rt) - g.c2) - float(rt @ vt) ** 2
        assert abs(h_w - h) <= 1e-8 * scale
        checked += 1
    assert checked > 9900


def test_verdict_scale_invariance_in_velocity():
    rng = np.random.default_rng(3)
    for _ in range(500):
        A, _, _ = random_spd(rng)
        r = rng.normal(size=3) * 5.0
        c2 = 1.0
        if r @ A @ r <= c2:
            continue
        v = rng.normal(size=3)
        g = RelativeGeometry(r=r, v=v, A=A, c2=c2)
        for lam in (0.01, 0.5, 7.0, 1234.0):
            g2 = RelativeGeometry(r=r, v=lam * v, A=A, c2=c2)
            assert in_forward_cone(g2) == in_forward_cone(g)


def test_inflate_rho_zero_identity():
    g = geom([3, 0, 0], [0, 1, 0], A=np.diag([1.0, 4.0, 1.0]))
    res = inflate(g, scales=np.array([1.0, 0.5, 1.0]), rho=0.0)
    assert res is g
    assert res.c2 == 1.0  # c = 1


def test_inflate_anisotropic_hand_case_and_dominance():
    A = np.diag([1.0, 4.0, 1.0])
    scales = np.array([1.0, 0.5, 1.0])
    g = geom([3, 0, 0], [0, 1, 0], A=A)
    res = inflate(g, scales, rho=0.25)
    assert np.sqrt(res.c2) == pytest.approx(1.0 + 0.5)  # c + rho / s_min
    # the sight line runs along a long axis (s = 1), where the Minkowski sum
    # reaches only c + rho = 1.25: the rule covers it
    assert np.sqrt(res.c2) >= 1.0 + 0.25
    np.testing.assert_array_equal(res.r, g.r)
    np.testing.assert_array_equal(res.v, g.v)
    assert res.A is g.A


def test_inflate_is_direction_free():
    # v parallel to r and v = 0 need no direction: the radius depends only
    # on the scales
    g = geom([3, 0, 0], [1, 0, 0])
    g0 = geom([3, 0, 0], [0, 0, 0])
    for gg in (g, g0):
        res = inflate(gg, scales=np.array([2.0, 1.0, 1.0]), rho=0.5)
        assert np.sqrt(res.c2) == pytest.approx(1.5)


@pytest.mark.parametrize("rho, scales", [
    (-0.1, [1.0, 1.0, 1.0]),
    (float("nan"), [1.0, 1.0, 1.0]),
    (float("inf"), [1.0, 1.0, 1.0]),
    (0.3, [1.0, float("nan"), 1.0]),
    (0.3, [1.0, 0.0, 1.0]),
    (0.0, [float("nan"), 1.0, 1.0]),
])
def test_inflate_rejects_bad_radius_and_scales(rho, scales):
    # nan and inf radii used to give c_M = nan and inf without an error
    g = geom([3, 0, 0], [0, 1, 0])
    with pytest.raises(GeometryError):
        inflate(g, np.array(scales), rho)


@pytest.mark.parametrize("rho", [0.2, 0.37, 1e-3, 0.0])
def test_inflate_is_the_filters_rule_bit_for_bit(rho):
    scene = ring_scene()
    idx = np.arange(len(scene))
    want = np.broadcast_to(filter_mod.effective_c2(scene, rho, idx), idx.shape)
    got = np.array([
        inflate(geom(scene.means[i], [0, 1, 0], A=scene.inv_cov[i], c2=scene.confidence),
                scene.scales[i], rho).c2
        for i in idx])
    assert got.tobytes() == want.tobytes()


_unit_float = st.floats(-1.0, 1.0, allow_nan=False)
_direction = st.tuples(_unit_float, _unit_float, _unit_float).map(np.array).filter(
    lambda x: np.linalg.norm(x) > 1e-3).map(lambda x: x / np.linalg.norm(x))


@settings(max_examples=500, deadline=None)
@given(scales=st.tuples(*[st.floats(0.01, 2.0)] * 3).map(np.array),
       axis=_direction, angle=st.floats(0.0, np.pi),
       c=st.floats(0.1, 4.0), rho=st.floats(0.0, 3.0),
       w=_direction, d=_direction)
def test_inflated_ellipsoid_covers_the_minkowski_sum(scales, axis, angle, c, rho, w, d):
    """Every point of the c-ellipsoid moved by rho in any direction lies in
    the c_M-ellipsoid: ||L (y + rho d - mu)|| <= c + rho ||L d|| and
    ||L d|| <= 1 / s_min, with L = diag(1/s) R^T."""
    K = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    R = np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)  # Rodrigues
    A = R @ np.diag(1.0 / scales ** 2) @ R.T
    mu = np.array([0.5, -1.0, 2.0])
    y = mu + c * (R @ (scales * w))  # on the c-ellipsoid
    g = RelativeGeometry(r=mu - y, v=np.zeros(3), A=A, c2=c * c)
    c2_m = inflate(g, scales, rho).c2
    e = y + rho * d - mu
    assert e @ A @ e <= c2_m * (1 + 1e-12)
