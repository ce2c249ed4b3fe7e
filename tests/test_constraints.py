"""Constraint builders: hand cases and finite-difference audits of the
barrier's time derivative."""
import numpy as np
import pytest

from splatcone.cone import RelativeGeometry, barrier_value, inflate
from splatcone.constraints import build_constraint, build_constraint_inflated, lie_derivative_w
from helpers import finite_difference_gradient, random_spd


def geom(r, v, A=None, c2=1.0):
    A = np.eye(3) if A is None else np.asarray(A, dtype=np.float64)
    return RelativeGeometry(r=np.asarray(r, dtype=np.float64),
                            v=np.asarray(v, dtype=np.float64), A=A, c2=c2)


def test_w_hand_cases():
    g = geom([2, 0, 0], [0, 1, 0])
    np.testing.assert_allclose(lie_derivative_w(g), [0.0, 3.0, 0.0], atol=1e-14)
    g0 = geom([2, 0, 0], [0, 0, 0])
    np.testing.assert_array_equal(lie_derivative_w(g0), 0.0)


def test_velocity_gradient_of_h_is_2w():
    rng = np.random.default_rng(4)
    for _ in range(300):
        A, _, _ = random_spd(rng, 0.3, 4.0)
        r = rng.normal(size=3) * 4.0
        v = rng.normal(size=3) * 2.0
        g = RelativeGeometry(r=r, v=v, A=A, c2=1.5)
        w = lie_derivative_w(g)

        def h_of_v(vv):
            return barrier_value(RelativeGeometry(r=r, v=vv, A=A, c2=1.5))

        fd = finite_difference_gradient(h_of_v, v)
        assert np.linalg.norm(fd - 2.0 * w) <= 1e-5 * max(np.linalg.norm(fd), 1e-2)


def test_build_constraint_hand_case():
    # safe geometry h = 3, w = (0,3,0), p_k = 2 -> (0,3,0).u >= -3
    g = geom([2, 0, 0], [0, 1, 0])
    c = build_constraint(g, p_k=2.0)
    np.testing.assert_allclose(c.normal, [0.0, 3.0, 0.0], atol=1e-14)
    assert c.offset == pytest.approx(-3.0)
    assert c.h_value == pytest.approx(3.0)
    # u = 0 is admissible strictly inside the safe set
    assert c.normal @ np.zeros(3) - c.offset > 0


def test_build_constraint_boundary_offset_zero():
    # h = 0: constraint w.u >= 0
    g = geom([2, 0, 0], [1, np.sqrt(3), 0])  # delta = 2, beta = 4, gamma = 3 -> h = 12 - 4 = 8? no
    # construct h = 0 directly: beta*gamma = delta^2 with gamma = 3
    # v = (1, y, 0): beta = 1 + y^2, delta = 2 -> need 3(1 + y^2) = 4 -> y = sqrt(1/3)
    v = np.array([1.0, np.sqrt(1.0 / 3.0), 0.0])
    g = geom([2, 0, 0], v)
    assert barrier_value(g) == pytest.approx(0.0, abs=1e-12)
    c = build_constraint(g, p_k=1.7)
    assert c.offset == pytest.approx(0.0, abs=1e-12)


def test_constraint_affine_in_u():
    g = geom([2, 1, 0], [0.5, 1, 0])
    c = build_constraint(g, p_k=1.0)
    rng = np.random.default_rng(0)
    u = rng.normal(size=3)
    lhs1 = c.normal @ u
    lhs2 = c.normal @ (2 * u)
    assert lhs2 == pytest.approx(2 * lhs1, rel=1e-15)


def test_inflated_rho_zero_matches_plain():
    rng = np.random.default_rng(6)
    for _ in range(100):
        A, s, _ = random_spd(rng, 0.3, 4.0)
        r = rng.normal(size=3) * 4.0
        v = rng.normal(size=3) * 2.0
        g = RelativeGeometry(r=r, v=v, A=A, c2=1.5)
        plain = build_constraint(g, p_k=1.0)
        infl = build_constraint_inflated(g, s, rho=0.0, p_k=1.0)
        np.testing.assert_allclose(infl.normal, plain.normal, atol=1e-12)
        assert infl.offset == pytest.approx(plain.offset, abs=1e-12)


def test_inflated_isotropic_modes_identical():
    rng = np.random.default_rng(16)
    s = np.array([0.7, 0.7, 0.7])
    A = np.eye(3) / 0.49
    for _ in range(50):
        r = rng.normal(size=3) * 4.0
        v = rng.normal(size=3) * 2.0
        g = RelativeGeometry(r=r, v=v, A=A, c2=2.0)
        try:
            ex = build_constraint_inflated(g, s, rho=0.3, mode="exact")
        except Exception:
            continue
        co = build_constraint_inflated(g, s, rho=0.3, mode="conservative")
        np.testing.assert_allclose(ex.normal, co.normal, rtol=1e-9, atol=1e-12)
        assert ex.offset == pytest.approx(co.offset, rel=1e-9, abs=1e-12)


def test_inflated_constraint_matches_finite_difference_hdot():
    """The constraint encodes hdot >= -p_k h: check normal and offset against
    a finite-difference total derivative of the inflated barrier along the
    double-integrator flow."""
    rng = np.random.default_rng(77)
    dt = 1e-6
    checked = 0
    for _ in range(300):
        A, s, _ = random_spd(rng, 0.4, 3.0)
        mu = rng.normal(size=3) * 5.0
        p = rng.normal(size=3) * 5.0
        v = rng.normal(size=3) * 2.0
        u = rng.normal(size=3) * 2.0
        rho = 0.3
        g = RelativeGeometry(r=mu - p, v=v, A=A, c2=2.0)
        if g.beta < 1e-3:
            continue
        try:
            infl = inflate(g, s, rho, "exact")
        except Exception:
            continue
        tvec = g.r - g.v * (g.delta / g.beta)
        if np.linalg.norm(tvec) < 1e-2 * np.linalg.norm(g.r):
            continue
        con = build_constraint_inflated(g, s, rho, p_k=1.0, mode="exact")

        def h_at(pp, vv):
            gg = RelativeGeometry(r=mu - pp, v=vv, A=A, c2=2.0)
            cm = inflate(gg, s, rho, "exact").c_M
            eta = float(gg.r @ A @ gg.r) - cm * cm
            return gg.beta * eta - gg.delta ** 2

        # central difference along the flow p(t) = p + v t + u t^2/2, v(t) = v + u t
        hp = h_at(p + v * dt + 0.5 * u * dt * dt, v + u * dt)
        hm = h_at(p - v * dt + 0.5 * u * dt * dt, v - u * dt)
        hdot_fd = (hp - hm) / (2 * dt)
        # constraint stores hdot/2: normal.u - offset - (p_k/2) h = hdot/2 ... verify:
        # residual = w_eff.u - offset; hdot/2 = w_eff.u + drift_p; offset = -(pk/2)h - drift_p
        hdot_model = 2.0 * (float(con.normal @ u) - con.offset - 0.5 * 1.0 * con.h_value)
        scale = max(abs(hdot_fd), abs(con.h_value), 1.0)
        assert abs(hdot_fd - hdot_model) <= 1e-4 * scale
        checked += 1
    assert checked > 150


def test_p_k_validation():
    g = geom([2, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError):
        build_constraint(g, p_k=0.0)
    with pytest.raises(ValueError):
        build_constraint_inflated(g, np.ones(3), rho=0.1, p_k=-1.0)
