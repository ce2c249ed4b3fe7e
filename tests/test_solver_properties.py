"""Property tests of the filter solve: primal feasibility and the KKT
conditions, on programs with rows and both norm balls, with hard rows and
with slack."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from splatcone.qp import FilterProblem, solve_filter  # noqa: E402
from helpers import (assert_close_to_reference, kkt_residual, lifted_kkt_residual,  # noqa: E402
                     solve_against_reference)
import reference_step  # noqa: E402

coord = st.floats(-1.0, 1.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord).map(np.array)
# Hard row normals on an integer grid: rows are then either exactly dependent
# or clearly independent. Nearly dependent rows hit a known defect of the row
# projection (see test_solver.py::test_nearly_antiparallel_rows_are_feasible).
grid = st.integers(-4, 4).map(float)
normal3 = st.tuples(grid, grid, grid).map(np.array).filter(lambda n: n.any())
# Slack rows are lifted rows, never dependent: float normals, some in nearly
# antiparallel pairs n, -n + 1e-8 e.
float3 = vec3.filter(lambda n: np.linalg.norm(n) > 1e-3)
slack_rows = st.lists(st.one_of(float3.map(lambda n: [n]),
                                st.tuples(float3, vec3).map(lambda ne: [ne[0], 1e-8 * ne[1] - ne[0]])),
                      max_size=3).map(lambda groups: [n for g in groups for n in g][:4])
weight = st.one_of(st.none(), st.floats(0.0, 6.0).map(lambda k: 10.0 ** k))


@settings(max_examples=600, deadline=None)
@given(
    ubar=vec3,
    ubar_scale=st.floats(0.5, 40.0),
    v_dir=vec3,
    speed=st.floats(0.0, 1.0),
    a_max=st.floats(1.0, 10.0),
    dt=st.sampled_from([0.02, 0.1]),
    anchor=vec3,
    slacks=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    slack_weight=weight,
    data=st.data(),
)
def test_solution_is_feasible_and_stationary(ubar, ubar_scale, v_dir, speed, a_max, dt,
                                             anchor, slacks, slack_weight, data):
    v_max = 2.5
    assume(np.linalg.norm(v_dir) > 1e-3)
    v = v_dir / np.linalg.norm(v_dir) * v_max * speed
    # rows are satisfied at `anchor`, which lies in both balls; with slack,
    # they may be violated there by up to their norm
    u0 = anchor * a_max / np.sqrt(3.0)
    assume(np.linalg.norm(v + dt * u0) <= v_max)
    normals = data.draw(st.lists(normal3, min_size=0, max_size=4) if slack_weight is None
                        else slack_rows, label="normals")
    N = np.array(normals).reshape(-1, 3)
    shift = np.array(slacks[: N.shape[0]])
    if slack_weight is not None:
        shift = 2.0 * shift - 1.0
    b = N @ u0 - shift * np.linalg.norm(N, axis=1)
    ref = ubar * ubar_scale
    problem = FilterProblem(reference=ref, a_max=a_max, normals=N, offsets=b,
                            v_current=v, v_max=v_max, dt=dt, slack_weight=slack_weight)
    if slack_weight is None:
        sol, want, two_ball = solve_against_reference(problem)
    else:
        sol = solve_filter(problem)
        # above 1e4 the reference stops unconverged after 100 Newton steps
        want = reference_step.solve_filter(problem) if slack_weight <= 1e4 else None
    u = sol.u
    assert u is not None  # the balls meet, and the rows are feasible or soft
    assert np.linalg.norm(u) <= a_max * (1 + 1e-9)
    assert np.linalg.norm(v + dt * u) <= v_max * (1 + 1e-9)
    balls = [(np.zeros(3), a_max), (-v / dt, v_max / dt)]
    scale = max(1.0, np.linalg.norm(ref))
    if slack_weight is not None:
        norms = np.linalg.norm(N, axis=1)
        xi = np.maximum(b / norms - N @ u / norms, 0.0)
        assert sol.slack_used == pytest.approx(xi.max(initial=0.0), rel=1e-9, abs=1e-12)
        assert sol.status == ("degraded" if sol.slack_used > 1e-8 else "optimal")
        # sw xi, evaluated from u, rounds at about 1e-16 sw (|b| + |u|) per row
        tol = 1e-9 * scale + 1e-14 * slack_weight * (1.0 + np.abs(b).max(initial=0.0)
                                                      + np.linalg.norm(u))
        assert sol.kkt_residual < tol
        assert lifted_kkt_residual(ref, u, list(zip(N, b)), balls, slack_weight) < tol
        if want is not None:
            assert want.status == sol.status
            assert np.abs(want.u - u).max() <= 1e-8 * max(1.0, np.linalg.norm(want.u))
        return
    assert sol.status == "optimal"
    if two_ball:
        assert_close_to_reference(sol, want)
    else:
        # bit for bit the solve before its numpy calls were trimmed
        assert want.status == sol.status and want.kkt_residual == sol.kkt_residual
        assert np.array_equal(want.u, sol.u) and np.array_equal(want.active_ids, sol.active_ids)
    if N.shape[0]:
        assert ((N @ u - b) / np.linalg.norm(N, axis=1)).min() >= -1e-9 * (1.0 + np.linalg.norm(u))
    assert sol.kkt_residual < 1e-6
    assert kkt_residual(ref, u, list(zip(N, b)), balls) < 1e-6 * scale


# Programs whose only feasible point is one apex u*: rows through u* whose
# normals positively span R^3 (a tetrahedron's, with up to 200 more rows),
# all flattened towards a plane by up to 1e-4 and turned, so that three of
# them can make an ill-conditioned working set; u* inside both balls. The
# examples are seeds whose program the solve called infeasible before the
# dependent rows it meets there were held within their inherited rounding.
_TETRAHEDRON = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])


def _single_point_program(seed):
    from splatcone.scene import rotation_from_quat

    rng = np.random.default_rng(seed)
    flat = 10.0 ** rng.uniform(-4.0, 0.0)
    a_max = rng.uniform(1.0, 10.0)
    apex = rng.uniform(-1.0, 1.0, 3) * 0.9 * a_max / np.sqrt(3.0)
    N = np.vstack([_TETRAHEDRON, rng.normal(size=(rng.integers(0, 200), 3))]) * [1.0, 1.0, flat]
    N = N @ rotation_from_quat(rng.normal(size=4)).T
    N /= np.linalg.norm(N, axis=1, keepdims=True)
    v = rng.uniform(-1.0, 1.0, 3)  # |v + dt u*| < 1.8 + 0.1 < v_max
    ref = rng.uniform(-1.0, 1.0, 3) * rng.uniform(0.1, 40.0)
    return FilterProblem(reference=ref, a_max=a_max, normals=N, offsets=N @ apex,
                         v_current=v, v_max=2.5, dt=0.02), apex, flat


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=126)
@example(seed=573)
@example(seed=783)
def test_single_point_program_is_solved_at_its_point(seed):
    prob, apex, flat = _single_point_program(seed)
    sol = solve_filter(prob)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.u, apex, atol=1e-6 * (1.0 + np.linalg.norm(apex)) / flat)
