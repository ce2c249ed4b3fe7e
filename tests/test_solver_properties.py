"""Property tests of the filter solve: primal feasibility and the KKT
conditions, on programs with rows and both norm balls."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from splatcone.qp import FilterProblem, solve_filter  # noqa: E402
from helpers import kkt_residual  # noqa: E402
import reference_step  # noqa: E402

coord = st.floats(-1.0, 1.0, allow_nan=False)
vec3 = st.tuples(coord, coord, coord).map(np.array)
# Row normals on an integer grid: rows are then either exactly dependent or
# clearly independent. Nearly dependent rows hit a known defect of the row
# projection (see test_solver.py::test_nearly_antiparallel_rows_are_feasible).
grid = st.integers(-4, 4).map(float)
normal3 = st.tuples(grid, grid, grid).map(np.array).filter(lambda n: n.any())


@settings(max_examples=300, deadline=None)
@given(
    ubar=vec3,
    ubar_scale=st.floats(0.5, 40.0),
    v_dir=vec3,
    speed=st.floats(0.0, 1.0),
    a_max=st.floats(1.0, 10.0),
    dt=st.sampled_from([0.02, 0.1]),
    normals=st.lists(normal3, min_size=0, max_size=4),
    anchor=vec3,
    slacks=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
)
def test_solution_is_feasible_and_stationary(ubar, ubar_scale, v_dir, speed, a_max, dt,
                                             normals, anchor, slacks):
    v_max = 2.5
    assume(np.linalg.norm(v_dir) > 1e-3)
    v = v_dir / np.linalg.norm(v_dir) * v_max * speed
    # rows are satisfied at `anchor`, which lies in both balls
    u0 = anchor * a_max / np.sqrt(3.0)
    assume(np.linalg.norm(v + dt * u0) <= v_max)
    N = np.array(normals).reshape(-1, 3)
    b = N @ u0 - np.array(slacks[: N.shape[0]]) * np.linalg.norm(N, axis=1)
    ref = ubar * ubar_scale
    problem = FilterProblem(reference=ref, a_max=a_max, normals=N, offsets=b,
                            v_current=v, v_max=v_max, dt=dt)
    sol = solve_filter(problem)
    assert sol.status == "optimal"
    # bit for bit the solve before its numpy calls were trimmed
    want = reference_step.solve_filter(problem)
    assert want.status == sol.status and want.kkt_residual == sol.kkt_residual
    assert np.array_equal(want.u, sol.u) and np.array_equal(want.active_ids, sol.active_ids)
    u = sol.u
    scale = 1.0 + np.linalg.norm(u)
    if N.shape[0]:
        assert ((N @ u - b) / np.linalg.norm(N, axis=1)).min() >= -1e-9 * scale
    assert np.linalg.norm(u) <= a_max * (1 + 1e-9)
    assert np.linalg.norm(v + dt * u) <= v_max * (1 + 1e-9)
    balls = [(np.zeros(3), a_max), (-v / dt, v_max / dt)]
    assert sol.kkt_residual < 1e-6
    assert kkt_residual(ref, u, list(zip(N, b)), balls) < 1e-6 * max(1.0, np.linalg.norm(ref))
