"""The benchmark's correctness checks fire on wrong filter output.

Run:  python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from splatcone import filter as filter_mod  # noqa: E402
from splatcone.synthetic import SyntheticSpec, make_synthetic_scene  # noqa: E402


@pytest.fixture(scope="module")
def small_clutter():
    """A 20k-splat clutter box with a few free-space probes (fast to build)."""
    scene = make_synthetic_scene(
        SyntheticSpec(pattern="clutter", count=20000, extent=17.7,
                      scale_range=(0.05, 0.15), anisotropy_range=(1.0, 3.0)), seed=11)
    states, u_ref, drawn, rejected = workloads.make_probes(
        scene, np.random.default_rng(0), n_probes=6)
    assert drawn >= 6 and rejected < drawn
    return scene, states, u_ref


def _run(scene, states, u_ref):
    m = workloads.Measurement()
    workloads.run_probes(scene, states, u_ref, m)
    return m


def test_unmodified_solver_passes(small_clutter):
    m = _run(*small_clutter)
    assert m.attempted == small_clutter[1].shape[0] * small_clutter[1].shape[1]
    assert m.success > 0
    assert m.failed == 0, m.failures


@pytest.mark.parametrize("perturb", [
    lambda u: u * 1.5 + 20.0,                   # leaves the acceleration ball
    lambda u: u + np.array([1e-3, -2e-3, 1e-3]),  # feasible side, not the projection
])
def test_perturbed_solution_is_counted_failed(small_clutter, monkeypatch, perturb):
    solve = filter_mod.solve_filter

    def wrong(problem):
        sol = solve(problem)
        if sol.status != "optimal":
            return sol
        return dataclasses.replace(sol, u=perturb(sol.u))

    monkeypatch.setattr(filter_mod, "solve_filter", wrong)
    m = _run(*small_clutter)
    assert m.failed == m.success > 0
    assert all("violated" in why or "KKT" in why for _, why in m.failures)


def test_trajectory_checks():
    rec = type("Rec", (), {"outcome": "collided", "audit_min_margin": -0.5})()
    assert checks.trajectory_violations(rec)
    rec.outcome, rec.audit_min_margin = "reached_goal", -1e-3
    assert checks.trajectory_violations(rec)
    rec.audit_min_margin = 0.2
    assert not checks.trajectory_violations(rec)
