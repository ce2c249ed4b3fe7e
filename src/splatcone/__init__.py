"""splatcone: collision-cone safety filtering over 3D Gaussian splat scenes.

Each splat's confidence ellipsoid yields a closed-form forward collision
cone; its complement is a first-order control barrier whose constraint is
affine in acceleration. A per-step projection solve minimally modifies a
nominal controller, and a double-integrator simulator with a post-hoc
collision audit exercises the whole loop.
"""
from .cone import (
    DegenerateDirectionError,
    GeometryError,
    InflationResult,
    InsideEllipsoidError,
    RelativeGeometry,
    ZeroVelocityError,
    barrier_value,
    cone_status,
    in_forward_cone,
    inflate,
    inflation_terms,
    oracle_ray_hits,
    whitened_test,
)
from .constraints import (
    DOUBLE_INTEGRATOR,
    LinearControlConstraint,
    VelocityDynamics,
    build_constraint,
    build_constraint_inflated,
    lie_derivative_w,
)
from .filter import FilterConfig, baseline_distance_filter_step, filter_step
from .qp import FilterProblem, FilterSolution, SolverError, solve_filter
from .scene import (
    PreprocessOptions,
    Scene,
    SceneError,
    chi2_confidence,
    rotation_from_quat,
)
from .sceneio import load_ply, load_scene_dump, save_ply, save_scene_dump
from .simulator import (
    RobotState,
    SimConfig,
    SimulationError,
    SmoothnessMetrics,
    TrajectoryRecord,
    batch_start_goal,
    compute_metrics,
    first_intervention_distance,
    pd_reference,
    run_batch,
    run_trajectory,
    scene_margins,
    step,
)
from .synthetic import SyntheticSpec, make_synthetic_scene

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
