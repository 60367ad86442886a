"""Hierarchical route optimization for multi-arm spray painting on a moving
production line: a permutation GA assigns and orders paint segments per arm,
and a greedy discrete-time planner expands each assignment into synchronized
head trajectories for both sides of the vehicle."""

from .evaluation import EvaluationReport, evaluate, evaluate_assignment
from .ga import GaConfig, GaResult, run
from .genotype import ArmAssignment, UpperSolution, decode
from .lower_sim import SimMetrics, Trajectory, simulate
from .presets import desk_scene, preset_scene
from .scene import (
    ArmConfig,
    LineKinematics,
    PaintSegment,
    Panel,
    ScenarioConfig,
    ScenarioError,
    SyntheticSpec,
    VehicleScene,
    generate_synthetic_scene,
    load_scene,
    save_scene,
)

__version__ = "0.1.0"

__all__ = [
    "ArmAssignment",
    "ArmConfig",
    "EvaluationReport",
    "GaConfig",
    "GaResult",
    "LineKinematics",
    "PaintSegment",
    "Panel",
    "ScenarioConfig",
    "ScenarioError",
    "SimMetrics",
    "SyntheticSpec",
    "Trajectory",
    "UpperSolution",
    "VehicleScene",
    "decode",
    "desk_scene",
    "evaluate",
    "evaluate_assignment",
    "generate_synthetic_scene",
    "load_scene",
    "preset_scene",
    "run",
    "save_scene",
    "simulate",
]
