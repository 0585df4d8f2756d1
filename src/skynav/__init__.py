"""skynav: 3D path planning over procedurally generated cities.

An enhanced RRT with goal-biased sampling, adaptive step sizing, sideways
detours and B-spline smoothing, benchmarked against classic RRT, grid A* and
ant colony search.
"""
from .baselines import AcoParams, VoxelGrid, plan_aco, plan_astar, voxelize
from .bench import (AggregateRow, BenchReport, Scenario, aggregate, build_city,
                    default_scenario, run_benchmark, run_trial)
from .core import PlanRequest, PlanResult, SearchTree, sample_with_bias, steer
from .drrt import DrrtParams, classify_step_outcome, detour_extend, plan_drrt, update_step
from .env import (Building, CityMap, GenParams, MapGenerationError, generate_city,
                  load_map, save_map)
from .metrics import (PathMetrics, TrialRecord, dedupe, path_length, summarize,
                      turn_angles)
from .rrt import RrtParams, plan_rrt
from .smoothing import clamped_knots, sample_curve, smooth_path

__version__ = "0.1.0"

__all__ = [
    "AcoParams", "AggregateRow", "BenchReport", "Building", "CityMap", "DrrtParams",
    "GenParams", "MapGenerationError", "PathMetrics", "PlanRequest", "PlanResult",
    "RrtParams", "Scenario", "SearchTree", "TrialRecord", "VoxelGrid", "aggregate",
    "build_city", "clamped_knots", "classify_step_outcome", "dedupe",
    "default_scenario", "detour_extend", "generate_city", "load_map",
    "path_length", "plan_aco", "plan_astar", "plan_drrt", "plan_rrt", "run_benchmark",
    "run_trial", "sample_curve", "sample_with_bias", "save_map", "smooth_path",
    "steer", "summarize", "turn_angles", "voxelize",
]
