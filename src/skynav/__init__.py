"""skynav: 3D path planning over procedurally generated cities.

An enhanced RRT with goal-biased sampling, adaptive step sizing, sideways
detours and B-spline smoothing, benchmarked against classic RRT, grid A* and
ant colony search.  Helpers stay in the modules that define them.
"""
from .baselines import AcoParams, VoxelGrid, plan_aco, plan_astar, voxelize
from .bench import BenchReport, Scenario, build_city, default_scenario, run_benchmark
from .core import PlanRequest, PlanResult
from .drrt import DrrtParams, plan_drrt
from .env import (Building, CityMap, GenParams, MapGenerationError, generate_city,
                  load_map, save_map)
from .metrics import PathMetrics, summarize
from .rrt import RrtParams, plan_rrt
from .smoothing import smooth_path

__version__ = "0.1.0"

__all__ = [
    "AcoParams", "BenchReport", "Building", "CityMap", "DrrtParams", "GenParams",
    "MapGenerationError", "PathMetrics", "PlanRequest", "PlanResult", "RrtParams",
    "Scenario", "VoxelGrid", "build_city", "default_scenario", "generate_city",
    "load_map", "plan_aco", "plan_astar", "plan_drrt", "plan_rrt", "run_benchmark",
    "save_map", "smooth_path", "summarize", "voxelize",
]
