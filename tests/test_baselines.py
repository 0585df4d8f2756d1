"""Voxel grid, A* and ant colony tests, including a Dijkstra cost oracle."""
from __future__ import annotations

import heapq
import math
import tracemalloc

import numpy as np
import pytest

from skynav import (AcoParams, Building, CityMap, PlanRequest, VoxelGrid,
                    plan_aco, plan_astar, voxelize)
from skynav.baselines import (ACO_STEP_CAP_FACTOR, MAX_GRID_CELLS, NEIGHBOR_OFFSETS, _chain_cost,
                              _walk_ant)
from skynav.metrics import dedupe, path_length


def _center_request(grid, s_cell, g_cell):
    return PlanRequest(grid.center_of(s_cell), grid.center_of(g_cell), goal_threshold=0.5)


def _dijkstra_cost(grid, s, g):
    """Uniform-cost search over the same move table; inf when unreachable."""
    legal = grid.legal_moves
    offs = grid.flat_offsets.tolist()
    costs = grid.move_costs.tolist()
    dist = {s: 0.0}
    heap = [(0.0, s)]
    done = set()
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        done.add(cur)
        if cur == g:
            return d
        for k in range(26):
            if not legal[cur, k]:
                continue
            nb = cur + offs[k]
            nd = d + costs[k]
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return math.inf


# ----------------------------------------------------------------------
# voxelization
# ----------------------------------------------------------------------

def test_voxelize_empty_map_is_all_free():
    city = CityMap((), (0, 0, 0), (50, 50, 50))
    grid = voxelize(city, 5.0)
    assert grid.dims == (10, 10, 10)
    assert not grid.occupancy.any()


def test_voxelize_rejects_grids_over_the_cell_budget_before_allocating():
    city = CityMap((), (0, 0, 0), (500, 500, 500))
    assert (500 // 5) ** 3 <= MAX_GRID_CELLS < (500 // 1) ** 3
    tracemalloc.start()
    try:
        for resolution in (1.0, 1e-3):
            with pytest.raises(ValueError, match="budget"):
                voxelize(city, resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000   # the 1 m grid alone would be 125 MB of occupancy


def test_voxelize_marks_every_touched_cell():
    # a 10 m cube reaching exactly the 10 m cell boundary touches the cells
    # beyond that face too, under the closed-box convention
    city = CityMap([Building((0, 0, 0), (10, 10, 10))], (0, 0, 0), (20, 20, 20))
    grid = voxelize(city, 5.0)
    occupied = np.argwhere(grid.occupancy)
    assert set(map(tuple, occupied)) == {(x, y, z) for x in range(3)
                                         for y in range(3) for z in range(3)}


def test_voxelize_face_on_cell_boundary_occupies_both_neighbors():
    city = CityMap([Building((5, 0, 0), (10, 5, 5))], (0, 0, 0), (20, 20, 20))
    grid = voxelize(city, 5.0)
    xs = sorted({int(c[0]) for c in np.argwhere(grid.occupancy)})
    assert xs == [0, 1, 2]   # faces at x=5 and x=10 touch cells 0 and 2


def test_voxelize_interior_building_occupies_single_cell():
    city = CityMap([Building((6, 6, 6), (9, 9, 9))], (0, 0, 0), (20, 20, 20))
    grid = voxelize(city, 5.0)
    assert np.array_equal(np.argwhere(grid.occupancy), [[1, 1, 1]])


def test_voxelize_closes_partial_cells_at_the_far_boundary():
    city = CityMap((), (0, 0, 0), (12, 12, 12))
    grid = voxelize(city, 5.0)
    assert grid.dims == (3, 3, 3)
    # the last cell layer would extend to 15 m, past the map edge
    assert grid.occupancy[2, :, :].all()
    assert grid.occupancy[:, 2, :].all()
    assert grid.occupancy[:, :, 2].all()
    assert not grid.occupancy[:2, :2, :2].any()


def test_cell_addressing_round_trip():
    grid = VoxelGrid(np.zeros((4, 5, 6), dtype=bool), 2.5, origin=(1, 1, 1))
    assert grid.cell_of((1.0, 1.0, 1.0)) == (0, 0, 0)
    assert grid.cell_of(grid.center_of((3, 4, 5))) == (3, 4, 5)
    # the far boundary belongs to the last cell
    assert grid.cell_of((11.0, 13.5, 16.0)) == (3, 4, 5)
    with pytest.raises(ValueError):
        grid.cell_of((0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        grid.cell_of((12.0, 1.0, 1.0))


def test_legal_moves_respect_occupancy_and_corner_cuts():
    occ = np.zeros((2, 2, 1), dtype=bool)
    occ[0, 1, 0] = True
    occ[1, 0, 0] = True
    grid = VoxelGrid(occ, 1.0)
    legal = grid.legal_moves
    k_diag = NEIGHBOR_OFFSETS.index((1, 1, 0))
    k_y = NEIGHBOR_OFFSETS.index((0, 1, 0))
    cell = grid.flat((0, 0, 0))
    # both guard cells of the diagonal are walls: the move would cut a corner
    assert not legal[cell, k_diag]
    assert not legal[cell, k_y]          # target itself occupied
    # moves pointing off the grid edge are illegal
    k_out = NEIGHBOR_OFFSETS.index((-1, 0, 0))
    assert not legal[cell, k_out]


def test_every_legal_move_is_collision_free_in_the_continuous_map():
    city = CityMap(
        [Building((8, 4, 0), (14, 18, 16)), Building((20, 10, 0), (27, 16, 9))],
        (0, 0, 0), (30, 30, 20),
    )
    grid = voxelize(city, 3.0)
    legal = grid.legal_moves
    free_cells = np.argwhere(~grid.occupancy)
    rng = np.random.default_rng(0)
    for cell in free_cells[rng.permutation(len(free_cells))[:80]]:
        flat = grid.flat(tuple(cell))
        a = grid.center_of(tuple(cell))
        for k, off in enumerate(NEIGHBOR_OFFSETS):
            if not legal[flat, k]:
                continue
            b = grid.center_of(tuple(cell + np.array(off)))
            assert not city.segment_collides(a, b)


# ----------------------------------------------------------------------
# A*
# ----------------------------------------------------------------------

def test_astar_free_grid_runs_the_diagonal():
    grid = VoxelGrid(np.zeros((10, 10, 1), dtype=bool), 2.0)
    res = plan_astar(grid, _center_request(grid, (0, 0, 0), (9, 9, 0)))
    assert res.success
    assert path_length(dedupe(res.path)) == pytest.approx(9 * math.sqrt(2) * 2.0, rel=1e-9)


def test_astar_rejects_occupied_endpoints():
    occ = np.zeros((4, 4, 1), dtype=bool)
    occ[3, 3, 0] = True
    grid = VoxelGrid(occ, 1.0)
    with pytest.raises(ValueError):
        plan_astar(grid, _center_request(grid, (0, 0, 0), (3, 3, 0)))
    with pytest.raises(ValueError):
        plan_astar(grid, _center_request(grid, (3, 3, 0), (0, 0, 0)))


def test_astar_reports_failure_when_sealed_off():
    occ = np.zeros((5, 5, 1), dtype=bool)
    occ[2, :, 0] = True          # full wall across the grid
    grid = VoxelGrid(occ, 1.0)
    res = plan_astar(grid, _center_request(grid, (0, 2, 0), (4, 2, 0)))
    assert not res.success and res.path.shape == (0, 3)


def test_astar_cost_matches_dijkstra_on_random_grids():
    rng = np.random.default_rng(31)
    solved = 0
    for _ in range(20):
        occ = rng.random((5, 5, 3)) < 0.25
        occ[0, 0, 0] = False
        occ[4, 4, 2] = False
        grid = VoxelGrid(occ, 2.0)
        s, g = grid.flat((0, 0, 0)), grid.flat((4, 4, 2))
        oracle = _dijkstra_cost(grid, s, g)
        res = plan_astar(grid, _center_request(grid, (0, 0, 0), (4, 4, 2)))
        if math.isinf(oracle):
            assert not res.success
        else:
            solved += 1
            assert res.success
            assert path_length(dedupe(res.path)) == pytest.approx(oracle, abs=1e-9)
    assert solved >= 10


def test_astar_is_deterministic():
    rng = np.random.default_rng(2)
    occ = rng.random((6, 6, 2)) < 0.2
    occ[0, 0, 0] = occ[5, 5, 1] = False
    grid = VoxelGrid(occ, 1.0)
    req = _center_request(grid, (0, 0, 0), (5, 5, 1))
    a = plan_astar(grid, req)
    b = plan_astar(grid, req)
    assert a.path.tobytes() == b.path.tobytes()
    assert a.explored_nodes == b.explored_nodes


# ----------------------------------------------------------------------
# ant colony
# ----------------------------------------------------------------------

def test_aco_params_validation():
    with pytest.raises(ValueError):
        AcoParams(ants=0)
    with pytest.raises(ValueError):
        AcoParams(rho=1.0)
    with pytest.raises(ValueError):
        AcoParams(q0=1.0)
    with pytest.raises(ValueError):
        AcoParams(beta=0.0)


def test_aco_walks_a_single_corridor_exactly():
    grid = VoxelGrid(np.zeros((1, 8, 1), dtype=bool), 5.0)
    res = plan_aco(grid, _center_request(grid, (0, 0, 0), (0, 7, 0)),
                   AcoParams(ants=1, iterations=1), seed=0)
    assert res.success
    centers = grid.origin[1] + (np.arange(8) + 0.5) * 5.0
    assert np.allclose(dedupe(res.path)[:, 1], centers)
    assert res.explored_nodes == 8   # the one ant's chain covers the corridor


def test_aco_single_iteration_equals_best_first_walk():
    occ = np.zeros((6, 6, 2), dtype=bool)
    occ[2, 1:5, :] = True
    grid = VoxelGrid(occ, 4.0)
    req = _center_request(grid, (0, 0, 0), (5, 5, 1))
    params = AcoParams(ants=8, iterations=1)
    result = plan_aco(grid, req, params, seed=3)

    # replay the same walks by hand from a fresh generator
    s, g = grid.flat((0, 0, 0)), grid.flat((5, 5, 1))
    rng = np.random.default_rng(3)
    delta = grid.coords.astype(float) - grid.coords[g]
    dist = np.sqrt((delta * delta).sum(axis=1)) * grid.resolution
    with np.errstate(divide="ignore"):
        eta_b = (1.0 / dist) ** params.beta
    eta_b[g] = 0.0
    cap = max(8, int(ACO_STEP_CAP_FACTOR * float(dist[s]) / grid.resolution))
    tau = np.ones(grid.ncells)
    best, best_cost, entered_total = None, math.inf, 0
    for _ in range(params.ants):
        chain, entered = _walk_ant(grid, s, g, tau, eta_b, params, cap, rng)
        entered_total += entered
        if chain is not None:
            cost = _chain_cost(grid, chain)
            if cost < best_cost:
                best, best_cost = chain, cost
    assert result.explored_nodes == entered_total
    assert result.explored_nodes >= params.ants * params.iterations
    centers = grid.origin + (grid.coords[best] + 0.5) * grid.resolution
    assert np.array_equal(result.path, np.vstack([req.start, centers, req.goal]))


def test_aco_finds_near_optimal_paths_on_an_open_grid():
    # empirical regression: corner-to-corner cost within 1.5x of optimal in
    # at least 27 of 30 seeded runs
    grid = VoxelGrid(np.zeros((5, 5, 1), dtype=bool), 5.0)
    req = _center_request(grid, (0, 0, 0), (4, 4, 0))
    optimal = path_length(dedupe(plan_astar(grid, req).path))
    wins = 0
    for seed in range(30):
        res = plan_aco(grid, req, AcoParams(ants=20, iterations=50), seed)
        if res.success and path_length(dedupe(res.path)) <= 1.5 * optimal + 1e-9:
            wins += 1
    assert wins >= 27


def test_aco_is_deterministic_per_seed():
    occ = np.zeros((6, 6, 2), dtype=bool)
    occ[3, 0:4, :] = True
    grid = VoxelGrid(occ, 3.0)
    req = _center_request(grid, (0, 0, 0), (5, 5, 1))
    a = plan_aco(grid, req, AcoParams(ants=6, iterations=4), seed=12)
    b = plan_aco(grid, req, AcoParams(ants=6, iterations=4), seed=12)
    assert a.success == b.success
    assert a.path.tobytes() == b.path.tobytes()
    assert a.explored_nodes == b.explored_nodes


def test_aco_attempt_accounting():
    grid = VoxelGrid(np.zeros((4, 4, 1), dtype=bool), 2.0)
    params = AcoParams(ants=5, iterations=3)
    res = plan_aco(grid, _center_request(grid, (0, 0, 0), (3, 3, 0)), params, seed=1)
    # every ant enters at least one cell
    assert res.explored_nodes >= params.ants * params.iterations
