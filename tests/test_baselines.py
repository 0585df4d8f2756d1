"""Voxel grid, A* and ant colony tests.

The raster and move table are checked against the references in grid_reference,
and A* against a Dijkstra cost oracle.
"""
from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import frozen
import numpy as np
import pytest
from grid_reference import (chain_cost, dense_aco, dijkstra_cost, reference_move_masks,
                            reference_occupancy)

from skynav import (AcoParams, Building, CityMap, PlanRequest, VoxelGrid, baselines,
                    generate_city, plan_aco, plan_astar, voxelize)
from skynav.baselines import (ACO_NEIGHBOR_MEMO, ACO_STEP_CAP_FACTOR, MAX_GRID_CELLS,
                              NEIGHBOR_OFFSETS, _chain_costs, _moves, _neighbors, _walk_ant)
from skynav.bench import build_city, default_scenario
from skynav.metrics import dedupe, path_length


def _center_request(grid, s_cell, g_cell):
    return PlanRequest(grid.center_of(s_cell), grid.center_of(g_cell), goal_threshold=0.5)


# ----------------------------------------------------------------------
# voxelization
# ----------------------------------------------------------------------

def test_voxelize_empty_map_is_all_free():
    city = CityMap((), (0, 0, 0), (50, 50, 50))
    grid = voxelize(city, 5.0)
    assert grid.dims == (10, 10, 10)
    assert not grid.occupancy.any()


@pytest.mark.filterwarnings("error")
def test_voxelize_rejects_grids_over_the_cell_budget_before_allocating():
    city = CityMap((), (0, 0, 0), (500, 500, 500))
    assert (500 // 5) ** 3 <= MAX_GRID_CELLS < (500 // 1) ** 3
    tracemalloc.start()
    try:
        # 500 m over 1e-300 gives finite cell counts whose product overflows,
        # and over the last two overflows a float64 cell count to inf
        for resolution in (1.0, 1e-3, 1e-300, 1e-310, 5e-324):
            with pytest.raises(ValueError, match="budget"):
                voxelize(city, resolution)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000   # the 1 m grid alone would be 125 MB of occupancy


def test_the_grid_refuses_an_occupancy_over_the_cell_budget_before_allocating():
    occ = np.zeros((300, 300, 100), dtype=bool)
    assert occ.size > MAX_GRID_CELLS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            VoxelGrid(occ, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000   # the move table alone would be 36 MB


@pytest.mark.parametrize("resolution", (0.0, -5.0, math.nan, math.inf))
def test_voxelize_and_the_grid_refuse_a_resolution_that_is_not_positive_and_finite(resolution):
    with pytest.raises(ValueError, match="positive and finite"):
        voxelize(CityMap(), resolution)
    with pytest.raises(ValueError, match="positive and finite"):
        VoxelGrid(np.zeros((2, 2, 2), dtype=bool), resolution)


@pytest.mark.parametrize("origin", ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0),
                                    (0.0, 0.0, -math.inf), (0.0, 0.0), (0.0, 0.0, 0.0, 0.0)))
def test_the_grid_refuses_an_origin_that_is_not_three_finite_coordinates(origin):
    with pytest.raises(ValueError, match="coordinates"):
        VoxelGrid(np.zeros((4, 4, 4), dtype=bool), 1.0, origin)


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


def test_cell_lookups_refuse_cells_outside_the_grid():
    occ = np.zeros((3, 3, 3), dtype=bool)
    occ[2, 0, 0] = True
    grid = VoxelGrid(occ, 1.0)
    # numpy's negative indexing would read cell (2, 0, 0) and the flat index
    # would land on another cell: 15 is (1, 2, 0)
    for cell in ((-1, 0, 0), (0, 5, 0), (0, 0, 3), (3, 0, 0), (0, -1, 2)):
        with pytest.raises(ValueError, match="outside"):
            grid.is_free(cell)
        with pytest.raises(ValueError, match="outside"):
            grid.flat(cell)
        with pytest.raises(ValueError, match="outside"):
            grid.center_of(cell)
    # the (K, 3) rows _cells_to_path passes are range-checked as one array
    rows = np.array([[0, 0, 0], [2, 2, 2], [1, 3, 0]])
    with pytest.raises(ValueError, match="outside"):
        grid.center_of(rows)
    with pytest.raises(ValueError, match="outside"):
        grid.center_of((0, 0))
    assert not grid.is_free((2, 0, 0)) and grid.is_free((1, 0, 0))
    assert grid.flat((1, 2, 0)) == 15 and grid.flat((2, 2, 2)) == 26
    assert grid.center_of(rows[:2]).tolist() == [[0.5, 0.5, 0.5], [2.5, 2.5, 2.5]]
    assert grid.center_of(np.empty((0, 3), dtype=np.int64)).shape == (0, 3)


@pytest.mark.parametrize("p", [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0), "abc"])
def test_cell_of_rejects_points_that_are_not_three_finite_coordinates(p):
    grid = VoxelGrid(np.zeros((4, 5, 6), dtype=bool), 2.5, origin=(1, 1, 1))
    with pytest.raises(ValueError):
        grid.cell_of(p)


@pytest.mark.filterwarnings("error")
def test_cell_of_checks_the_range_before_it_casts_to_int():
    occ = np.zeros((4, 5, 6), dtype=bool)
    # an offset that is inf, one that overflows in the subtraction, and one
    # that overflows in the division by the resolution
    for grid, p in ((VoxelGrid(occ, 2.5), (1e300, 0.0, 0.0)),
                    (VoxelGrid(occ, 1e-300), (1.0, 1.0, 1.0)),
                    (VoxelGrid(occ, 2.5, origin=(-1e308, 0.0, 0.0)), (1e308, 1.0, 1.0)),
                    (VoxelGrid(occ, 1e-300), (1e10, 0.0, 0.0))):
        with pytest.raises(ValueError, match="outside the voxelized volume"):
            grid.cell_of(p)
    assert VoxelGrid(occ, 1e-300).cell_of((0.0, 0.0, 0.0)) == (0, 0, 0)


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
    assert not (legal[cell] >> k_diag) & 1
    assert not (legal[cell] >> k_y) & 1          # target itself occupied
    # moves pointing off the grid edge are illegal
    k_out = NEIGHBOR_OFFSETS.index((-1, 0, 0))
    assert not (legal[cell] >> k_out) & 1


def _legal_moves_by_loop(occ: np.ndarray) -> np.ndarray:
    """(ncells, 26) move table from a per-cell loop over occupancy and the grid edges."""
    def free(cell) -> bool:
        inside = all(0 <= c < n for c, n in zip(cell, occ.shape))
        return inside and not occ[cell]

    def spanned(off):
        """Every cell of the box between the origin and the offset."""
        return [(i, j, k) for i in range(min(0, off[0]), max(0, off[0]) + 1)
                for j in range(min(0, off[1]), max(0, off[1]) + 1)
                for k in range(min(0, off[2]), max(0, off[2]) + 1)]

    table = np.zeros((occ.size, 26), dtype=bool)
    for flat, cell in enumerate(np.ndindex(occ.shape)):
        for k, off in enumerate(NEIGHBOR_OFFSETS):
            table[flat, k] = all(free(tuple(c + d for c, d in zip(cell, o))) for o in spanned(off))
    return table


@pytest.mark.parametrize("dims", [(1, 5, 4), (2, 3, 6), (4, 2, 1), (5, 5, 5), (1, 1, 3), (3, 4, 2)])
def test_move_masks_match_a_per_cell_loop(dims):
    rng = np.random.default_rng(sum(dims))
    for density in (0.0, 0.3, 0.6):
        occ = rng.random(dims) < density
        grid = VoxelGrid(occ, 1.0)
        assert grid.legal_moves.shape == (grid.ncells,)
        assert grid.legal_moves.dtype == np.uint32
        bits = (grid.legal_moves[:, None] >> np.arange(26, dtype=np.uint32)) & 1
        assert np.array_equal(bits.astype(bool), _legal_moves_by_loop(occ))
        assert not (grid.legal_moves >> 26).any()


@pytest.mark.exact
def test_voxelize_and_the_move_table_equal_the_reference_bit_for_bit(monkeypatch):
    scn = default_scenario()
    for city in [build_city(scn)] + [generate_city(seed, scn.map_params) for seed in (12, 13)]:
        assert len(city.buildings) == 40
        for resolution in (5.0, 4.0, 7.3):
            grid = voxelize(city, resolution)
            assert np.array_equal(grid.occupancy,
                                  reference_occupancy(city, resolution, grid.dims))
            assert grid.legal_moves.dtype == np.uint32
            assert np.array_equal(grid.legal_moves, reference_move_masks(grid.occupancy))
    # random occupancies, one cell thin on one or more axes, from empty to
    # full, built in one x-slab and in slabs of one and two layers
    rng = np.random.default_rng(28)
    one_slab = baselines.MASK_SLAB_CELLS
    shapes = ((1, 9, 8), (7, 1, 9), (8, 7, 1), (1, 1, 12), (1, 12, 1), (12, 1, 1),
              (1, 1, 1), (6, 7, 5))
    for dims in shapes:
        layer = (dims[1] + 2) * (dims[2] + 2)
        for slab_cells in (one_slab, 1, 2 * layer):
            monkeypatch.setattr(baselines, "MASK_SLAB_CELLS", slab_cells)
            for density in (0.0, 0.1, 0.4, 0.8, 1.0):
                occ = rng.random(dims) < density
                assert np.array_equal(VoxelGrid(occ, 1.0).legal_moves, reference_move_masks(occ))


@pytest.mark.exact
def test_voxelize_stays_within_the_corner_product_build_peak_on_the_canonical_grid():
    city = build_city(default_scenario())
    tracemalloc.start()
    try:
        grid = voxelize(city, 5.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.ncells == 100 ** 3
    # the corner-product build peaked at 11.07 MB here; the slabbed one keeps
    # 5 MB (occupancy and move table) and about 2 MB of work arrays
    assert peak <= 11_070_000


def test_moves_lists_the_set_bits_of_a_mask_in_ascending_order():
    def set_bits(m):
        return tuple(k for k, bit in enumerate(reversed(f"{m:026b}")) if bit == "1")

    city_masks = np.unique(voxelize(build_city(default_scenario()), 5.0).legal_moves)
    masks = ([0, 2 ** 26 - 1] + [1 << k for k in range(26)]
             + np.random.default_rng(7).integers(0, 2 ** 26, size=200).tolist()
             + city_masks.tolist())
    for m in masks:
        assert _moves(m) == set_bits(m)
    # a process-wide memo must not grow with the number of distinct masks
    assert _moves.cache_info().maxsize == 4096


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
            if not (legal[flat] >> k) & 1:
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
        oracle = dijkstra_cost(grid, s, g)
        res = plan_astar(grid, _center_request(grid, (0, 0, 0), (4, 4, 2)))
        if math.isinf(oracle):
            assert not res.success
        else:
            solved += 1
            assert res.success
            assert path_length(dedupe(res.path)) == pytest.approx(oracle, abs=1e-9)
    assert solved >= 10


def test_astar_cost_matches_dijkstra_on_uneven_random_grids():
    # each axis takes a turn as the longest, so the octile heuristic sorts its
    # deltas in every order; endpoints are random free cells
    rng = np.random.default_rng(29)
    solved = 0
    for dims in [(9, 7, 4), (4, 9, 7), (7, 4, 9)] * 13 + [(9, 7, 4)]:
        occ = rng.random(dims) < 0.3
        free = np.argwhere(~occ)
        s_cell, g_cell = (tuple(c) for c in free[rng.choice(len(free), 2, replace=False)])
        grid = VoxelGrid(occ, 2.5, origin=(-3.0, 1.0, 0.5))
        oracle = dijkstra_cost(grid, grid.flat(s_cell), grid.flat(g_cell))
        res = plan_astar(grid, _center_request(grid, s_cell, g_cell))
        if math.isinf(oracle):
            assert not res.success
        else:
            solved += 1
            assert res.success
            assert path_length(dedupe(res.path)) == pytest.approx(oracle, abs=1e-9)
    assert solved >= 30


@pytest.mark.parametrize("dims, goal", [((30, 20, 10), (29, 5, 9)), ((40, 40, 12), (37, 11, 6)),
                                        ((25, 25, 25), (3, 24, 17))])
def test_astar_pops_few_cells_beyond_the_route_on_an_empty_grid(dims, goal):
    # the octile distance is a route's exact cost on an empty grid, so every
    # cell of an optimal route ties on f and the higher g goes first.  The
    # Euclidean heuristic popped 1,492, 2,897 and 878 cells here.  Float
    # rounding of g and h decides the ties, so the counts depend on the
    # resolution: at 1 m (or any power of two) the 25^3 case pops 445.
    grid = VoxelGrid(np.zeros(dims, dtype=bool), 5.0)
    res = plan_astar(grid, _center_request(grid, (0, 0, 0), goal))
    cells = len(res.path) - 2
    assert res.success and cells == max(goal) + 1
    assert res.explored_nodes <= 5 * cells


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
    coords = np.argwhere(np.ones(grid.dims, dtype=bool))   # (x, y, z) per flat index
    delta = coords.astype(float) - coords[g]
    dist = np.sqrt((delta * delta).sum(axis=1)) * grid.resolution
    with np.errstate(divide="ignore"):
        eta_b = (1.0 / dist) ** params.beta
    eta_b[g] = 0.0
    cap = max(8, int(ACO_STEP_CAP_FACTOR * float(dist[s]) / grid.resolution))
    weight = np.ones(grid.ncells) * eta_b   # first iteration: pheromone 1 everywhere
    neighbors = _neighbors(grid)
    best, best_cost, entered_total = None, math.inf, 0
    for _ in range(params.ants):
        chain, entered = _walk_ant(s, g, neighbors, memoryview(weight), params.q0, cap,
                                   rng.random)
        entered_total += entered
        if chain is not None:
            cost = chain_cost(grid, chain)
            if cost < best_cost:
                best, best_cost = chain, cost
    assert result.explored_nodes == entered_total
    assert result.explored_nodes >= params.ants * params.iterations
    centers = grid.origin + (coords[best] + 0.5) * grid.resolution
    assert np.array_equal(result.path, np.vstack([req.start, centers, req.goal]))


def _colony_cases():
    """(grid, request, params, seed) on random grids, over alpha, q0, rho and q.

    At q = 1 the clamp q / (rho * best_cost) falls below 1 and so binds on
    the cells no ant deposited on too.
    """
    rng = np.random.default_rng(41)
    grids = []
    for _ in range(2):
        occ = rng.random((7, 7, 3)) < 0.2
        occ[0, 0, 0] = occ[6, 6, 2] = False
        grids.append(VoxelGrid(occ, 2.0))
    for alpha in (0.5, 1.0, 1.5):
        for q0 in (0.0, 0.6):
            for rho, q in product((0.3, 0.5, 0.9), (1.0, 100.0)):
                params = AcoParams(ants=6, iterations=6, alpha=alpha, rho=rho, q=q, q0=q0)
                for i, grid in enumerate(grids):
                    yield grid, _center_request(grid, (0, 0, 0), (6, 6, 2)), params, i


def _trap():
    """A request whose goal sits behind a wall: at seed 2 the first ant to reach
    it does so in iteration 7 (q0 = 0) or 8 (q0 = 0.6)."""
    occ = np.zeros((10, 10, 2), dtype=bool)
    occ[5, 0:4, :] = True
    grid = VoxelGrid(occ, 5.0)
    return grid, _center_request(grid, (3, 0, 0), (7, 0, 0))


@pytest.mark.exact
@pytest.mark.parametrize("memo", (ACO_NEIGHBOR_MEMO, 8))
def test_compact_colony_equals_the_dense_colony_bit_for_bit(memo, monkeypatch):
    # pheromone kept only where ants deposit must give the dense grid's routes;
    # a bound of 8 makes most neighbour lists miss the memo
    monkeypatch.setattr(baselines, "ACO_NEIGHBOR_MEMO", memo)
    trap, trap_req = _trap()
    cases = list(_colony_cases())
    for q0 in (0.0, 0.6):
        params = AcoParams(ants=5, iterations=10, rho=0.3, alpha=1.5, q0=q0)
        # no deposit in the first iterations: the background evaporates unclamped
        assert not dense_aco(trap, trap_req, replace(params, iterations=2), 2).success
        cases.append((trap, trap_req, params, 2))
    solved = 0
    for grid, req, params, seed in cases:
        want = dense_aco(grid, req, params, seed)
        got = plan_aco(grid, req, params, seed)
        assert (got.success, got.explored_nodes) == (want.success, want.explored_nodes)
        assert got.path.tobytes() == want.path.tobytes()
        solved += got.success
    assert solved >= len(cases) // 2


@pytest.mark.exact
def test_chain_costs_by_flat_offset_equal_the_unravelled_steps(monkeypatch):
    # plan_aco looks each step's unit length up by its flat offset, and the
    # reference unravels each step: every successful ant's cost, which sets its
    # deposit and the best route, must agree to the bit.  The frozen-output
    # grid has distinct flat offsets; the trap grid is two cells deep on z,
    # where two moves share one, and takes the unravelled path
    chains = []

    def recording(grid):
        cost = _chain_costs(grid)

        def record(chain):
            chains.append((grid, chain))
            return cost(chain)
        return record

    monkeypatch.setattr(baselines, "_chain_costs", recording)
    grid = frozen.frozen_grid(2)
    assert len(set(grid.flat_offsets.tolist())) == len(NEIGHBOR_OFFSETS)
    req = PlanRequest(frozen.GRID_START, frozen.GRID_GOAL)
    assert plan_aco(grid, req, AcoParams(ants=10, iterations=8), 3).success
    trap, trap_req = _trap()
    plan_aco(trap, trap_req, AcoParams(ants=5, iterations=10), 2)
    assert len({id(g) for g, _ in chains}) == 2 and len(chains) >= 50
    for grid, chain in chains:
        want = np.float64(chain_cost(grid, chain))
        assert np.float64(_chain_costs(grid)(chain)).tobytes() == want.tobytes()


def test_grid_planners_agree_when_start_and_goal_share_a_voxel():
    grid = VoxelGrid(np.zeros((6, 6, 2), dtype=bool), 5.0)
    req = PlanRequest((1.0, 1.0, 1.0), (3.0, 2.0, 2.0))
    astar = plan_astar(grid, req)
    aco = plan_aco(grid, req, AcoParams(ants=3, iterations=2))
    assert astar.success and aco.success
    assert np.array_equal(astar.path, [req.start, (2.5, 2.5, 2.5), req.goal])
    assert aco.path.tobytes() == astar.path.tobytes()
    assert aco.explored_nodes == astar.explored_nodes == 1


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


def test_grid_planners_stay_within_their_per_call_memory_budget():
    # the canonical 5 m grid has 1M cells, so one float64 per cell is 8 MB: A*
    # keeps no per-cell array, the ant colony two (heuristic and move weight)
    # and an int32 pheromone slot per cell
    scn = default_scenario()
    grid = voxelize(build_city(scn), scn.grid_resolution)
    req = scn.request()
    assert grid.ncells == 100 ** 3

    def peak_of(plan) -> int:
        tracemalloc.start()
        try:
            assert plan().success
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_of(lambda: plan_astar(grid, req)) < 12_000_000
    for alpha in (1.0, 1.5):   # pheromone^alpha is taken only of the deposited cells
        params = AcoParams(ants=4, iterations=2, alpha=alpha)
        assert peak_of(lambda: plan_aco(grid, req, params, seed=500)) < 24_000_000
