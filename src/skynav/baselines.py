"""Grid-based baseline planners: voxel rasterization, A*, and ant colony search.

Both baselines run on a conservative voxelization of the building map.  Moves
use 26-connectivity, and a move is legal only when every cell of the box its
offset spans is free (for a diagonal, every cell it brushes past); this keeps
cell-center paths collision-free in the continuous map even when buildings
poke into neighbouring cells.  The planners decode a cell's move mask through
a small bounded memo.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import inf, sqrt
from time import perf_counter

import numpy as np

from .core import EMPTY_PATH, PlanRequest, PlanResult, uniforms
from .env import CityMap, as_point, check_count

# all 26 neighbour offsets, lexicographic for deterministic tie handling
NEIGHBOR_OFFSETS: tuple[tuple[int, int, int], ...] = tuple(
    off for off in product((-1, 0, 1), repeat=3) if off != (0, 0, 0)
)


@lru_cache(maxsize=4096)
def _moves(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of a move mask, ascending.

    Bounded: a real map holds about a hundred distinct masks, but an arbitrary
    occupancy grid can hold one per cell.
    """
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


# ants give up after this multiple of the straight-line cell distance
ACO_STEP_CAP_FACTOR = 4.0

# largest grid voxelize accepts.  A grid keeps 5 bytes per cell (occupancy and
# the uint32 move mask) and needs about 10 more while it builds the masks; an
# ant colony search adds up to 32 (pheromone, heuristic, move weight and, when
# alpha != 1, pheromone^alpha).  Under 40 bytes per cell caps a run near
# 0.3 GB: a 500 m cube at 5 m (1M cells) fits, at 2 m (15.6M) or 1 m (125M) it
# does not.
MAX_GRID_CELLS = 8_000_000


class VoxelGrid:
    """Uniform occupancy grid over a map's bounds.

    occupancy[i, j, k] covers the closed cell
    origin + [i, i+1] x [j, j+1] x [k, k+1] * resolution.
    legal_moves[flat cell index] is a uint32 move mask: bit k is set when the
    move NEIGHBOR_OFFSETS[k] is collision-safe from that cell.
    """

    def __init__(self, occupancy: np.ndarray, resolution: float, origin=(0.0, 0.0, 0.0)):
        if not 0.0 < resolution < inf:
            raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
        occupancy = np.asarray(occupancy, dtype=bool)
        if occupancy.ndim != 3:
            raise ValueError("occupancy must be a 3D boolean array")
        self.occupancy = occupancy
        self.resolution = float(resolution)
        self.origin = np.asarray(origin, dtype=float)
        self.dims = occupancy.shape
        self.ncells = int(occupancy.size)
        # flat index deltas and metric lengths for the 26 moves
        nx, ny, nz = self.dims
        self.flat_offsets = np.array(
            [(dx * ny + dy) * nz + dz for dx, dy, dz in NEIGHBOR_OFFSETS], dtype=np.int64
        )
        self.move_costs = np.array(
            [np.sqrt(dx * dx + dy * dy + dz * dz) for dx, dy, dz in NEIGHBOR_OFFSETS]
        ) * self.resolution
        # the free mask sampled at cell + off is a view into a copy padded with
        # occupied cells, so moves off the grid edge are never legal
        padded = np.pad(~occupancy, 1)

        def shifted(off):
            dx, dy, dz = off
            return padded[1 + dx: 1 + dx + nx, 1 + dy: 1 + dy + ny, 1 + dz: 1 + dz + nz]

        free = shifted((0, 0, 0))
        masks = np.zeros(self.dims, dtype=np.uint32)
        ok = np.empty(self.dims, dtype=bool)
        for k, off in enumerate(NEIGHBOR_OFFSETS):
            # the corners of the box the offset spans: origin, target and, for
            # a diagonal, every cell it brushes past
            np.copyto(ok, free)
            for corner in product(*((0, d) if d else (0,) for d in off)):
                if any(corner):
                    ok &= shifted(corner)
            masks |= ok.astype(np.uint32) << np.uint32(k)
        self.legal_moves = masks.reshape(self.ncells)

    # ------------------------------------------------------------------
    # cell addressing
    # ------------------------------------------------------------------

    def cell_of(self, p) -> tuple[int, int, int]:
        """Cell containing a point; points on the far boundary map to the last cell.

        A point outside the grid, or not three finite coordinates, raises ValueError.
        """
        rel = (as_point(p) - self.origin) / self.resolution
        idx = np.floor(rel).astype(int)
        idx = np.clip(idx, 0, np.array(self.dims) - 1)
        if np.any(rel < 0) or np.any(rel > np.array(self.dims)):
            raise ValueError(f"point outside the voxelized volume: {p!r}")
        return int(idx[0]), int(idx[1]), int(idx[2])

    def center_of(self, cell) -> np.ndarray:
        return self.origin + (np.asarray(cell, dtype=float) + 0.5) * self.resolution

    def is_free(self, cell) -> bool:
        x, y, z = cell
        return bool(not self.occupancy[x, y, z])

    def flat(self, cell) -> int:
        x, y, z = cell
        return (x * self.dims[1] + y) * self.dims[2] + z

    def cells(self, flat) -> np.ndarray:
        """Integer (x, y, z) rows of a sequence of flat cell indices."""
        return np.column_stack(np.unravel_index(np.asarray(flat, dtype=np.int64), self.dims))


def voxelize(city: CityMap, resolution: float = 5.0) -> VoxelGrid:
    """Rasterize a map: a cell is occupied iff its closed box touches a building."""
    if not 0.0 < resolution < inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution!r}")
    extent = city.bounds_max - city.bounds_min
    with np.errstate(over="ignore"):   # a tiny resolution counts inf cells, refused below
        counts = np.maximum(np.ceil(extent / resolution - 1e-9), 1.0)
    ncells = counts.prod()
    if ncells > MAX_GRID_CELLS:
        raise ValueError(
            f"a {resolution:g} m grid needs {ncells:,.0f} cells, over the budget of "
            f"{MAX_GRID_CELLS:,}; use a coarser resolution")
    dims = tuple(int(n) for n in counts)
    occ = np.zeros(dims, dtype=bool)
    for b in city.buildings:
        lo = (np.asarray(b.min_corner) - city.bounds_min) / resolution
        hi = (np.asarray(b.max_corner) - city.bounds_min) / resolution
        i0 = np.clip(np.ceil(lo - 1.0).astype(int), 0, np.array(dims) - 1)
        i1 = np.clip(np.floor(hi).astype(int), 0, np.array(dims) - 1)
        occ[i0[0]: i1[0] + 1, i0[1]: i1[1] + 1, i0[2]: i1[2] + 1] = True
    # partial cells on the far side would poke out of bounds; close them off so
    # grid paths can never leave the map
    for axis in range(3):
        if dims[axis] * resolution > extent[axis] + 1e-6:
            index = [slice(None)] * 3
            index[axis] = dims[axis] - 1
            occ[tuple(index)] = True
    return VoxelGrid(occ, resolution, tuple(city.bounds_min))


def _grid_endpoints(grid: VoxelGrid, req: PlanRequest) -> tuple[int, int]:
    s_cell = grid.cell_of(req.start)
    g_cell = grid.cell_of(req.goal)
    if not grid.is_free(s_cell):
        raise ValueError(f"start cell {s_cell} is occupied")
    if not grid.is_free(g_cell):
        raise ValueError(f"goal cell {g_cell} is occupied")
    return grid.flat(s_cell), grid.flat(g_cell)


def _cells_to_path(grid: VoxelGrid, chain: list[int], req: PlanRequest) -> np.ndarray:
    """Cell-center waypoints bracketed by the exact continuous endpoints."""
    return np.vstack([req.start, grid.center_of(grid.cells(chain)), req.goal])


def plan_astar(grid: VoxelGrid, req: PlanRequest) -> PlanResult:
    """Optimal 26-connected grid search with Euclidean costs and heuristic.

    Frontier ties break on lower f, then higher g, then lexicographic cell
    index, making the search fully deterministic.  explored_nodes counts
    cells popped from the frontier.
    """
    t0 = perf_counter()
    s, g = _grid_endpoints(grid, req)
    masks = memoryview(grid.legal_moves)
    offs = grid.flat_offsets.tolist()
    costs = grid.move_costs.tolist()
    res = grid.resolution
    _, ny, nz = grid.dims
    nyz = ny * nz
    gx, gy, gz = grid.cells([g])[0].tolist()

    g_score = {s: 0.0}
    came: dict[int, int] = {}
    closed: set[int] = set()
    heap: list[tuple[float, float, int]] = [(0.0, 0.0, s)]  # popped first whatever its f
    found = False
    while heap:
        _, _, cur = heapq.heappop(heap)
        if cur in closed:
            continue
        closed.add(cur)
        if cur == g:
            found = True
            break
        g_cur = g_score[cur]
        for k in _moves(masks[cur]):
            nb = cur + offs[k]
            ng = g_cur + costs[k]
            if ng < g_score.get(nb, inf) and nb not in closed:
                g_score[nb] = ng
                came[nb] = cur
                # straight-line remaining distance in meters
                x, yz = divmod(nb, nyz)
                y, z = divmod(yz, nz)
                dx, dy, dz = x - gx, y - gy, z - gz
                heapq.heappush(heap, (ng + sqrt(dx * dx + dy * dy + dz * dz) * res, -ng, nb))
    if not found:
        return PlanResult(False, EMPTY_PATH.copy(), len(closed), perf_counter() - t0)
    chain = [g]
    while chain[-1] != s:
        chain.append(came[chain[-1]])
    chain.reverse()
    return PlanResult(True, _cells_to_path(grid, chain, req), len(closed), perf_counter() - t0)


@dataclass(frozen=True)
class AcoParams:
    """Ant colony settings.

    Move choice follows the pseudo-random-proportional rule: with probability
    q0 an ant takes the best-scoring move, otherwise it spins a roulette wheel
    with weights pheromone^alpha * (1 / distance-to-goal)^beta.  Pheromone is
    clamped from above by q / (rho * best_cost) after every iteration.
    """

    ants: int = 30
    iterations: int = 100
    alpha: float = 1.0
    beta: float = 2.0
    rho: float = 0.5
    q: float = 100.0
    q0: float = 0.6

    def __post_init__(self):
        check_count(self.ants, "ants")
        check_count(self.iterations, "iterations")
        if not all(0.0 < v < inf for v in (self.alpha, self.beta, self.q)):
            raise ValueError("alpha, beta and q must be positive and finite")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        if not 0.0 <= self.q0 < 1.0:
            raise ValueError("q0 must lie in [0, 1)")


def _walk_ant(grid: VoxelGrid, s: int, g: int, weight: np.ndarray, q0: float, cap: int,
              draw: Callable[[], float]) -> tuple[list[int] | None, int]:
    """One self-avoiding walk from s; returns (cell chain or None, cells entered).

    weight[c] scores entering cell c; draw() returns the next uniform in [0, 1).
    """
    masks = memoryview(grid.legal_moves)
    score = memoryview(weight)
    offs = grid.flat_offsets.tolist()
    visited = {s}
    chain = [s]
    cur = s
    for _ in range(cap):
        candidates = [nb for k in _moves(masks[cur])
                      if (nb := cur + offs[k]) not in visited]
        if not candidates:
            return None, len(chain)
        if g in candidates:
            chain.append(g)
            return chain, len(chain)
        w = [score[c] for c in candidates]
        if draw() < q0:
            pick = w.index(max(w))
        else:
            cum = list(accumulate(w))
            pick = min(bisect_right(cum, draw() * cum[-1]), len(candidates) - 1)
        cur = candidates[pick]
        visited.add(cur)
        chain.append(cur)
    return None, len(chain)


def _chain_cost(grid: VoxelGrid, chain: list[int]) -> float:
    steps = np.diff(grid.cells(chain).astype(float), axis=0)
    return float(np.sqrt((steps * steps).sum(axis=1)).sum() * grid.resolution)


def plan_aco(grid: VoxelGrid, req: PlanRequest, params: AcoParams = AcoParams(),
             seed: int = 0) -> PlanResult:
    """Ant colony search over the voxel grid.

    Every iteration launches params.ants self-avoiding walks; walks that reach
    the goal deposit q / cost pheromone on their cells after the global
    (1 - rho) evaporation.  Returns the best path found across all
    iterations.  explored_nodes totals the cells entered by every ant.
    """
    t0 = perf_counter()
    s, g = _grid_endpoints(grid, req)
    draw = uniforms(np.random.default_rng(seed)).__next__

    # (1 / straight-line distance to the goal)^beta per cell, from per-axis squares
    sq = [(np.arange(n) - c) ** 2.0 for n, c in zip(grid.dims, grid.cells([g])[0].tolist())]
    dist = sq[0][:, None, None] + sq[1][None, :, None]
    dist = (dist + sq[2][None, None, :]).reshape(grid.ncells)
    np.sqrt(dist, out=dist)
    dist *= grid.resolution
    cap = max(8, int(ACO_STEP_CAP_FACTOR * float(dist[s]) / grid.resolution))
    with np.errstate(divide="ignore"):
        eta_b = np.divide(1.0, dist, out=dist)
    eta_b **= params.beta
    eta_b[g] = 0.0  # never scored: reaching the goal short-circuits the walk

    tau = np.ones(grid.ncells)
    weight = np.empty(grid.ncells)
    best_chain: list[int] | None = None
    best_cost = np.inf
    visited_total = 0
    for _ in range(params.iterations):
        np.multiply(tau if params.alpha == 1.0 else tau ** params.alpha, eta_b, out=weight)
        deposits: list[tuple[list[int], float]] = []
        for _ant in range(params.ants):
            chain, entered = _walk_ant(grid, s, g, weight, params.q0, cap, draw)
            visited_total += entered
            if chain is not None:
                cost = _chain_cost(grid, chain)
                deposits.append((chain, cost))
                if cost < best_cost:
                    best_chain, best_cost = chain, cost
        tau *= 1.0 - params.rho
        for chain, cost in deposits:
            tau[chain] += params.q / cost
        if best_cost < np.inf:
            np.minimum(tau, params.q / (params.rho * best_cost), out=tau)
    if best_chain is None:
        return PlanResult(False, EMPTY_PATH.copy(), visited_total, perf_counter() - t0)
    return PlanResult(True, _cells_to_path(grid, best_chain, req), visited_total,
                      perf_counter() - t0)
