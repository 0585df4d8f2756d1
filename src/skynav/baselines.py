"""Grid-based baseline planners: voxel rasterization, A*, and ant colony search.

Both baselines run on a conservative voxelization of the building map.  Moves
use 26-connectivity, but a diagonal move is only legal when every cell it
brushes past is free; this keeps cell-center paths collision-free in the
continuous map even when buildings poke into neighbouring cells.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product
from time import perf_counter

import numpy as np

from .core import EMPTY_PATH, PlanRequest, PlanResult
from .env import CityMap

# all 26 neighbour offsets, lexicographic for deterministic tie handling
NEIGHBOR_OFFSETS: tuple[tuple[int, int, int], ...] = tuple(
    off for off in product((-1, 0, 1), repeat=3) if off != (0, 0, 0)
)

# cells a diagonal move brushes past: the same offset with any nonzero
# component(s) zeroed out.  All of them must be free for the move to be legal.
_GUARDS: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(
    tuple(
        guard
        for guard in {
            tuple(0 if z else d for d, z in zip(off, zeroing))
            for zeroing in product((False, True), repeat=3)
        }
        if guard != off and guard != (0, 0, 0)
    )
    for off in NEIGHBOR_OFFSETS
)

# ants give up after this multiple of the straight-line cell distance
ACO_STEP_CAP_FACTOR = 4.0

# largest grid voxelize accepts.  The move table and the 26 shifted free masks
# built with it take about 100 bytes per cell, so this caps them near 0.8 GB:
# a 500 m cube at 5 m (1M cells) fits, at 2 m (15.6M) or 1 m (125M) it does not.
MAX_GRID_CELLS = 8_000_000


def _shifted(arr: np.ndarray, off: tuple[int, int, int]) -> np.ndarray:
    """arr sampled at cell + off, False where that lands outside the grid."""
    out = np.zeros_like(arr)
    dst, src = [], []
    for d, n in zip(off, arr.shape):
        if d == 0:
            dst.append(slice(None))
            src.append(slice(None))
        elif d > 0:
            dst.append(slice(0, n - d))
            src.append(slice(d, n))
        else:
            dst.append(slice(-d, n))
            src.append(slice(0, n + d))
    out[tuple(dst)] = arr[tuple(src)]
    return out


class VoxelGrid:
    """Uniform occupancy grid over a map's bounds.

    occupancy[i, j, k] covers the closed cell
    origin + [i, i+1] x [j, j+1] x [k, k+1] * resolution.
    """

    def __init__(self, occupancy: np.ndarray, resolution: float, origin=(0.0, 0.0, 0.0)):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        occupancy = np.asarray(occupancy, dtype=bool)
        if occupancy.ndim != 3:
            raise ValueError("occupancy must be a 3D boolean array")
        self.occupancy = occupancy
        self.resolution = float(resolution)
        self.origin = np.asarray(origin, dtype=float)
        self.dims = occupancy.shape
        self.ncells = int(occupancy.size)
        self._legal_flat: np.ndarray | None = None
        self._coords: np.ndarray | None = None
        # flat index deltas and metric lengths for the 26 moves
        nx, ny, nz = self.dims
        self.flat_offsets = np.array(
            [(dx * ny + dy) * nz + dz for dx, dy, dz in NEIGHBOR_OFFSETS], dtype=np.int64
        )
        self.move_costs = np.array(
            [np.sqrt(dx * dx + dy * dy + dz * dz) for dx, dy, dz in NEIGHBOR_OFFSETS]
        ) * self.resolution

    # ------------------------------------------------------------------
    # cell addressing
    # ------------------------------------------------------------------

    def cell_of(self, p) -> tuple[int, int, int]:
        """Cell containing a point; points on the far boundary map to the last cell."""
        rel = (np.asarray(p, dtype=float) - self.origin) / self.resolution
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

    @property
    def coords(self) -> np.ndarray:
        """Integer (x, y, z) per flat cell index, shape (ncells, 3)."""
        if self._coords is None:
            grids = np.indices(self.dims).reshape(3, -1).T
            self._coords = np.ascontiguousarray(grids, dtype=np.int32)
        return self._coords

    @property
    def legal_moves(self) -> np.ndarray:
        """Boolean (ncells, 26) table of collision-safe moves per cell."""
        if self._legal_flat is None:
            free = ~self.occupancy
            single = {off: _shifted(free, off) for off in NEIGHBOR_OFFSETS}
            legal = np.empty(self.dims + (26,), dtype=bool)
            for k, off in enumerate(NEIGHBOR_OFFSETS):
                ok = free & single[off]
                for guard in _GUARDS[k]:
                    ok &= single[guard]
                legal[..., k] = ok
            self._legal_flat = legal.reshape(self.ncells, 26)
        return self._legal_flat


def voxelize(city: CityMap, resolution: float = 5.0) -> VoxelGrid:
    """Rasterize a map: a cell is occupied iff its closed box touches a building."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    extent = city.bounds_max - city.bounds_min
    dims = tuple(int(n) for n in np.ceil(extent / resolution - 1e-9))
    dims = tuple(max(n, 1) for n in dims)
    ncells = dims[0] * dims[1] * dims[2]
    if ncells > MAX_GRID_CELLS:
        raise ValueError(
            f"a {resolution:g} m grid needs {ncells:,} cells, over the budget of "
            f"{MAX_GRID_CELLS:,}; use a coarser resolution")
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
    centers = grid.origin + (grid.coords[chain] + 0.5) * grid.resolution
    return np.vstack([req.start, centers, req.goal])


def plan_astar(grid: VoxelGrid, req: PlanRequest) -> PlanResult:
    """Optimal 26-connected grid search with Euclidean costs and heuristic.

    Frontier ties break on lower f, then higher g, then lexicographic cell
    index, making the search fully deterministic.  explored_nodes counts
    cells popped from the frontier.
    """
    t0 = perf_counter()
    s, g = _grid_endpoints(grid, req)
    legal = grid.legal_moves
    offs = grid.flat_offsets
    costs = grid.move_costs
    # straight-line remaining distance per cell, in meters
    delta = grid.coords.astype(float) - grid.coords[g]
    h = np.sqrt((delta * delta).sum(axis=1)) * grid.resolution

    g_score = np.full(grid.ncells, np.inf)
    g_score[s] = 0.0
    came = np.full(grid.ncells, -1, dtype=np.int64)
    closed = np.zeros(grid.ncells, dtype=bool)
    heap: list[tuple[float, float, int]] = [(float(h[s]), 0.0, s)]
    explored = 0
    found = False
    while heap:
        _, _, cur = heapq.heappop(heap)
        if closed[cur]:
            continue
        closed[cur] = True
        explored += 1
        if cur == g:
            found = True
            break
        moves = np.nonzero(legal[cur])[0]
        if moves.size == 0:
            continue
        neighbors = cur + offs[moves]
        tentative = g_score[cur] + costs[moves]
        better = tentative < g_score[neighbors]
        for nb, ng in zip(neighbors[better].tolist(), tentative[better].tolist()):
            if closed[nb]:
                continue
            g_score[nb] = ng
            came[nb] = cur
            heapq.heappush(heap, (ng + float(h[nb]), -ng, nb))
    if not found:
        return PlanResult(False, EMPTY_PATH.copy(), explored, perf_counter() - t0)
    chain = [g]
    while chain[-1] != s:
        chain.append(int(came[chain[-1]]))
    chain.reverse()
    return PlanResult(True, _cells_to_path(grid, chain, req), explored, perf_counter() - t0)


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
        if self.ants < 1 or self.iterations < 1:
            raise ValueError("ants and iterations must be at least 1")
        if self.alpha <= 0 or self.beta <= 0 or self.q <= 0:
            raise ValueError("alpha, beta and q must be positive")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        if not 0.0 <= self.q0 < 1.0:
            raise ValueError("q0 must lie in [0, 1)")


def _walk_ant(grid: VoxelGrid, s: int, g: int, tau: np.ndarray, eta_b: np.ndarray,
              params: AcoParams, cap: int, rng) -> tuple[list[int] | None, int]:
    """One self-avoiding walk from s; returns (cell chain or None, cells entered)."""
    legal = grid.legal_moves
    offs = grid.flat_offsets
    visited = {s}
    chain = [s]
    cur = s
    for _ in range(cap):
        moves = np.nonzero(legal[cur])[0]
        candidates = [c for c in (cur + offs[moves]).tolist() if c not in visited]
        if not candidates:
            return None, len(chain)
        if g in candidates:
            chain.append(g)
            return chain, len(chain)
        arr = np.array(candidates)
        w = tau[arr] if params.alpha == 1.0 else tau[arr] ** params.alpha
        w = w * eta_b[arr]
        if rng.random() < params.q0:
            pick = int(np.argmax(w))
        else:
            cum = np.cumsum(w)
            pick = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            pick = min(pick, len(candidates) - 1)
        cur = candidates[pick]
        visited.add(cur)
        chain.append(cur)
    return None, len(chain)


def _chain_cost(grid: VoxelGrid, chain: list[int]) -> float:
    cells = grid.coords[chain].astype(float)
    steps = np.diff(cells, axis=0)
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
    rng = np.random.default_rng(seed)
    grid.legal_moves  # build the move table outside the per-ant loop

    delta = grid.coords.astype(float) - grid.coords[g]
    dist = np.sqrt((delta * delta).sum(axis=1)) * grid.resolution
    with np.errstate(divide="ignore"):
        eta_b = (1.0 / dist) ** params.beta
    eta_b[g] = 0.0  # never scored: reaching the goal short-circuits the walk

    cap = max(8, int(ACO_STEP_CAP_FACTOR * float(dist[s]) / grid.resolution))
    tau = np.ones(grid.ncells)
    best_chain: list[int] | None = None
    best_cost = np.inf
    visited_total = 0
    for _ in range(params.iterations):
        deposits: list[tuple[list[int], float]] = []
        for _ant in range(params.ants):
            chain, entered = _walk_ant(grid, s, g, tau, eta_b, params, cap, rng)
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
