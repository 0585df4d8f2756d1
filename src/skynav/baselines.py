"""Grid-based baseline planners: voxel rasterization, A*, and ant colony search.

Both baselines run on a conservative voxelization of the building map.  Moves
use 26-connectivity, and a move is legal only when every cell of the box its
offset spans is free (for a diagonal, every cell it brushes past); this keeps
cell-center paths collision-free in the continuous map even when buildings
poke into neighbouring cells.  The planners decode a cell's move mask through
a small bounded memo, and within a call keep each mask's edges (A*) or each
entered cell's neighbours (ants).  Ants keep pheromone only where they deposit.
"""
from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, filterfalse, product
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


# the octile distance's weights: with a <= b <= c the sorted cell deltas, an
# empty 26-connected grid's shortest route is c + K2*b + K3*a cells long
K2 = sqrt(2.0) - 1.0
K3 = sqrt(3.0) - sqrt(2.0)

# ants give up after this multiple of the straight-line cell distance
ACO_STEP_CAP_FACTOR = 4.0
# cells whose neighbour lists one ant colony search keeps, at most 0.36 kB each
# (6 MB in all); a colony on the canonical 5 m grid enters at most about 6,000
ACO_NEIGHBOR_MEMO = 16_384

# largest grid voxelize and VoxelGrid accept.  A grid keeps 5 bytes per cell
# (occupancy and the uint32 move mask) and needs about 2 more while it builds
# the masks (voxelize peaks at 7.0 MB on the 1M-cell canonical grid); an ant
# colony search adds 20 (heuristic, move weight and an int32 pheromone
# slot), 12 per cell its ants deposit on (a few thousand) and the neighbour
# memo.  About 25 bytes per cell caps a run near 0.2 GB: a 500 m cube at 5 m
# (1M cells) fits, at 2 m (15.6M) or 1 m (125M) it does not.
MAX_GRID_CELLS = 8_000_000


# the moves whose blocks span each set of axes, as (bit, block origin - cell)
_BLOCK_MOVES = {
    axes: tuple((k, tuple(min(d, 0) for d in off)) for k, off in enumerate(NEIGHBOR_OFFSETS)
                if "".join(a for a, d in zip("xyz", off) if d) == axes)
    for axes in ("x", "y", "z", "xy", "xz", "yz", "xyz")
}
# padded cells per x-slab of the move table build; its work arrays, about 1 MB
# at this size, stay in cache
MASK_SLAB_CELLS = 1 << 17


def _move_masks(occupancy: np.ndarray) -> np.ndarray:
    """Every cell's uint32 move mask, flat in C order, built in x-slabs.

    A move is legal from a cell when every cell of the 1x1x1 to 2x2x2 block
    it spans is free, and that block starts at cell + min(offset, 0) per axis.
    The free mask is padded with occupied cells, so a block that leaves the
    grid is never free.
    """
    nx, ny, nz = occupancy.shape
    padded = np.pad(~occupancy, 1)
    masks = np.empty(occupancy.shape, dtype="<u4")
    lanes = masks.view(np.uint8).reshape(nx, ny, nz, 4)
    layers = max(1, MASK_SLAB_CELLS // padded[0].size)
    for x0 in range(0, nx, layers):
        _pack_slab(padded[x0: x0 + layers + 2], lanes[x0: x0 + layers])
    return masks.reshape(-1).astype(np.uint32, copy=False)


def _pack_slab(free: np.ndarray, lanes: np.ndarray) -> None:
    """Write the move masks of a padded free slab's inner x-layers into lanes.

    lanes holds each cell's four mask bytes, least significant first.  Free
    blocks are separable (van Herk 1992): a block free on x and y is a free
    x-pair whose neighbour on y is free too.  So seven ANDs of shifted copies
    of the slab give every block shape, and a move's bits are one slice of
    its block's array.  The arrays are flat, so every shift is a contiguous
    slice; the pad cells' bits are dropped at the end.  A block array is
    freed once its moves are packed and no block grows from it.
    """
    layers, py, pz = free.shape
    sy, sx = pz, py * pz   # flat strides of y and x; z's is 1
    free = free.reshape(-1)
    size = free.size
    first = sx + sy + 1          # flat index of the first inner cell
    span = (layers - 2) * sx     # flat indices from there on, in whole x-layers
    planes = np.zeros((4, span), dtype=np.uint8)   # move bits 0-7, 8-15, 16-23, 24-25
    bits = np.empty(span, dtype=np.uint8)

    def grow(block: np.ndarray, stride: int, axes: str) -> np.ndarray:
        """block & block[+stride], the blocks that span axes; packs their moves."""
        out = np.zeros(size, dtype=bool)
        np.logical_and(block[:size - stride], block[stride:], out=out[:size - stride])
        for k, (mx, my, mz) in _BLOCK_MOVES[axes]:
            at = first + mx * sx + my * sy + mz
            np.multiply(out[at: at + span].view(np.uint8), np.uint8(1 << (k % 8)), out=bits)
            planes[k // 8] |= bits
        return out

    grow(free, 1, "z")
    y = grow(free, sy, "y")
    grow(y, 1, "yz")
    del y
    x = grow(free, sx, "x")
    grow(x, 1, "xz")
    xy = grow(x, sy, "xy")
    del x
    grow(xy, 1, "xyz")
    inner = planes.reshape(4, layers - 2, py, pz)[:, :, :py - 2, :pz - 2]
    np.stack(tuple(inner), axis=-1, out=lanes)


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
        occupancy = np.asarray(occupancy)
        if occupancy.ndim != 3:
            raise ValueError("occupancy must be a 3D boolean array")
        if occupancy.size > MAX_GRID_CELLS:
            raise ValueError(f"an occupancy of {occupancy.size:,} cells is over the budget "
                             f"of {MAX_GRID_CELLS:,}")
        occupancy = occupancy.astype(bool, copy=False)
        self.occupancy = occupancy
        self.resolution = float(resolution)
        self.origin = as_point(origin)
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
        self.legal_moves = _move_masks(occupancy)

    # ------------------------------------------------------------------
    # cell addressing
    # ------------------------------------------------------------------

    def cell_of(self, p) -> tuple[int, int, int]:
        """Cell containing a point; points on the far boundary map to the last cell.

        A point outside the grid, or not three finite coordinates, raises ValueError.
        """
        p = tuple(as_point(p).tolist())
        # Python floats: a far point overflows to inf without a numpy warning,
        # and the range check comes before any cast to int
        rel = [(v - o) / self.resolution for v, o in zip(p, self.origin.tolist())]
        if not all(0.0 <= r <= n for r, n in zip(rel, self.dims)):
            raise ValueError(f"point outside the voxelized volume: {p}")
        x, y, z = (min(int(r), n - 1) for r, n in zip(rel, self.dims))
        return x, y, z

    def center_of(self, cell) -> np.ndarray:
        """Center of a cell, or of each (x, y, z) row of a (K, 3) array of cells."""
        cell = np.asarray(cell, dtype=float)
        if cell.shape[-1:] != (3,) or not ((cell >= 0) & (cell < self.dims)).all():
            raise ValueError(f"cells outside the {self.dims} grid or not (x, y, z) rows")
        return self.origin + (cell + 0.5) * self.resolution

    def _inside(self, cell) -> tuple[int, int, int]:
        """cell as (x, y, z); raises ValueError outside the grid, where numpy's
        negative indexing would wrap."""
        x, y, z = cell
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            raise ValueError(f"cell {(x, y, z)} is outside the {self.dims} grid")
        return x, y, z

    def is_free(self, cell) -> bool:
        return bool(not self.occupancy[self._inside(cell)])

    def flat(self, cell) -> int:
        x, y, z = self._inside(cell)
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
    # every building's index box at once: (N, 3) rows of first and last cells
    top = np.array(dims) - 1
    lo = (city._lo.T - city.bounds_min) / resolution
    hi = (city._hi.T - city.bounds_min) / resolution
    first = np.clip(np.ceil(lo - 1.0).astype(int), 0, top).tolist()
    last = np.clip(np.floor(hi).astype(int), 0, top).tolist()
    for (x0, y0, z0), (x1, y1, z1) in zip(first, last):
        occ[x0: x1 + 1, y0: y1 + 1, z0: z1 + 1] = True
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
    """Optimal 26-connected grid search with Euclidean move costs.

    The heuristic is the octile distance: with a <= b <= c the sorted
    absolute cell deltas to the goal, h = (c + (K2*b + K3*a)) * resolution,
    the exact cost of a route of a diagonal (sqrt 3) moves, b - a planar
    diagonal (sqrt 2) moves and c - b straight moves on an empty grid.  Walls
    only lengthen a route, so h is admissible, and one move changes it by at
    most that move's cost, so h is consistent: the closed set never needs
    reopening and the route is optimal (Hart, Nilsson & Raphael 1968).

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

    # a closed cell's g_score is -inf, so no move improves on it
    g_score = {s: 0.0}
    came: dict[int, int] = {}
    edges: dict[int, tuple[tuple[int, float], ...]] = {}   # mask -> (offset, cost) per move
    explored = 0
    heap: list[tuple[float, float, int]] = [(0.0, 0.0, s)]  # popped first whatever its f
    found = False
    while heap:
        _, _, cur = heapq.heappop(heap)
        g_cur = g_score[cur]
        if g_cur == -inf:
            continue
        g_score[cur] = -inf
        explored += 1
        if cur == g:
            found = True
            break
        moves = edges.get(mask := masks[cur])
        if moves is None:
            moves = edges[mask] = tuple((offs[k], costs[k]) for k in _moves(mask))
        for off, cost in moves:
            nb = cur + off
            ng = g_cur + cost
            if ng < g_score.get(nb, inf):
                g_score[nb] = ng
                came[nb] = cur
                # octile remaining distance in meters, in this operation
                # order; the middle delta b is the sum less the extremes
                x, yz = divmod(nb, nyz)
                y, z = divmod(yz, nz)
                dx, dy, dz = abs(x - gx), abs(y - gy), abs(z - gz)
                a, c = min(dx, dy, dz), max(dx, dy, dz)
                h = (c + (K2 * (dx + dy + dz - a - c) + K3 * a)) * res
                heapq.heappush(heap, (ng + h, -ng, nb))
    if not found:
        return PlanResult(False, EMPTY_PATH.copy(), explored, perf_counter() - t0)
    chain = [g]
    while chain[-1] != s:
        chain.append(came[chain[-1]])
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
        check_count(self.ants, "ants")
        check_count(self.iterations, "iterations")
        if not all(0.0 < v < inf for v in (self.alpha, self.beta, self.q)):
            raise ValueError("alpha, beta and q must be positive and finite")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly between 0 and 1")
        if not 0.0 <= self.q0 < 1.0:
            raise ValueError("q0 must lie in [0, 1)")


def _neighbors(grid: VoxelGrid) -> Callable[[int], array]:
    """cell -> the cells one legal move away, memoized for ACO_NEIGHBOR_MEMO cells."""
    masks = memoryview(grid.legal_moves)
    offs = grid.flat_offsets.tolist()
    memo: dict[int, array] = {}

    def neighbors(cell: int) -> array:
        nbs = memo.get(cell)
        if nbs is None:
            nbs = array("q", [cell + offs[k] for k in _moves(masks[cell])])
            if len(memo) < ACO_NEIGHBOR_MEMO:
                memo[cell] = nbs
        return nbs
    return neighbors


def _walk_ant(s: int, g: int, neighbors: Callable[[int], array], score: memoryview,
              q0: float, cap: int, draw: Callable[[], float]) -> tuple[list[int] | None, int]:
    """One self-avoiding walk from s to g != s; returns (cell chain or None, cells entered).

    score[c] scores entering cell c; draw() returns the next uniform in [0, 1).
    """
    near_goal = set(neighbors(g))   # moves are symmetric: the cells g is one move from
    visited = {s}
    seen, key = visited.__contains__, score.__getitem__
    chain = [s]
    cur = s
    for _ in range(cap):
        if cur in near_goal:
            chain.append(g)
            return chain, len(chain)
        candidates = list(filterfalse(seen, neighbors(cur)))
        if not candidates:
            return None, len(chain)
        if draw() < q0:
            cur = max(candidates, key=key)   # a tie goes to the first candidate
        else:
            cum = list(accumulate(map(key, candidates)))
            cur = candidates[min(bisect_right(cum, draw() * cum[-1]), len(candidates) - 1)]
        visited.add(cur)
        chain.append(cur)
    return None, len(chain)


def _chain_costs(grid: VoxelGrid) -> Callable[[list[int]], float]:
    """chain -> its length: each step's unit length summed in chain order, times the resolution.

    A step's unit length, sqrt(dx^2 + dy^2 + dz^2), is looked up by its flat
    offset.  On a grid two cells or fewer deep on y or z two moves share a
    flat offset, and the steps are unravelled into (dx, dy, dz) instead.
    Either way numpy sums the same values in the same order.
    """
    offs = grid.flat_offsets
    if len(set(offs.tolist())) < len(offs):
        def cost(chain: list[int]) -> float:
            steps = np.diff(grid.cells(chain).astype(float), axis=0)
            return float(np.sqrt((steps * steps).sum(axis=1)).sum() * grid.resolution)
        return cost
    shift = int(offs.max())
    table = np.zeros(2 * shift + 1)
    table[offs + shift] = np.sqrt((np.array(NEIGHBOR_OFFSETS, dtype=float) ** 2).sum(axis=1))
    resolution = grid.resolution

    def cost(chain: list[int]) -> float:
        cells = np.fromiter(chain, np.int64, len(chain))
        return float(table[cells[1:] - cells[:-1] + shift].sum() * resolution)
    return cost


def plan_aco(grid: VoxelGrid, req: PlanRequest, params: AcoParams = AcoParams(),
             seed: int = 0) -> PlanResult:
    """Ant colony search over the voxel grid.

    Every iteration launches params.ants self-avoiding walks; walks that reach
    the goal deposit q / cost pheromone on their cells after the global
    (1 - rho) evaporation.  Returns the best path found across all
    iterations.  explored_nodes totals the cells entered by every ant.

    Pheromone is kept only where ants deposit: every cell no ant has deposited
    on goes through the same evaporations and clamps from the same start of
    1.0, so one background value stands for all of them, bit for bit.
    """
    t0 = perf_counter()
    s, g = _grid_endpoints(grid, req)
    if s == g:   # as A*: the one-cell chain, before a zero cost divides q
        return PlanResult(True, _cells_to_path(grid, [s], req), 1, perf_counter() - t0)
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

    # tau[0] is the background pheromone; tau[slot[c]] that of a cell c deposited
    # on, which joins in first-deposit order at the background's value
    slot = np.zeros(grid.ncells, dtype=np.int32)
    cells = np.empty(0, dtype=np.int32)
    tau = np.ones(1)
    weight = np.empty(grid.ncells)
    score = memoryview(weight)
    neighbors = _neighbors(grid)
    chain_cost = _chain_costs(grid)
    best_chain: list[int] | None = None
    best_cost = np.inf
    visited_total = 0
    for _ in range(params.iterations):
        tau_a = tau ** params.alpha
        np.multiply(eta_b, tau_a[0], out=weight)
        weight[cells] = eta_b[cells] * tau_a[1:]
        deposits: list[tuple[list[int], float]] = []
        for _ant in range(params.ants):
            chain, entered = _walk_ant(s, g, neighbors, score, params.q0, cap, draw)
            visited_total += entered
            if chain is not None:
                cost = chain_cost(chain)
                deposits.append((chain, cost))
                if cost < best_cost:
                    best_chain, best_cost = chain, cost
        tau *= 1.0 - params.rho
        for chain, cost in deposits:
            walk = np.asarray(chain, dtype=np.int32)
            idx = slot[walk]
            new = walk[idx == 0]
            if new.size:
                slot[new] = np.arange(len(tau), len(tau) + new.size)
                cells = np.concatenate((cells, new))
                tau = np.concatenate((tau, np.full(new.size, tau[0])))
                idx = slot[walk]
            tau[idx] += params.q / cost
        if best_cost < np.inf:
            np.minimum(tau, params.q / (params.rho * best_cost), out=tau)
    if best_chain is None:
        return PlanResult(False, EMPTY_PATH.copy(), visited_total, perf_counter() - t0)
    return PlanResult(True, _cells_to_path(grid, best_chain, req), visited_total,
                      perf_counter() - t0)
