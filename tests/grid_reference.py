"""References for skynav.baselines' voxel grid and grid planners.

reference_occupancy and reference_move_masks are the raster and move table as
first written: one index box computed per building, and per move an AND of the
free mask shifted to every corner of the box the move spans, packed bit by
bit.  The tests check voxelize and VoxelGrid's separable move table against
them bit for bit.

dijkstra_cost is a uniform-cost search over a VoxelGrid's own move table, with
no heuristic: the tests check A*'s path cost against it on random grids.
dense_aco is the ant colony with a dense pheromone grid and a plain list walk:
the tests check that plan_aco's compact pheromone store and its walk give the
same routes bit for bit.  Its chain_cost unravels each step into (dx, dy, dz),
against which the tests check plan_aco's lookup by flat offset.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from itertools import accumulate, product
from time import perf_counter

import numpy as np

from skynav.baselines import (ACO_STEP_CAP_FACTOR, NEIGHBOR_OFFSETS, _cells_to_path,
                              _grid_endpoints)
from skynav.core import EMPTY_PATH, PlanResult, uniforms


def reference_occupancy(city, resolution, dims):
    """A building occupies every cell its closed box touches, the far partial cells are walls."""
    occ = np.zeros(dims, dtype=bool)
    for b in city.buildings:
        lo = (np.asarray(b.min_corner) - city.bounds_min) / resolution
        hi = (np.asarray(b.max_corner) - city.bounds_min) / resolution
        i0 = np.clip(np.ceil(lo - 1.0).astype(int), 0, np.array(dims) - 1)
        i1 = np.clip(np.floor(hi).astype(int), 0, np.array(dims) - 1)
        occ[i0[0]: i1[0] + 1, i0[1]: i1[1] + 1, i0[2]: i1[2] + 1] = True
    extent = city.bounds_max - city.bounds_min
    for axis in range(3):
        if dims[axis] * resolution > extent[axis] + 1e-6:
            index = [slice(None)] * 3
            index[axis] = dims[axis] - 1
            occ[tuple(index)] = True
    return occ


def reference_move_masks(occupancy):
    """Flat uint32 move masks: bit k is set when every corner of move k's box is free."""
    nx, ny, nz = occupancy.shape
    # the free mask sampled at cell + off is a view into a copy padded with
    # occupied cells, so moves off the grid edge are never legal
    padded = np.pad(~occupancy, 1)

    def shifted(off):
        dx, dy, dz = off
        return padded[1 + dx: 1 + dx + nx, 1 + dy: 1 + dy + ny, 1 + dz: 1 + dz + nz]

    free = shifted((0, 0, 0))
    masks = np.zeros(occupancy.shape, dtype=np.uint32)
    ok = np.empty(occupancy.shape, dtype=bool)
    for k, off in enumerate(NEIGHBOR_OFFSETS):
        # the corners of the box the offset spans: origin, target and, for a
        # diagonal, every cell it brushes past
        np.copyto(ok, free)
        for corner in product(*((0, d) if d else (0,) for d in off)):
            if any(corner):
                ok &= shifted(corner)
        masks |= ok.astype(np.uint32) << np.uint32(k)
    return masks.reshape(occupancy.size)


def dijkstra_cost(grid, s, g):
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
            if not (legal[cur] >> k) & 1:
                continue
            nb = cur + offs[k]
            nd = d + costs[k]
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return math.inf


def _dense_walk(grid, s, g, weight, q0, cap, draw):
    """One self-avoiding walk from s; returns (cell chain or None, cells entered)."""
    legal = grid.legal_moves
    offs = grid.flat_offsets.tolist()
    visited = {s}
    chain = [s]
    cur = s
    for _ in range(cap):
        mask = int(legal[cur])
        candidates = [nb for k in range(26)
                      if mask >> k & 1 and (nb := cur + offs[k]) not in visited]
        if not candidates:
            return None, len(chain)
        if g in candidates:
            chain.append(g)
            return chain, len(chain)
        w = [float(weight[c]) for c in candidates]
        if draw() < q0:
            pick = w.index(max(w))
        else:
            cum = list(accumulate(w))
            pick = min(bisect_right(cum, draw() * cum[-1]), len(candidates) - 1)
        cur = candidates[pick]
        visited.add(cur)
        chain.append(cur)
    return None, len(chain)


def chain_cost(grid, chain):
    """A chain's length from its cells' unravelled (x, y, z) steps."""
    steps = np.diff(grid.cells(chain).astype(float), axis=0)
    return float(np.sqrt((steps * steps).sum(axis=1)).sum() * grid.resolution)


def dense_aco(grid, req, params, seed=0):
    """plan_aco with one pheromone value per grid cell, updated in dense passes."""
    t0 = perf_counter()
    s, g = _grid_endpoints(grid, req)
    draw = uniforms(np.random.default_rng(seed)).__next__

    sq = [(np.arange(n) - c) ** 2.0 for n, c in zip(grid.dims, grid.cells([g])[0].tolist())]
    dist = sq[0][:, None, None] + sq[1][None, :, None]
    dist = (dist + sq[2][None, None, :]).reshape(grid.ncells)
    np.sqrt(dist, out=dist)
    dist *= grid.resolution
    cap = max(8, int(ACO_STEP_CAP_FACTOR * float(dist[s]) / grid.resolution))
    with np.errstate(divide="ignore"):
        eta_b = np.divide(1.0, dist, out=dist)
    eta_b **= params.beta
    eta_b[g] = 0.0

    tau = np.ones(grid.ncells)
    weight = np.empty(grid.ncells)
    best_chain, best_cost = None, np.inf
    visited_total = 0
    for _ in range(params.iterations):
        np.multiply(tau if params.alpha == 1.0 else tau ** params.alpha, eta_b, out=weight)
        deposits = []
        for _ant in range(params.ants):
            chain, entered = _dense_walk(grid, s, g, weight, params.q0, cap, draw)
            visited_total += entered
            if chain is not None:
                cost = chain_cost(grid, chain)
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
