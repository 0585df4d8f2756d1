"""References for skynav.baselines' grid planners.

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
from itertools import accumulate
from time import perf_counter

import numpy as np

from skynav.baselines import ACO_STEP_CAP_FACTOR, _cells_to_path, _grid_endpoints
from skynav.core import EMPTY_PATH, PlanResult, uniforms


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
