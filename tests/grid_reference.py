"""Dijkstra reference for skynav.baselines' grid planners.

Uniform-cost search over a VoxelGrid's own move table, with no heuristic:
the tests check A*'s path cost against it on random grids.
"""
from __future__ import annotations

import heapq
import math


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
