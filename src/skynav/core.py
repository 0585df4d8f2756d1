"""Shared planner infrastructure: search tree, steering, request/result contracts."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import as_point, check_count


@dataclass
class PlanRequest:
    """One planning query: fly from start to goal.

    A plan succeeds once the tree (or grid search) reaches within
    ``goal_threshold`` meters of the goal.  The tree planners give up after
    ``max_failed_attempts`` blocked straight extensions, whether or not a
    detour then adds a node.
    """

    start: tuple[float, float, float]
    goal: tuple[float, float, float]
    goal_threshold: float = 5.0
    max_failed_attempts: int = 20000

    def __post_init__(self):
        self.start = as_point(self.start)
        self.goal = as_point(self.goal)
        if not 0.0 < self.goal_threshold < math.inf:
            raise ValueError("goal_threshold must be positive and finite")
        check_count(self.max_failed_attempts, "max_failed_attempts")


@dataclass
class PlanResult:
    """Outcome of a single planning run.

    path is a float64 array of shape (N, 3); empty (0, 3) on failure.
    explored_nodes is the planner's work measure: extension attempts for the
    sampling planners, popped cells for grid search, visited cells for ants.
    """

    success: bool
    path: np.ndarray
    explored_nodes: int
    elapsed: float


EMPTY_PATH = np.empty((0, 3), dtype=float)


def uniforms(rng: np.random.Generator, block: int = 1024):
    """rng.random() draws in the order single calls would give them, fetched in blocks."""
    while True:
        yield from rng.random(block).tolist()


# SearchTree scores nodes in blocks of BLOCK columns, one BLAS matvec each: too
# few for BLAS to split a block across threads, whose chunk tails would round on
# another path.  Unused columns of the last block hold FILLER (score +inf).  A
# new tree holds FIRST_BLOCKS blocks (1,024 nodes) and doubles them when full.
BLOCK = 256
FILLER = np.array([[0.0], [0.0], [0.0], [np.inf]])
FIRST_BLOCKS = 4


class SearchTree:
    """Growable tree of 3D nodes with parent links and exact nearest lookup.

    The root is checked once; add and nearest trust the tree loop's float64
    arrays of shape (3,) and check nothing.
    """

    def __init__(self, root):
        self._pos = np.empty((FIRST_BLOCKS * BLOCK, 3), dtype=float)
        # rows[b, :, c] is (-2x, -2y, -2z, |x|^2) of node b * BLOCK + c, scored by (p, 1)
        self._rows = np.empty((FIRST_BLOCKS, 4, BLOCK))
        self._q = np.ones(4)
        self._parents: list[int] = []
        self._n = 0
        self.add(as_point(root), -1)

    def __len__(self) -> int:
        return self._n

    def add(self, p: np.ndarray, parent: int) -> int:
        """Append a node and return its index."""
        n = self._n
        if n == len(self._pos):
            # one at a time, larger first, for a lower peak; new blocks stay unset
            rows = np.empty((2 * len(self._rows), 4, BLOCK))
            rows[: len(self._rows)] = self._rows
            self._rows = rows
            pos = np.empty((2 * n, 3))
            pos[:n] = self._pos
            self._pos = pos
        b, c = divmod(n, BLOCK)
        if c == 0:
            self._rows[b] = FILLER
        self._pos[n] = p
        self._rows[b, :3, c] = -2.0 * p
        self._rows[b, 3, c] = p.dot(p)
        self._parents.append(parent)
        self._n = n + 1
        return n

    def nearest(self, p: np.ndarray) -> int:
        """Index of the node closest to p; ties resolve to the lowest index.

        Ranks by |x|^2 - 2 x.p (same ordering as distance, constant |p|^2
        dropped), which needs no per-node differencing.
        """
        return int(self._scores(p).argmin())

    def _scores(self, p: np.ndarray) -> np.ndarray:
        """Scores against p, shape (blocks in use, BLOCK); +inf past the last node."""
        self._q[:3] = p
        return self._q @ self._rows[: -(-self._n // BLOCK)]

    def extract_path(self, leaf: int) -> np.ndarray:
        """Positions along the unique root-to-leaf chain, shape (K, 3)."""
        if not 0 <= leaf < self._n:
            raise IndexError(f"node index {leaf} out of range")
        chain = []
        i = leaf
        while i != -1:
            chain.append(i)
            i = self._parents[i]
        return self._pos[chain[::-1]]   # fancy indexing copies


def steer(a: np.ndarray, b: np.ndarray, step: float) -> np.ndarray:
    """Point step meters from a toward b, or a copy of b when it is within step.

    Takes float64 arrays of shape (3,) and a positive step, and checks nothing.
    """
    v = b - a
    # a numpy dot, not a Python sum of squares: the two can round differently
    dist = math.sqrt(v.dot(v))
    if dist <= step:
        return b.copy()
    return a + (step / dist) * v


def sample_with_bias(goal, p_target: float, bounds_min, bounds_max, draw) -> np.ndarray:
    """Return the goal with probability p_target, else a uniform point in bounds.

    draw() returns the next uniform in [0, 1), as uniforms(rng).__next__ does.
    Consumes one draw for the bias decision and, on the uniform branch, three
    more for the coordinates, so planners sharing a seed stay aligned.  The
    point is bounds_min + (bounds_max - bounds_min) * u, the same value
    rng.uniform(bounds_min, bounds_max) gives for the same three uniforms.
    """
    if draw() < p_target:
        return np.array(goal, dtype=float)
    lo = np.asarray(bounds_min, dtype=float)
    return lo + (np.asarray(bounds_max, dtype=float) - lo) * np.array((draw(), draw(), draw()))


def samples(goal, p_target: float, bounds_min, bounds_max, rng: np.random.Generator,
            block: int = 1024):
    """Endless stream of sample_with_bias's points for uniforms(rng).__next__.

    Takes float64 (3,) arrays and builds the candidate points of each block of
    uniforms at once; a draw cut by a block end goes on in the next block.
    Every goal draw yields one read-only array, so a caller can tell it by
    identity: goal itself when it is read-only, else a read-only copy.
    """
    if goal.flags.writeable:
        goal = goal.copy()
        goal.flags.writeable = False
    lo, span = bounds_min[:, None], (bounds_max - bounds_min)[:, None]
    u = rng.random(block)
    while True:
        # points[k] is bounds_min + span * u[k:k + 3]; built as (3, K) for long inner loops
        points = (lo + span * np.array((u[:-2], u[1:-1], u[2:]))).T
        hit = (u < p_target).tolist()
        k, end = 0, len(u)
        while k < end and (hit[k] or k + 3 < end):
            yield goal if hit[k] else points[k + 1]
            k += 1 if hit[k] else 4
        u = np.concatenate((u[k:], rng.random(block)))
