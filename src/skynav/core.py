"""Shared planner infrastructure: search tree, steering, request/result contracts."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import as_point


@dataclass
class PlanRequest:
    """One planning query: fly from start to goal.

    A plan succeeds once the tree (or grid search) reaches within
    ``goal_threshold`` meters of the goal.  Sampling planners give up after
    ``max_failed_attempts`` extensions that did not add a node.
    """

    start: tuple[float, float, float]
    goal: tuple[float, float, float]
    goal_threshold: float = 5.0
    max_failed_attempts: int = 20000

    def __post_init__(self):
        self.start = as_point(self.start)
        self.goal = as_point(self.goal)
        if self.goal_threshold <= 0:
            raise ValueError("goal_threshold must be positive")
        if self.max_failed_attempts <= 0:
            raise ValueError("max_failed_attempts must be positive")


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


class SearchTree:
    """Growable tree of 3D nodes with parent links and exact nearest lookup."""

    def __init__(self, root, capacity: int = 1024):
        root = as_point(root)
        capacity = max(capacity, 1)
        self._pos = np.empty((capacity, 3), dtype=float)
        self._pos[0] = root
        # cached |x|^2 per node plus scratch, so nearest() is one BLAS matvec
        self._sqn = np.empty(capacity, dtype=float)
        self._sqn[0] = root @ root
        self._scratch = np.empty(capacity, dtype=float)
        self._parents = [-1]
        self._n = 1

    def __len__(self) -> int:
        return self._n

    @property
    def positions(self) -> np.ndarray:
        """View of all node positions, shape (len(tree), 3). Do not mutate."""
        return self._pos[: self._n]

    def parent(self, index: int) -> int:
        """Parent index of a node; -1 for the root."""
        return self._parents[index]

    def position(self, index: int) -> np.ndarray:
        if not 0 <= index < self._n:
            raise IndexError(f"node index {index} out of range")
        return self._pos[index].copy()

    def add(self, position, parent: int) -> int:
        """Append a node and return its index."""
        if not 0 <= parent < self._n:
            raise ValueError(f"parent index {parent} not in tree")
        if self._n == len(self._pos):
            grown = np.empty((2 * len(self._pos), 3), dtype=float)
            grown[: self._n] = self._pos
            self._pos = grown
            self._sqn = np.concatenate([self._sqn, np.empty(self._n)])
            self._scratch = np.empty(2 * self._n, dtype=float)
        p = as_point(position)
        self._pos[self._n] = p
        self._sqn[self._n] = p @ p
        self._parents.append(parent)
        self._n += 1
        return self._n - 1

    def nearest(self, p) -> int:
        """Index of the node closest to p; ties resolve to the lowest index.

        Ranks by |x|^2 - 2 x.p (same ordering as distance, constant |p|^2
        dropped), which needs no per-node differencing.
        """
        p = as_point(p)
        n = self._n
        score = self._scratch[:n]
        np.dot(self._pos[:n], p, out=score)
        score *= -2.0
        score += self._sqn[:n]
        return int(np.argmin(score))

    def extract_path(self, leaf: int) -> np.ndarray:
        """Positions along the unique root-to-leaf chain, shape (K, 3)."""
        if not 0 <= leaf < self._n:
            raise IndexError(f"node index {leaf} out of range")
        chain = []
        i = leaf
        while i != -1:
            chain.append(i)
            i = self._parents[i]
        chain.reverse()
        return self._pos[chain].copy()


def steer(from_point, to_point, step: float) -> np.ndarray:
    """Move from from_point toward to_point by at most step meters.

    Returns to_point itself when it is within step; a zero-length request
    returns from_point unchanged.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    a = as_point(from_point)
    b = as_point(to_point)
    v = b - a
    dist = float(np.sqrt(v @ v))
    if dist <= step:
        return b.copy()
    return a + (step / dist) * v


def sample_with_bias(goal, p_target: float, bounds_min, bounds_max, rng) -> np.ndarray:
    """Return the goal with probability p_target, else a uniform point in bounds.

    Consumes one uniform draw for the bias decision and, on the uniform branch,
    three more for the coordinates, so planners sharing a seed stay aligned.
    """
    if rng.random() < p_target:
        return as_point(goal).copy()
    return rng.uniform(bounds_min, bounds_max)
