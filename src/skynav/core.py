"""Shared planner infrastructure: search tree, steering, request/result contracts."""
from __future__ import annotations

import math
from bisect import bisect_right
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


DRAW_BLOCK = 1024   # rng.random() draws that uniforms and samples fetch at a time
# samples fetches FIRST_DRAWS first and doubles each block up to DRAW_BLOCK, so a
# plan of a few dozen draws does not pay for a thousand
FIRST_DRAWS = 64


def uniforms(rng: np.random.Generator):
    """rng.random() draws in the order single calls would give them, fetched in blocks."""
    while True:
        yield from rng.random(DRAW_BLOCK).tolist()


# SearchTree scores nodes in blocks of BLOCK columns, one BLAS matvec each: too
# few for BLAS to split a block across threads, whose chunk tails would round on
# another path.  Unused columns of the last block hold FILLER (score +inf).  A
# new tree holds FIRST_BLOCKS blocks (1,024 nodes) and doubles them when full.
BLOCK = 256
FILLER = np.array([[0.0], [0.0], [0.0], [np.inf]])
FIRST_BLOCKS = 4
# Once a tree holds SLAB_FROM nodes it also files them into SLABS x-slabs, cut
# from the nodes' x span at that moment, and nearest scores only the slabs that
# can hold the answer; below SLAB_FROM the scan of every block is faster.
# SLAB_SLACK scales the pruning margin to the coordinates, as env.CELL_SLACK does.
SLAB_FROM = 8000
SLABS = 25
SLAB_SLACK = 1e-9


class SearchTree:
    """Growable tree of 3D nodes with parent links and exact nearest lookup.

    The root is checked once; add and nearest trust the tree loop's (x, y, z)
    float triples and check nothing.  Node positions live in one float64
    array, so a node costs 24 bytes, not a tuple object.  Below SLAB_FROM
    nodes nearest scans every block of _rows; from then on the x-slabs (see
    _build_slabs) hold the only copy of the score columns and nearest scores
    the slabs that can hold the nearest node, with the same answer.

    add stores a node's |x|^2 as the Python sum x*x + y*y + z*z; the other
    column entries, -2 times a coordinate, are exact in any arithmetic.  Only
    nearest's block matvec rounds through BLAS.
    """

    def __init__(self, root):
        self._pos = np.empty((FIRST_BLOCKS * BLOCK, 3), dtype=float)
        # rows[b, :, c] is (-2x, -2y, -2z, |x|^2) of node b * BLOCK + c, scored by (p, 1);
        # None once the slabs hold the columns
        self._rows = np.empty((FIRST_BLOCKS, 4, BLOCK))
        self._q = np.ones(4)
        self._parents: list[int] = []
        self._n = 0
        # slab k: [its (blocks, 4, BLOCK) stack, its node indices ascending]
        self._edges: list[float] | None = None
        self._slabs: list[list] = []
        self._edge2 = 0.0
        self.add(as_point(root).tolist(), -1)

    def __len__(self) -> int:
        return self._n

    def add(self, p, parent: int) -> int:
        """Append the node p, an (x, y, z) of floats, and return its index."""
        n = self._n
        if n == len(self._pos):
            # one at a time, larger first, for a lower peak; new blocks stay unset
            if self._edges is None:
                rows = np.empty((2 * len(self._rows), 4, BLOCK))
                rows[: len(self._rows)] = self._rows
                self._rows = rows
            pos = np.empty((2 * n, 3))
            pos[:n] = self._pos
            self._pos = pos
        x, y, z = p
        pos = self._pos
        pos[n, 0] = x
        pos[n, 1] = y
        pos[n, 2] = z
        self._parents.append(parent)
        self._n = n + 1
        if self._edges is None:
            stack = self._rows
            b, c = divmod(n, BLOCK)
        else:
            slab = self._slabs[bisect_right(self._edges, x)]
            stack, ids = slab
            m = len(ids)
            if m == len(stack) * BLOCK:
                grown = np.empty((2 * len(stack), 4, BLOCK))
                grown[: len(stack)] = stack
                slab[0] = stack = grown
            b, c = divmod(m, BLOCK)
            ids.append(n)
        if c == 0:
            stack[b] = FILLER
        stack[b, 0, c] = -2.0 * x
        stack[b, 1, c] = -2.0 * y
        stack[b, 2, c] = -2.0 * z
        stack[b, 3, c] = x * x + y * y + z * z
        if n + 1 == SLAB_FROM:
            self._build_slabs()
        return n

    def _build_slabs(self) -> None:
        """Cut the nodes' x span into SLABS slabs and file every node in one.

        Slab k holds the nodes with edges[k - 1] <= x < edges[k]; the end slabs
        are open toward the outside.  Nodes are filed by comparing x with the
        stored edges, so a slab's x range holds exactly, whatever rounding made
        the edges.  Each slab copies its nodes' columns of _rows, in ascending
        index order, into a stack of (4, BLOCK) blocks padded with FILLER, and
        a stack doubles when full, as _rows does.  _rows is then dropped: add
        writes a later node's column into its slab only.
        """
        n = self._n
        x = self._pos[:n, 0]
        lo, hi = float(x.min()), float(x.max())
        self._edges = [lo + (hi - lo) * k / SLABS for k in range(1, SLABS)]
        self._edge2 = max(lo * lo, hi * hi)
        cols = self._rows[: -(-n // BLOCK)].transpose(1, 0, 2).reshape(4, -1)
        slab_of = np.searchsorted(self._edges, x, side="right")
        for k in range(SLABS):
            ids = np.flatnonzero(slab_of == k)
            blocks = max(1, -(-len(ids) // BLOCK))
            flat = np.empty((4, blocks * BLOCK))
            flat[:] = FILLER
            flat[:, : len(ids)] = cols[:, ids]
            stack = np.ascontiguousarray(flat.reshape(4, blocks, BLOCK).transpose(1, 0, 2))
            self._slabs.append([stack, ids.tolist()])
        self._rows = None

    def nearest(self, p) -> int:
        """Index of the node closest to p, an (x, y, z) of floats; ties resolve to the lowest index.

        Ranks by |x|^2 - 2 x.p (same ordering as distance, constant |p|^2
        dropped), which needs no per-node differencing.  On a slabbed tree it
        scores p's slab, then widens one slab at a time toward the nearer side
        until the x-gap to the next slab on both sides rules out a better node.
        Every node is scored by the same block matvec the scan uses, which
        rounds a node's score the same in any column, and the best node is
        kept as a (score, index) pair, so the answer is the scan's.
        """
        x, y, z = p
        q = self._q
        q[0] = x
        q[1] = y
        q[2] = z
        if self._edges is None:
            return int((q @ self._rows[: -(-self._n // BLOCK)]).argmin())
        edges, slabs = self._edges, self._slabs
        # A node of a slab at x-gap g from p lies at a distance of at least g,
        # so its score is at least g^2 - |p|^2.  The slab is skipped when g^2
        # exceeds best + |p|^2 + margin.  The roundings in between (the gap and
        # its square, |p|^2, a node's stored |x|^2 and its four-term score,
        # with |x| <= |p| + distance, and the best score's) move that test by
        # a few 2**-53 of 3|p|^2 + 2 edge^2 at most, where edge is the largest
        # |edge| (g <= |p| + |edge| whenever the test can skip).  The margin,
        # SLAB_SLACK times |p|^2 + edge^2, covers them many times over, so a
        # skipped node scores above the best one and cannot tie it.
        pp = x * x + y * y + z * z
        reach = pp + SLAB_SLACK * (pp + self._edge2)   # |p|^2 + margin
        best, node = math.inf, -1
        k = bisect_right(edges, x)
        left, right = k - 1, k + 1
        while True:
            stack, ids = slabs[k]
            if ids:
                scores = q @ stack[: -(-len(ids) // BLOCK)]
                a = scores.argmin()
                score = scores.item(a)
                if score < best or score == best and ids[a] < node:
                    best, node = score, ids[a]
            gap_left = x - edges[left] if left >= 0 else math.inf
            gap_right = edges[right - 1] - x if right < SLABS else math.inf
            if gap_left <= gap_right:
                if gap_left * gap_left > best + reach:
                    return node
                k, left = left, left - 1
            else:
                if gap_right * gap_right > best + reach:
                    return node
                k, right = right, right + 1

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


def steer(a, b, step: float) -> tuple[float, float, float]:
    """Point step meters from a toward b, or b's coordinates when it is within step.

    Takes two (x, y, z) float triples and a positive step, checks nothing,
    and returns a new tuple.  It runs in Python floats: the distance is
    math.hypot of b - a.
    """
    ax, ay, az = a
    bx, by, bz = b
    vx, vy, vz = bx - ax, by - ay, bz - az
    dist = math.hypot(vx, vy, vz)
    if dist <= step:
        return (bx, by, bz)
    s = step / dist
    return (ax + s * vx, ay + s * vy, az + s * vz)


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


def samples(p_target: float, bounds_min, bounds_max, rng: np.random.Generator):
    """Endless stream of sample_with_bias's draws for uniforms(rng).__next__.

    Yields None for a goal draw and the uniform point, an (x, y, z) tuple of
    floats, otherwise.  Takes float64 (3,) bounds and reads each block of
    uniforms as Python floats with one tolist(); a point is built as
    bounds_min + span * u per coordinate, the same IEEE operations
    sample_with_bias runs in numpy, so the same bits.  The first block holds
    FIRST_DRAWS uniforms and each next one twice as many, up to DRAW_BLOCK;
    rng.random in blocks gives the values of one call.  A draw cut by a block
    end goes on in the next block.
    """
    x0, y0, z0 = bounds_min.tolist()
    sx, sy, sz = (bounds_max - bounds_min).tolist()
    block = min(FIRST_DRAWS, DRAW_BLOCK)
    u = rng.random(block).tolist()
    while True:
        k, end = 0, len(u)
        while k < end:
            if u[k] < p_target:
                yield None
                k += 1
            elif k + 3 < end:
                yield (x0 + sx * u[k + 1], y0 + sy * u[k + 2], z0 + sz * u[k + 3])
                k += 4
            else:
                break
        block = min(2 * block, DRAW_BLOCK)
        u = u[k:] + rng.random(block).tolist()
