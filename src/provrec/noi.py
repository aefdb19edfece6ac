"""Isolation-forest outlier scoring over learned process embeddings.

Process nodes whose embeddings isolate unusually fast are flagged as nodes
of interest for the subgraph sampler. The forest is built from scratch and
stored as flat node arrays covering all its trees. :func:`fit_forest` grows
every tree at once, one depth level per step, over the distinct rows of the
input weighted by their multiplicity in each tree's subsample: a host's
processes repeat a handful of embeddings, so a level costs a few array
operations over (node, distinct row) slots instead of a Python step per
node. :func:`anomaly_scores` moves every distinct row down every tree
together, one level per step, and scores follow the standard
``2 ** (-E[h] / c(n))`` form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import ProvenanceGraph
from .numerics import Rng

_EULER_GAMMA = 0.5772156649015329
# rounds of drawing a split dimension at random before picking it exactly
_DIM_DRAWS = 4


def average_path_length(n: int) -> float:
    """c(n): expected unsuccessful-search path length in a BST of n points."""
    if n <= 1:
        return 0.0
    h = math.log(n - 1) + _EULER_GAMMA
    return 2.0 * h - 2.0 * (n - 1) / n


@functools.lru_cache(maxsize=None)
def _path_length_table(size: int) -> np.ndarray:
    """c(0), ..., c(size - 1) as a read-only array. Callers pass a power of
    two, so one table serves every subsample size up to it."""
    table = np.array([average_path_length(k) for k in range(size)])
    table.flags.writeable = False
    return table


@dataclass(eq=False)
class IsolationForest:
    """Random-partition trees on independent subsamples, as flat node arrays.

    Node ``i`` splits on ``dim[i]`` at ``threshold[i]``: points below go to
    ``left[i]``, the rest to ``right[i]``. A leaf has ``dim == -1`` and
    points both children at itself, so descending past it is a no-op; its
    ``path`` is its depth plus c(its sample count), the path length of every
    point that ends there. ``roots`` holds each tree's root node. Scores
    live strictly inside (0, 1); a point whose expected path length equals
    c(subsample_size) scores 0.5, up to the last-bit rounding of the float
    mean over trees.
    """

    dim: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    path: np.ndarray
    roots: np.ndarray
    subsample_size: int  # actual per-tree sample count
    width: int  # training point width


def _distinct_rows(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D float array and each row's index among them.

    Rows are compared byte for byte after adding 0.0, which turns -0.0 into
    0.0, so two finite rows count as distinct only when some entry differs.
    """
    canon = np.ascontiguousarray(pts + 0.0)
    keys = canon.view(np.dtype((np.void, canon.itemsize * canon.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return canon[first], inverse


def _slots_of(node: np.ndarray, nodes: np.ndarray, length: np.ndarray):
    """Indices of the slots that belong to ``nodes`` and the start of each
    node's run among them; ``node`` is sorted, ``nodes`` ascending and
    ``length`` counts every node's slots."""
    member = np.zeros(len(length), dtype=bool)
    member[nodes] = True
    runs = length[nodes]
    return np.flatnonzero(member[node]), np.cumsum(runs) - runs


def fit_forest(
    points, num_trees: int = 100, subsample_size: int = 256, seed: int = 0
) -> IsolationForest:
    """Build ``num_trees`` isolation trees, each on its own random subsample.

    When fewer points than ``subsample_size`` exist, the full set is used
    per tree (and the score normaliser uses that actual count). All trees
    grow together, one depth level per step, over the distinct rows of
    ``points``, each weighted by how often it occurs in the tree's
    subsample, so with the whole set in every tree the forest does not
    depend on row order. A node holding two or more distinct rows below the
    height limit splits on a dimension drawn uniformly among those that vary
    within it, at a threshold drawn uniformly in [lo, hi) of that dimension;
    a draw that separates nothing falls back to the midpoint.

    Every draw comes from one ``Rng(seed)`` stream: first the subsamples,
    only when there are more points than ``subsample_size``; then per level
    the split dimensions, drawn uniformly over all dimensions and redrawn
    where the node does not vary in them for a few rounds before the rest
    pick exactly among their varying ones, and last the thresholds.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] == 0:
        raise ValueError("points must be a 2-D array with at least one column")
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points to fit a forest")
    if subsample_size < 2:
        raise ValueError("subsample_size must be at least 2")
    if num_trees < 1:
        raise ValueError("num_trees must be at least 1")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    psi = min(subsample_size, n)
    height_limit = math.ceil(math.log2(psi))
    rng = Rng(seed)
    rows, inverse = _distinct_rows(pts)
    m = len(rows)
    if n > psi:
        picks = rng.generator.permuted(np.tile(np.arange(n), (num_trees, 1)), axis=1)
        slot = inverse[picks[:, :psi]] + m * np.arange(num_trees)[:, None]
        counts = np.bincount(slot.ravel(), minlength=num_trees * m)
    else:
        counts = np.tile(np.bincount(inverse, minlength=m), num_trees)
    # one slot per (node, distinct row) pair, sorted by node; node ids are
    # local to the current level, whose first global id is ``first``. Every
    # node of a level holds at least one slot.
    slots = np.flatnonzero(counts)
    node, row = np.divmod(slots, m)
    weight = counts[slots]
    c = _path_length_table(1 << psi.bit_length())
    paths, splits = [], []
    first, width, depth = 0, num_trees, 0
    while True:
        length = np.bincount(node, minlength=width)
        size = np.add.reduceat(weight, np.cumsum(length) - length)
        paths.append(depth + c[size])
        if depth == height_limit:
            break
        split = np.flatnonzero(length > 1)
        if not split.size:
            break
        # only the slots of splitting nodes go on; k is each slot's node's
        # rank among them, and arrays below are indexed by that rank
        sel, seg = _slots_of(node, split, length)
        row, weight, runs = row[sel], weight[sel], length[split]
        k = np.repeat(np.arange(split.size), runs)
        dims = np.empty(split.size, dtype=np.int64)
        lo, hi = np.empty(split.size), np.empty(split.size)
        # draw a dimension for each pending node and keep it where it varies,
        # a few rounds; the rest then pick exactly from their varying mask
        pending, sel = np.arange(split.size), slice(None)  # at first, every slot
        for attempt in range(_DIM_DRAWS + 1):
            if attempt < _DIM_DRAWS:
                dims[pending] = rng.integers(pts.shape[1], size=pending.size)
            else:
                block = rows[row[sel]]
                varying = np.maximum.reduceat(block, seg) > np.minimum.reduceat(block, seg)
                pick = rng.integers(varying.sum(axis=1))
                dims[pending] = np.argmax(np.cumsum(varying, axis=1) > pick[:, None], axis=1)
            values = rows[row[sel], dims[k[sel]]]
            lo[pending] = np.minimum.reduceat(values, seg)
            hi[pending] = np.maximum.reduceat(values, seg)
            pending = pending[lo[pending] == hi[pending]]
            if not pending.size:
                break
            sel, seg = _slots_of(k, pending, runs)
        threshold = rng.uniform(lo, hi)
        # a draw on a boundary separates nothing; the midpoint does unless
        # lo and hi are adjacent floats, where hi itself separates
        bad = ~((threshold > lo) & (threshold <= hi))
        mid = (lo + hi) / 2.0
        threshold[bad] = np.where(mid > lo, mid, hi)[bad]
        splits.append((first + split, dims, threshold))
        # route the slots to their children, keeping order
        child = 2 * k + (rows[row, dims[k]] >= threshold[k])
        order = np.argsort(child, kind="stable")
        node, row, weight = child[order], row[order], weight[order]
        first, width, depth = first + width, 2 * split.size, depth + 1
    # children are numbered level after level in the order of their parents,
    # so the j-th split node of the forest has children num_trees + 2j and
    # num_trees + 2j + 1
    total = first + width
    forest_dim, forest_threshold = np.full(total, -1, dtype=np.int64), np.zeros(total)
    left, right = np.arange(total), np.arange(total)
    if splits:
        at, dims, thresholds = (np.concatenate(a) for a in zip(*splits))
        forest_dim[at], forest_threshold[at] = dims, thresholds
        left[at] = num_trees + 2 * np.arange(at.size)
        right[at] = left[at] + 1
    return IsolationForest(
        forest_dim, forest_threshold, left, right, np.concatenate(paths),
        np.arange(num_trees, dtype=np.int64), psi, pts.shape[1],
    )


def anomaly_scores(forest: IsolationForest, points) -> np.ndarray:
    """2 ** (-E[h(x)] / c(n)) for every row; higher means more anomalous."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != forest.width:
        raise ValueError(
            f"points of shape {pts.shape} do not match training width {forest.width}"
        )
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    # equal rows score equally, so each distinct row is scored once
    pts, inverse = _distinct_rows(pts)
    rows = np.arange(len(pts))
    node = np.repeat(forest.roots[:, None], len(pts), axis=1)  # (trees, points)
    while True:
        dim = forest.dim[node]
        if not (dim >= 0).any():
            break
        below = pts[rows, dim] < forest.threshold[node]
        node = np.where(below, forest.left[node], forest.right[node])
    # the running sum adds the trees one by one in tree order (a reduction
    # along the axis may pair them), and Python's ** is C pow: numpy's
    # vectorised power may differ from it in the last bit
    mean_path = np.cumsum(forest.path[node], axis=0)[-1] / len(forest.roots)
    exponent = -mean_path / average_path_length(forest.subsample_size)
    return np.array([2.0 ** x for x in exponent.tolist()])[inverse]


def anomaly_score(forest: IsolationForest, point) -> float:
    """The score of one point: the one-row case of :func:`anomaly_scores`."""
    return float(anomaly_scores(forest, np.reshape(point, (1, -1)))[0])


@dataclass
class NoiReport:
    """Flagged process nodes with the score of every scored process."""

    flagged: list[str]
    scores: dict[str, float]
    threshold: float
    contamination: float | None = None

    def ranked(self) -> list[tuple[str, float]]:
        return sorted(self.scores.items(), key=lambda kv: (-kv[1], kv[0]))

    def to_dict(self) -> dict:
        flagged = set(self.flagged)
        return {
            "threshold": self.threshold,
            "contamination": self.contamination,
            "nois": [
                {"node_id": nid, "score": score, "flagged": nid in flagged}
                for nid, score in self.ranked()
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NoiReport":
        try:
            scores = {row["node_id"]: row["score"] for row in payload["nois"]}
            flagged = [row["node_id"] for row in payload["nois"] if row["flagged"]]
            threshold = payload["threshold"]
            return cls(flagged, scores, threshold, payload.get("contamination"))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed noi report: {exc!r}") from None


def detect_nois(
    graph: ProvenanceGraph,
    embeddings: np.ndarray,
    *,
    num_trees: int = 100,
    subsample_size: int = 256,
    score_threshold: float = 0.6,
    contamination: float | None = None,
    seed: int = 0,
) -> NoiReport:
    """Fit a forest on the process-node rows only and flag the outliers.

    Default mode flags scores above ``score_threshold``; passing
    ``contamination`` instead flags that top fraction of process nodes.
    """
    if contamination is not None and not 0.0 < contamination <= 1.0:
        raise ValueError("contamination must be in (0, 1]")
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.shape[0] != graph.n_nodes:
        raise ValueError("embeddings must align with graph nodes")
    proc_rows = graph.process_rows()
    if not len(proc_rows):
        raise ValueError("graph has no process nodes")
    proc_ids = graph.process_ids()
    rows = emb[proc_rows]
    forest = fit_forest(rows, num_trees, subsample_size, seed)
    scores = dict(zip(proc_ids, anomaly_scores(forest, rows).tolist()))
    if contamination is not None:
        k = max(1, math.ceil(contamination * len(proc_ids)))
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        flagged = [nid for nid, _ in ordered[:k]]
    else:
        flagged = [nid for nid in proc_ids if scores[nid] > score_threshold]
    return NoiReport(flagged, scores, score_threshold, contamination)
