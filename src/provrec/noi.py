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

import math
from dataclasses import dataclass

import numpy as np

from .graph import EntityType, ProvenanceGraph
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


def _slots_of(node: np.ndarray, nodes: np.ndarray, width: int):
    """Indices of the slots that belong to ``nodes`` and the start of each
    node's run among them; ``node`` is sorted and ``nodes`` ascending."""
    member = np.zeros(width, dtype=bool)
    member[nodes] = True
    sel = np.flatnonzero(member[node])
    return sel, np.flatnonzero(np.diff(node[sel], prepend=-1))


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
    # local to the current level, whose first global id is ``first``
    slots = np.flatnonzero(counts)
    node, row = np.divmod(slots, m)
    weight = counts[slots]
    c = np.array([average_path_length(k) for k in range(psi + 1)])
    levels = []
    first, width, depth = 0, num_trees, 0
    while True:
        dims = np.full(width, -1, dtype=np.int64)
        thresholds = np.zeros(width)
        lefts = np.arange(first, first + width)
        rights = lefts.copy()
        starts = np.flatnonzero(np.diff(node, prepend=-1))
        size = np.add.reduceat(weight, starts)
        levels.append((dims, thresholds, lefts, rights, depth + c[size]))
        if depth == height_limit:
            break
        split = np.flatnonzero(np.diff(starts, append=len(node)) > 1)
        if not split.size:
            break
        lo, hi = np.zeros(width), np.zeros(width)
        # draw a dimension for each pending node and keep it where it varies,
        # a few rounds; the rest then pick exactly from their varying mask
        pending = split
        for attempt in range(_DIM_DRAWS + 1):
            sel, seg = _slots_of(node, pending, width)
            if attempt < _DIM_DRAWS:
                dims[pending] = rng.integers(pts.shape[1], size=pending.size)
            else:
                block = rows[row[sel]]
                varying = np.maximum.reduceat(block, seg) > np.minimum.reduceat(block, seg)
                pick = rng.integers(varying.sum(axis=1))
                dims[pending] = np.argmax(np.cumsum(varying, axis=1) > pick[:, None], axis=1)
            values = rows[row[sel], dims[node[sel]]]
            lo[pending] = np.minimum.reduceat(values, seg)
            hi[pending] = np.maximum.reduceat(values, seg)
            pending = pending[lo[pending] == hi[pending]]
            if not pending.size:
                break
        lo, hi = lo[split], hi[split]
        threshold = rng.uniform(lo, hi)
        # a draw on a boundary separates nothing; the midpoint does unless
        # lo and hi are adjacent floats, where hi itself separates
        bad = ~((threshold > lo) & (threshold <= hi))
        mid = (lo + hi) / 2.0
        threshold[bad] = np.where(mid > lo, mid, hi)[bad]
        thresholds[split] = threshold
        lefts[split] = first + width + 2 * np.arange(split.size)
        rights[split] = lefts[split] + 1
        # route the slots of splitting nodes to their children, keeping order
        sel, _ = _slots_of(node, split, width)
        node, row, weight = node[sel], row[sel], weight[sel]
        rank = np.zeros(width, dtype=np.int64)
        rank[split] = np.arange(split.size)
        child = 2 * rank[node] + (rows[row, dims[node]] >= thresholds[node])
        order = np.argsort(child, kind="stable")
        node, row, weight = child[order], row[order], weight[order]
        first, width, depth = first + width, 2 * split.size, depth + 1
    dims, thresholds, lefts, rights, paths = (np.concatenate(a) for a in zip(*levels))
    return IsolationForest(
        dims, thresholds, lefts, rights, paths,
        np.arange(num_trees, dtype=np.int64), psi, pts.shape[1],
    )


def anomaly_scores(forest: IsolationForest, points) -> np.ndarray:
    """2 ** (-E[h(x)] / c(n)) for every row; higher means more anomalous."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != forest.width:
        raise ValueError(
            f"points of shape {pts.shape} do not match training width {forest.width}"
        )
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
    # Python's sum adds the trees one by one in tree order, and Python's **
    # is C pow: numpy's vectorised power may differ from it in the last bit
    mean_path = sum(forest.path[node]) / len(forest.roots)
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
    proc_ids = [
        nid for nid, n in graph.nodes.items() if n.entity_type == EntityType.PROCESS
    ]
    if not proc_ids:
        raise ValueError("graph has no process nodes")
    index = graph.node_index()
    rows = emb[[index[nid] for nid in proc_ids]]
    forest = fit_forest(rows, num_trees, subsample_size, seed)
    scores = dict(zip(proc_ids, anomaly_scores(forest, rows).tolist()))
    if contamination is not None:
        k = max(1, math.ceil(contamination * len(proc_ids)))
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        flagged = [nid for nid, _ in ordered[:k]]
    else:
        flagged = [nid for nid in proc_ids if scores[nid] > score_threshold]
    return NoiReport(flagged, scores, score_threshold, contamination)
