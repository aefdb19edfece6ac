"""Isolation-forest outlier scoring over learned process embeddings.

Process nodes whose embeddings isolate unusually fast are flagged as nodes
of interest for the subgraph sampler. The forest is built from scratch so
trees stay inspectable and scoring follows the standard
``2 ** (-E[h] / c(n))`` form exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import EntityType, ProvenanceGraph
from .numerics import Rng

_EULER_GAMMA = 0.5772156649015329


def average_path_length(n: int) -> float:
    """c(n): expected unsuccessful-search path length in a BST of n points."""
    if n <= 1:
        return 0.0
    h = math.log(n - 1) + _EULER_GAMMA
    return 2.0 * h - 2.0 * (n - 1) / n


class IsoNode:
    """One isolation-tree node: a (dim, threshold) split or a sized leaf."""

    __slots__ = ("size", "dim", "threshold", "left", "right")

    def __init__(self, *, size, dim=None, threshold=None, left=None, right=None):
        self.size = int(size)
        self.dim = dim
        self.threshold = threshold
        self.left = left
        self.right = right

    @property
    def is_leaf(self) -> bool:
        return self.dim is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"size": self.size}
        return {
            "size": self.size,
            "dim": int(self.dim),
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }


def _grow(data: np.ndarray, depth: int, limit: int, rng: Rng) -> IsoNode:
    n = len(data)
    if depth >= limit or n <= 1:
        return IsoNode(size=n)
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    candidates = np.flatnonzero(hi > lo)
    if candidates.size == 0:
        return IsoNode(size=n)
    dim = int(candidates[rng.integers(candidates.size)])
    threshold = float(rng.uniform(lo[dim], hi[dim]))
    mask = data[:, dim] < threshold
    if not mask.any() or mask.all():
        # degenerate draw at the boundary; the midpoint always separates
        threshold = float((lo[dim] + hi[dim]) / 2.0)
        mask = data[:, dim] < threshold
    return IsoNode(
        size=n,
        dim=dim,
        threshold=threshold,
        left=_grow(data[mask], depth + 1, limit, rng),
        right=_grow(data[~mask], depth + 1, limit, rng),
    )


def _path_length(tree: IsoNode, point: np.ndarray) -> float:
    depth = 0
    node = tree
    while not node.is_leaf:
        node = node.left if point[node.dim] < node.threshold else node.right
        depth += 1
    return depth + average_path_length(node.size)


class IsolationForest:
    """Ensemble of random-partition trees built on independent subsamples.

    Scores live strictly inside (0, 1); a point whose expected path length
    equals c(n) scores exactly 0.5.
    """

    def __init__(
        self,
        trees: list[IsoNode],
        num_trees: int,
        subsample_size: int,
        dim: int,
        seed: int,
    ):
        self.trees = trees
        self.num_trees = num_trees
        self.subsample_size = subsample_size  # actual per-tree sample count
        self.dim = dim
        self.seed = seed

    def to_dict(self) -> dict:
        return {
            "num_trees": self.num_trees,
            "subsample_size": self.subsample_size,
            "dim": self.dim,
            "seed": self.seed,
            "trees": [t.to_dict() for t in self.trees],
        }


def fit_forest(
    points, num_trees: int = 100, subsample_size: int = 256, seed: int = 0
) -> IsolationForest:
    """Build ``num_trees`` isolation trees, each on its own random subsample.

    When fewer points than ``subsample_size`` exist, the full set is used
    per tree (and the score normaliser uses that actual count).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two points to fit a forest")
    if subsample_size < 2:
        raise ValueError("subsample_size must be at least 2")
    psi = min(subsample_size, n)
    height_limit = math.ceil(math.log2(psi))
    rng = Rng(seed)
    trees = []
    for t in range(num_trees):
        tree_rng = rng.split(f"tree-{t}")
        idx = tree_rng.choice(n, size=psi, replace=False)
        trees.append(_grow(pts[idx], 0, height_limit, tree_rng))
    return IsolationForest(trees, num_trees, psi, pts.shape[1], seed)


def anomaly_score(forest: IsolationForest, point) -> float:
    """2 ** (-E[h(x)] / c(n)); higher means more anomalous."""
    x = np.asarray(point, dtype=np.float64).reshape(-1)
    if x.shape[0] != forest.dim:
        raise ValueError(
            f"point width {x.shape[0]} does not match training width {forest.dim}"
        )
    mean_path = sum(_path_length(t, x) for t in forest.trees) / len(forest.trees)
    return float(2.0 ** (-mean_path / average_path_length(forest.subsample_size)))


def anomaly_scores(forest: IsolationForest, points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    return np.array([anomaly_score(forest, p) for p in pts])


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
        scores = {row["node_id"]: row["score"] for row in payload["nois"]}
        flagged = [row["node_id"] for row in payload["nois"] if row["flagged"]]
        return cls(flagged, scores, payload["threshold"], payload.get("contamination"))


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
    scores = {nid: anomaly_score(forest, row) for nid, row in zip(proc_ids, rows)}
    if contamination is not None:
        if not 0.0 < contamination <= 1.0:
            raise ValueError("contamination must be in (0, 1]")
        k = max(1, math.ceil(contamination * len(proc_ids)))
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        flagged = [nid for nid, _ in ordered[:k]]
    else:
        flagged = [nid for nid in proc_ids if scores[nid] > score_threshold]
    return NoiReport(flagged, scores, score_threshold, contamination)
