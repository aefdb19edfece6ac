"""Isolation-forest outlier scoring over learned process embeddings.

Process nodes whose embeddings isolate unusually fast are flagged as nodes
of interest for the subgraph sampler. The forest is built from scratch and
stored as flat node arrays covering all its trees; :func:`anomaly_scores`
moves every point down every tree together, one level per step, and scores
follow the standard ``2 ** (-E[h] / c(n))`` form exactly.
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


@dataclass(eq=False)
class IsolationForest:
    """Random-partition trees on independent subsamples, as flat node arrays.

    Node ``i`` splits on ``dim[i]`` at ``threshold[i]``: points below go to
    ``left[i]``, the rest to ``right[i]``. A leaf has ``dim == -1`` and
    points both children at itself, so descending past it is a no-op; its
    ``path`` is its depth plus c(its sample count), the path length of every
    point that ends there. ``roots`` holds each tree's root node. Scores
    live strictly inside (0, 1); a point whose expected path length equals
    c(subsample_size) scores exactly 0.5.
    """

    dim: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    path: np.ndarray
    roots: np.ndarray
    subsample_size: int  # actual per-tree sample count
    width: int  # training point width


def fit_forest(
    points, num_trees: int = 100, subsample_size: int = 256, seed: int = 0
) -> IsolationForest:
    """Build ``num_trees`` isolation trees, each on its own random subsample.

    When fewer points than ``subsample_size`` exist, the full set is used
    per tree (and the score normaliser uses that actual count). Each tree
    grows depth first, left before right, from its own ``Rng`` stream.
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
    dims, thresholds, lefts, rights, paths, roots = [], [], [], [], [], []

    def new_node() -> int:
        node = len(dims)
        dims.append(-1)
        thresholds.append(0.0)
        lefts.append(node)
        rights.append(node)
        paths.append(0.0)
        return node

    for t in range(num_trees):
        tree_rng = rng.split(f"tree-{t}")
        idx = tree_rng.choice(n, size=psi, replace=False)
        roots.append(new_node())
        stack = [(pts[idx], 0, roots[-1])]
        while stack:
            data, depth, node = stack.pop()
            paths[node] = depth + average_path_length(len(data))
            if depth >= height_limit or len(data) <= 1:
                continue
            lo = data.min(axis=0)
            hi = data.max(axis=0)
            candidates = np.flatnonzero(hi > lo)
            if candidates.size == 0:
                continue
            dim = int(candidates[tree_rng.integers(candidates.size)])
            threshold = float(tree_rng.uniform(lo[dim], hi[dim]))
            mask = data[:, dim] < threshold
            if not mask.any() or mask.all():
                # degenerate draw at the boundary; the midpoint always separates
                threshold = float((lo[dim] + hi[dim]) / 2.0)
                mask = data[:, dim] < threshold
            dims[node], thresholds[node] = dim, threshold
            lefts[node], rights[node] = new_node(), new_node()
            stack.append((data[~mask], depth + 1, rights[node]))
            stack.append((data[mask], depth + 1, lefts[node]))
    return IsolationForest(
        np.array(dims, dtype=np.int64),
        np.array(thresholds, dtype=np.float64),
        np.array(lefts, dtype=np.int64),
        np.array(rights, dtype=np.int64),
        np.array(paths, dtype=np.float64),
        np.array(roots, dtype=np.int64),
        psi,
        pts.shape[1],
    )


def anomaly_scores(forest: IsolationForest, points) -> np.ndarray:
    """2 ** (-E[h(x)] / c(n)) for every row; higher means more anomalous."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != forest.width:
        raise ValueError(
            f"points of shape {pts.shape} do not match training width {forest.width}"
        )
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
    return np.array([2.0 ** x for x in exponent.tolist()])


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
