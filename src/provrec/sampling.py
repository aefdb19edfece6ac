"""Technique-subgraph segmentation around correlated anomalous nodes.

Starting from the best-connected flagged node, a depth-limited search walks
the graph in both edge directions; a path is kept only when it reaches
another flagged node within the hop budget, and the search restarts from
every flagged node it reaches. Small clusters are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import GraphError, ProvenanceGraph, _entity_id


class TechniqueSubgraph:
    """A sampled (or ground-truth) subgraph with its anomalous-node set.

    Wraps the induced graph plus the flagged ids inside it, the seed the
    search started from, and an optional technique/tactic label.
    """

    def __init__(
        self,
        graph: ProvenanceGraph,
        nois: Iterable[str],
        seed: str,
        technique: str | None = None,
        tactic: str | None = None,
    ):
        # canonical sorted-id node order makes every downstream reduction
        # independent of how the parent graph happened to order insertions
        ids = graph.node_ids()
        self.graph = graph.take(sorted(range(len(ids)), key=ids.__getitem__))
        self.nois = tuple(sorted(dict.fromkeys(nois)))
        self.seed = seed
        self.technique = technique
        self.tactic = tactic
        for nid in self.nois:
            if not self.graph.has_node(nid):
                raise GraphError(f"noi {nid!r} not in subgraph")
        if seed not in self.nois:
            raise GraphError(f"seed {seed!r} must be one of the nois")

    @property
    def node_ids(self) -> list[str]:
        return self.graph.node_ids()

    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    def noi_set(self) -> frozenset[str]:
        return frozenset(self.nois)

    def features(self):
        """42-dim count features computed from the subgraph's own edges.

        Computed on each call and not kept: a carve is embedded once, and a
        host's triage results keep its carves.
        """
        from .features import init_features

        return init_features(self.graph)

    def to_dict(self) -> dict:
        graph = self.graph.to_dict()
        payload = {
            "seed": self.seed,
            "nodes": graph["nodes"],
            "edges": graph["edges"],
            "nois": list(self.nois),
        }
        if self.technique is not None:
            payload["label"] = {"technique": self.technique, "tactic": self.tactic}
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TechniqueSubgraph":
        try:
            label = payload.get("label") or {}
            nois = [_entity_id("noi", nid) for nid in payload["nois"]]
            seed = _entity_id("seed", payload["seed"])
            technique, tactic = label.get("technique"), label.get("tactic")
        except (KeyError, TypeError, AttributeError) as exc:
            raise GraphError(f"malformed subgraph: {exc!r}") from None
        graph = ProvenanceGraph.from_dict(
            {**payload, "format_version": ProvenanceGraph.FORMAT_VERSION}
        )
        return cls(graph, nois, seed, technique=technique, tactic=tactic)


def select_seed(nois: Iterable[str], graph: ProvenanceGraph) -> str:
    """The flagged node with the highest total degree; ties go to smaller id."""
    pool = list(nois)
    if not pool:
        raise ValueError("cannot select a seed from an empty noi set")
    src, dst, _ = graph.edge_arrays()
    degree = np.bincount(np.concatenate([src, dst]), minlength=graph.n_nodes)
    index = graph.node_index()
    try:
        return min(pool, key=lambda nid: (-degree[index[nid]], nid))
    except KeyError as exc:
        raise GraphError(f"unknown node {exc.args[0]!r}") from None


def _undirected_rows(graph: ProvenanceGraph) -> list[list[int]]:
    """Each node row's distinct neighbour rows over both edge directions;
    self-loops are dropped."""
    n = graph.n_nodes
    src, dst, _ = graph.edge_arrays()
    keep = src != dst
    keys = np.unique(np.concatenate([src[keep] * n + dst[keep],
                                     dst[keep] * n + src[keep]]))
    bounds = np.searchsorted(keys // n, np.arange(n + 1)).tolist()
    cols = (keys % n).tolist()
    return [cols[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def lambda_dfs(
    graph: ProvenanceGraph, seed: str, nois: Iterable[str], lam: int,
    *, adjacency: list[list[int]] | None = None,
) -> set[str]:
    """All nodes on hop-limited paths linking flagged nodes, plus the seed.

    Edges are treated as bidirectional. From each reached flagged node, every
    simple path of at most ``lam`` hops that ends at another flagged node is
    retained in full (benign intermediates included); paths that find no
    flagged node are abandoned. Newly reached flagged nodes are expanded in
    turn, each exactly once, so the walk terminates on cyclic graphs.

    The result is a closure: the flags reached from the seed plus every node
    on a <= ``lam``-hop simple path between two of them with no flagged
    inner node. It does not depend on the order of the search, so the walk
    skips every subtree that can retain no new node. Two tables built per
    call, over unflagged nodes within ``lam - 1`` hops of a flag, decide it:
    ``dist[x]``, the fewest hops from x to a flag through unflagged nodes,
    and ``reach[r][x]``, the bitset of nodes on walks of <= r hops from x
    that end at their first flag. The walk does not step onto an unflagged
    node x that leaves r hops when

    - ``dist[x] > r``: no path through x reaches a flag in time; or
    - every node of the current path is retained and ``reach[r][x]`` is too:
      a path through x retains only the current path and nodes of
      ``reach[r][x]``, and the flag it ends at, being retained, was queued
      for its own expansion when it was first retained.

    ``adjacency`` is the graph's :func:`_undirected_rows`, built here when not
    passed; :func:`sample_subgraphs` builds it once for all its rounds.
    """
    noi_set = set(nois)
    if seed not in noi_set:
        raise ValueError(f"seed {seed!r} is not in the noi set")
    if lam < 1:
        raise ValueError("lam must be at least 1")
    index = graph.node_index()
    if seed not in index:
        raise GraphError(f"unknown node {seed!r}")
    adj = _undirected_rows(graph) if adjacency is None else adjacency
    flags = [index[nid] for nid in noi_set if nid in index]

    # dist by a BFS from every flag through unflagged nodes; a node farther
    # than lam - 1 hops keeps lam, which no hop budget on the walk admits
    dist = [lam] * graph.n_nodes
    for x in flags:
        dist[x] = 0
    near, ring = [], flags
    for d in range(1, lam):
        reached = []
        for x in ring:
            for y in adj[x]:
                if dist[y] == lam:
                    dist[y] = d
                    reached.append(y)
        near += reached
        ring = reached
    # reach[r][x]: a Python-int bitset over node rows, 0 when dist[x] > r
    reach = [[0] * graph.n_nodes]
    for r in range(1, lam):
        prev, level = reach[-1], [0] * graph.n_nodes
        for x in near:
            if dist[x] <= r:
                bits = 1 << x
                for y in adj[x]:
                    bits |= prev[y] if dist[y] else 1 << y
                level[x] = bits
        reach.append(level)

    # every flag enters the frontier once, when it is first retained
    start = index[seed]
    retained = 1 << start
    frontier = [start]

    def walk(node: int, path: int, rem: int) -> None:
        """Extend ``path`` (a bitset ending at ``node``) by up to ``rem`` hops."""
        nonlocal retained
        for nb in adj[node]:
            bit = 1 << nb
            if path & bit:
                continue
            d = dist[nb]
            if d == 0:  # a flag; the restart from it owns any deeper search
                if not retained & bit:
                    frontier.append(nb)
                retained |= path | bit
            elif d < rem and (path | reach[rem - 1][nb]) & ~retained:
                walk(nb, path | bit, rem - 1)

    while frontier:
        u = frontier.pop()
        walk(u, 1 << u, lam)
    # walk refers to itself through its closure cell; dropping the name
    # breaks that cycle, so the tables go now rather than at the next GC
    del walk

    ids = graph.node_ids()
    return {ids[x] for x in flags + near if retained >> x & 1}


def sample_subgraphs(
    graph: ProvenanceGraph,
    nois: Iterable[str],
    *,
    lam: int = 3,
    min_nois: int = 5,
) -> list[TechniqueSubgraph]:
    """Greedily carve disjoint-noi subgraphs until the flagged pool is empty.

    Each round seeds from the best-connected remaining flagged node, walks
    with :func:`lambda_dfs`, induces the visited nodes, and emits the result
    only when it consumed at least ``min_nois`` flagged nodes. The rounds
    share one adjacency build, which goes when the call returns.
    """
    pool = sorted(set(nois))
    out: list[TechniqueSubgraph] = []
    adjacency = _undirected_rows(graph) if pool else None
    while pool:
        seed = select_seed(pool, graph)
        visited = lambda_dfs(graph, seed, set(pool), lam, adjacency=adjacency)
        consumed = [nid for nid in pool if nid in visited]
        pool = [nid for nid in pool if nid not in visited]
        if len(consumed) >= min_nois:
            out.append(TechniqueSubgraph(graph.induced(visited), consumed, seed))
    return out


@dataclass
class SamplingMetrics:
    """Overlap quality of sampled subgraphs against ground truth.

    A sampled subgraph is correct when both its precision and coverage
    exceed 0.8. ``far``/``tpr`` carry defined-flags because their
    denominators can be empty.
    """

    precision: float
    coverage: float
    tpr: float
    far: float
    n_sampled: int = 0
    n_truth: int = 0
    n_correct: int = 0
    tpr_defined: bool = True
    far_defined: bool = True


def match_subgraphs(
    sampled: Sequence[TechniqueSubgraph], truth: Sequence[TechniqueSubgraph]
) -> list[tuple[int, int]]:
    """Greedy one-to-one pairing by flagged-node overlap, largest first.

    Zero-overlap pairs are never formed; ties break on smaller indices.
    """
    candidates = []
    for si, s in enumerate(sampled):
        s_nois = s.noi_set()
        for ti, t in enumerate(truth):
            overlap = len(s_nois & t.noi_set())
            if overlap > 0:
                candidates.append((-overlap, si, ti))
    candidates.sort()
    used_s: set[int] = set()
    used_t: set[int] = set()
    pairs = []
    for _, si, ti in candidates:
        if si in used_s or ti in used_t:
            continue
        pairs.append((si, ti))
        used_s.add(si)
        used_t.add(ti)
    return pairs


def sampling_metrics(
    sampled: Sequence[TechniqueSubgraph],
    truth: Sequence[TechniqueSubgraph],
    matching: Sequence[tuple[int, int]] | None = None,
) -> SamplingMetrics:
    """Mean per-pair precision/coverage plus correct-subgraph rates.

    Precision and coverage average over the sampled subgraphs; an unmatched
    sampled subgraph contributes zero to both.
    """
    if matching is None:
        matching = match_subgraphs(sampled, truth)
    matched = dict(matching)

    per_precision = []
    per_coverage = []
    n_correct = 0
    for si, s in enumerate(sampled):
        d_ns = s.noi_set()
        if si in matched:
            g_ns = truth[matched[si]].noi_set()
            inter = len(d_ns & g_ns)
            p = inter / len(d_ns) if d_ns else 0.0
            c = inter / len(g_ns) if g_ns else 0.0
        else:
            p = c = 0.0
        per_precision.append(p)
        per_coverage.append(c)
        if p > 0.8 and c > 0.8:
            n_correct += 1

    n_sampled = len(sampled)
    n_truth = len(truth)
    precision = sum(per_precision) / n_sampled if n_sampled else 0.0
    coverage = sum(per_coverage) / n_sampled if n_sampled else 0.0
    tpr_defined = n_truth > 0
    far_defined = n_sampled > 0
    tpr = n_correct / n_truth if tpr_defined else 0.0
    far = (n_sampled - n_correct) / n_sampled if far_defined else 0.0
    return SamplingMetrics(
        precision=precision,
        coverage=coverage,
        tpr=tpr,
        far=far,
        n_sampled=n_sampled,
        n_truth=n_truth,
        n_correct=n_correct,
        tpr_defined=tpr_defined,
        far_defined=far_defined,
    )
