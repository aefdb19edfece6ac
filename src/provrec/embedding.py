"""Hierarchical meta-path attention encoder for technique subgraphs.

A subgraph is mapped to one fixed-width vector in three stages: node-level
attention over meta-path neighbors, path-level attention across the four
meta-paths, and graph-level attention against a global context vector. Each
level is a segment softmax over the batch's rows followed by a segment sum:
per target node over its neighbor pairs, per node over its meta-path rows,
and per subgraph over its nodes. Training runs on node classes instead of
nodes (:meth:`SubgraphBatch.classes`), with node-level and graph-level
softmaxes and means weighted by class counts. All three attention
distributions are proper (nonnegative, sum to one), and the whole
composition is differentiable through the numerics layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy import sparse

from . import features as ft
from . import numerics as nm
from .graph import EDGE_GROUPS, EntityType, GraphError
from .sampling import TechniqueSubgraph

# Meta-path vocabulary: process-to-process hops through a launch edge or
# through a shared file / registry key / socket.
META_PATHS = ("MP1", "MP2", "MP3", "MP4")
_MP_OBJECT = {
    "MP1": EntityType.PROCESS,
    "MP2": EntityType.FILE,
    "MP3": EntityType.REGISTRY,
    "MP4": EntityType.SOCKET,
}

# Named meta-path subsets for ablation runs.
METAPATH_COMBOS = {
    "MPC1": ("MP1",),
    "MPC2": ("MP1", "MP2"),
    "MPC3": ("MP1", "MP2", "MP4"),
    "MPC4": ("MP1", "MP2", "MP3"),
    "MPC5": ("MP1", "MP3", "MP4"),
    "MPC6": ("MP1", "MP2", "MP3", "MP4"),
}


def metapath_neighbors(tsg: TechniqueSubgraph, node_id: str, mp: str) -> set[str]:
    """Processes reachable from ``node_id`` along one full meta-path instance.

    Always includes the node itself. Non-process nodes have no meta-path
    neighbors beyond themselves.
    """
    src, dst = metapath_pairs(tsg, mp)
    i = tsg.graph.node_index().get(node_id)
    if i is None:
        raise GraphError(f"unknown node {node_id!r}")
    ids = tsg.node_ids
    return {ids[k] for k in src[dst == i]}


def metapath_pairs(tsg: TechniqueSubgraph, mp: str) -> tuple[np.ndarray, np.ndarray]:
    """(source_row, target_row) index arrays for all neighbor pairs of ``mp``.

    Node k neighbors node i when i launched k (MP1) or both act on one
    object (MP2-MP4), and every node neighbors itself. Pairs are ordered by
    target node then by source node. Cached on the subgraph.
    """
    if mp not in META_PATHS:
        raise ValueError(f"unknown meta-path {mp!r}")
    cached = tsg._metapath_cache.get(mp)
    if cached is not None:
        return cached
    n = tsg.n_nodes
    src, dst, etype = tsg.graph.edge_arrays()
    on_path = np.isin(etype, list(EDGE_GROUPS[_MP_OBJECT[mp]]))
    rows, cols = src[on_path], dst[on_path]
    if mp != "MP1":  # pair every two subjects of one shared object
        order = np.argsort(cols)
        subject, obj = rows[order], cols[order]
        first = np.searchsorted(obj, obj)  # where each edge's object group starts
        size = np.searchsorted(obj, obj, side="right") - first
        # edge j is repeated once per edge of its group, paired with each in turn
        rows = np.repeat(subject, size)
        step = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        cols = subject[np.repeat(first, size) + step]
    # key i * n + k of target i and source k sorts by target, then by source
    keys = np.unique(np.concatenate([rows * n + cols, np.arange(n) * (n + 1)]))
    pair = (keys % n, keys // n)
    tsg._metapath_cache[mp] = pair
    return pair


@dataclass
class HanConfig:
    """Shapes and switches for the attention encoder."""

    dim: int = 128  # hidden and output width
    metapaths: tuple[str, ...] = META_PATHS
    log1p_features: bool = True
    seed: int = 0

    def __post_init__(self):
        unknown = [mp for mp in self.metapaths if mp not in META_PATHS]
        if unknown:
            raise ValueError(f"unknown meta-paths {unknown}")
        if not self.metapaths:
            raise ValueError("at least one meta-path is required")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HanConfig":
        data = ft.without_retired(payload, "slope", "feature_dim")
        data["metapaths"] = tuple(data.get("metapaths", META_PATHS))
        return cls(**data)


def han_param_shapes(config: HanConfig) -> dict[str, tuple[int, int]]:
    d = config.dim
    shapes: dict[str, tuple[int, int]] = {"proj": (ft.FEATURE_DIM, d)}
    for mp in config.metapaths:
        shapes[f"att_w_{mp}"] = (2 * d, d)
        shapes[f"att_a_{mp}"] = (1, d)
    shapes["path_w"] = (d, d)
    shapes["path_b"] = (1, d)
    shapes["path_q"] = (1, d)
    shapes["ctx_w"] = (d, d)
    return shapes


def init_han_params(config: HanConfig) -> dict[str, np.ndarray]:
    rng = nm.Rng(config.seed).split("han-init")
    return {
        name: ft.init_weight(rng, r, c)
        for name, (r, c) in han_param_shapes(config).items()
    }


class HanEncoder:
    """Trained attention parameters plus the config that shaped them.

    The weights never change once trained, so each is wrapped once as a
    constant matrix (``matrices``) that every embed reuses; ``params`` holds
    the same arrays.
    """

    def __init__(self, config: HanConfig, params: Mapping[str, np.ndarray]):
        self.config = config
        self.matrices: dict[str, nm.Matrix] = {}
        for name, shape in han_param_shapes(config).items():
            if name not in params:
                raise ValueError(f"missing parameter {name!r}")
            if np.shape(params[name]) != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {np.shape(params[name])}, "
                    f"expected {shape}"
                )
            self.matrices[name] = nm.Matrix(params[name], name=name)
        self.params = {name: m.value for name, m in self.matrices.items()}

    @classmethod
    def create(cls, config: HanConfig) -> "HanEncoder":
        return cls(config, init_han_params(config))

    def embed(self, tsg: TechniqueSubgraph) -> np.ndarray:
        """Encode one subgraph; returns a (dim,) vector."""
        h = embed_subgraph(tsg, self.matrices, self.config)
        return h.value[0].copy()

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "params": {k: v.reshape(-1).tolist() for k, v in self.params.items()},
            "shapes": {k: list(v.shape) for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HanEncoder":
        config = HanConfig.from_dict(payload["config"])
        params = {
            k: np.array(flat, dtype=np.float64).reshape(payload["shapes"][k])
            for k, flat in payload["params"].items()
        }
        return cls(config, params)


@dataclass
class AttentionRecord:
    """The three attention distributions produced by one embedding pass.

    Rows and indices refer to the pass's node block: for one subgraph, its
    own node order; for a batch, the subgraphs' nodes stacked in order.
    """

    alpha: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    beta: np.ndarray | None = None  # (n, |active metapaths|)
    gamma: np.ndarray | None = None  # (n,)


class SubgraphBatch:
    """Technique subgraphs stacked into one block of rows for one forward.

    Built from subgraphs, a batch has one row per node: each subgraph's rows
    follow its own node order, subgraph after subgraph. ``graph_of`` maps
    every row to its subgraph; ``pairs[mp]`` holds the meta-path's (source,
    target) rows offset into the block, still ordered by target; ``node_of``
    maps each row of path level's path-major stack to its row. The indices
    keep their scatter matrices, so a batch built once serves every epoch of
    a training run. :meth:`classes` gives the batch whose rows are node
    classes; on a per-node batch ``pair_weights`` and ``sizes`` are None.
    """

    def __init__(self, subgraphs: Sequence[TechniqueSubgraph], config: HanConfig):
        if not subgraphs:
            raise ValueError("cannot embed an empty batch of subgraphs")
        stacked = np.vstack([tsg.features() for tsg in subgraphs])
        sizes = [tsg.n_nodes for tsg in subgraphs]
        offsets = np.cumsum([0] + sizes[:-1])
        pairs = {}
        for mp in config.metapaths:
            src, dst = zip(*(metapath_pairs(tsg, mp) for tsg in subgraphs))
            pairs[mp] = (np.concatenate([s + o for s, o in zip(src, offsets)]),
                         np.concatenate([d + o for d, o in zip(dst, offsets)]))
        self._index(ft.scale_features(stacked, config.log1p_features),
                    np.repeat(np.arange(len(sizes)), sizes), len(sizes), pairs)

    def _index(self, features, graph_of, n_graphs, pairs, pair_weights=None,
               sizes=None):
        n = len(graph_of)
        self.features = nm.Matrix(features)
        self.graph_of = nm.RowIndex(graph_of, n_graphs)
        self.pairs: dict[str, tuple[nm.RowIndex, nm.RowIndex]] = {
            mp: (nm.RowIndex(src, n), nm.RowIndex(dst, n))
            for mp, (src, dst) in pairs.items()
        }
        self.node_of = nm.RowIndex(np.tile(np.arange(n), len(pairs)), n)
        self.pair_weights: dict[str, np.ndarray] | None = pair_weights
        self.sizes: np.ndarray | None = sizes

    def classes(self) -> "SubgraphBatch":
        """This batch with one row per node class; each subgraph embeds the same.

        Nodes share a class when they lie in one subgraph and have one feature
        row and, under every meta-path, one multiset of neighbour feature
        rows. Node-level attention reads nothing else, so every stage gives
        the nodes of a class one output: the 1-WL argument of Xu et al., "How
        Powerful are Graph Neural Networks?" (ICLR 2019). Each class keeps
        its first node's feature row and pairs, the pairs mapped to (source
        class, target class) and collapsed with their counts as
        ``pair_weights[mp]``; ``sizes`` counts each class's nodes. Attention
        weighted by these counts gives every softmax and mean the value of
        the per-node batch.
        """
        n = self.features.rows

        def onehot(ids, k):
            return sparse.csr_matrix((np.ones(n), ids, np.arange(n + 1)), shape=(n, k))

        row_class, row_first = ft._row_classes(sparse.csr_matrix(self.features.value))
        by_row = onehot(row_class, len(row_first))
        keys = [onehot(self.graph_of.ids, self.graph_of.size), by_row]
        for src, dst in self.pairs.values():
            adjacency = sparse.csr_matrix(
                (np.ones(len(src)), (dst.ids, src.ids)), shape=(n, n))
            keys.append(adjacency @ by_row)
        node_class, first = ft._row_classes(sparse.hstack(keys, format="csr"))
        k = len(first)
        is_first = np.zeros(n, dtype=bool)
        is_first[first] = True
        pairs, weights = {}, {}
        for mp, (src, dst) in self.pairs.items():
            kept = is_first[dst.ids]
            # key t * k + s of target class t and source class s sorts by target
            key, count = np.unique(node_class[dst.ids[kept]] * k
                                   + node_class[src.ids[kept]], return_counts=True)
            pairs[mp] = (key % k, key // k)
            weights[mp] = count.astype(np.float64)
        out = SubgraphBatch.__new__(SubgraphBatch)
        out._index(self.features.value[first], self.graph_of.ids[first],
                   self.graph_of.size, pairs, weights,
                   np.bincount(node_class).astype(np.float64))
        return out


def pair_scores(projected: nm.Matrix, src, dst, att_w, att_a) -> nm.Matrix:
    """Node-level attention logit of every (source, target) row pair, (m, 1).

    Equals ``leaky(concat(e_src, e_dst) @ att_w) @ att_aᵀ`` but multiplies
    the node rows by the top and bottom halves of ``att_w`` before gathering,
    so the matmuls run over nodes rather than pairs.
    """
    d = projected.cols
    top = nm.matmul(projected, nm.slice_rows(att_w, 0, d))
    bottom = nm.matmul(projected, nm.slice_rows(att_w, d, 2 * d))
    z = nm.add(nm.gather_rows(top, src), nm.gather_rows(bottom, dst))
    return nm.matmul(nm.leaky_relu(z), nm.transpose(att_a))


def _node_level(projected, src: nm.RowIndex, dst: nm.RowIndex, att_w, att_a,
                weights=None):
    n = projected.rows
    alpha = nm.segment_softmax(pair_scores(projected, src, dst, att_w, att_a), dst,
                               n, weights)
    h = nm.leaky_relu(
        nm.segment_sum(nm.mul(alpha, nm.gather_rows(projected, src)), dst, n)
    )
    return h, alpha


def path_level_fuse(per_path: Sequence[nm.Matrix], path_w, path_b, path_q,
                    node_of: nm.RowIndex | None = None):
    """Blend per-meta-path node vectors with softmax weights per node.

    Returns (fused, beta). The blocks are stacked path after path, so row
    j·n + i of the (P·n, 1) column beta is node i's weight on path j; each
    node's weights sum to one. ``node_of`` maps each stacked row to its node
    (a batch keeps one); without it the index is built here.
    """
    if not per_path:
        raise ValueError("need at least one meta-path vector set")
    n = per_path[0].rows
    if node_of is None:
        node_of = nm.RowIndex(np.tile(np.arange(n), len(per_path)), n)
    stacked = nm.concat_rows(per_path)
    hidden = nm.tanh(nm.add(nm.matmul(stacked, path_w), path_b))
    scores = nm.matmul(hidden, nm.transpose(path_q))
    beta = nm.segment_softmax(scores, node_of, n)
    fused = nm.segment_sum(nm.mul(beta, stacked), node_of, n)
    return fused, beta


def graph_level_embed(
    node_vectors: nm.Matrix, ctx_w, graph_of: nm.RowIndex | None = None,
    sizes: np.ndarray | None = None,
):
    """Context-weighted sum of node vectors into one vector per subgraph.

    ``graph_of`` maps each row to its subgraph; without it all rows form one
    subgraph. ``sizes`` gives the number of nodes each row stands for (a
    class batch's class sizes); without it each row is one node. Returns
    (h, gamma): h holds one row per subgraph, and gamma, a (1, n) row, is the
    softmax within each subgraph of its nodes' inner products with the
    tanh-transformed mean context of that subgraph.
    """
    if graph_of is None:
        graph_of = nm.RowIndex(np.zeros(node_vectors.rows, dtype=np.intp), 1)
    counts = np.bincount(graph_of.ids, sizes, graph_of.size)
    if node_vectors.rows == 0 or not counts.all():
        raise ValueError("cannot embed an empty node set")
    k = graph_of.size
    nodes = node_vectors if sizes is None else nm.mul(node_vectors, sizes[:, None])
    mean = nm.div(nm.segment_sum(nodes, graph_of, k), counts.reshape(-1, 1))
    context = nm.tanh(nm.matmul(mean, ctx_w))
    scores = nm.row_sums(nm.mul(node_vectors, nm.gather_rows(context, graph_of)))
    gamma = nm.segment_softmax(scores, graph_of, k, sizes)
    h = nm.segment_sum(nm.mul(gamma, node_vectors), graph_of, k)
    return h, nm.transpose(gamma)


def embed_batch(
    batch: SubgraphBatch,
    params: Mapping[str, nm.Matrix | np.ndarray],
    config: HanConfig,
    attention: AttentionRecord | None = None,
) -> nm.Matrix:
    """Full three-stage composition over a batch; one row per subgraph.

    ``params`` may hold constant matrices (inference, as in
    :attr:`HanEncoder.matrices`), tape-registered matrices (training) or plain
    arrays; gradients flow through every stage.
    """
    projected = nm.matmul(batch.features, params["proj"])
    weights = batch.pair_weights or {}
    per_path = []
    for mp in config.metapaths:
        src, dst = batch.pairs[mp]
        h_mp, alpha = _node_level(
            projected, src, dst, params[f"att_w_{mp}"], params[f"att_a_{mp}"],
            weights.get(mp),
        )
        per_path.append(h_mp)
        if attention is not None:
            attention.alpha[mp] = (alpha.value[:, 0].copy(), dst.ids.copy())

    fused, beta = path_level_fuse(
        per_path, params["path_w"], params["path_b"], params["path_q"],
        batch.node_of,
    )
    h, gamma = graph_level_embed(fused, params["ctx_w"], batch.graph_of, batch.sizes)
    if attention is not None:
        attention.beta = beta.value.reshape(len(per_path), -1).T.copy()
        attention.gamma = gamma.value[0].copy()
    return h


def embed_subgraph(
    tsg: TechniqueSubgraph,
    params: Mapping[str, nm.Matrix | np.ndarray],
    config: HanConfig,
    attention: AttentionRecord | None = None,
) -> nm.Matrix:
    """Full three-stage composition of one subgraph; returns a (1, dim) matrix.

    The one-subgraph case of :func:`embed_batch`: ``params`` may hold plain
    arrays or tape-registered matrices, and ``attention`` rows and indices
    are the subgraph's own.
    """
    # a subgraph never changes, so its one-subgraph batch (indices and their
    # scatter matrices) is kept beside its cached meta-path pairs
    key = ("batch", config.metapaths, config.log1p_features)
    batch = tsg._metapath_cache.get(key)
    if batch is None:
        batch = tsg._metapath_cache[key] = SubgraphBatch([tsg], config)
    return embed_batch(batch, params, config, attention)
