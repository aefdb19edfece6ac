"""Hierarchical meta-path attention encoder for technique subgraphs.

A subgraph is mapped to one fixed-width vector in three stages: node-level
attention over meta-path neighbors, path-level attention across the four
meta-paths, and graph-level attention against a global context vector. Each
level is a segment softmax over the batch's rows followed by a segment sum:
per target node over its neighbor pairs, per node over its meta-path rows,
and per subgraph over its nodes. Every forward, in training and at
recognition alike, runs each level on the fewest rows that decide it
(:class:`SubgraphBatch`): the projection and the pair logits on distinct
feature rows, node level and path level on classes shared across
subgraphs, and graph level on those classes within each subgraph, with
softmaxes and means weighted by counts; attention records are mapped back
to nodes.
All three attention distributions are proper (nonnegative, sum to one), and
the whole composition is differentiable through the numerics layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np
from scipy import sparse

from . import features as ft
from . import numerics as nm
from .graph import EDGE_GROUPS, NUM_EDGE_TYPES, EntityType, GraphError
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
    a = _metapath_matrix(tsg, mp)
    i = tsg.graph.node_index().get(node_id)
    if i is None:
        raise GraphError(f"unknown node {node_id!r}")
    ids = tsg.node_ids
    return {ids[k] for k in a.indices[a.indptr[i]:a.indptr[i + 1]]}


def metapath_pairs(tsg: TechniqueSubgraph, mp: str) -> tuple[np.ndarray, np.ndarray]:
    """(source_row, target_row) index arrays for all neighbor pairs of ``mp``.

    Node k neighbors node i when i launched k (MP1) or both act on one
    object (MP2-MP4), and every node neighbors itself. Pairs are ordered by
    target node then by source node: the CSR listing of the subgraph's
    neighbour matrix (:func:`_neighbour_matrix`).
    """
    ((src, dst, _),) = _row_blocks(_metapath_matrix(tsg, mp), tsg.n_nodes)
    return src.astype(np.intp), dst


def _metapath_matrix(tsg: TechniqueSubgraph, mp: str) -> sparse.csr_matrix:
    if mp not in META_PATHS:
        raise ValueError(f"unknown meta-path {mp!r}")
    return _neighbour_matrix(*tsg.graph.edge_arrays(), tsg.n_nodes, (mp,))


def _neighbour_matrix(src: np.ndarray, dst: np.ndarray, etype: np.ndarray, n: int,
                      metapaths: Sequence[str]) -> sparse.csr_matrix:
    """Binary (P·n, n) CSR whose row j·n + i lists the neighbours of node
    row i under ``metapaths[j]``, i itself included.

    It is one product ``L @ R``. L links row j·n + s to column j·n + o for
    every edge s -> o on meta-path j, and every row j·n + i to column
    P·n + i, its own id. R maps column j·n + o to the nodes that reach o:
    the subjects acting on the object o (MP2-MP4) or the launched process o
    itself (MP1); and column P·n + i to i. The product counts shared objects
    and repeated edges, so it is binarised to count each neighbour once.
    """
    p = len(metapaths)
    path_of = np.full(NUM_EDGE_TYPES + 1, -1)
    for j, mp in enumerate(metapaths):
        path_of[list(EDGE_GROUPS[_MP_OBJECT[mp]])] = j
    j = path_of[etype]
    on = j >= 0
    j, subject, obj = j[on], src[on], dst[on]
    launched = np.array([mp == "MP1" for mp in metapaths])[j]
    own = np.arange(n)
    left = _csr(np.concatenate([j * n + subject, np.arange(p * n)]),
                np.concatenate([j * n + obj, np.tile(p * n + own, p)]),
                (p * n, (p + 1) * n))
    right = _csr(np.concatenate([j * n + obj, p * n + own]),
                 np.concatenate([np.where(launched, obj, subject), own]),
                 ((p + 1) * n, n))
    a = left @ right
    a.data[:] = 1.0
    return a


def _csr(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int],
         values: np.ndarray | None = None) -> sparse.csr_matrix:
    """CSR with ``values[m]`` (default 1) at every (rows[m], cols[m]);
    repeated cells add up."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    values = np.ones(len(rows)) if values is None else values[order]
    return sparse.csr_matrix((values, cols[order], indptr), shape=shape)


def _row_blocks(a: sparse.csr_matrix, n: int) -> list[tuple[np.ndarray, ...]]:
    """(column, row, value) arrays of the entries of each block of ``n`` rows
    of ``a``, ordered by row then column (``a`` is sorted in place); rows
    count from the block's first."""
    a.sort_indices()
    row = np.repeat(np.arange(a.shape[0]) % n, np.diff(a.indptr))
    bounds = a.indptr[::n]
    return [(a.indices[lo:hi], row[lo:hi], a.data[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass
class HanConfig:
    """Shapes and switches for the attention encoder."""

    dim: int = 128  # hidden and output width
    metapaths: tuple[str, ...] = META_PATHS
    seed: int = 0

    # each meta-path is one band of the neighbour matrix and one block of
    # path level, keyed by name
    RANGES: ClassVar = {
        "dim": nm.at_least(1),
        "metapaths": nm.Range(
            f"a non-empty list drawn from {', '.join(META_PATHS)} with no repeated meta-paths",
            lambda v: isinstance(v, (list, tuple)) and all(mp in META_PATHS for mp in v)
            and 0 < len(set(v)) == len(v)),
        "seed": nm.SEED,
    }

    def __post_init__(self):
        nm.check_fields(self, self.RANGES)
        self.metapaths = tuple(self.metapaths)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "HanConfig":
        return cls(**ft.without_retired(payload, "slope", "feature_dim", "log1p_features"))


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
    """Technique subgraphs stacked into three sets of rows, one per attention
    level, each the smallest that still decides its level.

    A node's output at node level and path level depends only on its own
    feature row and, under every meta-path, on the multiset of its
    neighbours' feature rows: the 1-WL argument of Xu et al., "How Powerful
    are Graph Neural Networks?" (ICLR 2019). So:

    - ``features`` holds the batch's distinct feature rows, and the
      projection and both halves of each ``att_w_<mp>`` run on them.
    - Shared classes group nodes with one feature row and, per meta-path,
      one count of neighbours per feature row, whatever their subgraph.
      Node level and path level run on them. ``pairs[mp]`` lists, per shared
      class, its first node's meta-path neighbours as (source feature row,
      target feature row, target shared class) rows, collapsed and ordered
      by target then source, and ``pair_weights[mp]`` counts the neighbours
      each row stands for; attention weighted by the counts gives every
      softmax its value over nodes. ``node_of`` maps each row of path
      level's path-major stack to its shared class.
    - Classes are (subgraph, shared class) pairs, and graph level runs on
      them: ``shared_of`` maps each to its shared class, ``graph_of`` to its
      subgraph, and ``sizes`` counts its nodes, which weight graph level's
      mean and softmax.

    Shared classes and classes are numbered by first node, taking the
    subgraphs' nodes in order; feature rows by their bytes. At seed 0 the
    default training batch has 410 nodes, 48 feature rows, 104 shared
    classes and 184 classes. The indices keep their scatter matrices and the
    weights are checked once, so a batch built once serves every epoch of a
    training run.

    No pair is listed per node. One sparse product gives the binary
    neighbour matrix A of every meta-path over the stacked node rows
    (:func:`_neighbour_matrix`), and ``A @ onehot(feature row)`` counts each
    node's neighbours per feature row: those counts key the shared classes,
    and their rows at the shared classes' first nodes are the pairs. For
    :meth:`record_nodes`, ``node_row``, ``node_shared`` and ``node_class``
    give every node's feature row, shared class and class, and ``edges``
    every edge as (source, target, edge type) arrays offset into the node
    block.
    """

    def __init__(self, subgraphs: Sequence[TechniqueSubgraph], config: HanConfig):
        if not subgraphs:
            raise ValueError("cannot embed an empty batch of subgraphs")
        sizes = [tsg.n_nodes for tsg in subgraphs]
        offsets = np.cumsum([0] + sizes[:-1])
        n, n_graphs, p = sum(sizes), len(sizes), len(config.metapaths)
        x = ft.scale_features(np.vstack([tsg.features() for tsg in subgraphs]))
        edges = [tsg.graph.edge_arrays() for tsg in subgraphs]
        self.edges = (np.concatenate([s + o for (s, _, _), o in zip(edges, offsets)]),
                      np.concatenate([d + o for (_, d, _), o in zip(edges, offsets)]),
                      np.concatenate([t for _, _, t in edges]))
        a = _neighbour_matrix(*self.edges, n, config.metapaths)
        # nodes whose feature rows are equal byte for byte share a feature row
        rows = x.view(np.dtype((np.void, 8 * x.shape[1])))
        _, first_row, self.node_row = np.unique(rows.ravel(), return_index=True,
                                                return_inverse=True)
        k_row = len(first_row)
        # a node's shared key: its feature row and, per meta-path j, how many
        # of its neighbours have each feature row (row j·n + i of counts,
        # moved to columns of its own band j)
        own = np.arange(n)
        counts = a @ _csr(own, self.node_row, (n, k_row))
        counts.sort_indices()
        per_row = np.diff(counts.indptr)
        band = np.repeat(k_row * np.arange(1, p + 1), n)
        node = np.repeat(np.tile(own, p), per_row)  # the node of each entry
        self.node_shared, first = ft._row_classes(_csr(
            np.concatenate([own, node]),
            np.concatenate([self.node_row, counts.indices + np.repeat(band, per_row)]),
            (n, (1 + p) * k_row),
            np.concatenate([np.ones(n), counts.data])))
        s = len(first)
        self.pairs, self.pair_weights = {}, {}
        # the entries of the shared classes' first nodes, which ascend with
        # their classes: in band j, how many neighbours shared class t's
        # first node has with each feature row under meta-path j
        is_first = np.zeros(n, dtype=bool)
        is_first[first] = True
        keep = np.flatnonzero(is_first[node])
        bounds = np.searchsorted(keep, counts.indptr[n * np.arange(p + 1)])
        for mp, lo, hi in zip(config.metapaths, bounds[:-1], bounds[1:]):
            at = keep[lo:hi]
            self.pairs[mp] = (nm.RowIndex(counts.indices[at], k_row),
                              nm.RowIndex(self.node_row[node[at]], k_row),
                              nm.RowIndex(self.node_shared[node[at]], s))
            self.pair_weights[mp] = nm.RowWeights(counts.data[at])
        self.node_of = nm.RowIndex(np.tile(np.arange(s), p), s)
        # a class: a shared class within one subgraph
        graph_of = np.repeat(np.arange(n_graphs), sizes)
        _, first, inverse = np.unique(graph_of * s + self.node_shared,
                                      return_index=True, return_inverse=True)
        self.node_class, first = ft._by_first_row(inverse, first)
        self.features = nm.Matrix(x[first_row])
        self.shared_of = nm.RowIndex(self.node_shared[first], s)
        self.graph_of = nm.RowIndex(graph_of[first], n_graphs)
        self.sizes = nm.RowWeights(np.bincount(self.node_class).astype(np.float64))

    def record_nodes(self, attention: "AttentionRecord", alpha: Mapping[str, nm.Matrix],
                     beta: nm.Matrix, gamma: nm.Matrix) -> None:
        """Write one forward's attention into ``attention``, node by node.

        A node pair's α is the α of the pair row (source's feature row,
        target's shared class), over that row's count: the nodes the row
        stands for share its logit, and the softmax weights it by its count,
        so this is the α a forward over nodes gives. A node's β row is its
        shared class's row, and its γ is its class's γ over the class size.
        The node pairs are listed here, as :func:`metapath_pairs` lists them,
        and nowhere else.
        """
        n, k_row, s = len(self.node_row), self.features.rows, self.shared_of.size
        node_pairs = _row_blocks(_neighbour_matrix(*self.edges, n, tuple(self.pairs)), n)
        for (mp, (src_row, _, dst)), (src, node_dst, _) in zip(self.pairs.items(),
                                                              node_pairs):
            values = alpha[mp].value[:, 0] / self.pair_weights[mp].values
            table = _csr(dst.ids, src_row.ids, (s, k_row), values)
            at = table[self.node_shared[node_dst], self.node_row[src]]
            attention.alpha[mp] = (np.asarray(at).ravel(), node_dst)
        attention.beta = beta.value.reshape(len(self.pairs), -1).T[self.node_shared]
        attention.gamma = (gamma.value[0] / self.sizes.values)[self.node_class]


def pair_scores(projected: nm.Matrix, src, dst, att_w, att_a) -> nm.Matrix:
    """Node-level attention logit of every (source, target) row pair, (m, 1).

    Equals ``leaky(concat(e_src, e_dst) @ att_w) @ att_aᵀ`` but multiplies
    the rows by the top and bottom halves of ``att_w`` before gathering, so
    the matmuls run over rows rather than pairs.
    """
    d = projected.cols
    top = nm.matmul(projected, nm.slice_rows(att_w, 0, d))
    bottom = nm.matmul(projected, nm.slice_rows(att_w, d, 2 * d))
    z = nm.add(nm.gather_rows(top, src), nm.gather_rows(bottom, dst))
    return nm.matmul(nm.leaky_relu(z), nm.transpose(att_a))


def _node_level(projected, pairs: tuple[nm.RowIndex, ...], att_w, att_a, weights):
    """Node-level attention over ``pairs`` (source row, target row, target):
    a softmax per target over its pairs' logits and a sum of their source
    rows, one output row per target."""
    src, dst_row, dst = pairs
    alpha = nm.segment_softmax(pair_scores(projected, src, dst_row, att_w, att_a), dst,
                               dst.size, weights)
    h = nm.leaky_relu(
        nm.segment_sum(nm.mul(alpha, nm.gather_rows(projected, src)), dst, dst.size)
    )
    return h, alpha


def path_level_fuse(per_path: Sequence[nm.Matrix], path_w, path_b, path_q,
                    node_of: nm.RowIndex):
    """Blend per-meta-path node vectors with softmax weights per node.

    Returns (fused, beta). The blocks are stacked path after path, so row
    j·n + i of the (P·n, 1) column beta is node i's weight on path j; each
    node's weights sum to one. ``node_of`` maps each stacked row to its node
    (a batch keeps one).
    """
    if not per_path:
        raise ValueError("need at least one meta-path vector set")
    n = per_path[0].rows
    stacked = nm.concat_rows(per_path)
    hidden = nm.tanh(nm.add(nm.matmul(stacked, path_w), path_b))
    scores = nm.matmul(hidden, nm.transpose(path_q))
    beta = nm.segment_softmax(scores, node_of, n)
    fused = nm.segment_sum(nm.mul(beta, stacked), node_of, n)
    return fused, beta


def graph_level_embed(node_vectors: nm.Matrix, ctx_w, graph_of: nm.RowIndex,
                      sizes: nm.RowWeights):
    """Context-weighted sum of node vectors into one vector per subgraph.

    ``graph_of`` maps each row to its subgraph, and ``sizes`` gives the
    number of nodes each row stands for (a batch's class sizes). Returns
    (h, gamma): h holds one row per subgraph, and gamma, a (1, n) row, is the
    softmax within each subgraph of its nodes' inner products with the
    tanh-transformed mean context of that subgraph.
    """
    counts = np.bincount(graph_of.ids, sizes.values, graph_of.size)
    if node_vectors.rows == 0 or not counts.all():
        raise ValueError("cannot embed an empty node set")
    k = graph_of.size
    nodes = nm.mul(node_vectors, sizes.values[:, None])
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

    ``params`` may hold constant matrices (inference, as a trained
    :class:`~provrec.matching.SiameseModel` wraps its weights), tape-registered
    matrices (training) or plain arrays; gradients flow through every stage. ``attention`` is filled node
    by node (:meth:`SubgraphBatch.record_nodes`).
    """
    projected = nm.matmul(batch.features, params["proj"])
    per_path, alpha = [], {}
    for mp in config.metapaths:
        h_mp, alpha[mp] = _node_level(
            projected, batch.pairs[mp], params[f"att_w_{mp}"], params[f"att_a_{mp}"],
            batch.pair_weights[mp],
        )
        per_path.append(h_mp)

    fused, beta = path_level_fuse(
        per_path, params["path_w"], params["path_b"], params["path_q"],
        batch.node_of,
    )
    h, gamma = graph_level_embed(nm.gather_rows(fused, batch.shared_of), params["ctx_w"],
                                 batch.graph_of, batch.sizes)
    if attention is not None:
        batch.record_nodes(attention, alpha, beta, gamma)
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
    are the subgraph's own. The batch is built on each call; a caller that
    runs many forwards on one subgraph builds its :class:`SubgraphBatch`
    once and calls :func:`embed_batch`.
    """
    return embed_batch(SubgraphBatch([tsg], config), params, config, attention)
