"""Behavioral node features and the self-supervised node-type encoder.

Each node gets a 42-dim count vector (incoming then outgoing edges per edge
type). A stack of mean-aggregation layers is then trained to classify node
types; the trained stack serves as a feature extractor whose output feeds
outlier detection.

Training runs on node classes rather than nodes. A mean-aggregation stack
of ``t`` layers cannot tell apart two nodes that ``t`` rounds of colour
refinement (the 1-WL test) leave in one class, so each layer is computed
once per class: the ≈7,000-node training union has only ≈300 classes.
Inference runs the same layers on the full per-node aggregation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from scipy import sparse

from . import numerics as nm
from .graph import NUM_EDGE_TYPES, EntityType, ProvenanceGraph

FEATURE_DIM = 2 * NUM_EDGE_TYPES  # 42

NODE_TYPE_ORDER = (
    EntityType.PROCESS,
    EntityType.FILE,
    EntityType.REGISTRY,
    EntityType.SOCKET,
)
NODE_TYPE_INDEX = {t: i for i, t in enumerate(NODE_TYPE_ORDER)}


def init_features(graph: ProvenanceGraph) -> np.ndarray:
    """Per-node edge-type counts: columns 0..20 incoming, 21..41 outgoing.

    Rows follow the graph's node order; row sums equal total degree.
    """
    src, dst, etype = graph.edge_arrays()
    out = np.zeros((graph.n_nodes, FEATURE_DIM))
    np.add.at(out, (dst, etype - 1), 1.0)
    np.add.at(out, (src, NUM_EDGE_TYPES + etype - 1), 1.0)
    return out


def node_type_labels(graph: ProvenanceGraph) -> np.ndarray:
    return np.array(
        [NODE_TYPE_INDEX[n.entity_type] for n in graph.nodes.values()], dtype=np.intp
    )


def scale_features(e0: np.ndarray, enabled: bool = True) -> np.ndarray:
    """Optional log1p squashing of raw counts before the first layer."""
    return np.log1p(e0) if enabled else np.asarray(e0, dtype=np.float64)


def aggregation_matrix(graph: ProvenanceGraph) -> sparse.csr_matrix:
    """Row i averages node i with its unique in-neighbors (self included)."""
    n = graph.n_nodes
    src, dst, _ = graph.edge_arrays()
    links = sparse.csr_matrix((np.ones(len(src)), (dst, src)), shape=(n, n))
    agg = links + sparse.identity(n, format="csr")
    agg.sort_indices()
    counts = np.diff(agg.indptr)
    agg.data = np.repeat(1.0 / counts, counts)
    return agg


def gnn_layer_forward(agg, e_in, w, *, slope: float = 0.01) -> nm.Matrix:
    """One layer: mean over self + in-neighbors of (features @ W), then leaky
    ReLU; ``agg`` is the graph's :func:`aggregation_matrix` (or a layer
    operator of :func:`class_operators`), and ``slope=1.0`` makes the layer
    linear."""
    return nm.leaky_relu(nm.spmm(agg, nm.matmul(e_in, w)), slope)


def _layer_stack(operators, h, weights, slope: float) -> nm.Matrix:
    """The encoder's layers in order, layer t aggregating with ``operators[t]``."""
    for op, w in zip(operators, weights):
        h = gnn_layer_forward(op, h, w, slope=slope)
    return h


def _row_classes(rows: sparse.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Class of each row of ``rows`` and the first row of each class.

    Two rows share a class exactly when their stored column indices and
    values are equal byte for byte (explicit zeros count). Classes are
    numbered in the order of their first row. Keys are built once per
    distinct row length, never per row. ``rows`` is put in canonical form
    (sorted column indices, one entry per column) in place.
    """
    rows.sum_duplicates()
    lengths = np.diff(rows.indptr)
    classes = np.empty(rows.shape[0], dtype=np.intp)
    firsts, offset = [], 0
    for m in np.unique(lengths).tolist():
        members = np.flatnonzero(lengths == m)
        slots = rows.indptr[members][:, None] + np.arange(m)
        # the leading length column keeps an empty row a valid 8-byte key
        keys = np.concatenate(
            [np.full((len(members), 1), m, dtype=np.int64),
             rows.indices[slots].astype(np.int64),
             (rows.data[slots] + 0.0).view(np.int64)],
            axis=1,
        )
        keys = np.ascontiguousarray(keys).view(np.dtype((np.void, 8 + 16 * m))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        classes[members] = offset + inverse.reshape(-1)
        firsts.append(members[first])
        offset += len(first)
    firsts = np.concatenate(firsts)
    order = np.argsort(firsts)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[classes], firsts[order]


def class_operators(
    agg: sparse.csr_matrix, x: np.ndarray, t_layers: int
) -> tuple[np.ndarray, list[sparse.csr_matrix], np.ndarray]:
    """Class-level inputs of a ``t_layers`` stack over ``agg``.

    Round 0 puts nodes with equal rows of ``x`` in one class. Round t forms
    ``Q_t = agg @ onehot(classes of round t-1)`` and puts nodes with equal
    ``Q_t`` rows in one class; since layer t of a node reads only its
    ``Q_t`` row, nodes of one class get the same layer output exactly. Each
    class keeps the ``Q_t`` row of its first node, so layer t runs on a
    ``k_t × k_{t-1}`` operator. Returns the class rows of ``x``, the
    ``t_layers`` operators and each node's class after the last round.

    Exactly ``t_layers`` rounds run, whether or not the classes have
    settled: a chain would need one round per node to settle.
    """
    n = agg.shape[0]
    classes, first = _row_classes(sparse.csr_matrix(x))
    x_rows = np.asarray(x, dtype=np.float64)[first]
    operators = []
    for _ in range(t_layers):
        onehot = sparse.csr_matrix(
            (np.ones(n), classes, np.arange(n + 1)), shape=(n, len(first))
        )
        q = sparse.csr_matrix(agg @ onehot)
        classes, first = _row_classes(q)
        operators.append(q[first])
    return x_rows, operators, classes


@dataclass
class EncoderConfig:
    t_layers: int = 2
    hidden: int = 64
    epochs: int = 300
    lr: float = 0.5  # full-batch descent; smaller steps stall at desk scale
    seed: int = 0
    log1p: bool = True
    slope: float = 0.01


class GnnEncoder:
    """Trained layer stack plus the node-type classifier head.

    ``weights[t]`` maps layer t-1 output width to ``hidden``; ``classifier``
    maps hidden to the four node types.
    """

    def __init__(
        self,
        config: EncoderConfig,
        weights: list[np.ndarray],
        classifier: np.ndarray,
        loss_curve: list[float] | None = None,
    ):
        self.config = config
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.classifier = np.asarray(classifier, dtype=np.float64)
        self.loss_curve = list(loss_curve) if loss_curve else []

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "shapes": [list(w.shape) for w in self.weights]
            + [list(self.classifier.shape)],
            "weights": [w.reshape(-1).tolist() for w in self.weights],
            "classifier": self.classifier.reshape(-1).tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GnnEncoder":
        cfg = EncoderConfig(**payload["config"])
        shapes = payload["shapes"]
        weights = [
            np.array(flat, dtype=np.float64).reshape(shape)
            for flat, shape in zip(payload["weights"], shapes[:-1])
        ]
        classifier = np.array(payload["classifier"], dtype=np.float64).reshape(
            shapes[-1]
        )
        return cls(cfg, weights, classifier)


def _init_weight(rng: nm.Rng, fan_in: int, fan_out: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))


def train_encoder(
    graph: ProvenanceGraph, e0: np.ndarray, config: EncoderConfig
) -> GnnEncoder:
    """Fit the stack on node-type classification by full-batch descent.

    The layers run on the node classes of :func:`class_operators`. The loss
    has one row per (class, node type) pair, weighted by the pair's node
    count, so it is the mean over nodes. Deterministic under ``config.seed``;
    :func:`numerics.descend` raises if training goes non-finite (reduce the
    learning rate).
    """
    labels = node_type_labels(graph)
    if len(set(labels.tolist())) < 2:
        raise ValueError("training needs at least two node types present")
    if config.t_layers < 1:
        raise ValueError("at least one layer is required")
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[0] != graph.n_nodes:
        raise ValueError("feature rows must align with graph nodes")

    x_rows, operators, classes = class_operators(
        aggregation_matrix(graph), scale_features(e0, config.log1p), config.t_layers
    )
    x = nm.Matrix(x_rows)
    # one loss row per (class, node type) pair, weighted by its node count
    n_types = len(NODE_TYPE_ORDER)
    pairs, counts = np.unique(classes * n_types + labels, return_counts=True)
    pair_class, pair_label = np.divmod(pairs, n_types)
    pair_rows = nm.RowIndex(pair_class, operators[-1].shape[0])
    rng = nm.Rng(config.seed).split("encoder-init")

    tape = nm.GradientTape()
    widths = [x.cols] + [config.hidden] * config.t_layers
    layer_params = [
        tape.parameter(f"w{t}", _init_weight(rng, widths[t], widths[t + 1]))
        for t in range(config.t_layers)
    ]
    classifier = tape.parameter(
        "classifier", _init_weight(rng, config.hidden, len(NODE_TYPE_ORDER))
    )

    def loss_fn():
        h = _layer_stack(operators, x, layer_params, config.slope)
        logits = nm.gather_rows(nm.matmul(h, classifier), pair_rows)
        return nm.softmax_cross_entropy(logits, pair_label, counts)

    losses = nm.descend(tape, loss_fn, config.epochs, config.lr)

    return GnnEncoder(
        config,
        [p.value.copy() for p in layer_params],
        classifier.value.copy(),
        losses,
    )


def extract_embeddings(
    encoder: GnnEncoder, graph: ProvenanceGraph, e0: np.ndarray
) -> np.ndarray:
    """Run the trained stack through the training forward; rows follow the
    graph's node order."""
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape != (graph.n_nodes, encoder.input_dim):
        raise ValueError(
            f"features of shape {e0.shape} do not fit encoder input "
            f"({graph.n_nodes}, {encoder.input_dim})"
        )
    h = nm.Matrix(scale_features(e0, encoder.config.log1p))
    operators = [aggregation_matrix(graph)] * len(encoder.weights)
    return _layer_stack(operators, h, encoder.weights, encoder.config.slope).value


def type_accuracy(encoder: GnnEncoder, graph: ProvenanceGraph, e0: np.ndarray) -> float:
    """Fraction of nodes whose type the classifier head gets right."""
    h = extract_embeddings(encoder, graph, e0)
    pred = (h @ encoder.classifier).argmax(axis=1)
    return float((pred == node_type_labels(graph)).mean())
