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
from typing import ClassVar, Mapping

import numpy as np
from scipy import sparse

from . import numerics as nm
from .graph import ENTITY_TYPES, NUM_EDGE_TYPES, ProvenanceGraph

FEATURE_DIM = 2 * NUM_EDGE_TYPES  # 42


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
    return graph.type_codes().astype(np.intp)


def scale_features(e0: np.ndarray) -> np.ndarray:
    """log1p squashing of raw counts before the first layer; every encoder
    input goes through here."""
    return np.log1p(e0)


def aggregation_matrix(graph: ProvenanceGraph) -> sparse.csr_matrix:
    """Row i averages node i with its unique in-neighbors (self included)."""
    n = graph.n_nodes
    src, dst, _ = graph.edge_arrays()
    # cell (i, j) has key i·n + j, so the sorted distinct keys of the edges
    # and the diagonal list the matrix row by row, columns ascending
    cells = np.unique(np.concatenate([dst * n + src, np.arange(n) * (n + 1)]))
    row, col = np.divmod(cells, n)
    counts = np.bincount(row, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return sparse.csr_matrix((np.repeat(1.0 / counts, counts), col, indptr), shape=(n, n))


def gnn_layer_forward(agg, e_in, w) -> nm.Matrix:
    """One layer: mean over self + in-neighbors of (features @ W), then leaky
    ReLU; ``agg`` is the graph's :func:`aggregation_matrix` (or a layer
    operator of :func:`class_operators`)."""
    return nm.leaky_relu(nm.spmm(agg, nm.matmul(e_in, w)))


def _layer_stack(operators, h, weights) -> nm.Matrix:
    """The encoder's layers in order, layer t aggregating with ``operators[t]``."""
    for op, w in zip(operators, weights):
        h = gnn_layer_forward(op, h, w)
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
    return _by_first_row(classes, np.concatenate(firsts))


def _by_first_row(classes: np.ndarray, firsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``classes`` renumbered in the order of their first rows, and those
    rows ascending; ``firsts[k]`` is the first row of class k."""
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

    RANGES: ClassVar = {"t_layers": nm.at_least(1), "hidden": nm.at_least(1),
                        "epochs": nm.at_least(0), "lr": nm.POSITIVE, "seed": nm.SEED}

    def __post_init__(self):
        nm.check_fields(self, self.RANGES)


class GnnEncoder:
    """Trained layer stack plus the node-type classifier head.

    ``weights[t]`` maps layer t-1 output width to ``hidden``; ``classifier``
    maps hidden to the four node types. Weights of other shapes are refused.
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
        h = config.hidden
        shapes = [w.shape for w in self.weights] + [self.classifier.shape]
        # the first layer's input width is the features'
        chain = [shapes[0][:1] + (h,)] + [(h, h)] * (config.t_layers - 1)
        if shapes != chain + [(h, len(ENTITY_TYPES))]:
            raise ValueError(f"weight shapes {shapes} do not fit t_layers="
                             f"{config.t_layers}, hidden={h} and the classifier")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "shapes": [list(w.shape) for w in self.weights]
            + [list(self.classifier.shape)],
            "weights": [nm.encode_array(w) for w in self.weights],
            "classifier": nm.encode_array(self.classifier),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GnnEncoder":
        cfg = EncoderConfig(**without_retired(payload["config"], "slope", "log1p"))
        shapes = payload["shapes"]
        weights = [nm.decode_array(flat, shape)
                   for flat, shape in zip(payload["weights"], shapes[:-1], strict=True)]
        return cls(cfg, weights, nm.decode_array(payload["classifier"], shapes[-1]))


# What older checkpoints stored for settings that are now fixed: every layer's
# leaky ReLU slope (numerics' default), the feature width, log1p scaling of
# the counts (once ``log1p`` and ``log1p_features``) and the matcher distance.
_RETIRED = {"slope": 0.01, "feature_dim": FEATURE_DIM, "log1p": True,
            "log1p_features": True, "distance": "euclidean"}


def without_retired(config: Mapping, *keys: str) -> dict:
    """``config`` without ``keys``, settings older checkpoints stored that now
    have one value; a stored value other than that one is refused."""
    data = dict(config)
    for key in keys:
        value = data.pop(key, _RETIRED[key])
        if value != _RETIRED[key]:
            raise ValueError(f"{key}={value!r} is not supported; it is fixed at "
                             f"{_RETIRED[key]!r}")
    return data


def init_weight(rng: nm.Rng, fan_in: int, fan_out: int) -> np.ndarray:
    """A (fan_in, fan_out) weight drawn from N(0, 1/sqrt(fan_in))."""
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
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[0] != graph.n_nodes:
        raise ValueError("feature rows must align with graph nodes")

    x_rows, operators, classes = class_operators(
        aggregation_matrix(graph), scale_features(e0), config.t_layers
    )
    x = nm.Matrix(x_rows)
    # one loss row per (class, node type) pair, weighted by its node count
    n_types = len(ENTITY_TYPES)
    pairs, counts = np.unique(classes * n_types + labels, return_counts=True)
    pair_class, pair_label = np.divmod(pairs, n_types)
    pair_rows = nm.RowIndex(pair_class, operators[-1].shape[0])
    rng = nm.Rng(config.seed).split("encoder-init")

    tape = nm.GradientTape()
    widths = [x.cols] + [config.hidden] * config.t_layers
    layer_params = [
        tape.parameter(f"w{t}", init_weight(rng, widths[t], widths[t + 1]))
        for t in range(config.t_layers)
    ]
    classifier = tape.parameter(
        "classifier", init_weight(rng, config.hidden, len(ENTITY_TYPES))
    )

    def loss_fn():
        h = _layer_stack(operators, x, layer_params)
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
    """Run the trained stack through the training forward, on one BLAS
    thread; rows follow the graph's node order."""
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape != (graph.n_nodes, encoder.input_dim):
        raise ValueError(
            f"features of shape {e0.shape} do not fit encoder input "
            f"({graph.n_nodes}, {encoder.input_dim})"
        )
    h = nm.Matrix(scale_features(e0))
    operators = [aggregation_matrix(graph)] * len(encoder.weights)
    with nm.one_blas_thread():
        return _layer_stack(operators, h, encoder.weights).value


def type_accuracy(encoder: GnnEncoder, graph: ProvenanceGraph, e0: np.ndarray) -> float:
    """Fraction of nodes whose type the classifier head gets right."""
    h = extract_embeddings(encoder, graph, e0)
    pred = (h @ encoder.classifier).argmax(axis=1)
    return float((pred == node_type_labels(graph)).mean())
