"""Behavioral node features and the self-supervised node-type encoder.

Each node gets a 42-dim count vector (incoming then outgoing edges per edge
type). A stack of mean-aggregation layers is then trained to classify node
types; the trained stack serves as a feature extractor whose output feeds
outlier detection.
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
    ReLU; ``agg`` is the graph's :func:`aggregation_matrix`, and
    ``slope=1.0`` makes the layer linear."""
    return nm.leaky_relu(nm.spmm(agg, nm.matmul(e_in, w)), slope)


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

    Deterministic under ``config.seed``; :func:`numerics.descend` raises if
    training goes non-finite (reduce the learning rate).
    """
    labels = node_type_labels(graph)
    if len(set(labels.tolist())) < 2:
        raise ValueError("training needs at least two node types present")
    if config.t_layers < 1:
        raise ValueError("at least one layer is required")
    e0 = np.asarray(e0, dtype=np.float64)
    if e0.shape[0] != graph.n_nodes:
        raise ValueError("feature rows must align with graph nodes")

    x = nm.Matrix(scale_features(e0, config.log1p))
    agg = aggregation_matrix(graph)
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
        h = x
        for w in layer_params:
            h = gnn_layer_forward(agg, h, w, slope=config.slope)
        return nm.softmax_cross_entropy(nm.matmul(h, classifier), labels)

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
    agg = aggregation_matrix(graph)
    for w in encoder.weights:
        h = gnn_layer_forward(agg, h, w, slope=encoder.config.slope)
    return h.value


def type_accuracy(encoder: GnnEncoder, graph: ProvenanceGraph, e0: np.ndarray) -> float:
    """Fraction of nodes whose type the classifier head gets right."""
    h = extract_embeddings(encoder, graph, e0)
    pred = (h @ encoder.classifier).argmax(axis=1)
    return float((pred == node_type_labels(graph)).mean())
