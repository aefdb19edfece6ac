"""Few-shot technique recognition with twin encoders and contrastive training.

Both branches share one attention encoder, run on node classes in training
and recognition alike, plus a fully connected projection; pairs derived from
anchor/positive/negative triplets are pushed together or apart by the
contrastive loss. Inference matches a query subgraph against one cached
representative per known technique, so new techniques can be added without
touching the trained weights.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import numerics as nm
from .embedding import (
    HanConfig,
    SubgraphBatch,
    embed_batch,
    embed_subgraph,  # noqa: F401 (perfbench's traced run wraps it here)
    han_param_shapes,
    init_han_params,
)
from .features import init_weight, without_retired
from .sampling import TechniqueSubgraph

UNKNOWN = "UNKNOWN"


def contrastive_loss(distance: float, same_class: bool, margin: float = 1.0) -> float:
    """Squared distance for same-class pairs, hinge on the margin otherwise.

    ``margin=0`` is legal here (the negative-pair loss is then identically
    zero); trained models require a strictly positive margin. NaN is
    refused for either.
    """
    if not distance >= 0:
        raise ValueError(f"distance must be nonnegative, got {distance}")
    if not margin >= 0:
        raise ValueError(f"margin must be nonnegative, got {margin}")
    if same_class:
        return float(distance * distance)
    return float(max(0.0, margin - distance))


@dataclass(frozen=True)
class Triplet:
    """Indices of an anchor, a same-class positive, and an other-class negative."""

    anchor: int
    positive: int
    negative: int


def build_triplets(labels: Sequence[str], rng: nm.Rng) -> list[Triplet]:
    """One triplet per usable anchor, in dataset order.

    Singleton classes yield no anchors (warned once) but still serve as
    negatives. Needs at least two distinct classes.
    """
    labels = list(labels)
    if len(set(labels)) < 2:
        raise ValueError("triplet construction needs at least two classes")
    by_class: dict[str, list[int]] = {}
    for i, lab in enumerate(labels):
        by_class.setdefault(lab, []).append(i)
    for lab, members in by_class.items():
        if len(members) < 2:
            warnings.warn(
                f"class {lab!r} has a single sample; it yields no anchors",
                stacklevel=2,
            )
    triplets = []
    for i, lab in enumerate(labels):
        same = [j for j in by_class[lab] if j != i]
        if not same:
            continue
        other = [j for j, l in enumerate(labels) if l != lab]
        pos = same[int(rng.integers(len(same)))]
        neg = other[int(rng.integers(len(other)))]
        triplets.append(Triplet(i, pos, neg))
    return triplets


@dataclass
class MatcherConfig:
    han: HanConfig = field(default_factory=HanConfig)
    margin: float = 1.0
    epochs: int = 60
    lr: float = 0.05
    seed: int = 0

    RANGES: ClassVar = {"han": nm.Range("a HanConfig", lambda v: isinstance(v, HanConfig)),
                        "margin": nm.POSITIVE, "epochs": nm.at_least(0),
                        "lr": nm.POSITIVE, "seed": nm.SEED}

    def __post_init__(self):
        nm.check_fields(self, self.RANGES)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MatcherConfig":
        data = without_retired(payload, "distance")
        data["han"] = HanConfig.from_dict(data["han"])
        return cls(**data)


class SiameseModel:
    """Every matcher weight under one config: the shared attention encoder's
    and the projection head's. Twin outputs are compared by Euclidean
    distance."""

    def __init__(
        self,
        config: MatcherConfig,
        weights: Mapping[str, np.ndarray],
        loss_curve: list[float] | None = None,
    ):
        d = config.han.dim
        shapes = {**han_param_shapes(config.han), "out_w": (d, d), "out_b": (1, d)}
        unknown = sorted(set(weights) - set(shapes))
        if unknown:
            raise ValueError(f"unknown parameters {unknown}")
        self.config = config
        # frozen once trained, so each is wrapped once for every embed
        self._weights: dict[str, nm.Matrix] = {}
        for name, shape in shapes.items():
            if name not in weights:
                raise ValueError(f"missing parameter {name!r}")
            if np.shape(weights[name]) != shape:
                raise ValueError(f"parameter {name!r} has shape "
                                 f"{np.shape(weights[name])}, expected {shape}")
            self._weights[name] = nm.Matrix(weights[name], name=name)
        self.loss_curve = list(loss_curve) if loss_curve else []
        self._hash: str | None = None

    def embed(self, tsg: TechniqueSubgraph) -> np.ndarray:
        """Branch output of one subgraph.

        The one-subgraph batch is built afresh and dropped, so a query keeps
        no batch on itself.
        """
        return self.embed_many([tsg])[0]

    def embed_many(self, subgraphs: Sequence[TechniqueSubgraph]) -> np.ndarray:
        """Branch outputs of several subgraphs from one batched class forward,
        run on one BLAS thread."""
        han = self.config.han
        batch = SubgraphBatch(subgraphs, han)
        with nm.one_blas_thread():
            return branch(batch, self._weights, han).value

    def weights(self) -> dict[str, np.ndarray]:
        """Every weight by name: the encoder's, then ``out_w`` and ``out_b``."""
        return {name: m.value for name, m in self._weights.items()}

    def to_dict(self) -> dict:
        encoder = self.weights()
        out_w, out_b = encoder.pop("out_w"), encoder.pop("out_b")
        return {
            "config": asdict(self.config),
            "encoder": {
                "config": asdict(self.config.han),
                "params": {k: nm.encode_array(v) for k, v in encoder.items()},
                "shapes": {k: list(v.shape) for k, v in encoder.items()},
            },
            "out_w": nm.encode_array(out_w),
            "out_b": nm.encode_array(out_b),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SiameseModel":
        config = MatcherConfig.from_dict(payload["config"])
        encoder = payload["encoder"]
        if HanConfig.from_dict(encoder["config"]) != config.han:
            # the encoder's weights would be read under another shape table
            raise ValueError(f"encoder config {encoder['config']} differs from "
                             f"config.han {asdict(config.han)}")
        d = config.han.dim
        weights = {"out_w": nm.decode_array(payload["out_w"], (d, d)),
                   "out_b": nm.decode_array(payload["out_b"], (1, d))}
        for name in sorted(set(encoder["params"]) | set(encoder["shapes"])):
            if name in weights:
                raise ValueError(f"parameter {name!r} is stored twice")
            weights[name] = nm.decode_array(encoder["params"][name],
                                            encoder["shapes"][name])
        return cls(config, weights)

    def content_hash(self) -> str:
        """SHA-256 of both configs and every weight's name, shape, dtype and
        raw bytes: any change to a weight's last bit changes it."""
        # weights are frozen once training returns, so hash once
        if self._hash is None:
            configs = [asdict(self.config), asdict(self.config.han)]
            digest = hashlib.sha256(json.dumps(configs, sort_keys=True).encode("utf-8"))
            for name, value in sorted(self.weights().items()):
                digest.update(f"{name} {value.shape} {value.dtype}\n".encode("utf-8"))
                digest.update(value.tobytes())
            self._hash = digest.hexdigest()
        return self._hash


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance of every row of ``a`` to every row of ``b``."""
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))


def branch(batch: SubgraphBatch, weights: Mapping[str, nm.Matrix | np.ndarray],
           han: HanConfig) -> nm.Matrix:
    """One twin branch, the forward of training and recognition alike: the
    attention encoder over the batch, then the fully connected head; one row
    per subgraph. ``weights`` holds every matcher weight by name."""
    h = embed_batch(batch, weights, han)
    return nm.leaky_relu(nm.add(nm.matmul(h, weights["out_w"]), weights["out_b"]))


def pair_loss(
    ea: nm.Matrix, eb: nm.Matrix, same_class: bool, margin: float
) -> nm.Matrix:
    """Differentiable contrastive loss of each row pair of branch outputs,
    on their Euclidean distance.

    ``ea`` and ``eb`` hold one branch output per row; returns an (m, 1)
    column, 1x1 for a single pair. A negative pair at distance 0 has loss
    ``margin`` and gradient 0, through :func:`numerics.sqrt`'s gradient at 0.
    """
    diff = nm.sub(ea, eb)
    sq = nm.row_sums(nm.mul(diff, diff))
    if same_class:
        return sq  # no sqrt: its gradient is undefined at distance zero
    return nm.relu(nm.sub(nm.Matrix(margin), nm.sqrt(sq)))


def triplet_loss(
    z: nm.Matrix,
    anchor: nm.RowIndex,
    positive: nm.RowIndex,
    negative: nm.RowIndex,
    margin: float,
) -> nm.Matrix:
    """Mean pair loss over every triplet's anchor-positive and anchor-negative
    pairs; the triplets are given as rows of the branch outputs ``z``."""
    ea = nm.gather_rows(z, anchor)
    total = nm.add(
        nm.sum_all(pair_loss(ea, nm.gather_rows(z, positive), True, margin)),
        nm.sum_all(pair_loss(ea, nm.gather_rows(z, negative), False, margin)),
    )
    return nm.scale(total, 1.0 / (2 * len(anchor)))


def train_matcher(
    samples: Sequence[tuple[TechniqueSubgraph, str]], config: MatcherConfig
) -> SiameseModel:
    """Fit the shared encoder and projection on triplet-derived pairs.

    Triplets are drawn once from the seeded stream; each epoch takes one
    full-batch descent step on the mean pair loss, so the loss settles
    monotonically near convergence. Gradients reach the shared parameters
    through both branches of every pair. Every subgraph a triplet uses is
    embedded in one batched forward per epoch over the batch's feature rows
    and node classes (:class:`SubgraphBatch`), the forward inference runs:
    attention weighted by pair counts and class sizes gives each subgraph
    the vector a forward over its nodes gives, from fewer rows.
    """
    if not samples:
        raise ValueError("no training samples")
    subgraphs = [s for s, _ in samples]
    labels = [lab for _, lab in samples]
    rng = nm.Rng(config.seed)
    triplets = build_triplets(labels, rng.split("triplets"))
    if not triplets:
        raise ValueError("no valid triplets; every class is a singleton")

    d = config.han.dim
    init = init_han_params(config.han)
    init["out_w"] = init_weight(rng.split("head-init"), d, d)
    init["out_b"] = np.zeros((1, d))
    tape = nm.GradientTape()
    params = {name: tape.parameter(name, value) for name, value in init.items()}

    used = sorted({i for t in triplets for i in (t.anchor, t.positive, t.negative)})
    batch = SubgraphBatch([subgraphs[i] for i in used], config.han)
    row = {i: r for r, i in enumerate(used)}
    anchor, positive, negative = (
        nm.RowIndex([row[getattr(t, role)] for t in triplets], len(used))
        for role in ("anchor", "positive", "negative")
    )

    def loss_fn():
        z = branch(batch, params, config.han)
        return triplet_loss(z, anchor, positive, negative, config.margin)

    losses = nm.descend(tape, loss_fn, config.epochs, config.lr)
    # the model copies the values it wraps
    return SiameseModel(config, {name: p.value for name, p in params.items()}, losses)


def pick_representative(
    samples: Sequence[TechniqueSubgraph], model: SiameseModel
) -> int:
    """Index of the medoid: minimal summed distance to the rest of the class.

    The class is embedded in one batched forward; ties go to the lowest index.
    """
    if not samples:
        raise ValueError("cannot pick a representative from an empty class")
    embeddings = model.embed_many(samples)
    return int(np.argmin(distances(embeddings, embeddings).sum(axis=1)))


@dataclass
class Exemplar:
    technique: str
    tactic: str
    subgraph: TechniqueSubgraph
    embedding: np.ndarray
    model_hash: str

    def to_dict(self) -> dict:
        return {
            "technique": self.technique,
            "tactic": self.tactic,
            "subgraph": self.subgraph.to_dict(),
            "embedding": nm.encode_array(self.embedding),
            "model_hash": self.model_hash,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Exemplar":
        return cls(
            payload["technique"],
            payload["tactic"],
            TechniqueSubgraph.from_dict(payload["subgraph"]),
            nm.decode_array(payload["embedding"], None),
            payload["model_hash"],
        )


class ExemplarSet:
    """One representative subgraph per technique, embeddings cached.

    Cached embeddings carry the hash of the model that produced them and are
    recomputed transparently when a different model is supplied.
    """

    def __init__(self):
        self._entries: dict[str, Exemplar] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def techniques(self) -> list[str]:
        return list(self._entries)

    def get(self, technique: str) -> Exemplar:
        return self._entries[technique]

    def add_class(
        self,
        technique: str,
        tactic: str,
        samples: Sequence[TechniqueSubgraph],
        model: SiameseModel,
    ) -> Exemplar:
        """Pick the class medoid as representative and cache its embedding."""
        idx = pick_representative(samples, model)
        return self.add_exemplar(technique, tactic, samples[idx], model)

    def add_exemplar(
        self,
        technique: str,
        tactic: str,
        subgraph: TechniqueSubgraph,
        model: SiameseModel,
    ) -> Exemplar:
        entry = Exemplar(
            technique, tactic, subgraph, model.embed(subgraph), model.content_hash()
        )
        self._entries[technique] = entry
        return entry

    def embeddings(self, model: SiameseModel) -> np.ndarray:
        """The cached embeddings as rows, in ``techniques()`` order; an entry
        cached by another model is embedded afresh first."""
        current = model.content_hash()
        for entry in self._entries.values():
            if entry.model_hash != current:
                entry.embedding = model.embed(entry.subgraph)
                entry.model_hash = current
        return np.array([entry.embedding for entry in self._entries.values()])

    def to_dict(self) -> dict:
        return {"exemplars": [e.to_dict() for e in self._entries.values()]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExemplarSet":
        out = cls()
        for entry in payload["exemplars"]:
            ex = Exemplar.from_dict(entry)
            if ex.technique in out._entries:
                raise ValueError(f"technique {ex.technique!r} has two exemplars")
            out._entries[ex.technique] = ex
        return out


@dataclass
class RecognitionResult:
    """Ascending-distance ranking over known techniques plus the decision."""

    ranking: list[tuple[str, str, float]]  # (technique, tactic, distance)
    decision: str
    decision_tactic: str | None

    def to_dict(self) -> dict:
        return {
            "ranking": [
                {"technique": t, "tactic": ta, "distance": d}
                for t, ta, d in self.ranking
            ],
            "decision": self.decision,
            "decision_tactic": self.decision_tactic,
        }


def recognize_many(
    subgraphs: Sequence[TechniqueSubgraph],
    exemplars: ExemplarSet,
    model: SiameseModel,
    unknown_threshold: float | None = None,
) -> list[RecognitionResult]:
    """Rank every cached representative by (distance, technique) for each
    query, all queries embedded in one batched forward. The decision is the
    nearest technique, or UNKNOWN when a threshold is set and even the
    nearest representative is farther than it."""
    if len(exemplars) == 0:
        raise ValueError("exemplar set is empty")
    if not subgraphs:
        return []
    dist = distances(model.embed_many(subgraphs), exemplars.embeddings(model))
    techniques = exemplars.techniques()
    tactics = [exemplars.get(tech).tactic for tech in techniques]
    results = []
    for row in dist.tolist():
        ranking = sorted(zip(techniques, tactics, row), key=lambda r: (r[2], r[0]))
        unknown = unknown_threshold is not None and ranking[0][2] > unknown_threshold
        results.append(RecognitionResult(
            ranking, *((UNKNOWN, None) if unknown else ranking[0][:2])))
    return results


def recognize(tsg: TechniqueSubgraph, exemplars: ExemplarSet, model: SiameseModel,
              unknown_threshold: float | None = None) -> RecognitionResult:
    """:func:`recognize_many` of one query."""
    return recognize_many([tsg], exemplars, model, unknown_threshold)[0]


def recognition_metrics(
    predictions: Sequence[RecognitionResult | None],
    truth: Sequence[tuple[str, str]],
) -> dict[str, float]:
    """Top-1 / top-3 technique accuracy and top-1 tactic accuracy.

    A ``None`` prediction (nothing was sampled for a query) counts as wrong
    everywhere. Rank-1 is read from the ranking even when the decision was
    UNKNOWN.
    """
    if len(predictions) != len(truth):
        raise ValueError(
            f"{len(predictions)} predictions vs {len(truth)} truth labels"
        )
    if not truth:
        raise ValueError("empty evaluation set")
    acc = top3 = tactic_acc = 0
    for pred, (true_tech, true_tactic) in zip(predictions, truth):
        if pred is None or not pred.ranking:
            continue
        top = pred.ranking[0]
        if top[0] == true_tech:
            acc += 1
        if true_tech in [row[0] for row in pred.ranking[:3]]:
            top3 += 1
        if top[1] == true_tactic:
            tactic_acc += 1
    n = len(truth)
    return {
        "ACC": acc / n,
        "Top3ACC": top3 / n,
        "TacticACC": tactic_acc / n,
    }
