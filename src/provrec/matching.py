"""Few-shot technique recognition with twin encoders and contrastive training.

Both branches share one attention encoder plus a fully connected projection;
pairs derived from anchor/positive/negative triplets are pushed together or
apart by the contrastive loss. Inference matches a query subgraph against one
cached representative per known technique, so new techniques can be added
without touching the trained weights.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import numerics as nm
from .embedding import (
    HanConfig,
    HanEncoder,
    SubgraphBatch,
    embed_batch,
    embed_subgraph,
    init_han_params,
)
from .sampling import TechniqueSubgraph

UNKNOWN = "UNKNOWN"

DISTANCES = ("euclidean", "cosine")


def contrastive_loss(distance: float, same_class: bool, margin: float = 1.0) -> float:
    """Squared distance for same-class pairs, hinge on the margin otherwise.

    ``margin=0`` is legal here (the negative-pair loss is then identically
    zero); trained models require a strictly positive margin.
    """
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    if margin < 0:
        raise ValueError("margin must be nonnegative")
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
    distance: str = "euclidean"
    seed: int = 0

    def __post_init__(self):
        if self.distance not in DISTANCES:
            raise ValueError(f"distance must be one of {DISTANCES}")
        if self.margin <= 0:
            raise ValueError("margin must be positive")

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MatcherConfig":
        data = dict(payload)
        data["han"] = HanConfig.from_dict(data["han"])
        return cls(**data)


class SiameseModel:
    """Shared attention encoder plus a projection head and a distance tag."""

    def __init__(
        self,
        config: MatcherConfig,
        encoder: HanEncoder,
        out_w: np.ndarray,
        out_b: np.ndarray,
        loss_curve: list[float] | None = None,
    ):
        self.config = config
        self.encoder = encoder
        # frozen like the encoder's weights, so wrapped once for every embed
        self.head = (nm.Matrix(out_w, name="out_w"), nm.Matrix(out_b, name="out_b"))
        self.out_w, self.out_b = (m.value for m in self.head)
        self.loss_curve = list(loss_curve) if loss_curve else []
        self._hash: str | None = None

    @property
    def dim(self) -> int:
        return self.config.han.dim

    def embed(self, tsg: TechniqueSubgraph) -> np.ndarray:
        """Branch output: encoder vector through the projection layer."""
        h = embed_subgraph(tsg, self.encoder.matrices, self.config.han)
        return project(h, *self.head, self.config.han.slope).value[0]

    def embed_many(self, subgraphs: Sequence[TechniqueSubgraph]) -> np.ndarray:
        """Branch outputs of several subgraphs from one batched forward."""
        h = embed_batch(SubgraphBatch(subgraphs, self.config.han),
                        self.encoder.matrices, self.config.han)
        return project(h, *self.head, self.config.han.slope).value

    def distance_of(self, ea: np.ndarray, eb: np.ndarray) -> float:
        if self.config.distance == "euclidean":
            return float(np.sqrt(((ea - eb) ** 2).sum()))
        na = float(np.sqrt((ea * ea).sum()))
        nb = float(np.sqrt((eb * eb).sum()))
        if na == 0.0 or nb == 0.0:
            raise ValueError("cosine distance undefined for zero vectors")
        return float(1.0 - (ea @ eb) / (na * nb))

    def weights(self) -> dict[str, np.ndarray]:
        out = dict(self.encoder.params)
        out["out_w"] = self.out_w
        out["out_b"] = self.out_b
        return out

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "encoder": self.encoder.to_dict(),
            "out_w": self.out_w.tolist(),
            "out_b": self.out_b.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SiameseModel":
        return cls(
            MatcherConfig.from_dict(payload["config"]),
            HanEncoder.from_dict(payload["encoder"]),
            np.array(payload["out_w"], dtype=np.float64),
            np.array(payload["out_b"], dtype=np.float64),
        )

    def content_hash(self) -> str:
        """SHA-256 of both configs and every weight's name, shape, dtype and
        raw bytes: any change to a weight's last bit changes it."""
        # weights are frozen once training returns, so hash once
        if self._hash is None:
            configs = [asdict(self.config), asdict(self.encoder.config)]
            digest = hashlib.sha256(json.dumps(configs, sort_keys=True).encode("utf-8"))
            for name, value in sorted(self.weights().items()):
                digest.update(f"{name} {value.shape} {value.dtype}\n".encode("utf-8"))
                digest.update(value.tobytes())
            self._hash = digest.hexdigest()
        return self._hash


def project(h, out_w, out_b, slope: float) -> nm.Matrix:
    """The branch head: encoder rows through the fully connected layer."""
    return nm.leaky_relu(nm.add(nm.matmul(h, out_w), out_b), slope)


def pair_loss(
    ea: nm.Matrix, eb: nm.Matrix, same_class: bool, margin: float, kind: str
) -> nm.Matrix:
    """Differentiable contrastive loss of each row pair of branch outputs.

    ``ea`` and ``eb`` hold one branch output per row; returns an (m, 1)
    column, 1x1 for a single pair.
    """
    if kind == "euclidean":
        diff = nm.sub(ea, eb)
        sq = nm.row_sums(nm.mul(diff, diff))
        if same_class:
            return sq  # no sqrt: its gradient is undefined at distance zero
        d = nm.sqrt(sq)
    else:
        dot = nm.row_sums(nm.mul(ea, eb))
        na = nm.sqrt(nm.row_sums(nm.mul(ea, ea)))
        nb = nm.sqrt(nm.row_sums(nm.mul(eb, eb)))
        d = nm.sub(nm.Matrix(1.0), nm.div(dot, nm.mul(na, nb)))
        if same_class:
            return nm.mul(d, d)
    return nm.relu(nm.sub(nm.Matrix(margin), d))


def triplet_loss(
    z: nm.Matrix,
    anchor: nm.RowIndex,
    positive: nm.RowIndex,
    negative: nm.RowIndex,
    margin: float,
    kind: str,
) -> nm.Matrix:
    """Mean pair loss over every triplet's anchor-positive and anchor-negative
    pairs; the triplets are given as rows of the branch outputs ``z``."""
    ea = nm.gather_rows(z, anchor)
    total = nm.add(
        nm.sum_all(pair_loss(ea, nm.gather_rows(z, positive), True, margin, kind)),
        nm.sum_all(pair_loss(ea, nm.gather_rows(z, negative), False, margin, kind)),
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
    embedded in one batched forward per epoch.
    """
    if not samples:
        raise ValueError("no training samples")
    subgraphs = [s for s, _ in samples]
    labels = [lab for _, lab in samples]
    rng = nm.Rng(config.seed)
    triplets = build_triplets(labels, rng.split("triplets"))
    if not triplets:
        raise ValueError("no valid triplets; every class is a singleton")

    tape = nm.GradientTape()
    han_params = {
        name: tape.parameter(name, value)
        for name, value in init_han_params(config.han).items()
    }
    d = config.han.dim
    init_rng = rng.split("head-init")
    out_w = tape.parameter("out_w", init_rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)))
    out_b = tape.parameter("out_b", np.zeros((1, d)))

    used = sorted({i for t in triplets for i in (t.anchor, t.positive, t.negative)})
    batch = SubgraphBatch([subgraphs[i] for i in used], config.han)
    row = {i: r for r, i in enumerate(used)}
    anchor, positive, negative = (
        nm.RowIndex([row[getattr(t, role)] for t in triplets], len(used))
        for role in ("anchor", "positive", "negative")
    )

    def loss_fn():
        z = project(embed_batch(batch, han_params, config.han), out_w, out_b,
                    config.han.slope)
        return triplet_loss(z, anchor, positive, negative, config.margin,
                            config.distance)

    losses = nm.descend(tape, loss_fn, config.epochs, config.lr)

    # the models copy the values they wrap
    encoder = HanEncoder(config.han, {name: p.value for name, p in han_params.items()})
    return SiameseModel(config, encoder, out_w.value, out_b.value, losses)


def pick_representative(
    samples: Sequence[TechniqueSubgraph], model: SiameseModel
) -> int:
    """Index of the medoid: minimal summed distance to the rest of the class.

    The class is embedded in one batched forward; ties go to the lowest index.
    """
    if not samples:
        raise ValueError("cannot pick a representative from an empty class")
    embeddings = model.embed_many(samples)
    dist = np.array([[model.distance_of(a, b) for b in embeddings] for a in embeddings])
    np.fill_diagonal(dist, 0.0)
    return int(np.argmin(dist.sum(axis=1)))


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
            "embedding": self.embedding.tolist(),
            "model_hash": self.model_hash,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Exemplar":
        return cls(
            payload["technique"],
            payload["tactic"],
            TechniqueSubgraph.from_dict(payload["subgraph"]),
            np.array(payload["embedding"], dtype=np.float64),
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

    def __contains__(self, technique: str) -> bool:
        return technique in self._entries

    def techniques(self) -> list[str]:
        return list(self._entries)

    def get(self, technique: str) -> Exemplar:
        return self._entries[technique]

    def tactic_of(self, technique: str) -> str:
        return self._entries[technique].tactic

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

    def embedding_of(self, technique: str, model: SiameseModel) -> np.ndarray:
        entry = self._entries[technique]
        current = model.content_hash()
        if entry.model_hash != current:
            entry.embedding = model.embed(entry.subgraph)
            entry.model_hash = current
        return entry.embedding

    def to_dict(self) -> dict:
        return {"exemplars": [e.to_dict() for e in self._entries.values()]}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExemplarSet":
        out = cls()
        for entry in payload["exemplars"]:
            ex = Exemplar.from_dict(entry)
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


def recognize(
    tsg: TechniqueSubgraph,
    exemplars: ExemplarSet,
    model: SiameseModel,
    unknown_threshold: float | None = None,
) -> RecognitionResult:
    """Match a query subgraph against every cached representative.

    The decision is the nearest technique, or UNKNOWN when a threshold is
    set and even the nearest representative is farther than it.
    """
    if len(exemplars) == 0:
        raise ValueError("exemplar set is empty")
    query = model.embed(tsg)
    ranking = sorted(
        (
            (tech, exemplars.tactic_of(tech),
             model.distance_of(query, exemplars.embedding_of(tech, model)))
            for tech in exemplars.techniques()
        ),
        key=lambda row: (row[2], row[0]),
    )
    best_tech, best_tactic, best_d = ranking[0]
    if unknown_threshold is not None and best_d > unknown_threshold:
        return RecognitionResult(ranking, UNKNOWN, None)
    return RecognitionResult(ranking, best_tech, best_tactic)


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
