"""Dataset splitting and end-to-end evaluation protocols.

Covers the leave-malicious-out protocol for the anomaly detector, the
few-shot train/query split for the matcher, and the three evaluation
conditions: ground-truth subgraphs, pipeline-sampled subgraphs, and whole
raw graphs fed to the recognizer unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import features as ft
from .config import PipelineConfig
from .graph import EntityType, ProvenanceGraph, disjoint_union
from .matching import (
    ExemplarSet,
    RecognitionResult,
    SiameseModel,
    recognition_metrics,
    recognize,
    train_matcher,
)
from .noi import NoiReport, detect_nois
from .numerics import Rng
from .sampling import (
    SamplingMetrics,
    TechniqueSubgraph,
    match_subgraphs,
    sample_subgraphs,
    sampling_metrics,
    select_seed,
)
from .synthetic import LabeledDataset, LabeledSample

MODES = ("True_Graph", "Sampled_Graph", "Raw_Graph")

_SPURIOUS = ("__spurious__", "__spurious__")


@dataclass(frozen=True)
class NodeRef:
    """A process node of one dataset sample, with its ground-truth label."""

    sample_idx: int
    node_id: str
    malicious: bool


@dataclass
class LmoSplit:
    train: list[NodeRef]  # benign only
    test: list[NodeRef]  # all malicious + equal benign


def split_leave_malicious_out(dataset: LabeledDataset, seed: int = 0) -> LmoSplit:
    """Benign-only training nodes; balanced malicious/benign test nodes.

    Scoped to process nodes, since only those are ever flagged.
    """
    malicious: list[NodeRef] = []
    benign: list[NodeRef] = []
    for si, sample in enumerate(dataset):
        truth_nois = sample.truth.noi_set()
        for nid, node in sample.graph.nodes.items():
            if node.entity_type != EntityType.PROCESS:
                continue
            if nid in truth_nois:
                malicious.append(NodeRef(si, nid, True))
            else:
                benign.append(NodeRef(si, nid, False))
    if len(benign) < len(malicious):
        raise ValueError(
            f"{len(benign)} benign process nodes cannot balance "
            f"{len(malicious)} malicious ones"
        )
    rng = Rng(seed).split("lmo-split")
    picked = rng.choice(len(benign), size=len(malicious), replace=False)
    picked_set = set(picked.tolist())
    test = malicious + [benign[i] for i in sorted(picked_set)]
    train = [ref for i, ref in enumerate(benign) if i not in picked_set]
    return LmoSplit(train=train, test=test)


def evaluate_noi(flagged, truth_malicious, universe) -> dict[str, float]:
    """Binary metrics over a node universe, malicious as the positive class."""
    universe = list(universe)
    if not universe:
        raise ValueError("empty test set")
    flagged = set(flagged)
    positive = set(truth_malicious)
    tp = fp = fn = tn = 0
    for nid in universe:
        is_flagged = nid in flagged
        is_mal = nid in positive
        if is_flagged and is_mal:
            tp += 1
        elif is_flagged:
            fp += 1
        elif is_mal:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return {
        "Accuracy": (tp + tn) / len(universe),
        "Precision": precision,
        "Recall": recall,
        "F1": f1,
    }


def noi_lmo_protocol(
    dataset: LabeledDataset,
    config: PipelineConfig,
    seed: int = 0,
    calibration_quantile: float = 0.995,
) -> dict[str, float]:
    """Run the leave-malicious-out protocol end to end and score it.

    The encoder and forest see only benign-induced graphs; scoring happens
    on the full graphs so malicious nodes keep their true neighborhoods.
    Because isolation scores shift with the training population size, the
    decision threshold is calibrated as a high quantile of the benign
    training scores (never of anything held out).
    """
    from .noi import anomaly_scores, fit_forest

    split = split_leave_malicious_out(dataset, seed)
    benign_graphs = []
    for si, sample in enumerate(dataset):
        keep = [
            nid
            for nid in sample.graph.nodes
            if nid not in sample.truth.noi_set()
        ]
        benign_graphs.append(sample.graph.induced(keep))
    union = disjoint_union(benign_graphs)
    encoder = ft.train_encoder(
        union, ft.init_features(union), config.encoder_config(seed)
    )

    # training embeddings for the forest: benign process nodes only
    train_keys = {(r.sample_idx, r.node_id) for r in split.train}
    train_rows = []
    for si, g in enumerate(benign_graphs):
        emb = ft.extract_embeddings(encoder, g, ft.init_features(g))
        index = g.node_index()
        train_rows += [emb[index[nid]] for nid in g.nodes if (si, nid) in train_keys]
    train_rows = np.array(train_rows)
    forest = fit_forest(train_rows, config.num_trees, config.subsample, seed=seed)
    train_scores = anomaly_scores(forest, train_rows)
    threshold = float(np.quantile(train_scores, calibration_quantile))

    test_rows = []
    test_ids = []
    truth_ids = set()
    full_emb = {}
    for ref in split.test:
        key = (ref.sample_idx, ref.node_id)
        if ref.sample_idx not in full_emb:
            g = dataset.samples[ref.sample_idx].graph
            full_emb[ref.sample_idx] = (
                g.node_index(),
                ft.extract_embeddings(encoder, g, ft.init_features(g)),
            )
        index, emb = full_emb[ref.sample_idx]
        test_rows.append(emb[index[ref.node_id]])
        test_ids.append(key)
        if ref.malicious:
            truth_ids.add(key)
    test_scores = anomaly_scores(forest, np.reshape(test_rows, (-1, forest.width)))
    flagged = {key for key, score in zip(test_ids, test_scores) if score > threshold}
    metrics = evaluate_noi(flagged, truth_ids, test_ids)
    metrics["threshold"] = threshold
    return metrics


# -- few-shot split and pipeline training ------------------------------------


def split_few_shot(
    dataset: LabeledDataset, shots: int, seed: int = 0
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Per class: ``shots`` training samples, the rest become queries."""
    if shots < 1:
        raise ValueError("shots must be positive")
    rng = Rng(seed).split("few-shot-split")
    train: list[LabeledSample] = []
    test: list[LabeledSample] = []
    for technique, idxs in dataset.by_class().items():
        if len(idxs) <= shots:
            raise ValueError(
                f"class {technique!r} has {len(idxs)} samples; "
                f"need more than {shots}"
            )
        order = rng.permutation(len(idxs))
        chosen = [idxs[i] for i in order]
        train.extend(dataset.samples[i] for i in sorted(chosen[:shots]))
        test.extend(dataset.samples[i] for i in sorted(chosen[shots:]))
    return train, test


@dataclass
class PipelineModels:
    """Everything the recognition pipeline needs at inference time."""

    encoder: ft.GnnEncoder
    matcher: SiameseModel
    exemplars: ExemplarSet

    def to_dict(self) -> dict:
        return {
            "encoder": self.encoder.to_dict(),
            "matcher": self.matcher.to_dict(),
            "exemplars": self.exemplars.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineModels":
        return cls(
            ft.GnnEncoder.from_dict(payload["encoder"]),
            SiameseModel.from_dict(payload["matcher"]),
            ExemplarSet.from_dict(payload["exemplars"]),
        )


def train_pipeline(
    train_samples: Sequence[LabeledSample], config: PipelineConfig, seed: int = 0
) -> PipelineModels:
    """Fit the node-type encoder, the matcher, and the exemplar cache."""
    if not train_samples:
        raise ValueError("no training samples")
    union = disjoint_union([s.graph for s in train_samples])
    encoder = ft.train_encoder(
        union, ft.init_features(union), config.encoder_config(seed)
    )
    matcher = train_matcher(
        [(s.truth, s.technique) for s in train_samples],
        config.matcher_config(seed),
    )
    exemplars = ExemplarSet()
    by_class: dict[str, list[LabeledSample]] = {}
    for s in train_samples:
        by_class.setdefault(s.technique, []).append(s)
    for technique in sorted(by_class):
        members = by_class[technique]
        exemplars.add_class(
            technique, members[0].tactic, [m.truth for m in members], matcher
        )
    return PipelineModels(encoder, matcher, exemplars)


# -- the three evaluation conditions ----------------------------------------


def _whole_graph_subgraph(sample: LabeledSample) -> TechniqueSubgraph:
    graph = sample.graph
    procs = [
        nid for nid, n in graph.nodes.items() if n.entity_type == EntityType.PROCESS
    ]
    return TechniqueSubgraph(graph, procs, select_seed(procs, graph))


def _aggregate_sampling(parts: Sequence[SamplingMetrics]) -> SamplingMetrics:
    n_sampled = sum(p.n_sampled for p in parts)
    n_truth = sum(p.n_truth for p in parts)
    n_correct = sum(p.n_correct for p in parts)
    precision = (
        sum(p.precision * p.n_sampled for p in parts) / n_sampled if n_sampled else 0.0
    )
    coverage = (
        sum(p.coverage * p.n_sampled for p in parts) / n_sampled if n_sampled else 0.0
    )
    return SamplingMetrics(
        precision=precision,
        coverage=coverage,
        tpr=n_correct / n_truth if n_truth else 0.0,
        far=(n_sampled - n_correct) / n_sampled if n_sampled else 0.0,
        n_sampled=n_sampled,
        n_truth=n_truth,
        n_correct=n_correct,
        tpr_defined=n_truth > 0,
        far_defined=n_sampled > 0,
    )


def detect(
    graph: ProvenanceGraph,
    encoder: ft.GnnEncoder,
    config: PipelineConfig,
    seed: int = 0,
) -> NoiReport:
    """Embed one host's nodes with the trained encoder and flag the anomalous
    process nodes."""
    embeddings = ft.extract_embeddings(encoder, graph, ft.init_features(graph))
    return detect_nois(
        graph, embeddings, num_trees=config.num_trees, subsample_size=config.subsample,
        score_threshold=config.score_threshold, contamination=config.contamination,
        seed=seed,
    )


@dataclass
class Triage:
    """One host from its graph to decisions: the detector's report, the
    subgraphs carved around its flags, and one result per carve in order."""

    report: NoiReport
    carved: list[TechniqueSubgraph]
    results: list[RecognitionResult]


def triage(
    graph: ProvenanceGraph,
    models: PipelineModels,
    config: PipelineConfig,
    seed: int = 0,
) -> Triage:
    """Detect anomalous nodes on one host, carve subgraphs around them and
    recognise each carve."""
    report = detect(graph, models.encoder, config, seed)
    carved = sample_subgraphs(
        graph, report.flagged, lam=config.lam, min_nois=config.min_nois
    )
    return Triage(report, carved, [
        recognize(tsg, models.exemplars, models.matcher, config.unknown_threshold)
        for tsg in carved
    ])


def evaluate_end_to_end(
    test_samples: Sequence[LabeledSample],
    mode: str,
    models: PipelineModels,
    config: PipelineConfig,
    seed: int = 0,
) -> dict:
    """Score recognition under one input condition.

    True_Graph feeds ground-truth subgraphs; Sampled_Graph feeds whatever
    the pipeline carved (each sampled subgraph is a query labeled by
    flagged-node overlap, zero-overlap and empty samplings count as wrong);
    Raw_Graph feeds whole graphs.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if models is None or models.matcher is None or len(models.exemplars) == 0:
        raise ValueError("models must be trained before evaluation")
    if not test_samples:
        raise ValueError("no test samples")

    predictions: list[RecognitionResult | None] = []
    truth: list[tuple[str, str]] = []
    sampling_parts: list[SamplingMetrics] = []

    for sample in test_samples:
        label = (sample.technique, sample.tactic)
        if mode == "Sampled_Graph":
            host = triage(sample.graph, models, config, seed)
            matching = match_subgraphs(host.carved, [sample.truth])
            sampling_parts.append(
                sampling_metrics(host.carved, [sample.truth], matching)
            )
            pairs = dict(matching)
            # an empty sampling is one wrong prediction for the host
            predictions.extend(host.results or [None])
            truth.extend([label if ci in pairs else _SPURIOUS
                          for ci in range(len(host.carved))] or [label])
            continue
        query = sample.truth if mode == "True_Graph" else _whole_graph_subgraph(sample)
        predictions.append(
            recognize(query, models.exemplars, models.matcher, config.unknown_threshold)
        )
        truth.append(label)

    report = {
        "mode": mode,
        "n_queries": len(predictions),
        "recognition": recognition_metrics(predictions, truth),
    }
    if mode == "Sampled_Graph":
        report["sampling"] = asdict(_aggregate_sampling(sampling_parts))
    return report


def run_experiment(
    dataset: LabeledDataset,
    config: PipelineConfig,
    seed: int = 0,
    modes: Sequence[str] = MODES,
) -> dict:
    """Few-shot split, pipeline training, and every requested condition."""
    train, test = split_few_shot(dataset, config.shots, seed)
    models = train_pipeline(train, config, seed)
    report = {
        "seed": seed,
        "n_train": len(train),
        "n_test": len(test),
        "modes": {},
    }
    for mode in modes:
        report["modes"][mode] = evaluate_end_to_end(test, mode, models, config, seed)
    return report
