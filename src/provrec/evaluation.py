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
from .graph import ProvenanceGraph, disjoint_union
from .matching import (
    ExemplarSet,
    RecognitionResult,
    SiameseModel,
    recognition_metrics,
    recognize,  # noqa: F401 (perfbench's traced run wraps it here)
    recognize_many,
    train_matcher,
)
from .noi import NoiReport, detect_nois
from .numerics import Rng
from .sampling import (
    TechniqueSubgraph,
    match_subgraphs,
    sample_subgraphs,
    sampling_metrics,
    select_seed,
)
from .synthetic import LabeledDataset, LabeledSample

MODES = ("True_Graph", "Sampled_Graph", "Raw_Graph")

_SPURIOUS = ("__spurious__", "__spurious__")


def split_leave_malicious_out(
    dataset: LabeledDataset, seed: int = 0
) -> tuple[ProvenanceGraph, np.ndarray, np.ndarray, np.ndarray]:
    """The dataset's graphs as one ``disjoint_union``, its noi mask over the
    union's rows, and the leave-malicious-out split of its process rows.

    Only process rows are split, since only those are ever flagged. Train
    rows are benign only. Test rows are every malicious row, then as many
    benign rows drawn at random, each group in ascending row order.
    """
    union = disjoint_union([s.graph for s in dataset])
    noi = np.concatenate([np.isin(s.graph.node_ids(), s.truth.nois) for s in dataset])
    procs = union.process_rows()
    malicious, benign = procs[noi[procs]], procs[~noi[procs]]
    if len(benign) < len(malicious):
        raise ValueError(
            f"{len(benign)} benign process nodes cannot balance "
            f"{len(malicious)} malicious ones"
        )
    picked = np.zeros(len(benign), dtype=bool)
    picked[Rng(seed).split("lmo-split").choice(
        len(benign), size=len(malicious), replace=False)] = True
    return union, noi, benign[~picked], np.concatenate([malicious, benign[picked]])


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
    dataset: LabeledDataset, config: PipelineConfig, seed: int | None = None
) -> dict[str, float]:
    """Run the leave-malicious-out protocol end to end and score it.

    The encoder and forest see only the benign part of the union (every noi
    removed); test rows are embedded on the full union so malicious nodes
    keep their true neighborhoods. Because isolation scores shift with the
    training population size, the decision threshold is calibrated as the
    0.995 quantile of the benign training scores (never of anything held
    out). ``seed`` defaults to ``config.seed``.
    """
    from .noi import anomaly_scores, fit_forest

    seed = config.seed if seed is None else seed
    union, noi, train, test = split_leave_malicious_out(dataset, seed)
    benign = union.take(np.flatnonzero(~noi))
    encoder = ft.train_encoder(
        benign, ft.init_features(benign), config.encoder_config(seed)
    )
    benign_row = np.cumsum(~noi) - 1  # union row -> row of ``benign``
    train_emb = ft.extract_embeddings(encoder, benign, ft.init_features(benign))
    train_rows = train_emb[benign_row[train]]
    forest = fit_forest(train_rows, config.num_trees, config.subsample, seed=seed)
    threshold = float(np.quantile(anomaly_scores(forest, train_rows), 0.995))

    test_emb = ft.extract_embeddings(encoder, union, ft.init_features(union))
    flagged = test[anomaly_scores(forest, test_emb[test]) > threshold]
    metrics = evaluate_noi(flagged.tolist(), test[noi[test]].tolist(), test.tolist())
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
        matcher = SiameseModel.from_dict(payload["matcher"])
        exemplars = ExemplarSet.from_dict(payload["exemplars"])
        width = matcher.config.han.dim
        for technique in exemplars.techniques():
            shape = exemplars.get(technique).embedding.shape
            if shape != (width,):
                raise ValueError(f"exemplar {technique!r} has an embedding of shape "
                                 f"{shape}, not the matcher's ({width},)")
        return cls(ft.GnnEncoder.from_dict(payload["encoder"]), matcher, exemplars)


def train_pipeline(
    train_samples: Sequence[LabeledSample],
    config: PipelineConfig,
    seed: int | None = None,
) -> PipelineModels:
    """Fit the node-type encoder, the matcher, and the exemplar cache;
    ``seed`` defaults to ``config.seed``."""
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
    procs = graph.process_ids()
    return TechniqueSubgraph(graph, procs, select_seed(procs, graph))


def detect(
    graph: ProvenanceGraph,
    encoder: ft.GnnEncoder,
    config: PipelineConfig,
    seed: int | None = None,
) -> NoiReport:
    """Embed one host's nodes with the trained encoder and flag the anomalous
    process nodes; ``seed`` defaults to ``config.seed``."""
    embeddings = ft.extract_embeddings(encoder, graph, ft.init_features(graph))
    return detect_nois(
        graph, embeddings, num_trees=config.num_trees, subsample_size=config.subsample,
        score_threshold=config.score_threshold, contamination=config.contamination,
        seed=config.seed if seed is None else seed,
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
    seed: int | None = None,
) -> Triage:
    """Detect anomalous nodes on one host, carve subgraphs around them and
    recognise the carves in one batched forward; ``seed`` defaults to
    ``config.seed``."""
    report = detect(graph, models.encoder, config, seed)
    carved = sample_subgraphs(
        graph, report.flagged, lam=config.lam, min_nois=config.min_nois
    )
    return Triage(report, carved, recognize_many(
        carved, models.exemplars, models.matcher, config.unknown_threshold))


def evaluate_end_to_end(
    test_samples: Sequence[LabeledSample],
    mode: str,
    models: PipelineModels,
    config: PipelineConfig,
    seed: int | None = None,
) -> dict:
    """Score recognition under one input condition.

    True_Graph feeds ground-truth subgraphs; Sampled_Graph feeds whatever
    the pipeline carved (each sampled subgraph is a query labeled by
    flagged-node overlap, zero-overlap and empty samplings count as wrong)
    and scores every host's carves against the truths in one
    :func:`sampling_metrics` call; Raw_Graph feeds whole graphs. ``seed``
    defaults to ``config.seed``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if models is None or models.matcher is None or len(models.exemplars) == 0:
        raise ValueError("models must be trained before evaluation")
    if not test_samples:
        raise ValueError("no test samples")

    if mode == "Sampled_Graph":
        predictions, truth, carved, matching = [], [], [], []
        for ti, sample in enumerate(test_samples):
            label = (sample.technique, sample.tactic)
            host = triage(sample.graph, models, config, seed)
            pairs = dict(match_subgraphs(host.carved, [sample.truth]))
            matching.extend((len(carved) + ci, ti) for ci in pairs)
            carved.extend(host.carved)
            # an empty sampling is one wrong prediction for the host
            predictions.extend(host.results or [None])
            truth.extend([label if ci in pairs else _SPURIOUS
                          for ci in range(len(host.carved))] or [label])
    else:
        whole = mode == "Raw_Graph"
        predictions = recognize_many(
            [_whole_graph_subgraph(s) if whole else s.truth for s in test_samples],
            models.exemplars, models.matcher, config.unknown_threshold)
        truth = [(s.technique, s.tactic) for s in test_samples]

    report = {
        "mode": mode,
        "n_queries": len(predictions),
        "recognition": recognition_metrics(predictions, truth),
    }
    if mode == "Sampled_Graph":
        report["sampling"] = asdict(sampling_metrics(
            carved, [s.truth for s in test_samples], matching))
    return report


def evaluate_modes(
    test_samples: Sequence[LabeledSample],
    modes: Sequence[str],
    models: PipelineModels,
    config: PipelineConfig,
    seed: int | None = None,
) -> dict[str, dict]:
    """:func:`evaluate_end_to_end` of each mode, by mode name in order."""
    return {mode: evaluate_end_to_end(test_samples, mode, models, config, seed)
            for mode in modes}


def run_experiment(
    dataset: LabeledDataset,
    config: PipelineConfig,
    seed: int | None = None,
    modes: Sequence[str] = MODES,
) -> dict:
    """Few-shot split, pipeline training, and every requested condition;
    ``seed`` defaults to ``config.seed``."""
    seed = config.seed if seed is None else seed
    train, test = split_few_shot(dataset, config.shots, seed)
    models = train_pipeline(train, config, seed)
    return {
        "seed": seed,
        "n_train": len(train),
        "n_test": len(test),
        "modes": evaluate_modes(test, modes, models, config, seed),
    }
