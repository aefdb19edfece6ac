"""Splits, detector metrics, and the three-condition evaluation protocol."""

import json

import numpy as np
import pytest

from provrec import features as ft
from provrec.config import PipelineConfig
from provrec.evaluation import (
    evaluate_end_to_end,
    evaluate_noi,
    noi_lmo_protocol,
    run_experiment,
    split_few_shot,
    split_leave_malicious_out,
    train_pipeline,
    triage,
)
from provrec.matching import UNKNOWN, recognize
from provrec.noi import detect_nois
from provrec.sampling import sample_subgraphs
from provrec.synthetic import ScenarioSpec, generate_scenario


@pytest.fixture(scope="module")
def tiny_dataset():
    spec = ScenarioSpec(samples_per_class=4, background=50, seed=20)
    return generate_scenario(spec)


@pytest.fixture(scope="module")
def tiny_config():
    return PipelineConfig(
        d=16, hidden=16, encoder_epochs=150, matcher_epochs=25,
        samples_per_class=4, shots=2, background=50, seed=20,
    )


@pytest.fixture(scope="module")
def tiny_models(tiny_dataset, tiny_config):
    train, test = split_few_shot(tiny_dataset, tiny_config.shots, seed=20)
    return train, test, train_pipeline(train, tiny_config, seed=20)


# -- leave-malicious-out --------------------------------------------------------


def test_lmo_split_has_zero_leakage(tiny_dataset):
    split = split_leave_malicious_out(tiny_dataset, seed=1)
    assert all(not ref.malicious for ref in split.train)
    train_keys = {(r.sample_idx, r.node_id) for r in split.train}
    for ref in split.test:
        if ref.malicious:
            assert (ref.sample_idx, ref.node_id) not in train_keys


def test_lmo_split_is_balanced(tiny_dataset):
    split = split_leave_malicious_out(tiny_dataset, seed=1)
    malicious = [r for r in split.test if r.malicious]
    benign = [r for r in split.test if not r.malicious]
    assert len(malicious) == len(benign)
    total_mal = sum(len(s.truth.nois) for s in tiny_dataset)
    assert len(malicious) == total_mal


def test_lmo_split_seeded(tiny_dataset):
    s1 = split_leave_malicious_out(tiny_dataset, seed=5)
    s2 = split_leave_malicious_out(tiny_dataset, seed=5)
    assert s1.test == s2.test and s1.train == s2.train
    s3 = split_leave_malicious_out(tiny_dataset, seed=6)
    assert s3.test != s1.test


def test_lmo_rejects_when_benign_scarce():
    spec = ScenarioSpec(samples_per_class=1, background=0, seed=2)
    ds = generate_scenario(spec)
    with pytest.raises(ValueError, match="benign"):
        split_leave_malicious_out(ds, seed=0)


def test_lmo_protocol_detects_held_out_malicious(tiny_dataset, tiny_config):
    metrics = noi_lmo_protocol(tiny_dataset, tiny_config, seed=3)
    assert set(metrics) == {"Accuracy", "Precision", "Recall", "F1", "threshold"}
    # the detector never saw a malicious node; on the balanced test set it
    # must still beat the 0.5 coin-flip accuracy comfortably
    assert metrics["Accuracy"] > 0.7
    assert metrics["Precision"] > 0.7


# -- detector metrics ------------------------------------------------------------


def test_perfect_report_scores_ones():
    universe = [f"n{i}" for i in range(10)]
    malicious = set(universe[:5])
    m = evaluate_noi(malicious, malicious, universe)
    assert m == {"Accuracy": 1.0, "Precision": 1.0, "Recall": 1.0, "F1": 1.0}


def test_all_benign_prediction_on_balanced_set():
    universe = [f"n{i}" for i in range(10)]
    m = evaluate_noi(set(), set(universe[:5]), universe)
    assert m["Accuracy"] == 0.5
    assert m["Recall"] == 0.0
    assert m["Precision"] == 0.0
    assert m["F1"] == 0.0


def test_confusion_worksheet():
    # flagged = {a,b,c}, malicious = {b,c,d}, universe of 6
    universe = list("abcdef")
    m = evaluate_noi({"a", "b", "c"}, {"b", "c", "d"}, universe)
    # tp=2 fp=1 fn=1 tn=2
    assert m["Accuracy"] == 4 / 6
    assert m["Precision"] == 2 / 3
    assert m["Recall"] == 2 / 3
    assert abs(m["F1"] - 2 / 3) < 1e-12


def test_empty_universe_rejected():
    with pytest.raises(ValueError):
        evaluate_noi(set(), set(), [])


# -- few-shot split ----------------------------------------------------------------


def test_split_few_shot_counts(tiny_dataset):
    train, test = split_few_shot(tiny_dataset, 2, seed=3)
    assert len(train) == 2 * 6
    assert len(test) == 2 * 6
    train_ids = {id(s) for s in train}
    assert all(id(s) not in train_ids for s in test)


def test_split_few_shot_deterministic(tiny_dataset):
    t1 = split_few_shot(tiny_dataset, 2, seed=3)
    t2 = split_few_shot(tiny_dataset, 2, seed=3)
    assert [id(s) for s in t1[0]] == [id(s) for s in t2[0]]


def test_split_few_shot_needs_spare_samples(tiny_dataset):
    with pytest.raises(ValueError):
        split_few_shot(tiny_dataset, 4, seed=0)


# -- end-to-end --------------------------------------------------------------------


def test_true_graph_on_training_samples_is_perfect(tiny_models, tiny_config):
    train, _, models = tiny_models
    report = evaluate_end_to_end(train, "True_Graph", models, tiny_config, seed=20)
    # every query is one of the training shots; the exemplar of its class is
    # one of them, and distance-zero self matches dominate
    assert report["recognition"]["ACC"] >= 0.8
    # the representatives themselves self-match at distance zero: exact 1.0
    exemplar_queries = [
        s for s in train
        if s.truth is models.exemplars.get(s.technique).subgraph
    ]
    assert exemplar_queries
    rep = evaluate_end_to_end(
        exemplar_queries, "True_Graph", models, tiny_config, seed=20
    )
    assert rep["recognition"]["ACC"] == 1.0


def test_three_mode_report_schema_round_trips(tiny_models, tiny_dataset, tiny_config):
    train, test, models = tiny_models
    for mode in ("True_Graph", "Sampled_Graph", "Raw_Graph"):
        report = evaluate_end_to_end(test, mode, models, tiny_config, seed=20)
        blob = json.dumps(report)
        back = json.loads(blob)
        assert back == report
        assert back["mode"] == mode
        assert 0.0 <= back["recognition"]["ACC"] <= 1.0
        if mode == "Sampled_Graph":
            assert "sampling" in back


def test_untrained_or_empty_inputs_rejected(tiny_models, tiny_config):
    train, test, models = tiny_models
    with pytest.raises(ValueError):
        evaluate_end_to_end(test, "Wrong_Mode", models, tiny_config)
    with pytest.raises(ValueError):
        evaluate_end_to_end([], "True_Graph", models, tiny_config)
    with pytest.raises(ValueError):
        evaluate_end_to_end(test, "True_Graph", None, tiny_config)


def _reference_triage(graph, models, config, seed):
    """The host chain step by step: embed, detect, carve, recognise."""
    emb = ft.extract_embeddings(models.encoder, graph, ft.init_features(graph))
    report = detect_nois(
        graph, emb, num_trees=config.num_trees, subsample_size=config.subsample,
        score_threshold=config.score_threshold,
        contamination=config.contamination, seed=seed,
    )
    carved = sample_subgraphs(
        graph, report.flagged, lam=config.lam, min_nois=config.min_nois
    )
    results = [
        recognize(t, models.exemplars, models.matcher, config.unknown_threshold)
        for t in carved
    ]
    return report, carved, results


# at the default min_nois=5 the tiny hosts carve nothing
_TRIAGE_CASES = {
    "min_nois_2": {"min_nois": 2},
    "contamination": {"contamination": 0.1},
    "unknown_threshold_zero": {"min_nois": 2, "unknown_threshold": 0.0},
    "nothing_carved": {"min_nois": 10_000},
}


@pytest.mark.parametrize("case", sorted(_TRIAGE_CASES))
def test_triage_equals_the_step_by_step_chain(tiny_models, tiny_config, case):
    _, test, models = tiny_models
    config = tiny_config.override(**_TRIAGE_CASES[case])
    carves = 0
    for sample in test:
        report, carved, results = _reference_triage(sample.graph, models, config, 20)
        got = triage(sample.graph, models, config, seed=20)
        assert got.report.flagged == report.flagged
        assert got.report.scores == report.scores
        assert [(t.node_ids, t.nois, t.seed) for t in got.carved] == [
            (t.node_ids, t.nois, t.seed) for t in carved
        ]
        assert got.results == results
        carves += len(got.carved)
        if case == "unknown_threshold_zero":
            assert all(r.decision == UNKNOWN for r in got.results)
    assert (carves == 0) == (case == "nothing_carved")


def test_nothing_carved_counts_one_empty_prediction_per_host(tiny_models, tiny_config):
    _, test, models = tiny_models
    config = tiny_config.override(min_nois=10_000)
    report = evaluate_end_to_end(test, "Sampled_Graph", models, config, seed=20)
    assert report["n_queries"] == len(test)
    assert report["recognition"] == {"ACC": 0.0, "Top3ACC": 0.0, "TacticACC": 0.0}
    assert report["sampling"]["n_sampled"] == 0


def test_run_experiment_report_is_complete(tiny_dataset, tiny_config):
    report = run_experiment(tiny_dataset, tiny_config, seed=20)
    assert set(report["modes"]) == {"True_Graph", "Sampled_Graph", "Raw_Graph"}
    assert report["n_train"] == 12 and report["n_test"] == 12
    json.dumps(report)  # fully serialisable


def test_run_experiment_is_deterministic(tiny_dataset, tiny_config):
    r1 = run_experiment(tiny_dataset, tiny_config, seed=20, modes=("True_Graph",))
    r2 = run_experiment(tiny_dataset, tiny_config, seed=20, modes=("True_Graph",))
    assert r1 == r2
