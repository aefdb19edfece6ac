"""Splits, detector metrics, and the three-condition evaluation protocol."""

import json
from dataclasses import asdict

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
from provrec.matching import UNKNOWN, recognize_many
from provrec.noi import detect_nois
from provrec.sampling import match_subgraphs, sample_subgraphs, sampling_metrics
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
    union, noi, train, test = split_leave_malicious_out(tiny_dataset, seed=1)
    assert union.n_nodes == len(noi) == sum(s.graph.n_nodes for s in tiny_dataset)
    procs = union.process_rows()
    assert np.isin(train, procs).all() and np.isin(test, procs).all()
    assert not noi[train].any()
    assert not np.isin(test, train).any()
    # the mask marks exactly each sample's truth nois, under the union's ids
    ids = union.node_ids()
    assert {ids[r] for r in np.flatnonzero(noi)} == {
        f"g{si}/{nid}" for si, s in enumerate(tiny_dataset) for nid in s.truth.nois}


def test_lmo_split_is_balanced(tiny_dataset):
    union, noi, train, test = split_leave_malicious_out(tiny_dataset, seed=1)
    n_mal = int(noi[test].sum())
    assert n_mal == len(test) - n_mal
    total_mal = sum(len(s.truth.nois) for s in tiny_dataset)
    assert n_mal == total_mal
    # malicious rows first, then the picked benign rows, each ascending
    assert noi[test[:n_mal]].all() and not noi[test[n_mal:]].any()
    assert (np.diff(test[:n_mal]) > 0).all() and (np.diff(test[n_mal:]) > 0).all()
    # every process row is either trained on or tested
    assert sorted(train.tolist() + test.tolist()) == union.process_rows().tolist()


def test_lmo_split_seeded(tiny_dataset):
    _, _, train1, test1 = split_leave_malicious_out(tiny_dataset, seed=5)
    _, _, train2, test2 = split_leave_malicious_out(tiny_dataset, seed=5)
    assert (test1 == test2).all() and (train1 == train2).all()
    _, _, _, test3 = split_leave_malicious_out(tiny_dataset, seed=6)
    assert (test3 != test1).any()


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


# The protocol's outputs on the tiny fixture, as float.hex. They were
# recorded from the per-node implementation that the union-graph one
# replaced, and both give them bit for bit.
_LMO_PINS = {
    None: {
        "Accuracy": "0x1.8a60dd67c8a61p-1",
        "Precision": "0x1.0000000000000p+0",
        "Recall": "0x1.14c1bacf914c2p-1",
        "F1": "0x1.674c59d31674dp-1",
        "threshold": "0x1.1fc4892f3e02ep-1",
    },
    3: {
        "Accuracy": "0x1.0000000000000p+0",
        "Precision": "0x1.0000000000000p+0",
        "Recall": "0x1.0000000000000p+0",
        "F1": "0x1.0000000000000p+0",
        "threshold": "0x1.18f9ab1bc10cbp-1",
    },
}


@pytest.mark.parametrize("seed", sorted(_LMO_PINS, key=str))
def test_lmo_protocol_is_pinned(tiny_dataset, tiny_config, seed):
    metrics = noi_lmo_protocol(tiny_dataset, tiny_config, seed)
    assert {k: v.hex() for k, v in metrics.items()} == _LMO_PINS[seed]


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


def test_a_split_without_a_triplet_is_refused_before_the_encoder_trains(
        tiny_dataset, tiny_config, monkeypatch):
    train, _ = split_few_shot(tiny_dataset, 1, seed=20)  # every class a singleton

    def train_encoder(*args, **kwargs):
        raise AssertionError("the encoder trained")

    monkeypatch.setattr(ft, "train_encoder", train_encoder)
    with pytest.raises(ValueError, match="^no valid triplets; every class is a singleton$"):
        train_pipeline(train, tiny_config, seed=20)


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
    results = recognize_many(
        carved, models.exemplars, models.matcher, config.unknown_threshold)
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


def test_sampled_graph_scores_every_hosts_carves_in_one_pool(tiny_models, tiny_config):
    _, test, models = tiny_models
    config = tiny_config.override(min_nois=1)
    carved, matching, most = [], [], 0
    for ti, sample in enumerate(test):
        host = triage(sample.graph, models, config, seed=20)
        matching += [(len(carved) + ci, ti)
                     for ci, _ in match_subgraphs(host.carved, [sample.truth])]
        carved += host.carved
        most = max(most, len(host.carved))
    assert most >= 3  # where a mean of per-host means could differ in the last bit
    report = evaluate_end_to_end(test, "Sampled_Graph", models, config, seed=20)
    assert report["sampling"] == asdict(
        sampling_metrics(carved, [s.truth for s in test], matching))
    assert report["n_queries"] == len(carved)


def test_run_experiment_report_is_complete(tiny_dataset, tiny_config):
    report = run_experiment(tiny_dataset, tiny_config, seed=20)
    assert set(report["modes"]) == {"True_Graph", "Sampled_Graph", "Raw_Graph"}
    assert report["n_train"] == 12 and report["n_test"] == 12
    json.dumps(report)  # fully serialisable


def test_run_experiment_is_deterministic(tiny_dataset, tiny_config):
    r1 = run_experiment(tiny_dataset, tiny_config, seed=20, modes=("True_Graph",))
    r2 = run_experiment(tiny_dataset, tiny_config, seed=20, modes=("True_Graph",))
    assert r1 == r2


def test_seed_defaults_to_the_config_seed(tiny_dataset, tiny_models, tiny_config):
    # tiny_config carries seed 20; no call below is given a seed
    config = tiny_config.override(min_nois=2)
    assert run_experiment(tiny_dataset, config) == run_experiment(
        tiny_dataset, config, seed=20)
    _, test, models = tiny_models
    host = triage(test[0].graph, models, config)
    assert host.report.scores == triage(test[0].graph, models, config, 20).report.scores
    assert noi_lmo_protocol(tiny_dataset, config) == noi_lmo_protocol(
        tiny_dataset, config, 20)
