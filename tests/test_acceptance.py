"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. The few-shot suite (criteria 8/9) runs the default
configuration over five seeds and is the slowest block.
"""

import json
import statistics
import time

import networkx as nx
import numpy as np
import pytest

from provrec import features as ft
from provrec import numerics as nm
from provrec.config import PipelineConfig
from provrec.embedding import (
    AttentionRecord,
    HanConfig,
    SubgraphBatch,
    embed_batch,
    embed_subgraph,
    init_han_params,
)
from provrec.evaluation import (
    run_experiment,
    split_few_shot,
    train_pipeline,
    evaluate_end_to_end,
)
from provrec.graph import EntityType, build_graph, disjoint_union
from provrec.matching import (
    MatcherConfig,
    contrastive_loss,
    pair_loss,
    recognition_metrics,
    train_matcher,
)
from provrec.evaluation import evaluate_noi
from provrec.noi import anomaly_scores, detect_nois, fit_forest
from provrec.numerics import GradientTape, Matrix, Rng
from provrec.persistence import load_model, save_model
from provrec.rules import (
    ATTCK_TACTICS,
    KILLCHAIN_ALIGNMENT,
    BlacklistConfig,
    map_to_killchain,
    replay,
)
from provrec.sampling import (
    TechniqueSubgraph,
    lambda_dfs,
    sample_subgraphs,
    sampling_metrics,
)
from provrec.synthetic import generate_scenario

from conftest import ev, make_graph, random_process_graph


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def _random_mixed_graph(gen, n_procs, n_events):
    kinds = [
        ("launch", EntityType.PROCESS), ("read", EntityType.FILE),
        ("write", EntityType.FILE), ("query", EntityType.REGISTRY),
        ("connect", EntityType.SOCKET),
    ]
    events = []
    for t in range(n_events):
        op, kind = kinds[int(gen.integers(len(kinds)))]
        subj = f"p{int(gen.integers(n_procs))}"
        if kind == EntityType.PROCESS:
            obj = f"p{int(gen.integers(n_procs))}"
            if obj == subj:
                obj = f"p{(int(gen.integers(n_procs)) + 1) % n_procs}"
        else:
            obj = f"{kind.value}{int(gen.integers(4))}"
        events.append(ev(subj, op, obj, kind, ts=t))
    return build_graph(events)


def _random_tsg(gen, n_procs=5, n_events=14):
    g = _random_mixed_graph(gen, n_procs, n_events)
    procs = [
        nid for nid, n in g.nodes.items() if n.entity_type == EntityType.PROCESS
    ]
    return TechniqueSubgraph(g, procs, sorted(procs)[0])


# -- shared expensive fixtures -------------------------------------------------


@pytest.fixture(scope="module")
def default_suite():
    """Default configuration over five seeds: datasets, reports, wall time."""
    config = PipelineConfig()
    runs = []
    started = time.perf_counter()
    for seed in range(5):
        dataset = generate_scenario(config.scenario_spec(), seed=seed)
        report = run_experiment(dataset, config, seed=seed)
        runs.append({"seed": seed, "dataset": dataset, "report": report})
    elapsed = time.perf_counter() - started
    return config, runs, elapsed


@pytest.fixture(scope="module")
def seed0_encoder(default_suite):
    config, runs, _ = default_suite
    dataset = runs[0]["dataset"]
    train, test = split_few_shot(dataset, config.shots, seed=0)
    union = disjoint_union([s.graph for s in train])
    encoder = ft.train_encoder(
        union, ft.init_features(union), config.encoder_config(0)
    )
    return config, dataset, test, encoder


# -- criterion 1: gradient fidelity ---------------------------------------------


def test_criterion_1_gradient_fidelity():
    started = time.perf_counter()
    gen = Rng(101)
    worst = {"encoder": 0.0, "attention": 0.0, "siamese": 0.0}

    for _ in range(20):  # encoder: layer stack + type classifier
        g = random_process_graph(gen, 6, int(gen.integers(6, 12)))
        # random feature width keeps the check cheap; the op path is identical
        width = int(gen.integers(3, 6))
        x = gen.normal(0, 1, size=(g.n_nodes, width))
        labels = gen.integers(0, 4, size=g.n_nodes)
        agg = ft.aggregation_matrix(g)
        tape = GradientTape()
        w0 = tape.parameter("w0", gen.normal(0, 0.7, size=(width, 4)))
        w1 = tape.parameter("w1", gen.normal(0, 0.7, size=(4, 4)))
        wc = tape.parameter("wc", gen.normal(0, 0.7, size=(4, 4)))

        def loss():
            h = ft.gnn_layer_forward(agg, Matrix(x), w0)
            h = ft.gnn_layer_forward(agg, h, w1)
            return nm.softmax_cross_entropy(nm.matmul(h, wc), labels)

        worst["encoder"] = max(worst["encoder"], nm.grad_check(loss, tape, eps=1e-5))

    config = HanConfig(dim=3, seed=0)
    for i in range(20):  # the full three-level attention composition
        tsg = _random_tsg(gen, n_procs=4, n_events=10)
        tape = GradientTape()
        params = {
            name: tape.parameter(name, value)
            for name, value in init_han_params(HanConfig(dim=3, seed=i)).items()
        }
        probe = Matrix(gen.normal(0, 1, size=(1, 3)))
        batch = SubgraphBatch([tsg], config)

        def loss():
            return nm.sum_all(nm.mul(embed_batch(batch, params, config), probe))

        worst["attention"] = max(
            worst["attention"], nm.grad_check(loss, tape, eps=1e-5)
        )

    for i in range(20):  # twin-branch pair loss, both pair types
        a = _random_tsg(gen, n_procs=5, n_events=12)
        b = _random_tsg(gen, n_procs=5, n_events=12)
        tape = GradientTape()
        params = {
            name: tape.parameter(name, value)
            for name, value in init_han_params(HanConfig(dim=3, seed=100 + i)).items()
        }
        out_w = tape.parameter("out_w", gen.normal(0, 0.7, size=(3, 3)))
        out_b = tape.parameter("out_b", gen.normal(0, 0.1, size=(1, 3)))
        batch_a, batch_b = SubgraphBatch([a], config), SubgraphBatch([b], config)

        def loss():
            ea = nm.leaky_relu(
                nm.add(nm.matmul(embed_batch(batch_a, params, config), out_w), out_b),
                0.01,
            )
            eb = nm.leaky_relu(
                nm.add(nm.matmul(embed_batch(batch_b, params, config), out_w), out_b),
                0.01,
            )
            return nm.add(
                pair_loss(ea, eb, True, 1.0),
                pair_loss(ea, eb, False, 1.0),
            )

        worst["siamese"] = max(worst["siamese"], nm.grad_check(loss, tape, eps=1e-5))

    elapsed = time.perf_counter() - started
    assert worst["encoder"] < 1e-4
    assert worst["attention"] < 1e-4
    assert worst["siamese"] < 1e-4
    assert elapsed < 60.0
    _ok(1, f"grad_check encoder/attention/siamese max errors "
           f"{worst['encoder']:.2e}/{worst['attention']:.2e}/"
           f"{worst['siamese']:.2e} in {elapsed:.1f}s")


# -- criterion 2: attention normalization ----------------------------------------


def test_criterion_2_attention_distributions_proper():
    gen = Rng(202)
    for i in range(100):
        tsg = _random_tsg(gen, n_procs=int(gen.integers(3, 7)),
                          n_events=int(gen.integers(8, 20)))
        config = HanConfig(dim=6, seed=i)
        record = AttentionRecord()
        embed_subgraph(tsg, init_han_params(config), config, attention=record)
        n = tsg.n_nodes
        for mp in config.metapaths:
            values, dst = record.alpha[mp]
            assert (values >= 0).all()
            sums = np.zeros(n)
            np.add.at(sums, dst, values)
            assert np.abs(sums - 1.0).max() <= 1e-6
        assert (record.beta >= 0).all()
        assert np.abs(record.beta.sum(axis=1) - 1.0).max() <= 1e-6
        assert (record.gamma >= 0).all()
        assert abs(record.gamma.sum() - 1.0) <= 1e-6
    _ok(2, "alpha/beta/gamma nonnegative and sum to 1 +- 1e-6 "
           "on 100 random subgraphs")


# -- criterion 3: contrastive loss exactness --------------------------------------


def test_criterion_3_contrastive_loss_grid():
    distances = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
    margins = [0.5, 1.0, 2.0]
    for d in distances:
        for m in margins:
            assert contrastive_loss(d, True, m) == d * d
            assert contrastive_loss(d, False, m) == max(0.0, m - d)
    for m in margins:  # boundary d == m: different-class loss exactly zero
        assert contrastive_loss(m, False, m) == 0.0
    _ok(3, f"closed-form grid over {len(distances)}x{len(margins)} "
           "(distance, margin) points including the d == m boundary")


# -- criterion 4: sampler oracle equivalence --------------------------------------


def _closure_oracle(graph, seed, nois, lam):
    g = nx.Graph()
    g.add_nodes_from(graph.node_ids())
    for e in graph.edges:
        if e.src != e.dst:
            g.add_edge(e.src, e.dst)
    noi_set = set(nois)
    retained, reached, frontier = {seed}, {seed}, [seed]
    while frontier:
        u = frontier.pop()
        for w in sorted(noi_set - {u}):
            for path in nx.all_simple_paths(g, u, w, cutoff=lam):
                retained.update(path)
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
    return retained


def test_criterion_4_sampler_matches_oracle():
    gen = Rng(404)
    checked = 0
    for trial in range(200):
        n = int(gen.integers(5, 51))
        g = random_process_graph(gen, n, int(gen.integers(n, 3 * n)))
        ids = g.node_ids()
        k = int(gen.integers(2, max(3, len(ids) // 3 + 1)))
        nois = [ids[i] for i in gen.choice(len(ids), size=min(k, len(ids)),
                                           replace=False)]
        seed = nois[0]
        for lam in (1, 2, 3):
            assert lambda_dfs(g, seed, nois, lam) == _closure_oracle(
                g, seed, nois, lam
            )
            checked += 1

    # seed-expansion topology: from v0 the search collects v1, v2, v3 and the
    # benign intermediates, and nothing beyond the hop budget
    g = make_graph(
        [
            ("v0", "launch", "i1", EntityType.PROCESS),
            ("i1", "launch", "v1", EntityType.PROCESS),
            ("v1", "launch", "i2", EntityType.PROCESS),
            ("i2", "launch", "i3", EntityType.PROCESS),
            ("i3", "launch", "v2", EntityType.PROCESS),
            ("v2", "launch", "v3", EntityType.PROCESS),
            ("v0", "launch", "stub", EntityType.PROCESS),
            ("v3", "launch", "far1", EntityType.PROCESS),
            ("far1", "launch", "far2", EntityType.PROCESS),
            ("far2", "launch", "far3", EntityType.PROCESS),
            ("far3", "launch", "v9", EntityType.PROCESS),
        ]
    )
    nois = ["v0", "v1", "v2", "v3", "v9"]
    visited = lambda_dfs(g, "v0", nois, 3)
    assert {"v0", "v1", "v2", "v3"} <= visited
    assert visited == {"v0", "i1", "v1", "i2", "i3", "v2", "v3"}
    subs = sample_subgraphs(g, nois, lam=3, min_nois=4)
    assert len(subs) == 1
    assert {"v0", "v1", "v2", "v3"} <= set(subs[0].node_ids)
    _ok(4, f"lambda-hop search equals the path-closure oracle on "
           f"{checked} graph/lambda cases plus the seed-expansion topology")


# -- criterion 5: metric formulas ---------------------------------------------------


def test_criterion_5_metric_formulas():
    # sampling metrics: five crafted overlap cases
    procs = [f"p{i}" for i in range(16)]
    g = make_graph([(p, "write", "sharedf", EntityType.FILE) for p in procs])

    def tsg(ids):
        return TechniqueSubgraph(g.induced(ids + ["sharedf"]), ids, sorted(ids)[0])

    cases = [
        # (sampled sets, truth sets, precision, coverage, tpr, far)
        ([["p0", "p1"]], [["p0", "p1"]], 1.0, 1.0, 1.0, 0.0),
        ([["p0", "p1", "p2", "p3"]], [["p0", "p1", "p2", "p4"]],
         0.75, 0.75, 0.0, 1.0),
        ([["p0", "p1"], ["p4", "p5"]], [["p0", "p1"]], 0.5, 0.5, 1.0, 0.5),
        ([["p0"]], [["p0", "p1", "p2"]], 1.0, 1 / 3, 0.0, 1.0),
        ([["p0", "p1", "p2"], ["p5", "p6"]],
         [["p0", "p1", "p2"], ["p5", "p6"], ["p8", "p9"]],
         1.0, 1.0, 2 / 3, 0.0),
    ]
    for sampled_ids, truth_ids, p, c, tpr, far in cases:
        m = sampling_metrics([tsg(s) for s in sampled_ids],
                             [tsg(t) for t in truth_ids])
        assert abs(m.precision - p) < 1e-12
        assert abs(m.coverage - c) < 1e-12
        assert abs(m.tpr - tpr) < 1e-12
        assert abs(m.far - far) < 1e-12

    # recognition metrics: five crafted ranking cases
    from provrec.matching import RecognitionResult

    tac = {"t1": "A", "t2": "A", "t3": "B"}

    def res(order):
        return RecognitionResult(
            [(t, tac[t], 0.1 * i) for i, t in enumerate(order)],
            order[0], tac[order[0]],
        )

    rec_cases = [
        ([res(["t1", "t2", "t3"])], [("t1", "A")], (1.0, 1.0, 1.0)),
        ([res(["t2", "t1", "t3"])], [("t1", "A")], (0.0, 1.0, 1.0)),
        ([res(["t3", "t2", "t1"])], [("t1", "A")], (0.0, 1.0, 0.0)),
        ([None], [("t1", "A")], (0.0, 0.0, 0.0)),
        (
            [res(["t1", "t2", "t3"]), res(["t3", "t1", "t2"])],
            [("t2", "A"), ("t3", "B")],
            (0.5, 1.0, 1.0),
        ),
    ]
    for preds, truth, (acc, top3, tactic) in rec_cases:
        m = recognition_metrics(preds, truth)
        assert m["ACC"] == acc and m["Top3ACC"] == top3 and m["TacticACC"] == tactic

    # detector metrics: five crafted confusion cases over a 10-node universe
    universe = [f"n{i}" for i in range(10)]
    det_cases = [
        (set(universe[:5]), set(universe[:5]), (1.0, 1.0, 1.0, 1.0)),
        (set(), set(universe[:5]), (0.5, 0.0, 0.0, 0.0)),
        ({"n0", "n1", "n5"}, {"n0", "n1", "n2"}, (0.8, 2 / 3, 2 / 3, 2 / 3)),
        (set(universe), set(universe[:5]), (0.5, 0.5, 1.0, 2 / 3)),
        ({"n9"}, {"n0"}, (0.8, 0.0, 0.0, 0.0)),
    ]
    for flagged, malicious, (acc, prec, rec, f1) in det_cases:
        m = evaluate_noi(flagged, malicious, universe)
        assert abs(m["Accuracy"] - acc) < 1e-12
        assert abs(m["Precision"] - prec) < 1e-12
        assert abs(m["Recall"] - rec) < 1e-12
        assert abs(m["F1"] - f1) < 1e-12
    _ok(5, "overlap, recognition, and detector metrics match 15 hand-computed "
           "worksheet cases exactly")


# -- criterion 6: detection quality ----------------------------------------------


def test_criterion_6_noi_detection_quality(seed0_encoder):
    # planted-outlier recovery
    hits = 0
    for seed in range(5):
        gen = Rng(600 + seed)
        pts = np.vstack(
            [gen.normal(0, 1, size=(500, 4)), gen.normal(10, 1, size=(5, 4))]
        )
        forest = fit_forest(pts, 100, 256, seed=seed)
        top5 = set(np.argsort(-anomaly_scores(forest, pts))[:5].tolist())
        if top5 == {500, 501, 502, 503, 504}:
            hits += 1
    assert hits >= 4

    # end-to-end precision on the default suite's held-out graphs
    config, dataset, test, encoder = seed0_encoder
    precisions = []
    for sample in test:
        g = sample.graph
        emb = ft.extract_embeddings(encoder, g, ft.init_features(g))
        report = detect_nois(
            g, emb,
            num_trees=config.num_trees, subsample_size=config.subsample,
            score_threshold=config.score_threshold, seed=0,
        )
        flagged = set(report.flagged)
        if flagged:
            truth = sample.truth.noi_set()
            precisions.append(len(flagged & truth) / len(flagged))
    precision = float(np.mean(precisions))
    assert precision >= 0.8
    _ok(6, f"planted outliers top-5 in {hits}/5 seeds; end-to-end flag "
           f"precision {precision:.3f} at threshold {config.score_threshold}")


# -- criterion 7: self-supervised encoder ------------------------------------------


def test_criterion_7_encoder_type_accuracy():
    config = PipelineConfig()
    accs = []
    for seed in range(5):
        spec = config.scenario_spec(seed=1000 + seed)
        spec = type(spec)(
            templates=spec.templates, samples_per_class=2,
            background=spec.background, noise_rate=spec.noise_rate,
            seed=1000 + seed,
        )
        ds = generate_scenario(spec)
        union = disjoint_union([s.graph for s in ds.samples])
        e0 = ft.init_features(union)
        enc = ft.train_encoder(union, e0, config.encoder_config(seed))
        accs.append(ft.type_accuracy(enc, union, e0))
    median = statistics.median(accs)
    assert median >= 0.9
    _ok(7, f"node-type accuracy median {median:.3f} over 5 seeds "
           f"(min {min(accs):.3f})")


# -- criteria 8 and 9: the few-shot suite --------------------------------------------


def test_criterion_8_few_shot_recognition(default_suite):
    config, runs, elapsed = default_suite
    true_acc = [r["report"]["modes"]["True_Graph"]["recognition"]["ACC"]
                for r in runs]
    true_tactic = [
        r["report"]["modes"]["True_Graph"]["recognition"]["TacticACC"]
        for r in runs
    ]
    acc = statistics.median(true_acc)
    tactic = statistics.median(true_tactic)
    assert acc >= 0.8
    assert tactic >= 0.9
    assert elapsed < 600.0
    _ok(8, f"True_Graph median ACC {acc:.3f}, TacticACC {tactic:.3f} over "
           f"5 seeds; suite ran in {elapsed:.0f}s")


def test_criterion_9_mode_ordering(default_suite):
    config, runs, _ = default_suite
    medians = {}
    for mode in ("Raw_Graph", "Sampled_Graph", "True_Graph"):
        medians[mode] = statistics.median(
            r["report"]["modes"][mode]["recognition"]["ACC"] for r in runs
        )
    assert medians["Raw_Graph"] <= medians["Sampled_Graph"] <= medians["True_Graph"]
    _ok(9, f"median ACC ordering holds: raw {medians['Raw_Graph']:.3f} <= "
           f"sampled {medians['Sampled_Graph']:.3f} <= "
           f"true {medians['True_Graph']:.3f}")


# -- criterion 10: coverage monotone in the hop budget --------------------------------


def test_criterion_10_coverage_monotone_in_lambda(seed0_encoder):
    config, dataset, test, encoder = seed0_encoder
    lams = (1, 2, 3, 4)
    mean_coverage = {}
    per_pair = {lam: [] for lam in lams}
    for sample in test:
        g = sample.graph
        emb = ft.extract_embeddings(encoder, g, ft.init_features(g))
        report = detect_nois(
            g, emb,
            num_trees=config.num_trees, subsample_size=config.subsample,
            score_threshold=config.score_threshold, seed=0,
        )
        if not report.flagged:
            continue
        # the stated inclusion property, checked directly
        from provrec.sampling import select_seed

        seed_node = select_seed(report.flagged, g)
        previous = None
        for lam in lams:
            visited = lambda_dfs(g, seed_node, set(report.flagged), lam)
            if previous is not None:
                assert previous <= visited
            previous = visited
        # per-pair coverage of the carved subgraphs against the truth
        for lam in lams:
            subs = sample_subgraphs(g, report.flagged, lam=lam,
                                    min_nois=config.min_nois)
            m = sampling_metrics(subs, [sample.truth])
            per_pair[lam].append(m.coverage)
    for lam in lams:
        mean_coverage[lam] = float(np.mean(per_pair[lam])) if per_pair[lam] else 0.0
    for a, b in zip(lams, lams[1:]):
        assert mean_coverage[a] <= mean_coverage[b] + 1e-12
    _ok(10, "visited sets nest for lambda 1..4 and mean pair coverage is "
            f"non-decreasing: {[round(mean_coverage[l], 3) for l in lams]}")


# -- criterion 11: few-shot extensibility ----------------------------------------------


def test_criterion_11_extensibility():
    gen = Rng(111)

    def cls_tsg(kind, salt):
        if kind == 0:
            trips = [(f"p{i}", "read", f"f{(i + salt) % 3}", EntityType.FILE)
                     for i in range(4)]
        elif kind == 1:
            trips = [(f"p{i}", "connect", f"s{(i + salt) % 3}", EntityType.SOCKET)
                     for i in range(4)]
        else:
            trips = [(f"p{i}", "modify", f"r{(i + salt) % 3}", EntityType.REGISTRY)
                     for i in range(4)]
        return TechniqueSubgraph(
            make_graph(trips), [f"p{i}" for i in range(4)], "p0"
        )

    samples = [(cls_tsg(0, s), "tech-files") for s in range(2)]
    samples += [(cls_tsg(1, s), "tech-socks") for s in range(2)]
    model = train_matcher(
        samples, MatcherConfig(han=HanConfig(dim=8, seed=4), epochs=15, seed=4)
    )
    from provrec.matching import ExemplarSet

    exemplars = ExemplarSet()
    exemplars.add_class("tech-files", "Collection",
                        [s for s, l in samples if l == "tech-files"], model)
    exemplars.add_class("tech-socks", "Exfiltration",
                        [s for s, l in samples if l == "tech-socks"], model)

    weights_before = {k: v.copy() for k, v in model.weights().items()}
    techs = exemplars.techniques()
    distances_before = {
        (a, b): model.distance_of(exemplars.get(a).embedding,
                                  exemplars.get(b).embedding)
        for a in techs for b in techs
    }
    exemplars.add_exemplar("tech-registry", "Persistence", cls_tsg(2, 0), model)
    for name, value in model.weights().items():
        assert (value == weights_before[name]).all()
    for (a, b), d in distances_before.items():
        now = model.distance_of(exemplars.get(a).embedding,
                                exemplars.get(b).embedding)
        assert now == d
    assert len(exemplars) == 3
    _ok(11, "adding a class left every weight and prior distance bit-identical")


# -- criterion 12: rule baseline ---------------------------------------------------------


def test_criterion_12_rule_baseline():
    bl = BlacklistConfig(
        files={"scheduled_tasks": ("c:/windows/tasks/*",)},
        untrusted_addresses=("203.0.113.*",),
    )

    def e(subject, operation, obj, obj_type, ts):
        from provrec.graph import Event

        return Event(subject, EntityType.PROCESS, operation, obj, obj_type, ts)

    events = [
        e("browser", "connect", "203.0.113.7:443", EntityType.SOCKET, 1),
        e("browser", "receive", "203.0.113.7:443", EntityType.SOCKET, 2),
        e("browser", "write", "c:/dl/stage.exe", EntityType.FILE, 3),
        e("viewer", "read", "c:/docs/readme.txt", EntityType.FILE, 4),
        e("shell", "execute", "c:/dl/stage.exe", EntityType.FILE, 5),
        e("shell", "launch", "worker", EntityType.PROCESS, 6),
        e("worker", "read", "c:/docs/other.txt", EntityType.FILE, 7),
        e("shell", "write", "c:/windows/tasks/persist.job", EntityType.FILE, 8),
        e("viewer", "close", "c:/docs/readme.txt", EntityType.FILE, 9),
        e("worker", "enum", "c:/docs", EntityType.FILE, 10),
        e("shell", "modify", "hklm/other/key", EntityType.REGISTRY, 11),
        e("worker", "disconnect", "10.0.0.2:80", EntityType.SOCKET, 12),
    ]
    assert len(events) == 12
    _, alerts = replay(events, blacklists=bl)
    assert [(a.ts, a.rule_id, a.tactic) for a in alerts] == [
        (3, "IA-1", "Initial Access"),
        (5, "EX-1", "Execution"),
        (8, "EX-3", "Execution"),
        (8, "PE-1", "Persistence"),
    ]

    for stage, tactics in KILLCHAIN_ALIGNMENT.items():
        reconstructed = {t for t in ATTCK_TACTICS if stage in map_to_killchain(t)}
        assert reconstructed == set(tactics), stage
    _ok(12, "12-event trace produced the expected alert sequence and all "
            "seven alignment rows reconstruct from the tactic mapping")


# -- criterion 13: determinism and persistence ----------------------------------------


def test_criterion_13_determinism_and_persistence(tmp_path):
    config = PipelineConfig(
        d=16, hidden=16, encoder_epochs=120, matcher_epochs=20,
        samples_per_class=3, shots=2, background=40, seed=33,
    )

    def full_run(out_dir):
        dataset = generate_scenario(config.scenario_spec(), seed=33)
        train, test = split_few_shot(dataset, config.shots, seed=33)
        models = train_pipeline(train, config, seed=33)
        bundle = out_dir / "bundle.json"
        save_model(models, bundle)
        report = {
            mode: evaluate_end_to_end(test, mode, models, config, seed=33)
            for mode in ("True_Graph", "Sampled_Graph")
        }
        return bundle, report, test

    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    d1.mkdir(), d2.mkdir()
    bundle1, report1, test1 = full_run(d1)
    bundle2, report2, _ = full_run(d2)
    assert report1 == report2
    assert bundle1.read_bytes() == bundle2.read_bytes()

    # checkpoint round trip reproduces inference bit for bit
    loaded = load_model(bundle1, expect_kind="bundle")
    reloaded_report = {
        mode: evaluate_end_to_end(test1, mode, loaded, config, seed=33)
        for mode in ("True_Graph", "Sampled_Graph")
    }
    assert reloaded_report == report1
    query = test1[0].truth
    assert (loaded.matcher.embed(query) == load_model(bundle2).matcher.embed(query)).all()
    _ok(13, "two fresh runs and a checkpoint round trip produced "
            "bit-identical reports and weights")
