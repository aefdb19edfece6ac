"""Contrastive loss, triplet building, twin-branch training, and recognition."""

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

from provrec import matching
from provrec import numerics as nm
from provrec.config import PipelineConfig
from provrec.embedding import (
    HanConfig,
    SubgraphBatch,
    embed_batch,
    embed_subgraph,
    init_han_params,
)
from provrec.evaluation import split_few_shot, train_pipeline
from provrec.features import FEATURE_DIM
from provrec.graph import EntityType, Event, build_graph, graph_to_events
from provrec.matching import (
    UNKNOWN,
    ExemplarSet,
    MatcherConfig,
    SiameseModel,
    branch,
    build_triplets,
    contrastive_loss,
    distances,
    pair_loss,
    pick_representative,
    recognition_metrics,
    recognize,
    recognize_many,
    train_matcher,
    triplet_loss,
)
from provrec.numerics import GradientTape, Matrix, Rng
from provrec.sampling import TechniqueSubgraph, sample_subgraphs
from provrec.synthetic import DEFAULT_TEMPLATES, generate_sample, generate_scenario

from testkit import make_graph, node_batch


def _distance(ea, eb):
    return float(distances(ea[None], eb[None])[0, 0])


def _tsg(triples):
    g = make_graph(triples)
    procs = [
        nid for nid, n in g.nodes.items() if n.entity_type == EntityType.PROCESS
    ]
    return TechniqueSubgraph(g, procs, sorted(procs)[0])


def _variant(kind, salt):
    """Small subgraphs of two visibly different shapes, jittered by salt."""
    if kind == "files":
        return _tsg(
            [(f"p{i}", "read", f"f{(i + salt) % 3}", EntityType.FILE)
             for i in range(3 + salt % 2)]
            + [("p0", "read", "f9", EntityType.FILE)] * (salt % 2)
        )
    return _tsg(
        [(f"p{i}", "connect", f"s{(i + salt) % 3}", EntityType.SOCKET)
         for i in range(3 + salt % 2)]
        + [("p0", "send", "s9", EntityType.SOCKET)] * (salt % 2)
    )


# -- contrastive loss ----------------------------------------------------------


@pytest.mark.parametrize(
    "d,same,m,expected",
    [
        (0.0, True, 1.0, 0.0),
        (1.5, False, 1.0, 0.0),
        (0.3, False, 1.0, 0.7),
        (1.0, False, 1.0, 0.0),   # boundary d == m
        (0.5, True, 1.0, 0.25),
        (2.0, True, 0.5, 4.0),
        (0.5, False, 0.0, 0.0),   # m = 0 degenerates the negative side
    ],
)
def test_contrastive_loss_closed_form(d, same, m, expected):
    assert contrastive_loss(d, same, m) == expected


def test_contrastive_loss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        contrastive_loss(-0.1, True, 1.0)
    with pytest.raises(ValueError):
        contrastive_loss(0.5, False, -1.0)
    # a NaN compares false with 0, and the negative side's max(0, ·) hid it
    with pytest.raises(ValueError, match="distance"):
        contrastive_loss(float("nan"), False, 1.0)
    with pytest.raises(ValueError, match="margin"):
        contrastive_loss(0.5, False, float("nan"))


def test_model_margin_must_be_positive():
    for margin in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="margin must be a finite number above 0"):
            MatcherConfig(margin=margin)


# -- triplets --------------------------------------------------------------------


def test_two_by_two_gives_four_triplets():
    labels = ["a", "a", "b", "b"]
    triplets = build_triplets(labels, Rng(3))
    assert len(triplets) == 4
    for t in triplets:
        assert labels[t.anchor] == labels[t.positive]
        assert labels[t.anchor] != labels[t.negative]
        assert t.anchor != t.positive
    # each triplet splits into a positive and a negative pair
    assert 2 * len(triplets) == 8


def test_singleton_class_skipped_as_anchor_but_used_as_negative():
    labels = ["a", "a", "solo"]
    with pytest.warns(UserWarning, match="solo"):
        triplets = build_triplets(labels, Rng(4))
    assert {t.anchor for t in triplets} == {0, 1}
    assert any(t.negative == 2 for t in triplets)


def test_triplet_stream_is_seed_deterministic():
    labels = ["a", "a", "b", "b", "c", "c"]
    t1 = build_triplets(labels, Rng(5))
    t2 = build_triplets(labels, Rng(5))
    assert t1 == t2


def test_single_class_rejected():
    with pytest.raises(ValueError):
        build_triplets(["a", "a"], Rng(1))


# -- training --------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_model():
    samples = [(_variant("files", s), "file-tech") for s in range(3)]
    samples += [(_variant("socks", s), "sock-tech") for s in range(3)]
    config = MatcherConfig(han=HanConfig(dim=8, seed=2), epochs=40, lr=0.05, seed=2)
    return samples, train_matcher(samples, config)


def test_training_separates_classes(small_model):
    samples, model = small_model
    embs = {i: model.embed(s) for i, (s, _) in enumerate(samples)}
    intra, inter = [], []
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            d = _distance(embs[i], embs[j])
            (intra if samples[i][1] == samples[j][1] else inter).append(d)
    assert np.mean(intra) < np.mean(inter)


def test_training_is_bit_deterministic(small_model):
    samples, model = small_model
    again = train_matcher(samples, model.config)
    for name, value in model.weights().items():
        assert (value == again.weights()[name]).all()
    assert model.loss_curve == again.loss_curve


def test_epoch_loss_settles(small_model):
    _, model = small_model
    tail = model.loss_curve[-max(1, len(model.loss_curve) // 10):]
    for earlier, later in zip(tail, tail[1:]):
        assert later <= earlier + 1e-6


def test_branch_symmetry_exact(small_model):
    samples, model = small_model
    a, b = samples[0][0], samples[3][0]
    ea, eb = model.embed(a), model.embed(b)
    assert _distance(ea, eb) == _distance(eb, ea)
    assert _distance(ea, model.embed(a)) == 0.0


def test_inference_embeds_reuse_the_wrapped_weights(small_model, monkeypatch):
    _, model = small_model
    tsg = _variant("socks", 5)
    han = model.config.han
    # reference: the same forward fed plain arrays, wrapped call by call
    want = _one_branch(tsg, model.weights(), han)
    tsg = _variant("socks", 5)
    made = []
    init = Matrix.__init__

    def counting_init(self, value, **kwargs):
        made.append(np.shape(value))
        init(self, value, **kwargs)

    batch = SubgraphBatch([tsg], han)
    rows, classes = batch.features.rows, len(batch.sizes)
    assert rows < classes < tsg.n_nodes
    monkeypatch.setattr(Matrix, "__init__", counting_init)
    first, second = model.embed(tsg), model.embed(tsg)
    # each embed wraps only its own batch's feature rows, the class sizes and
    # the subgraph's node count; no weight is copied
    assert made == [(rows, FEATURE_DIM), (classes, 1), (1, 1)] * 2, made
    assert (first == want).all() and (second == want).all()


def _one_branch(tsg, weights, han):
    """The branch written out for one subgraph: :func:`embed_subgraph`, then
    the fully connected head; a (dim,) row."""
    h = embed_subgraph(tsg, weights, han)
    z = nm.add(nm.matmul(h, weights["out_w"]), weights["out_b"])
    return nm.leaky_relu(z).value[0].copy()


def test_embed_equals_the_one_subgraph_forward(small_model):
    samples, model = small_model
    han = model.config.han
    for tsg, _ in samples:
        assert (model.embed(tsg) == _one_branch(tsg, model.weights(), han)).all()


def test_recognize_keeps_no_batch_on_the_query(small_model):
    samples, model = small_model
    exemplars = ExemplarSet()
    for tsg, tech in samples:
        if tech not in exemplars.techniques():
            exemplars.add_exemplar(tech, "TA", tsg, model)
    query = _variant("socks", 6)
    before = dict(vars(query))
    recognize(query, exemplars, model)
    assert vars(query).keys() == before.keys()
    assert all(vars(query)[k] is v for k, v in before.items())


# -- gradients through the pair loss ----------------------------------------------


def test_pair_loss_grad_check():
    config = HanConfig(dim=4, seed=11)
    a, b = _variant("files", 0), _variant("socks", 0)
    tape = GradientTape()
    params = {
        name: tape.parameter(name, value)
        for name, value in init_han_params(config).items()
    }

    batch_a, batch_b = SubgraphBatch([a], config), SubgraphBatch([b], config)

    def loss():
        ea = embed_batch(batch_a, params, config)
        eb = embed_batch(batch_b, params, config)
        return nm.add(
            pair_loss(ea, eb, False, 1.0),
            pair_loss(ea, ea, True, 1.0),
        )

    assert nm.grad_check(loss, list(params.values()), eps=1e-5) < 1e-4


def test_shared_gradient_is_sum_of_branch_contributions():
    config = HanConfig(dim=4, seed=12)
    a, b = _variant("files", 1), _variant("socks", 1)
    init = init_han_params(config)
    batch_a, batch_b = SubgraphBatch([a], config), SubgraphBatch([b], config)

    def grads(freeze_a, freeze_b):
        tape = GradientTape()
        params = {k: tape.parameter(k, v.copy()) for k, v in init.items()}
        const = {k: Matrix(v) for k, v in init.items()}
        ea = embed_batch(batch_a, const if freeze_a else params, config)
        eb = embed_batch(batch_b, const if freeze_b else params, config)
        diff = nm.sub(ea, eb)
        tape.backward(nm.sum_all(nm.mul(diff, diff)))
        return {k: p.grad.copy() for k, p in params.items()}

    both = grads(False, False)
    only_a = grads(False, True)
    only_b = grads(True, False)
    for key in both:
        assert np.allclose(both[key], only_a[key] + only_b[key], atol=1e-9)


# -- medoid ------------------------------------------------------------------------


class _StubModel:
    """Distance on precomputed 1-D embeddings, for medoid tests."""

    def __init__(self, values):
        self.values = {id(v): np.array([x]) for v, x in values}
        self._items = values

    def embed(self, tsg):
        return self.values[id(tsg)]

    def embed_many(self, tsgs):
        return np.array([self.embed(t) for t in tsgs])


def test_single_sample_is_its_own_representative(small_model):
    samples, model = small_model
    assert pick_representative([samples[0][0]], model) == 0


def test_three_points_on_a_line_pick_middle():
    tsgs = [_variant("files", i) for i in range(3)]
    stub = _StubModel(list(zip(tsgs, [0.0, 1.0, 10.0])))
    assert pick_representative(tsgs, stub) == 1


def test_medoid_matches_quadratic_scan():
    # odd count: an even count of non-central points can tie two central
    # medoid sums exactly, leaving the winner to float summation order
    gen = Rng(21)
    tsgs = [_variant("files", i % 3) for i in range(11)]
    values = gen.normal(0, 1, size=11)
    stub = _StubModel(list(zip(tsgs, values)))
    dist = np.abs(values[:, None] - values[None, :])
    want = int(np.argmin(dist.sum(axis=1)))
    assert pick_representative(tsgs, stub) == want


def test_empty_class_rejected(small_model):
    _, model = small_model
    with pytest.raises(ValueError):
        pick_representative([], model)


# -- recognition ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def exemplar_setup(small_model):
    samples, model = small_model
    exemplars = ExemplarSet()
    exemplars.add_class(
        "file-tech", "Collection", [s for s, l in samples if l == "file-tech"], model
    )
    exemplars.add_class(
        "sock-tech", "Exfiltration", [s for s, l in samples if l == "sock-tech"], model
    )
    return samples, model, exemplars


def test_representative_matches_itself_at_distance_zero(exemplar_setup):
    _, model, exemplars = exemplar_setup
    rep = exemplars.get("file-tech").subgraph
    result = recognize(rep, exemplars, model)
    assert result.decision == "file-tech"
    assert result.ranking[0][2] == 0.0


def test_zero_unknown_threshold_rejects_everything(exemplar_setup):
    samples, model, exemplars = exemplar_setup
    fresh = _variant("files", 7)
    result = recognize(fresh, exemplars, model, unknown_threshold=0.0)
    assert result.decision == UNKNOWN
    assert result.decision_tactic is None
    assert result.ranking  # ranking still reported


def test_recognition_matches_nearest_exemplar_oracle(exemplar_setup):
    samples, model, exemplars = exemplar_setup
    for query in [_variant("files", 5), _variant("socks", 5)]:
        e = model.embed(query)
        oracle = min(
            exemplars.techniques(),
            key=lambda t: (_distance(e, exemplars.get(t).embedding), t),
        )
        assert recognize(query, exemplars, model).decision == oracle


def test_empty_exemplar_set_rejected(exemplar_setup):
    samples, model, _ = exemplar_setup
    with pytest.raises(ValueError):
        recognize(samples[0][0], ExemplarSet(), model)


def test_no_queries_run_no_forward(exemplar_setup, monkeypatch):
    samples, model, exemplars = exemplar_setup

    def no_forward(subgraphs):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(model, "embed_many", no_forward)
    assert recognize_many([], exemplars, model) == []
    with pytest.raises(ValueError, match="exemplar set is empty"):
        recognize_many([samples[0][0]], ExemplarSet(), model)


@pytest.fixture(scope="module")
def default_queries():
    """The default pipeline at seed 0 and its held-out truth subgraphs."""
    config = PipelineConfig()
    dataset = generate_scenario(config.scenario_spec(), seed=0)
    train, test = split_few_shot(dataset, config.shots, 0)
    return train_pipeline(train, config, 0), [s.truth for s in test]


def test_a_query_ranks_alike_alone_and_in_any_batch(default_queries):
    models, queries = default_queries
    exemplars, model = models.exemplars, models.matcher
    alone = [recognize(q, exemplars, model) for q in queries]
    assert alone == [recognize_many([q], exemplars, model)[0] for q in queries]
    n = len(queries)
    batches = {
        "forward": list(range(n)),
        "reversed": list(range(n))[::-1],
        "shuffled": [int(i) for i in Rng(3).permutation(n)],
        "duplicate": [*range(n), n // 2],
    }
    for name, order in batches.items():
        got = recognize_many([queries[i] for i in order], exemplars, model)
        assert len(got) == len(order)
        for i, result in zip(order, got):
            want = alone[i]
            assert [r[:2] for r in result.ranking] == [
                r[:2] for r in want.ranking], (name, i)
            assert (result.decision, result.decision_tactic) == (
                want.decision, want.decision_tactic), (name, i)
            # a query equal to its exemplar is at 0 alone and ~1e-15 in a batch
            np.testing.assert_allclose([r[2] for r in result.ranking],
                                       [r[2] for r in want.ranking],
                                       rtol=1e-12, atol=1e-12)


def test_stale_exemplar_cache_recomputed(exemplar_setup):
    samples, model, exemplars = exemplar_setup
    entry = exemplars.get("file-tech")
    entry.embedding = entry.embedding + 100.0
    entry.model_hash = "stale"
    fresh = exemplars.embeddings(model)[exemplars.techniques().index("file-tech")]
    assert (fresh == model.embed(entry.subgraph)).all()
    assert entry.model_hash == model.content_hash()


def test_exemplar_set_round_trip(exemplar_setup, tmp_path):
    _, model, exemplars = exemplar_setup
    from provrec.persistence import load_model, save_model

    path = tmp_path / "exemplars.json"
    save_model(exemplars, path)
    loaded = load_model(path, expect_kind="exemplar_set")
    assert loaded.techniques() == exemplars.techniques()
    for tech in loaded.techniques():
        assert (loaded.get(tech).embedding == exemplars.get(tech).embedding).all()


# -- few-shot extensibility ------------------------------------------------------------


def test_adding_a_class_changes_no_weights_or_distances(exemplar_setup):
    samples, model, exemplars = exemplar_setup
    weights_before = {k: v.copy() for k, v in model.weights().items()}
    embeddings_before = {
        t: exemplars.get(t).embedding.copy() for t in exemplars.techniques()
    }
    pairwise_before = {
        (t1, t2): _distance(exemplars.get(t1).embedding, exemplars.get(t2).embedding)
        for t1 in exemplars.techniques()
        for t2 in exemplars.techniques()
    }

    seventh = _tsg(
        [(f"p{i}", "modify", "runkey", EntityType.REGISTRY) for i in range(4)]
    )
    exemplars.add_exemplar("reg-tech", "Persistence", seventh, model)

    for name, value in model.weights().items():
        assert (value == weights_before[name]).all()
    for tech, emb in embeddings_before.items():
        assert (exemplars.get(tech).embedding == emb).all()
    for (t1, t2), d in pairwise_before.items():
        now = _distance(exemplars.get(t1).embedding, exemplars.get(t2).embedding)
        assert now == d
    assert "reg-tech" in exemplars.techniques()


# -- metrics -----------------------------------------------------------------------------


def _result(ranking):
    from provrec.matching import RecognitionResult

    return RecognitionResult(ranking, ranking[0][0], ranking[0][1])


def test_all_rank_one_correct_scores_ones():
    ranking = [("t1", "tacA", 0.1), ("t2", "tacB", 0.5)]
    preds = [_result(ranking)] * 3
    truth = [("t1", "tacA")] * 3
    assert recognition_metrics(preds, truth) == {
        "ACC": 1.0, "Top3ACC": 1.0, "TacticACC": 1.0
    }


def test_wrong_technique_same_tactic_counts_for_tactic_only():
    preds = [_result([("t2", "tacA", 0.1), ("t1", "tacA", 0.2)])]
    truth = [("t1", "tacA")]
    m = recognition_metrics(preds, truth)
    assert m["ACC"] == 0.0
    assert m["Top3ACC"] == 1.0
    assert m["TacticACC"] == 1.0


def test_ten_case_worksheet():
    techniques = [("t1", "A"), ("t2", "A"), ("t3", "B"), ("t4", "C")]

    def ranking(order):
        return [(t, dict(techniques)[t], 0.1 * i) for i, t in enumerate(order)]

    cases = [
        (ranking(["t1", "t2", "t3", "t4"]), ("t1", "A"), (1, 1, 1)),
        (ranking(["t2", "t1", "t3", "t4"]), ("t1", "A"), (0, 1, 1)),
        (ranking(["t3", "t1", "t2", "t4"]), ("t1", "A"), (0, 1, 0)),
        (ranking(["t4", "t3", "t2", "t1"]), ("t1", "A"), (0, 0, 0)),
        (ranking(["t3", "t4", "t1", "t2"]), ("t3", "B"), (1, 1, 1)),
        (ranking(["t4", "t3", "t1", "t2"]), ("t3", "B"), (0, 1, 0)),
        (ranking(["t1", "t2", "t4", "t3"]), ("t3", "B"), (0, 0, 0)),
        (None, ("t2", "A"), (0, 0, 0)),
        (ranking(["t2", "t1", "t4", "t3"]), ("t2", "A"), (1, 1, 1)),
        (ranking(["t1", "t4", "t2", "t3"]), ("t2", "A"), (0, 1, 1)),
    ]
    preds = [(None if r is None else _result(r)) for r, _, _ in cases]
    truth = [t for _, t, _ in cases]
    # hand totals
    want_acc = sum(a for _, _, (a, _, _) in cases) / 10
    want_top3 = sum(b for _, _, (_, b, _) in cases) / 10
    want_tactic = sum(c for _, _, (_, _, c) in cases) / 10
    m = recognition_metrics(preds, truth)
    assert m == {"ACC": want_acc, "Top3ACC": want_top3, "TacticACC": want_tactic}


def test_acc_bounded_by_top3_and_tactic():
    gen = Rng(17)
    techniques = [("t1", "A"), ("t2", "A"), ("t3", "B"), ("t4", "B")]
    tactic = dict(techniques)
    preds, truth = [], []
    for _ in range(60):
        order = list(gen.permutation([t for t, _ in techniques]))
        preds.append(_result([(t, tactic[t], i * 0.1) for i, t in enumerate(order)]))
        pick = techniques[int(gen.integers(4))]
        truth.append(pick)
    m = recognition_metrics(preds, truth)
    assert m["ACC"] <= m["Top3ACC"]
    assert m["ACC"] <= m["TacticACC"]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        recognition_metrics([], [("t1", "A")])


def test_matcher_checkpoint_round_trip(small_model, tmp_path):
    samples, model = small_model
    from provrec.persistence import load_model, save_model

    path = tmp_path / "matcher.json"
    save_model(model, path)
    loaded = load_model(path, expect_kind="siamese_matcher")
    query = samples[0][0]
    assert (loaded.embed(query) == model.embed(query)).all()
    assert loaded.content_hash() == model.content_hash()


def _rebuilt(model, config=None, bump=None):
    """A copy of ``model`` whose weight ``bump`` has its last entry one ulp up."""
    weights = {name: value.copy() for name, value in model.weights().items()}
    if bump is not None:
        weights[bump].flat[-1] = np.nextafter(weights[bump].flat[-1], np.inf)
    return SiameseModel(config or model.config, weights)


def test_model_refuses_a_weight_outside_its_shape_table(small_model):
    _, model = small_model
    weights = model.weights()
    with pytest.raises(ValueError, match="unknown parameters \\['att_w_MP9'\\]"):
        SiameseModel(model.config, {**weights, "att_w_MP9": weights["att_w_MP1"]})
    del weights["out_b"]
    with pytest.raises(ValueError, match="missing parameter 'out_b'"):
        SiameseModel(model.config, weights)


def test_negative_pair_at_distance_zero_trains():
    # one subgraph under two labels: every negative pair sits at distance 0,
    # where the hinge's gradient is taken as 0
    tsg = _variant("files", 0)
    samples = [(tsg, "a"), (tsg, "a"), (tsg, "b"), (tsg, "b")]
    config = MatcherConfig(han=HanConfig(dim=4, seed=1), epochs=3, seed=1)
    model = train_matcher(samples, config)
    assert model.loss_curve == [0.5, 0.5, 0.5]


def test_content_hash_sees_one_ulp_in_any_weight(small_model):
    _, model = small_model
    base = model.content_hash()
    assert _rebuilt(model).content_hash() == base
    names = list(model.weights())
    assert len(names) == 15  # 13 encoder weights, out_w and out_b
    hashes = {_rebuilt(model, bump=name).content_hash() for name in names}
    assert len(hashes) == len(names) and base not in hashes
    wider = dataclasses.replace(model.config, margin=model.config.margin * 2)
    assert _rebuilt(model, config=wider).content_hash() != base


# -- batched training epoch ------------------------------------------------------------


def test_batched_epoch_matches_looped_reference():
    tsgs = [_variant(kind, s) for kind in ("files", "socks") for s in range(3)]
    labels = ["f"] * 3 + ["s"] * 3
    triplets = build_triplets(labels, Rng(5))
    config = HanConfig(dim=6, seed=8)
    head_rng = Rng(9)
    init = init_han_params(config)
    init["out_w"] = head_rng.normal(0, 0.4, size=(6, 6))
    init["out_b"] = head_rng.normal(0, 0.1, size=(1, 6))

    def loss_and_grads(loss_fn):
        tape = GradientTape()
        params = {k: tape.parameter(k, v.copy()) for k, v in init.items()}
        loss = loss_fn(params)
        tape.backward(loss)
        return loss.item(), {k: p.grad for k, p in params.items()}

    def batched(params, batch=node_batch(tsgs, config)):
        z = branch(batch, params, config)
        rows = [nm.RowIndex([getattr(t, r) for t in triplets], len(tsgs))
                for r in ("anchor", "positive", "negative")]
        return triplet_loss(z, *rows, 1.0)

    classes = SubgraphBatch(tsgs, config)
    assert classes.features.rows < sum(t.n_nodes for t in tsgs)

    def classed(params):
        return batched(params, classes)

    def looped(params):
        z = [nm.leaky_relu(nm.add(nm.matmul(embed_subgraph(t, params, config),
                                            params["out_w"]), params["out_b"]))
             for t in tsgs]
        total = None
        for t in triplets:
            for other, same in ((t.positive, True), (t.negative, False)):
                term = pair_loss(z[t.anchor], z[other], same, 1.0)
                total = term if total is None else nm.add(total, term)
        return nm.scale(total, 1.0 / (2 * len(triplets)))

    loss_l, grads_l = loss_and_grads(looped)
    for forward in (batched, classed):
        loss_b, grads_b = loss_and_grads(forward)
        assert loss_b > 0
        assert abs(loss_b - loss_l) <= 1e-12
        for name in init:
            assert np.abs(grads_b[name] - grads_l[name]).max() <= 1e-12, name


def _train_on_nodes(samples, config, monkeypatch):
    """``train_matcher`` on the per-node batch: the reference its class batch
    must reproduce."""
    with monkeypatch.context() as patch:
        patch.setattr(matching, "SubgraphBatch", node_batch)
        return train_matcher(samples, config)


@pytest.mark.parametrize("seed,metapaths", [
    (0, None), (3, None), (3, ("MP1", "MP2")),
], ids=["seed0", "seed3", "seed3_mp1_mp2"])
def test_class_training_matches_node_training(seed, metapaths, monkeypatch):
    config = PipelineConfig(seed=seed)
    train, _ = split_few_shot(generate_scenario(config.scenario_spec(), seed=seed),
                              config.shots, seed)
    samples = [(s.truth, s.technique) for s in train]
    matcher = config.matcher_config()
    matcher = dataclasses.replace(matcher, han=dataclasses.replace(
        matcher.han, metapaths=metapaths or matcher.han.metapaths))
    got = train_matcher(samples, matcher)
    want = _train_on_nodes(samples, matcher, monkeypatch)
    assert len(got.loss_curve) == matcher.epochs
    curve = np.array(want.loss_curve)
    assert (np.abs(np.array(got.loss_curve) - curve) <= 1e-12 * np.abs(curve)).all()
    for name, value in want.weights().items():
        assert np.abs(got.weights()[name] - value).max() <= 1e-12, name


@pytest.mark.parametrize("seed, counts", [
    (0, (410, 48, 104, 184)), (5, (410, 45, 97, 182)),
])
def test_each_attention_level_runs_on_fewer_rows(seed, counts):
    # nodes, then feature rows (node level), shared classes (path level) and
    # classes (graph level) of the default training batch
    config = PipelineConfig(seed=seed)
    train, _ = split_few_shot(generate_scenario(config.scenario_spec(), seed=seed),
                              config.shots, seed)
    tsgs = [s.truth for s in train]
    batch = SubgraphBatch(tsgs, config.han_config())
    n, rows, shared, classes = got = (sum(t.n_nodes for t in tsgs), batch.features.rows,
                                      batch.shared_of.size, len(batch.sizes))
    assert rows < shared < classes < n
    assert got == counts


def test_embed_many_matches_single_embeds(small_model):
    samples, model = small_model
    tsgs = [s for s, _ in samples]
    many = model.embed_many(tsgs)
    for row, tsg in zip(many, tsgs):
        assert np.abs(row - model.embed(tsg)).max() <= 1e-12


# -- scale ---------------------------------------------------------------------


def test_thousand_node_hub_carve_embeds_in_bounded_memory():
    # every process of a generated host also reads 3 shared files, so the
    # carve's MP2 pairs grow with the square of its ≈1,100 processes
    sample = generate_sample(DEFAULT_TEMPLATES[1], Rng(4800).split("host"), 1000, 0.05)
    procs = [n for n in sample.graph.node_ids()
             if sample.graph.entity_type(n) == EntityType.PROCESS]
    graph = build_graph(graph_to_events(sample.graph) + [
        Event(p, EntityType.PROCESS, "read", f"hub_lib{j}", EntityType.FILE, 0)
        for p in procs for j in range(3)])
    flags = sorted(sample.truth.nois) + procs[::len(procs) // 8]
    (tsg,) = sample_subgraphs(graph, flags, lam=4, min_nois=5)
    assert tsg.n_nodes >= 1000
    config = MatcherConfig()
    d = config.han.dim
    model = SiameseModel(config, {**init_han_params(config.han), "out_w": np.eye(d),
                                  "out_b": np.zeros((1, d))})
    tracemalloc.start()
    try:
        started = time.perf_counter()
        out = model.embed(tsg)
        seconds = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(out).all()
    # ≈17 MB and ≈0.06 s on a 2-core host, with the 1.24M MP2 neighbour
    # pairs held as one sparse product (≈150 MB and ≈1.2 s when they were
    # listed per node); a forward over nodes took 4.0 GB and 7.9 s on a
    # 1,120-node carve
    assert peak < 64 * 2**20, peak
    assert seconds < 1.0
