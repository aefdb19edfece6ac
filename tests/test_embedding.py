"""Meta-path neighborhoods and the three-level attention composition."""

from types import SimpleNamespace

import numpy as np
import pytest

from provrec import embedding as em
from provrec import features as ft
from provrec import numerics as nm
from provrec.embedding import (
    META_PATHS,
    METAPATH_COMBOS,
    AttentionRecord,
    HanConfig,
    SubgraphBatch,
    embed_batch,
    embed_subgraph,
    graph_level_embed,
    _node_level,
    init_han_params,
    metapath_neighbors,
    metapath_pairs,
    pair_scores,
    path_level_fuse,
)
from provrec.graph import EntityType, Event, build_graph, graph_to_events
from provrec.numerics import GradientTape, Matrix, Rng
from provrec.sampling import TechniqueSubgraph, sample_subgraphs
from provrec.synthetic import DEFAULT_TEMPLATES, generate_sample

from testkit import listing_class_batch, make_graph, node_batch


def _tsg(triples, nois=None):
    g = make_graph(triples)
    procs = [
        nid for nid, n in g.nodes.items() if n.entity_type == EntityType.PROCESS
    ]
    nois = nois or procs
    return TechniqueSubgraph(g, nois, sorted(nois)[0])


@pytest.fixture
def shared_file_tsg():
    return _tsg(
        [
            ("pa", "write", "doc", EntityType.FILE),
            ("pb", "write", "doc", EntityType.FILE),
            ("pa", "launch", "pc", EntityType.PROCESS),
            ("pc", "query", "key", EntityType.REGISTRY),
            ("pb", "query", "key", EntityType.REGISTRY),
            ("pa", "connect", "sock", EntityType.SOCKET),
        ]
    )


# -- meta-path neighborhoods ---------------------------------------------------


def test_isolated_process_neighbors_are_self_only():
    t = _tsg([("pa", "launch", "pb", EntityType.PROCESS)])
    sub = TechniqueSubgraph(t.graph.induced(["pa"]), ["pa"], "pa")
    for mp in META_PATHS:
        assert metapath_neighbors(sub, "pa", mp) == {"pa"}


def test_processes_sharing_a_file_see_each_other(shared_file_tsg):
    assert metapath_neighbors(shared_file_tsg, "pa", "MP2") == {"pa", "pb"}
    assert metapath_neighbors(shared_file_tsg, "pb", "MP2") == {"pa", "pb"}


def test_launch_metapath_follows_edge_direction(shared_file_tsg):
    assert metapath_neighbors(shared_file_tsg, "pa", "MP1") == {"pa", "pc"}
    assert metapath_neighbors(shared_file_tsg, "pc", "MP1") == {"pc"}


def test_non_process_nodes_get_self_only(shared_file_tsg):
    for mp in META_PATHS:
        assert metapath_neighbors(shared_file_tsg, "doc", mp) == {"doc"}


def test_neighbors_match_two_hop_enumeration_oracle():
    gen = Rng(71)
    kinds = [("read", EntityType.FILE, "MP2"), ("query", EntityType.REGISTRY, "MP3"),
             ("send", EntityType.SOCKET, "MP4")]
    triples = []
    for t in range(30):
        op, kind, _ = kinds[int(gen.integers(3))]
        triples.append(
            (f"p{int(gen.integers(6))}", op, f"{kind.value}{int(gen.integers(4))}", kind)
        )
    tsg = _tsg(triples)
    g = tsg.graph
    from provrec.graph import EDGE_GROUPS

    for _, kind, mp in kinds:
        group = EDGE_GROUPS[kind]
        for nid in g.node_ids():
            if g.entity_type(nid) != EntityType.PROCESS:
                continue
            want = {nid}
            for e in g.edges:
                if e.src == nid and e.edge_type_id in group:
                    for e2 in g.edges:
                        if e2.dst == e.dst and e2.edge_type_id in group:
                            want.add(e2.src)
            assert metapath_neighbors(tsg, nid, mp) == want


def test_unknown_metapath_rejected(shared_file_tsg):
    with pytest.raises(ValueError):
        metapath_neighbors(shared_file_tsg, "pa", "MP9")


@pytest.mark.parametrize("metapaths", [("MP1", "MP1"), ("MP2", "MP1", "MP2")])
def test_repeated_metapath_rejected(metapaths):
    # one name would stand for two bands of the neighbour matrix
    with pytest.raises(ValueError, match="repeated meta-paths"):
        HanConfig(metapaths=metapaths)


# -- node-level attention -------------------------------------------------------


def test_singleton_neighborhood_is_activated_projection():
    t = _tsg([("pa", "launch", "pb", EntityType.PROCESS)])
    sub = TechniqueSubgraph(t.graph.induced(["pa"]), ["pa"], "pa")
    gen = Rng(6)
    proj = Matrix(gen.normal(0, 1, size=(1, 5)))
    w = gen.normal(0, 1, size=(10, 5))
    a = gen.normal(0, 1, size=(1, 5))
    h, alpha = _node_level_of(sub, "MP1", proj, w, a)
    assert np.allclose(alpha.value, [[1.0]])
    z = proj.value
    assert np.allclose(h.value, np.where(z > 0, z, 0.01 * z))


def test_identical_neighbors_share_attention_equally():
    t = _tsg(
        [
            ("pa", "write", "doc", EntityType.FILE),
            ("pb", "write", "doc", EntityType.FILE),
            ("pc", "write", "doc", EntityType.FILE),
        ]
    )
    gen = Rng(7)
    n = t.n_nodes
    feats = gen.normal(0, 1, size=(n, 4))
    # give pb and pc identical projected rows
    idx = t.graph.node_index()
    feats[idx["pc"]] = feats[idx["pb"]]
    w = gen.normal(0, 1, size=(8, 4))
    a = gen.normal(0, 1, size=(1, 4))
    _, alpha = _node_level_of(t, "MP2", Matrix(feats), w, a)
    rows = alpha.value[:, 0]
    pa_weights = {
        int(s): rows[k]
        for k, (s, d) in enumerate(zip(*metapath_pairs(t, "MP2")))
        if d == idx["pa"]
    }
    assert abs(pa_weights[idx["pb"]] - pa_weights[idx["pc"]]) < 1e-12


def _node_level_of(tsg, mp, projected, w, a):
    """Node-level attention over one subgraph's own nodes, every pair weight 1."""
    src, dst = (nm.RowIndex(rows, tsg.n_nodes) for rows in metapath_pairs(tsg, mp))
    return _node_level(projected, (src, dst, dst), w, a, np.ones(len(src)))


def test_node_level_matches_scalar_oracle():
    t = _tsg(
        [
            ("pa", "write", "doc", EntityType.FILE),
            ("pb", "write", "doc", EntityType.FILE),
            ("pc", "write", "doc", EntityType.FILE),
            ("pa", "write", "doc2", EntityType.FILE),
            ("pd", "read", "doc2", EntityType.FILE),
        ]
    )
    gen = Rng(8)
    d = 3
    feats = gen.normal(0, 1, size=(t.n_nodes, d))
    w = gen.normal(0, 1, size=(2 * d, d))
    a = gen.normal(0, 1, size=(1, d))
    h, _ = _node_level_of(t, "MP2", Matrix(feats), w, a)

    idx = t.graph.node_index()
    for nid in t.node_ids:
        members = sorted(idx[m] for m in metapath_neighbors(t, nid, "MP2"))
        i = idx[nid]
        scores = []
        for k in members:
            z = np.concatenate([feats[k], feats[i]]) @ w
            z = np.where(z > 0, z, 0.01 * z)
            scores.append(float(z @ a[0]))
        weights = np.exp(np.array(scores) - max(scores))
        weights /= weights.sum()
        agg = sum(wk * feats[k] for wk, k in zip(weights, members))
        want = np.where(agg > 0, agg, 0.01 * agg)
        assert np.allclose(h.value[i], want, atol=1e-10)


# -- path-level fusion ----------------------------------------------------------


def _fuse(hs, w, b, q):
    """Path-level fusion of the per-path blocks ``hs`` of one set of rows."""
    n = hs[0].rows
    return path_level_fuse(hs, w, b, q, nm.RowIndex(np.tile(np.arange(n), len(hs)), n))


def _by_node(beta, paths):
    """The (P·n, 1) path-major beta column as (n, P): one row per node."""
    return beta.value.reshape(paths, -1).T


def test_identical_path_vectors_fuse_uniformly():
    gen = Rng(9)
    h = Matrix(gen.normal(0, 1, size=(4, 6)))
    w = gen.normal(0, 1, size=(6, 6))
    b = gen.normal(0, 1, size=(1, 6))
    q = gen.normal(0, 1, size=(1, 6))
    fused, beta = _fuse([h, h, h, h], w, b, q)
    assert np.allclose(_by_node(beta, 4), 0.25, atol=1e-12)
    assert np.allclose(fused.value, h.value, atol=1e-12)


def test_zero_query_vector_gives_uniform_weights():
    gen = Rng(10)
    hs = [Matrix(gen.normal(0, 1, size=(3, 4))) for _ in range(3)]
    w = gen.normal(0, 1, size=(4, 4))
    b = gen.normal(0, 1, size=(1, 4))
    q = np.zeros((1, 4))
    _, beta = _fuse(hs, w, b, q)
    assert np.allclose(_by_node(beta, 3), 1.0 / 3, atol=1e-12)


def test_path_fusion_matches_scalar_oracle():
    gen = Rng(11)
    n, d = 3, 4
    hs = [gen.normal(0, 1, size=(n, d)) for _ in range(4)]
    w = gen.normal(0, 1, size=(d, d))
    b = gen.normal(0, 1, size=(1, d))
    q = gen.normal(0, 1, size=(1, d))
    fused, beta = _fuse([Matrix(h) for h in hs], w, b, q)
    for i in range(n):
        scores = [float(np.tanh(h[i] @ w + b[0]) @ q[0]) for h in hs]
        e = np.exp(np.array(scores) - max(scores))
        want_beta = e / e.sum()
        assert np.allclose(_by_node(beta, 4)[i], want_beta, atol=1e-12)
        want = sum(wb * h[i] for wb, h in zip(want_beta, hs))
        assert np.allclose(fused.value[i], want, atol=1e-12)


def test_path_fusion_records_as_many_ops_for_one_path_as_for_four(monkeypatch):
    gen = Rng(12)
    n, d = 3, 4
    w, b, q = (gen.normal(0, 1, size=shape) for shape in ((d, d), (1, d), (1, d)))
    ops = []
    from_op = Matrix._from_op.__func__
    monkeypatch.setattr(Matrix, "_from_op", classmethod(
        lambda cls, value, op, *operands: ops.append(op) or from_op(
            cls, value, op, *operands)))
    counts = []
    for paths in (1, 4):
        ops.clear()
        hs = [Matrix(gen.normal(0, 1, size=(n, d))) for _ in range(paths)]
        _fuse(hs, w, b, q)
        counts.append(len(ops))
    assert counts[0] == counts[1]


# -- graph-level aggregation ----------------------------------------------------


def _one_graph(h, w):
    """Graph-level attention over rows that form one subgraph, one node each."""
    n = h.rows
    return graph_level_embed(h, w, nm.RowIndex(np.zeros(n, dtype=np.intp), 1),
                             nm.RowWeights(np.ones(n)))


def test_single_node_takes_all_graph_attention():
    gen = Rng(12)
    h = Matrix(gen.normal(0, 1, size=(1, 5)))
    w = gen.normal(0, 1, size=(5, 5))
    out, gamma = _one_graph(h, w)
    assert np.allclose(gamma.value, [[1.0]])
    assert np.allclose(out.value, h.value)


def test_identical_node_vectors_weighted_uniformly():
    gen = Rng(13)
    row = gen.normal(0, 1, size=(1, 4))
    h = Matrix(np.repeat(row, 5, axis=0))
    w = gen.normal(0, 1, size=(4, 4))
    out, gamma = _one_graph(h, w)
    assert np.allclose(gamma.value, 0.2, atol=1e-12)
    assert np.allclose(out.value, row, atol=1e-12)


def test_graph_level_matches_scalar_oracle():
    gen = Rng(14)
    n, d = 5, 3
    h = gen.normal(0, 1, size=(n, d))
    w = gen.normal(0, 1, size=(d, d))
    out, gamma = _one_graph(Matrix(h), w)
    c = np.tanh(h.mean(axis=0) @ w)
    scores = h @ c
    e = np.exp(scores - scores.max())
    want_gamma = e / e.sum()
    assert np.allclose(gamma.value[0], want_gamma, atol=1e-12)
    assert np.allclose(out.value[0], want_gamma @ h, atol=1e-12)


def test_empty_node_set_rejected():
    with pytest.raises(ValueError):
        _one_graph(Matrix(np.zeros((0, 3))), np.eye(3))


# -- full composition -----------------------------------------------------------


def test_single_process_subgraph_hand_computation():
    t = _tsg([("pa", "launch", "pb", EntityType.PROCESS)])
    sub = TechniqueSubgraph(t.graph.induced(["pa"]), ["pa"], "pa")
    config = HanConfig(dim=6, seed=3)
    params = init_han_params(config)
    h = embed_subgraph(sub, params, config)
    # all attention collapses to singletons: h = leaky(log1p(e) @ proj)
    z = np.log1p(sub.features()) @ params["proj"]
    want = np.where(z > 0, z, 0.01 * z)
    assert np.allclose(h.value, want, atol=1e-12)


def _embed(config, tsg, weights=None):
    """One subgraph through ``weights``, by default freshly initialised ones;
    a (dim,) row."""
    weights = init_han_params(config) if weights is None else weights
    return embed_subgraph(tsg, weights, config).value[0]


def test_relabeled_copy_embeds_identically(shared_file_tsg):
    t1 = shared_file_tsg
    reversed_triples = [
        ("pa", "connect", "sock", EntityType.SOCKET),
        ("pb", "query", "key", EntityType.REGISTRY),
        ("pc", "query", "key", EntityType.REGISTRY),
        ("pa", "launch", "pc", EntityType.PROCESS),
        ("pb", "write", "doc", EntityType.FILE),
        ("pa", "write", "doc", EntityType.FILE),
    ]
    t2 = _tsg(reversed_triples)
    config = HanConfig(dim=8, seed=5)
    assert (_embed(config, t1) == _embed(config, t2)).all()


def test_structurally_different_subgraphs_embed_apart(shared_file_tsg):
    other = _tsg(
        [
            ("pa", "connect", f"s{i}", EntityType.SOCKET)
            for i in range(6)
        ]
        + [("pb", "connect", "s0", EntityType.SOCKET)]
    )
    config = HanConfig(dim=8, seed=5)
    d = np.linalg.norm(_embed(config, shared_file_tsg) - _embed(config, other))
    assert d > 0


def test_attention_distributions_are_proper(shared_file_tsg):
    config = HanConfig(dim=8, seed=6)
    params = init_han_params(config)
    record = AttentionRecord()
    embed_subgraph(shared_file_tsg, params, config, attention=record)
    n = shared_file_tsg.n_nodes
    for mp in config.metapaths:
        values, dst = record.alpha[mp]
        assert (values >= 0).all()
        sums = np.zeros(n)
        np.add.at(sums, dst, values)
        assert np.allclose(sums, 1.0, atol=1e-6)
    assert (record.beta >= 0).all()
    assert np.allclose(record.beta.sum(axis=1), 1.0, atol=1e-6)
    assert (record.gamma >= 0).all()
    assert abs(record.gamma.sum() - 1.0) <= 1e-6


def test_grad_check_through_full_composition(shared_file_tsg):
    config = HanConfig(dim=4, seed=7)
    tape = GradientTape()
    params = {
        name: tape.parameter(name, value)
        for name, value in init_han_params(config).items()
    }
    probe = Matrix(Rng(70).normal(0, 1, size=(1, 4)))
    batch = SubgraphBatch([shared_file_tsg], config)

    def loss():
        h = embed_batch(batch, params, config)
        return nm.sum_all(nm.mul(h, probe))

    assert nm.grad_check(loss, list(params.values()), eps=1e-5) < 1e-4


def test_metapath_masking_combinations(shared_file_tsg):
    outputs = {}
    for name, combo in METAPATH_COMBOS.items():
        outputs[name] = _embed(HanConfig(dim=8, metapaths=combo, seed=9), shared_file_tsg)
    assert METAPATH_COMBOS["MPC6"] == META_PATHS
    assert not np.allclose(outputs["MPC1"], outputs["MPC6"])
    for name, combo in METAPATH_COMBOS.items():
        assert set(combo) <= set(META_PATHS)
        assert "MP1" in combo


def test_encoder_checkpoint_round_trip(shared_file_tsg, tmp_path):
    from provrec.matching import MatcherConfig, SiameseModel
    from provrec.persistence import load_model, save_model

    # the encoder's weights are checkpointed inside the matcher that holds them
    config = MatcherConfig(han=HanConfig(dim=8, seed=10))
    weights = {**init_han_params(config.han), "out_w": np.eye(8), "out_b": np.zeros((1, 8))}
    before = _embed(config.han, shared_file_tsg)
    path = tmp_path / "matcher.json"
    save_model(SiameseModel(config, weights), path)
    loaded = load_model(path)
    assert (_embed(config.han, shared_file_tsg, loaded.weights()) == before).all()


# -- batched forward ------------------------------------------------------------


def _random_tsg(gen, n_procs, n_events):
    return _tsg(_random_triples(gen, n_procs, n_events))


def _random_triples(gen, n_procs, n_events):
    kinds = [("launch", EntityType.PROCESS), ("read", EntityType.FILE),
             ("write", EntityType.FILE), ("query", EntityType.REGISTRY),
             ("connect", EntityType.SOCKET)]
    triples = []
    for _ in range(n_events):
        op, kind = kinds[int(gen.integers(len(kinds)))]
        subj = f"p{int(gen.integers(n_procs))}"
        if kind == EntityType.PROCESS:
            obj = f"p{(int(subj[1:]) + 1 + int(gen.integers(n_procs - 1))) % n_procs}"
        else:
            obj = f"{kind.value}{int(gen.integers(4))}"
        triples.append((subj, op, obj, kind))
    return triples


def test_batch_embeds_each_subgraph_as_alone():
    gen = Rng(90)
    tsgs = [_random_tsg(gen, int(gen.integers(2, 8)), int(gen.integers(3, 25)))
            for _ in range(7)]
    assert len({t.n_nodes for t in tsgs}) > 2
    config = HanConfig(dim=8, seed=4)
    params = init_han_params(config)
    batched = embed_batch(SubgraphBatch(tsgs, config), params, config).value
    assert batched.shape == (len(tsgs), config.dim)
    for row, tsg in zip(batched, tsgs):
        alone = embed_subgraph(tsg, params, config).value[0]
        assert np.abs(row - alone).max() <= 1e-12


def test_batch_attention_is_proper_within_each_subgraph():
    gen = Rng(91)
    tsgs = [_random_tsg(gen, 4, int(gen.integers(5, 15))) for _ in range(5)]
    config = HanConfig(dim=6, seed=5)
    batch = SubgraphBatch(tsgs, config)
    assert batch.features.rows < sum(t.n_nodes for t in tsgs)
    record = AttentionRecord()
    embed_batch(batch, init_han_params(config), config, attention=record)
    n = sum(t.n_nodes for t in tsgs)
    for mp in config.metapaths:
        values, dst = record.alpha[mp]
        assert np.allclose(np.bincount(dst, weights=values, minlength=n), 1.0)
    assert record.beta.shape == (n, len(config.metapaths))
    assert np.allclose(record.beta.sum(axis=1), 1.0)
    graph_of_node = np.repeat(np.arange(len(tsgs)), [t.n_nodes for t in tsgs])
    assert np.allclose(np.bincount(graph_of_node, weights=record.gamma), 1.0)


def test_split_pair_scores_equal_concat_form():
    gen = Rng(92)
    tsg = _random_tsg(gen, 6, 30)
    d = 5
    feats = gen.normal(0, 1, size=(tsg.n_nodes, d))
    w = gen.normal(0, 1, size=(2 * d, d))
    a = gen.normal(0, 1, size=(1, d))
    for mp in META_PATHS:
        src, dst = metapath_pairs(tsg, mp)
        scores = pair_scores(Matrix(feats), src, dst, w, a).value
        z = np.concatenate([feats[src], feats[dst]], axis=1) @ w
        want = np.where(z > 0, z, 0.01 * z) @ a.T
        assert np.abs(scores - want).max() <= 1e-12


# -- class batch ----------------------------------------------------------------


def _classes_embed_as_nodes(tsgs, config=HanConfig(dim=6, seed=11)):
    """Node batch and class batch of ``tsgs``, checked to embed and to record
    node attention within 1e-12 and to count every node once."""
    nodes, classes = node_batch(tsgs, config), SubgraphBatch(tsgs, config)
    params = init_han_params(config)
    want, got = AttentionRecord(), AttentionRecord()
    h_want = embed_batch(nodes, params, config, want).value
    assert np.abs(embed_batch(classes, params, config, got).value - h_want).max() <= 1e-12
    for mp, (values, dst) in want.alpha.items():
        assert (got.alpha[mp][1] == dst).all()
        assert np.abs(got.alpha[mp][0] - values).max() <= 1e-12
    assert np.abs(got.beta - want.beta).max() <= 1e-12
    assert np.abs(got.gamma - want.gamma).max() <= 1e-12
    per_graph = np.bincount(classes.graph_of.ids, classes.sizes.values)
    assert (per_graph == [t.n_nodes for t in tsgs]).all()
    shared_sizes = np.bincount(classes.shared_of.ids, classes.sizes.values)
    for mp, (_, _, dst) in classes.pairs.items():
        # a shared class's pair counts add up to each of its nodes' neighbour count
        degree = np.bincount(dst.ids, classes.pair_weights[mp].values, dst.size)
        assert degree @ shared_sizes == len(nodes.pairs[mp][1])
    return nodes, classes


def test_class_batch_embeds_random_subgraphs_as_node_batch():
    gen = Rng(93)
    tsgs = [_random_tsg(gen, int(gen.integers(2, 8)), int(gen.integers(3, 25)))
            for _ in range(7)]
    nodes, classes = _classes_embed_as_nodes(tsgs)
    assert classes.features.rows < nodes.features.rows
    for mp in META_PATHS:
        assert len(classes.pairs[mp][0]) < len(nodes.pairs[mp][0])


def test_class_batch_counts_repeated_neighbour_classes():
    # pb and pc form one class: pa's MP2 neighbours are itself once and that
    # class twice, so its softmax needs the pair counts
    tsg = _tsg([("pa", "write", "doc", EntityType.FILE),
                ("pb", "write", "doc", EntityType.FILE),
                ("pc", "write", "doc", EntityType.FILE),
                ("pa", "write", "log", EntityType.FILE)])
    _, classes = _classes_embed_as_nodes([tsg])
    assert (classes.sizes.values == [1.0, 1.0, 1.0, 2.0]).all()  # doc, log, pa, {pb, pc}
    dst = classes.pairs["MP2"][2].ids
    assert (classes.pair_weights["MP2"].values[dst == 2] == [1.0, 2.0]).all()  # pa


# x shares f1 and f2 with k1; y shares g1 with k2 and g2 with k3, and the k's
# have one feature row. Counting shared objects gives x and y one key, but y
# has two such neighbours and x one.
SHARED_OBJECTS = [("x", "read", "f1", EntityType.FILE),
                  ("x", "read", "f2", EntityType.FILE),
                  ("x", "write", "wx", EntityType.FILE),
                  ("k1", "read", "f1", EntityType.FILE),
                  ("k1", "read", "f2", EntityType.FILE),
                  ("y", "read", "g1", EntityType.FILE),
                  ("y", "read", "g2", EntityType.FILE),
                  ("y", "write", "wy", EntityType.FILE),
                  ("k2", "read", "g1", EntityType.FILE),
                  ("k2", "read", "h2", EntityType.FILE),
                  ("k3", "read", "g2", EntityType.FILE),
                  ("k3", "read", "h3", EntityType.FILE)]


def test_class_keys_count_unique_neighbours_not_shared_objects():
    tsg = _tsg(SHARED_OBJECTS)
    _, classes = _classes_embed_as_nodes([tsg])
    idx = tsg.graph.node_index()
    assert classes.node_class[idx["x"]] != classes.node_class[idx["y"]]


def test_node_attention_of_sources_in_other_classes_of_one_feature_row():
    # x and y form one class, but their neighbours k1 and k2 share a feature
    # row and not a class: y's pair with k2 maps through x's pair with k1
    tsg = _tsg([("x", "read", "fa", EntityType.FILE),
                ("k1", "read", "fa", EntityType.FILE),
                ("k1", "read", "fc", EntityType.FILE),
                ("z", "read", "fc", EntityType.FILE),
                ("y", "read", "fb", EntityType.FILE),
                ("k2", "read", "fb", EntityType.FILE),
                ("k2", "read", "fd", EntityType.FILE)])
    _, classes = _classes_embed_as_nodes([tsg])
    idx = tsg.graph.node_index()
    node_class, node_row = classes.node_class, classes.node_row
    assert node_class[idx["x"]] == node_class[idx["y"]]
    assert node_row[idx["k1"]] == node_row[idx["k2"]]
    assert node_class[idx["k1"]] != node_class[idx["k2"]]


def test_class_batch_maps_attention_of_random_batches_to_nodes():
    gen = Rng(95)
    for _ in range(6):
        tsgs = [_random_tsg(gen, int(gen.integers(2, 7)), int(gen.integers(3, 20)))
                for _ in range(int(gen.integers(2, 6)))]
        tsgs.append(tsgs[0])  # a repeated subgraph repeats all its classes
        _, classes = _classes_embed_as_nodes(tsgs)
        assert (classes.sizes.values > 1).any()


def test_class_batch_with_isolated_nodes():
    g = make_graph([("pa", "read", "f", EntityType.FILE),
                    ("py", "read", "g", EntityType.FILE),
                    ("pz", "write", "h", EntityType.FILE)])
    sub = TechniqueSubgraph(g.induced(["pa", "f", "py", "pz"]), ["pa"], "pa")
    _, classes = _classes_embed_as_nodes([sub, _tsg([("pa", "launch", "pb",
                                                     EntityType.PROCESS)])])
    # py and pz lost their edges with their objects: one class of two
    assert 2.0 in classes.sizes.values[classes.graph_of.ids == 0]


def test_class_batch_with_self_loop_launch():
    tsg = _tsg([("pa", "launch", "pa", EntityType.PROCESS),
                ("pa", "launch", "pb", EntityType.PROCESS),
                ("pc", "launch", "pb", EntityType.PROCESS),
                ("pb", "read", "f", EntityType.FILE)])
    _classes_embed_as_nodes([tsg])


def test_class_batch_of_distinct_nodes_is_the_node_batch():
    tsgs = [_tsg([("p0", "launch", "p1", EntityType.PROCESS),
                  ("p1", "launch", "p2", EntityType.PROCESS),
                  ("p1", "write", "f", EntityType.FILE)])]
    config = HanConfig(dim=6, seed=12)
    nodes, classes = _classes_embed_as_nodes(tsgs, config)
    row = classes.node_row
    assert (classes.features.value[row] == nodes.features.value).all()
    assert (classes.node_shared == nodes.node_shared).all()
    assert (classes.shared_of.ids == nodes.shared_of.ids).all()
    assert (classes.graph_of.ids == nodes.graph_of.ids).all()
    assert (classes.sizes.values == 1).all()
    for mp, (src, _, dst) in nodes.pairs.items():
        got_src, got_dst_row, got_dst = classes.pairs[mp]
        # pairs run by target, then by source feature row, not source node
        assert (sorted(zip(got_dst.ids, got_src.ids))
                == sorted(zip(dst.ids, row[src.ids])))
        assert (got_dst_row.ids == row[got_dst.ids]).all()
        assert (classes.pair_weights[mp].values == 1).all()
    params = init_han_params(config)
    assert (embed_batch(classes, params, config).value
            == embed_batch(nodes, params, config).value).all()


def test_class_batch_of_one_class():
    # a launch cycle: every process launched one and was launched by one
    cycle = _tsg([("p0", "launch", "p1", EntityType.PROCESS),
                  ("p1", "launch", "p2", EntityType.PROCESS),
                  ("p2", "launch", "p0", EntityType.PROCESS)])
    _, classes = _classes_embed_as_nodes([cycle])
    assert classes.features.rows == 1 and (classes.sizes.values == [3.0]).all()
    assert (classes.pair_weights["MP1"].values == [2.0]).all()  # itself and its child
    for mp in ("MP2", "MP3", "MP4"):
        assert (classes.pair_weights[mp].values == [1.0]).all()


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _hub_tsg(gen, n_procs, n_hubs):
    """A random subgraph whose processes also all read the same hub files."""
    return _tsg(_random_triples(gen, n_procs, int(gen.integers(3, 20)))
                + [(f"p{i}", "read", f"hub{h}", EntityType.FILE)
                   for i in range(n_procs) for h in range(n_hubs)])


def test_class_batch_equals_the_listing_build_byte_for_byte():
    # the batch built from sparse products against the one built from
    # per-node pair lists, on random batches of hub subgraphs, the shared
    # object counterexample and subgraphs without registry or socket objects
    gen = Rng(96)
    no_objects = [("p0", "launch", "p1", EntityType.PROCESS),
                  ("p1", "read", "f", EntityType.FILE),
                  ("p2", "write", "f", EntityType.FILE)]
    for metapaths in (META_PATHS, ("MP1", "MP2")):
        config = HanConfig(dim=4, metapaths=metapaths)
        for _ in range(8):
            pool = [_tsg(SHARED_OBJECTS), _tsg(no_objects),
                    _hub_tsg(gen, int(gen.integers(2, 12)), int(gen.integers(1, 4)))]
            pool += [_random_tsg(gen, int(gen.integers(2, 8)), int(gen.integers(3, 25)))
                     for _ in range(3)]
            tsgs = [pool[i] for i in gen.choice(len(pool), size=int(gen.integers(1, 7)))]
            got, want = SubgraphBatch(tsgs, config), listing_class_batch(tsgs, config)
            _same_bytes(got.node_shared, want.node_shared)
            _same_bytes(got.node_class, want.node_class)
            _same_bytes(got.features.value, want.features)
            _same_bytes(got.shared_of.ids, want.shared_of)
            _same_bytes(got.graph_of.ids, want.graph_of)
            _same_bytes(got.sizes.values, want.sizes)
            assert list(got.pairs) == list(metapaths)
            for mp, pairs in got.pairs.items():
                for index, ids in zip(pairs, want.pairs[mp]):
                    _same_bytes(index.ids, ids)
                _same_bytes(got.pair_weights[mp].values, want.pair_weights[mp])


def _product_batch(subgraphs, config):
    """The index arrays of a batch as the sparse-product build first made
    them: shared classes' pairs by CSR row indexing of the neighbour counts,
    and classes as classes of (subgraph, shared class) one-hot rows."""
    sizes = [tsg.n_nodes for tsg in subgraphs]
    offsets = np.cumsum([0] + sizes[:-1])
    n, n_graphs, p = sum(sizes), len(sizes), len(config.metapaths)
    x = ft.scale_features(np.vstack([tsg.features() for tsg in subgraphs]))
    edges = [tsg.graph.edge_arrays() for tsg in subgraphs]
    edges = (np.concatenate([s + o for (s, _, _), o in zip(edges, offsets)]),
             np.concatenate([d + o for (_, d, _), o in zip(edges, offsets)]),
             np.concatenate([t for _, _, t in edges]))
    a = em._neighbour_matrix(*edges, n, config.metapaths)
    rows = x.view(np.dtype((np.void, 8 * x.shape[1])))
    _, first_row, node_row = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    k_row = len(first_row)
    own = np.arange(n)
    counts = a @ em._csr(own, node_row, (n, k_row))
    per_row = np.diff(counts.indptr)
    band = np.repeat(k_row * np.arange(1, p + 1), n)
    node_shared, first = ft._row_classes(em._csr(
        np.concatenate([own, np.repeat(np.tile(own, p), per_row)]),
        np.concatenate([node_row, counts.indices + np.repeat(band, per_row)]),
        (n, (1 + p) * k_row),
        np.concatenate([np.ones(n), counts.data])))
    s = len(first)
    shared_row = node_row[first]
    pairs, pair_weights = {}, {}
    firsts = counts[(np.arange(p)[:, None] * n + first).ravel()]
    for mp, (src, dst, count) in zip(config.metapaths, em._row_blocks(firsts, s)):
        pairs[mp] = (src.astype(np.intp), shared_row[dst], dst)
        pair_weights[mp] = count
    graph_of = np.repeat(np.arange(n_graphs), sizes)
    node_class, first = ft._row_classes(em._csr(
        np.concatenate([own, own]), np.concatenate([graph_of, n_graphs + node_shared]),
        (n, n_graphs + s)))
    return SimpleNamespace(
        node_row=node_row, node_shared=node_shared, node_class=node_class,
        pairs=pairs, pair_weights=pair_weights, node_of=np.tile(np.arange(s), p),
        features=x[first_row], shared_of=node_shared[first], graph_of=graph_of[first],
        sizes=np.bincount(node_class).astype(np.float64))


def _hub_carve():
    sample = generate_sample(DEFAULT_TEMPLATES[1], Rng(4800).split("host"), 60, 0.05)
    procs = [nid for nid in sample.graph.node_ids()
             if sample.graph.entity_type(nid) == EntityType.PROCESS]
    graph = build_graph(graph_to_events(sample.graph) + [
        Event(p, EntityType.PROCESS, "read", f"hub_lib{j}", EntityType.FILE, 0)
        for p in procs for j in range(3)])
    (tsg,) = sample_subgraphs(graph, sorted(sample.truth.nois) + procs[::len(procs) // 8],
                              lam=4, min_nois=5)
    return tsg


@pytest.mark.parametrize("case", ["truth", "six", "hub"])
def test_batch_index_arrays_equal_the_product_build(case):
    truths = [generate_sample(t, Rng(98).split(f"query-{i}"), 40, 0.05).truth
              for i, t in enumerate(DEFAULT_TEMPLATES)]
    tsgs = {"truth": truths[:1], "six": truths, "hub": [_hub_carve()]}[case]
    if case == "truth":
        assert tsgs[0].n_nodes == 14
    for metapaths in (META_PATHS, ("MP1", "MP2")):
        config = HanConfig(dim=4, metapaths=metapaths)
        got, want = SubgraphBatch(tsgs, config), _product_batch(tsgs, config)
        for name in ("node_row", "node_shared", "node_class"):
            _same_bytes(getattr(got, name), getattr(want, name))
        _same_bytes(got.features.value, want.features)
        _same_bytes(got.node_of.ids, want.node_of)
        _same_bytes(got.shared_of.ids, want.shared_of)
        _same_bytes(got.graph_of.ids, want.graph_of)
        _same_bytes(got.sizes.values, want.sizes)
        assert list(got.pairs) == list(metapaths)
        for mp, pairs in got.pairs.items():
            for index, ids in zip(pairs, want.pairs[mp]):
                _same_bytes(index.ids, ids)
            _same_bytes(got.pair_weights[mp].values, want.pair_weights[mp])


def test_renamed_copy_joins_every_shared_class():
    # a node-renamed copy has the same feature rows and neighbour counts, so
    # its nodes join the original's shared classes and its row is the same
    gen = Rng(97)
    triples = _random_triples(gen, 6, 20)
    tsg = _tsg(triples)
    copy = _tsg([(f"copy-{s}", op, f"copy-{o}", kind) for s, op, o, kind in triples])
    config = HanConfig(dim=6, seed=14)
    batch, alone = SubgraphBatch([tsg, copy], config), SubgraphBatch([tsg], config)
    assert batch.features.rows == alone.features.rows
    assert batch.shared_of.size == alone.shared_of.size
    assert len(batch.sizes) == 2 * len(alone.sizes)
    h = embed_batch(batch, init_han_params(config), config).value
    assert h[0].tobytes() == h[1].tobytes()


def test_grad_check_through_class_batch():
    gen = Rng(94)
    tsgs = [_random_tsg(gen, 4, int(gen.integers(5, 12))) for _ in range(3)]
    config = HanConfig(dim=3, seed=13)
    batch = SubgraphBatch(tsgs, config)
    assert batch.features.rows < sum(t.n_nodes for t in tsgs)
    tape = GradientTape()
    params = {
        name: tape.parameter(name, value)
        for name, value in init_han_params(config).items()
    }
    probe = Matrix(gen.normal(0, 1, size=(len(tsgs), 3)))

    def loss():
        return nm.sum_all(nm.mul(embed_batch(batch, params, config), probe))

    assert nm.grad_check(loss, list(params.values()), eps=1e-5) < 1e-4
