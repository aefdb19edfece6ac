"""Meta-path neighborhoods and the three-level attention composition."""

import numpy as np
import pytest

from provrec import numerics as nm
from provrec.embedding import (
    META_PATHS,
    METAPATH_COMBOS,
    AttentionRecord,
    HanConfig,
    HanEncoder,
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
from provrec.graph import EntityType
from provrec.numerics import GradientTape, Matrix, Rng
from provrec.sampling import TechniqueSubgraph

from conftest import make_graph


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


# -- node-level attention -------------------------------------------------------


def test_singleton_neighborhood_is_activated_projection():
    t = _tsg([("pa", "launch", "pb", EntityType.PROCESS)])
    sub = TechniqueSubgraph(t.graph.induced(["pa"]), ["pa"], "pa")
    gen = Rng(6)
    proj = Matrix(gen.normal(0, 1, size=(1, 5)))
    w = gen.normal(0, 1, size=(10, 5))
    a = gen.normal(0, 1, size=(1, 5))
    h, alpha = _node_level(proj, *_pair_rows(sub, "MP1"), w, a, 0.01)
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
    _, alpha = _node_level(Matrix(feats), *_pair_rows(t, "MP2"), w, a, 0.01)
    rows = alpha.value[:, 0]
    pa_weights = {
        int(s): rows[k]
        for k, (s, d) in enumerate(zip(*metapath_pairs(t, "MP2")))
        if d == idx["pa"]
    }
    assert abs(pa_weights[idx["pb"]] - pa_weights[idx["pc"]]) < 1e-12


def _pair_rows(tsg, mp):
    """One subgraph's (source, target) rows of ``mp`` as node-level indices."""
    return tuple(nm.RowIndex(rows, tsg.n_nodes) for rows in metapath_pairs(tsg, mp))


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
    h, _ = _node_level(Matrix(feats), *_pair_rows(t, "MP2"), w, a, 0.01)

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


def test_identical_path_vectors_fuse_uniformly():
    gen = Rng(9)
    h = Matrix(gen.normal(0, 1, size=(4, 6)))
    w = gen.normal(0, 1, size=(6, 6))
    b = gen.normal(0, 1, size=(1, 6))
    q = gen.normal(0, 1, size=(1, 6))
    fused, beta = path_level_fuse([h, h, h, h], w, b, q)
    assert np.allclose(beta.value, 0.25, atol=1e-12)
    assert np.allclose(fused.value, h.value, atol=1e-12)


def test_zero_query_vector_gives_uniform_weights():
    gen = Rng(10)
    hs = [Matrix(gen.normal(0, 1, size=(3, 4))) for _ in range(3)]
    w = gen.normal(0, 1, size=(4, 4))
    b = gen.normal(0, 1, size=(1, 4))
    q = np.zeros((1, 4))
    _, beta = path_level_fuse(hs, w, b, q)
    assert np.allclose(beta.value, 1.0 / 3, atol=1e-12)


def test_path_fusion_matches_scalar_oracle():
    gen = Rng(11)
    n, d = 3, 4
    hs = [gen.normal(0, 1, size=(n, d)) for _ in range(4)]
    w = gen.normal(0, 1, size=(d, d))
    b = gen.normal(0, 1, size=(1, d))
    q = gen.normal(0, 1, size=(1, d))
    fused, beta = path_level_fuse([Matrix(h) for h in hs], w, b, q)
    for i in range(n):
        scores = [float(np.tanh(h[i] @ w + b[0]) @ q[0]) for h in hs]
        e = np.exp(np.array(scores) - max(scores))
        want_beta = e / e.sum()
        assert np.allclose(beta.value[i], want_beta, atol=1e-12)
        want = sum(wb * h[i] for wb, h in zip(want_beta, hs))
        assert np.allclose(fused.value[i], want, atol=1e-12)


# -- graph-level aggregation ----------------------------------------------------


def test_single_node_takes_all_graph_attention():
    gen = Rng(12)
    h = Matrix(gen.normal(0, 1, size=(1, 5)))
    w = gen.normal(0, 1, size=(5, 5))
    out, gamma = graph_level_embed(h, w)
    assert np.allclose(gamma.value, [[1.0]])
    assert np.allclose(out.value, h.value)


def test_identical_node_vectors_weighted_uniformly():
    gen = Rng(13)
    row = gen.normal(0, 1, size=(1, 4))
    h = Matrix(np.repeat(row, 5, axis=0))
    w = gen.normal(0, 1, size=(4, 4))
    out, gamma = graph_level_embed(h, w)
    assert np.allclose(gamma.value, 0.2, atol=1e-12)
    assert np.allclose(out.value, row, atol=1e-12)


def test_graph_level_matches_scalar_oracle():
    gen = Rng(14)
    n, d = 5, 3
    h = gen.normal(0, 1, size=(n, d))
    w = gen.normal(0, 1, size=(d, d))
    out, gamma = graph_level_embed(Matrix(h), w)
    c = np.tanh(h.mean(axis=0) @ w)
    scores = h @ c
    e = np.exp(scores - scores.max())
    want_gamma = e / e.sum()
    assert np.allclose(gamma.value[0], want_gamma, atol=1e-12)
    assert np.allclose(out.value[0], want_gamma @ h, atol=1e-12)


def test_empty_node_set_rejected():
    with pytest.raises(ValueError):
        graph_level_embed(Matrix(np.zeros((0, 3))), np.eye(3))


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
    enc = HanEncoder.create(HanConfig(dim=8, seed=5))
    assert (enc.embed(t1) == enc.embed(t2)).all()


def test_structurally_different_subgraphs_embed_apart(shared_file_tsg):
    other = _tsg(
        [
            ("pa", "connect", f"s{i}", EntityType.SOCKET)
            for i in range(6)
        ]
        + [("pb", "connect", "s0", EntityType.SOCKET)]
    )
    enc = HanEncoder.create(HanConfig(dim=8, seed=5))
    d = np.linalg.norm(enc.embed(shared_file_tsg) - enc.embed(other))
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

    def loss():
        h = embed_subgraph(shared_file_tsg, params, config)
        return nm.sum_all(nm.mul(h, probe))

    assert nm.grad_check(loss, list(params.values()), eps=1e-5) < 1e-4


def test_metapath_masking_combinations(shared_file_tsg):
    outputs = {}
    for name, combo in METAPATH_COMBOS.items():
        config = HanConfig(dim=8, metapaths=combo, seed=9)
        enc = HanEncoder.create(config)
        outputs[name] = enc.embed(shared_file_tsg)
    assert METAPATH_COMBOS["MPC6"] == META_PATHS
    assert not np.allclose(outputs["MPC1"], outputs["MPC6"])
    for name, combo in METAPATH_COMBOS.items():
        assert set(combo) <= set(META_PATHS)
        assert "MP1" in combo


def test_encoder_checkpoint_round_trip(shared_file_tsg, tmp_path):
    from provrec.matching import MatcherConfig, SiameseModel
    from provrec.persistence import load_model, save_model

    # the encoder is checkpointed inside the matcher that holds it
    config = MatcherConfig(han=HanConfig(dim=8, seed=10))
    enc = HanEncoder.create(config.han)
    before = enc.embed(shared_file_tsg)
    path = tmp_path / "matcher.json"
    save_model(SiameseModel(config, enc, np.eye(8), np.zeros((1, 8))), path)
    loaded = load_model(path)
    assert (loaded.encoder.embed(shared_file_tsg) == before).all()


# -- batched forward ------------------------------------------------------------


def _random_tsg(gen, n_procs, n_events):
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
    return _tsg(triples)


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
    record = AttentionRecord()
    embed_batch(batch, init_han_params(config), config, attention=record)
    n = sum(t.n_nodes for t in tsgs)
    for mp in config.metapaths:
        values, dst = record.alpha[mp]
        assert np.allclose(np.bincount(dst, weights=values, minlength=n), 1.0)
    assert np.allclose(record.beta.sum(axis=1), 1.0)
    per_graph = np.bincount(batch.graph_of.ids, weights=record.gamma)
    assert np.allclose(per_graph, 1.0)


def test_split_pair_scores_equal_concat_form():
    gen = Rng(92)
    tsg = _random_tsg(gen, 6, 30)
    d = 5
    feats = gen.normal(0, 1, size=(tsg.n_nodes, d))
    w = gen.normal(0, 1, size=(2 * d, d))
    a = gen.normal(0, 1, size=(1, d))
    for mp in META_PATHS:
        src, dst = metapath_pairs(tsg, mp)
        scores = pair_scores(Matrix(feats), src, dst, w, a, slope=0.01).value
        z = np.concatenate([feats[src], feats[dst]], axis=1) @ w
        want = np.where(z > 0, z, 0.01 * z) @ a.T
        assert np.abs(scores - want).max() <= 1e-12
