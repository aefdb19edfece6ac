"""Initial count features and the self-supervised node-type encoder."""

import time

import numpy as np
import pytest
from scipy import sparse

from provrec import features as ft
from provrec import numerics as nm
from provrec.features import EncoderConfig, GnnEncoder
from provrec.graph import EntityType, build_graph, disjoint_union
from provrec.numerics import Matrix, NumericsError, Rng
from provrec.synthetic import ScenarioSpec, generate_scenario

from testkit import ev, grad_check, launch_chain, make_graph


# -- init_features ------------------------------------------------------------


def test_powershell_42_vector(figure_snippet):
    # one incoming launch; outgoing launch, file write, socket connect
    expected = [0.0] * 42
    expected[0] = 1.0   # incoming type 1 (launch)
    expected[21] = 1.0  # outgoing type 1 (launch)
    expected[24] = 1.0  # outgoing type 4 (file write)
    expected[38] = 1.0  # outgoing type 18 (socket connect)
    e0 = ft.init_features(figure_snippet)
    row = e0[figure_snippet.node_index()["powershell"]]
    assert row.tolist() == expected


def test_isolated_node_zero_vector(figure_snippet):
    sub = figure_snippet.induced(["chrome"])
    assert (ft.init_features(sub) == 0).all()


def test_counts_match_edge_scan_oracle():
    gen = Rng(31)
    triples = []
    ops = [("read", EntityType.FILE), ("write", EntityType.FILE),
           ("query", EntityType.REGISTRY), ("connect", EntityType.SOCKET),
           ("launch", EntityType.PROCESS)]
    for t in range(50):
        op, kind = ops[int(gen.integers(len(ops)))]
        subj = f"p{int(gen.integers(6))}"
        obj = (
            f"p{int(gen.integers(6))}" if kind == EntityType.PROCESS
            else f"{kind.value}{int(gen.integers(4))}"
        )
        if subj == obj:
            obj = obj + "x" if kind != EntityType.PROCESS else f"p{(int(obj[1]) + 1) % 6}"
        triples.append((subj, op, obj, kind))
    g = make_graph(triples)
    e0 = ft.init_features(g)
    index = g.node_index()
    for nid in g.node_ids():
        row = np.zeros(42)
        for e in g.edges:
            if e.dst == nid:
                row[e.edge_type_id - 1] += 1
            if e.src == nid:
                row[21 + e.edge_type_id - 1] += 1
        assert (e0[index[nid]] == row).all()


def test_row_sums_equal_total_degree(figure_snippet):
    e0 = ft.init_features(figure_snippet)
    for nid, i in figure_snippet.node_index().items():
        din, dout = figure_snippet.degree(nid)
        assert e0[i].sum() == din + dout


# -- layer forward ------------------------------------------------------------


def test_layer_identity_on_edgeless_graph():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)]).induced(["a", "b"])
    g = build_graph([])  # truly edgeless: build two isolated nodes via induced
    base = make_graph(
        [("a", "launch", "b", EntityType.PROCESS), ("c", "launch", "d", EntityType.PROCESS)]
    )
    g = base.induced(["a", "d"])  # no edges survive
    e_in = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = ft.gnn_layer_forward(ft.aggregation_matrix(g), e_in, np.eye(2))
    assert (out.value == e_in).all()


def test_layer_two_node_chain_averages_parent():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)])
    e_in = np.array([[2.0, 0.0], [4.0, 6.0]])
    out = ft.gnn_layer_forward(ft.aggregation_matrix(g), e_in, np.eye(2))
    assert (out.value[0] == e_in[0]).all()           # a: no in-neighbors
    assert (out.value[1] == [3.0, 3.0]).all()        # b: mean of a and b


def test_layer_matches_naive_loop_oracle():
    gen = Rng(37)
    triples = []
    for t in range(12):
        a, b = int(gen.integers(6)), int(gen.integers(6))
        if a == b:
            b = (a + 1) % 6
        triples.append((f"p{a}", "launch", f"p{b}", EntityType.PROCESS))
    g = make_graph(triples)
    e_in = gen.normal(0, 1, size=(g.n_nodes, 3))
    w = gen.normal(0, 1, size=(3, 2))
    got = ft.gnn_layer_forward(ft.aggregation_matrix(g), e_in, w).value

    index = g.node_index()
    for nid in g.node_ids():
        in_neighbors = dict.fromkeys(e.src for e in g.edges if e.dst == nid)
        group = [index[nid]] + [
            index[u] for u in in_neighbors if index[u] != index[nid]
        ]
        z = np.mean([e_in[j] @ w for j in group], axis=0)
        want = np.where(z > 0, z, 0.01 * z)
        assert np.allclose(got[index[nid]], want, atol=1e-12)


def test_layer_dimension_mismatch():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)])
    with pytest.raises(NumericsError):
        ft.gnn_layer_forward(ft.aggregation_matrix(g), np.ones((2, 3)), np.ones((4, 2)))


def test_layer_permutation_equivariance():
    triples = [
        ("a", "launch", "b", EntityType.PROCESS),
        ("b", "launch", "c", EntityType.PROCESS),
        ("a", "launch", "c", EntityType.PROCESS),
    ]
    g1 = make_graph(triples)
    g2 = make_graph(list(reversed(triples)))
    gen = Rng(5)
    w = gen.normal(0, 1, size=(2, 2))
    feats = {"a": [1.0, 0.0], "b": [0.0, 2.0], "c": [3.0, 1.0]}
    e1 = np.array([feats[n] for n in g1.node_ids()])
    e2 = np.array([feats[n] for n in g2.node_ids()])
    o1 = ft.gnn_layer_forward(ft.aggregation_matrix(g1), e1, w).value
    o2 = ft.gnn_layer_forward(ft.aggregation_matrix(g2), e2, w).value
    for nid in feats:
        # equal up to float summation order inside the neighbor mean
        assert np.allclose(
            o1[g1.node_index()[nid]], o2[g2.node_index()[nid]], atol=1e-12
        )


# -- training -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_setup():
    spec = ScenarioSpec(samples_per_class=2, background=60, seed=4)
    ds = generate_scenario(spec)
    union = disjoint_union([s.graph for s in ds.samples])
    e0 = ft.init_features(union)
    enc = ft.train_encoder(union, e0, EncoderConfig(epochs=250, hidden=32, seed=4))
    return union, e0, enc


def test_training_reaches_type_accuracy(trained_setup):
    union, e0, enc = trained_setup
    assert ft.type_accuracy(enc, union, e0) >= 0.9


def test_training_loss_settles(trained_setup):
    _, _, enc = trained_setup
    tail = enc.loss_curve[-max(1, len(enc.loss_curve) // 10):]
    for earlier, later in zip(tail, tail[1:]):
        assert later <= earlier + 1e-6


def test_single_type_graph_rejected():
    g = launch_chain(["a", "b", "c"])
    with pytest.raises(ValueError, match="two node types"):
        ft.train_encoder(g, ft.init_features(g), EncoderConfig(epochs=1))


def test_identical_seeds_identical_loss_curves():
    g = make_graph(
        [("a", "read", "f1", EntityType.FILE),
         ("b", "write", "f1", EntityType.FILE),
         ("a", "launch", "b", EntityType.PROCESS)]
    )
    e0 = ft.init_features(g)
    cfg = EncoderConfig(epochs=30, hidden=8, seed=11)
    c1 = ft.train_encoder(g, e0, cfg).loss_curve
    c2 = ft.train_encoder(g, e0, cfg).loss_curve
    assert c1 == c2


def test_divergence_raises_advice():
    g = make_graph(
        [("a", "read", "f1", EntityType.FILE),
         ("b", "write", "f1", EntityType.FILE)]
    )
    e0 = ft.init_features(g)
    with pytest.raises(NumericsError, match="learning rate"):
        ft.train_encoder(g, e0, EncoderConfig(epochs=200, hidden=8, lr=1e18, seed=1))


# -- class-level operators ----------------------------------------------------


def _full_graph_training(graph, e0, config):
    """Reference: the training loop on the full graph, every layer aggregating
    over all nodes and the loss the plain mean over nodes."""
    labels = ft.node_type_labels(graph)
    x = Matrix(ft.scale_features(e0))
    agg = ft.aggregation_matrix(graph)
    rng = Rng(config.seed).split("encoder-init")
    widths = [x.cols] + [config.hidden] * config.t_layers + [4]
    tape = nm.GradientTape()
    params = [
        tape.parameter(f"p{t}", rng.normal(0.0, 1.0 / np.sqrt(a), size=(a, b)))
        for t, (a, b) in enumerate(zip(widths, widths[1:]))
    ]

    def loss_fn():
        h = x
        for w in params[:-1]:
            h = ft.gnn_layer_forward(agg, h, w)
        return nm.softmax_cross_entropy(nm.matmul(h, params[-1]), labels)

    losses = nm.descend(tape, loss_fn, config.epochs, config.lr)
    return losses, [p.value for p in params]


@pytest.fixture(scope="module", params=[4, 9])
def scenario_union(request):
    spec = ScenarioSpec(samples_per_class=2, background=60, seed=request.param)
    union = disjoint_union([s.graph for s in generate_scenario(spec).samples])
    return union, ft.init_features(union)


@pytest.mark.parametrize("t_layers", [1, 2, 3])
def test_class_training_matches_full_graph_reference(scenario_union, t_layers):
    union, e0 = scenario_union
    cfg = EncoderConfig(t_layers=t_layers, hidden=32, epochs=120, seed=t_layers)
    enc = ft.train_encoder(union, e0, cfg)
    losses, weights = _full_graph_training(union, e0, cfg)
    got, want = np.array(enc.loss_curve), np.array(losses)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for a, b in zip(enc.weights + [enc.classifier], weights):
        assert np.abs(a - b).max() <= 1e-12


def _onehot(classes):
    n = len(classes)
    return sparse.csr_matrix(
        (np.ones(n), classes, np.arange(n + 1)), shape=(n, classes.max() + 1)
    )


@pytest.mark.parametrize("t_layers", [1, 2, 3])
def test_one_class_means_byte_equal_aggregation_rows(scenario_union, t_layers):
    union, e0 = scenario_union
    agg = ft.aggregation_matrix(union)
    x = ft.scale_features(e0)
    _, _, before = ft.class_operators(agg, x, t_layers - 1)
    q = (agg @ _onehot(before)).toarray()
    _, ops, classes = ft.class_operators(agg, x, t_layers)
    first = np.unique(classes, return_index=True)[1]
    assert (q == q[first][classes]).all()  # byte-equal within each class...
    assert len(np.unique(q, axis=0)) == len(first)  # ...and distinct across
    assert (ops[-1].toarray() == q[first]).all()
    assert ops[-1].shape == (len(first), before.max() + 1)


def test_class_forward_equals_node_forward(scenario_union):
    union, e0 = scenario_union
    agg = ft.aggregation_matrix(union)
    x = ft.scale_features(e0)
    gen = Rng(8)
    weights = [gen.normal(0, 1, size=(42, 6)), gen.normal(0, 1, size=(6, 6))]
    x_rows, ops, classes = ft.class_operators(agg, x, 2)
    h_class, h_node = Matrix(x_rows), Matrix(x)
    for op, w in zip(ops, weights):
        h_class = ft.gnn_layer_forward(op, h_class, w)
        h_node = ft.gnn_layer_forward(agg, h_node, w)
    assert np.allclose(h_class.value[classes], h_node.value, rtol=0, atol=1e-12)


def test_edgeless_graph_classes_are_distinct_features():
    base = make_graph(
        [("a", "launch", "b", EntityType.PROCESS),
         ("c", "read", "f", EntityType.FILE),
         ("d", "read", "g", EntityType.FILE),
         ("e", "read", "h", EntityType.FILE)]
    )
    g = base.induced(["a", "c", "d", "e"])  # no edges survive
    assert g.n_edges == 0
    x = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 0.0], [-0.0, 0.0]])
    x_rows, ops, classes = ft.class_operators(ft.aggregation_matrix(g), x, 2)
    assert classes.tolist() == [0, 1, 0, 2]
    assert x_rows.tolist() == [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]
    for op in ops:
        assert (op.toarray() == np.eye(3)).all()


def test_self_loops_and_repeated_edges_do_not_split_classes():
    # the mean is over unique in-neighbours, self included: b's repeated
    # parent edge counts once, as e's single one does, and c's self-loops
    # merge with c itself
    g = make_graph(
        [("a", "launch", "b", EntityType.PROCESS),
         ("a", "launch", "b", EntityType.PROCESS),
         ("d", "launch", "e", EntityType.PROCESS),
         ("c", "launch", "c", EntityType.PROCESS),
         ("c", "launch", "c", EntityType.PROCESS)]
    )
    assert g.node_ids() == ["a", "b", "d", "e", "c"]
    x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    for t_layers in (1, 2):
        _, ops, classes = ft.class_operators(ft.aggregation_matrix(g), x, t_layers)
        assert classes.tolist() == [0, 1, 0, 1, 2]
    assert ops[-1].toarray().tolist() == [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]


def test_training_with_self_loops_and_repeated_edges_matches_reference():
    g = make_graph(
        [("a", "launch", "b", EntityType.PROCESS),
         ("a", "launch", "b", EntityType.PROCESS),
         ("b", "launch", "a", EntityType.PROCESS),
         ("b", "launch", "b", EntityType.PROCESS),
         ("b", "write", "f", EntityType.FILE),
         ("b", "write", "f", EntityType.FILE),
         ("a", "read", "f", EntityType.FILE)]
    )
    e0 = ft.init_features(g)
    cfg = EncoderConfig(t_layers=2, hidden=8, epochs=40, seed=3)
    losses, weights = _full_graph_training(g, e0, cfg)
    enc = ft.train_encoder(g, e0, cfg)
    assert np.allclose(enc.loss_curve, losses, rtol=1e-12, atol=0)
    for a, b in zip(enc.weights + [enc.classifier], weights):
        assert np.abs(a - b).max() <= 1e-12


def test_every_node_its_own_class_keeps_the_full_operator():
    g = launch_chain(["p0", "p1", "p2"])
    agg = ft.aggregation_matrix(g)
    x = ft.scale_features(ft.init_features(g))
    x_rows, ops, classes = ft.class_operators(agg, x, 3)
    assert classes.tolist() == [0, 1, 2]
    assert (x_rows == x).all()
    for op in ops:
        assert (op != agg).nnz == 0


def test_long_chain_builds_operators_fast_in_exactly_t_rounds(monkeypatch):
    n = 100_000
    chain = launch_chain([f"p{i}" for i in range(n)])
    agg = ft.aggregation_matrix(chain)
    x = ft.scale_features(ft.init_features(chain))
    calls = []
    row_classes = ft._row_classes

    def counted(rows):
        calls.append(rows.shape)
        return row_classes(rows)

    monkeypatch.setattr(ft, "_row_classes", counted)
    started = time.perf_counter()
    _, ops, classes = ft.class_operators(agg, x, 2)
    elapsed = time.perf_counter() - started
    assert len(calls) == 3  # the feature rows, then exactly 2 refinement rounds
    assert len(ops) == 2
    assert classes.max() + 1 == ops[-1].shape[0] <= 6
    assert elapsed < 1.0


# -- extraction ---------------------------------------------------------------


def test_extraction_equals_stacked_forward_passes(trained_setup):
    union, e0, enc = trained_setup
    agg = ft.aggregation_matrix(union)
    h = Matrix(ft.scale_features(e0))
    for w in enc.weights:
        h = ft.gnn_layer_forward(agg, h, w)
    assert np.allclose(ft.extract_embeddings(enc, union, e0), h.value, atol=1e-12)


def test_extraction_equals_numpy_layer_loop_bit_for_bit(trained_setup):
    # reference: the trained layer stack in plain numpy
    union, e0, enc = trained_setup
    agg = ft.aggregation_matrix(union)
    h = ft.scale_features(e0)
    for w in enc.weights:
        z = agg @ (h @ w)
        h = np.where(z > 0, z, 0.01 * z)
    assert (ft.extract_embeddings(enc, union, e0) == h).all()


def test_edgeless_rows_depend_only_on_own_features():
    base = make_graph(
        [("a", "launch", "b", EntityType.PROCESS),
         ("c", "read", "f", EntityType.FILE)]
    )
    g = base.induced(["a", "f"])  # two isolated nodes
    e0 = ft.init_features(g)
    enc = GnnEncoder(
        EncoderConfig(t_layers=1, hidden=4),
        [np.ones((42, 4))], np.ones((4, 4)),
    )
    before = ft.extract_embeddings(enc, g, e0)
    e0b = e0.copy()
    e0b[1] += 7.0  # perturb the other node
    after = ft.extract_embeddings(enc, g, e0b)
    assert (before[0] == after[0]).all()
    assert not (before[1] == after[1]).all()


def test_linear_probe_separates_types(trained_setup):
    union, e0, enc = trained_setup
    emb = ft.extract_embeddings(enc, union, e0)
    labels = ft.node_type_labels(union)
    onehot = np.eye(4)[labels]
    # independent probe: least squares onto one-hot targets
    x = np.hstack([emb, np.ones((len(emb), 1))])
    coef, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    acc = float(((x @ coef).argmax(axis=1) == labels).mean())
    assert acc >= 0.9


def test_width_mismatch_rejected(trained_setup):
    union, e0, enc = trained_setup
    with pytest.raises(ValueError):
        ft.extract_embeddings(enc, union, e0[:, :10])


def test_receptive_field_bounded_by_depth():
    ids = [f"n{i}" for i in range(8)]
    g = launch_chain(ids)
    e0 = ft.init_features(g)
    t_layers = 2
    gen = Rng(2)
    enc = GnnEncoder(
        EncoderConfig(t_layers=t_layers, hidden=6),
        [gen.normal(0, 1, size=(42, 6)), gen.normal(0, 1, size=(6, 6))],
        gen.normal(0, 1, size=(6, 4)),
    )
    target = g.node_index()["n5"]
    base = ft.extract_embeddings(enc, g, e0)[target]
    # n5's in-ancestors within 2 hops: n4, n3. Editing n2 must not move n5.
    far = e0.copy()
    far[g.node_index()["n2"]] += 5.0
    assert (ft.extract_embeddings(enc, g, far)[target] == base).all()
    near = e0.copy()
    near[g.node_index()["n4"]] += 5.0
    assert not (ft.extract_embeddings(enc, g, near)[target] == base).all()


def test_grad_check_through_gnn_and_cross_entropy():
    gen = Rng(13)
    triples = []
    for t in range(8):
        a, b = int(gen.integers(6)), int(gen.integers(6))
        if a == b:
            b = (a + 1) % 6
        triples.append((f"p{a}", "launch", f"p{b}", EntityType.PROCESS))
    triples.append(("p0", "read", "f0", EntityType.FILE))
    g = make_graph(triples)
    e0 = ft.scale_features(ft.init_features(g))
    labels = ft.node_type_labels(g)
    agg = ft.aggregation_matrix(g)

    tape = nm.GradientTape()
    w0 = tape.parameter("w0", gen.normal(0, 0.5, size=(42, 5)))
    w1 = tape.parameter("w1", gen.normal(0, 0.5, size=(5, 5)))
    wc = tape.parameter("wc", gen.normal(0, 0.5, size=(5, 4)))

    def loss():
        h = ft.gnn_layer_forward(agg, Matrix(e0), w0)
        h = ft.gnn_layer_forward(agg, h, w1)
        return nm.softmax_cross_entropy(nm.matmul(h, wc), labels)

    assert grad_check(loss, [w0, w1, wc], eps=1e-5) < 1e-4


def test_encoder_checkpoint_round_trip(trained_setup, tmp_path):
    union, e0, enc = trained_setup
    from provrec.persistence import load_model, save_model

    path = tmp_path / "encoder.json"
    save_model(enc, path)
    loaded = load_model(path, expect_kind="gnn_encoder")
    a = ft.extract_embeddings(enc, union, e0)
    b = ft.extract_embeddings(loaded, union, e0)
    assert (a == b).all()
