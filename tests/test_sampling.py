"""Seed selection, hop-limited search, subgraph carving, and overlap metrics."""

import gc
import time
import weakref

import networkx as nx
import pytest

from provrec import sampling
from provrec.graph import (
    EDGE_TYPE_IDS,
    EntityType,
    Event,
    GraphError,
    build_graph,
    graph_to_events,
)
from provrec.numerics import Rng
from provrec.sampling import (
    TechniqueSubgraph,
    _undirected_rows,
    lambda_dfs,
    match_subgraphs,
    sample_subgraphs,
    sampling_metrics,
    select_seed,
)
from provrec.synthetic import DEFAULT_TEMPLATES, generate_sample

from testkit import make_graph, random_process_graph


# -- oracle -------------------------------------------------------------------


def path_closure_oracle(graph, seed, nois, lam):
    """Fixpoint of "flagged node u reaches flagged node w via a <=lam-hop
    simple path", collecting every node on any such path."""
    g = nx.Graph()
    g.add_nodes_from(graph.node_ids())
    for e in graph.edges:
        if e.src != e.dst:
            g.add_edge(e.src, e.dst)
    noi_set = set(nois)
    retained = {seed}
    reached = {seed}
    frontier = [seed]
    while frontier:
        u = frontier.pop()
        for w in sorted(noi_set - {u}):
            for path in nx.all_simple_paths(g, u, w, cutoff=lam):
                retained.update(path)
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
    return retained


def _enumerating_walk(graph, seed, nois, lam):
    """The walk without skips: from every reached flag, every simple path of
    at most ``lam`` hops that ends at another flag is retained in full."""
    adj = {nid: {} for nid in graph.nodes}
    for e in graph.edges:
        if e.src != e.dst:
            adj[e.src].setdefault(e.dst, None)
            adj[e.dst].setdefault(e.src, None)
    noi_set = set(nois)
    retained, expanded, frontier = {seed}, set(), [seed]
    while frontier:
        u = frontier.pop()
        if u in expanded:
            continue
        expanded.add(u)
        path = [u]

        def walk(node, depth):
            if depth == lam:
                return
            for nb in adj[node]:
                if nb in path:
                    continue
                if nb in noi_set:
                    retained.update(path)
                    retained.add(nb)
                    if nb not in expanded:
                        frontier.append(nb)
                    continue
                path.append(nb)
                walk(nb, depth + 1)
                path.pop()

        walk(u, 0)
    return retained


def hub_graph(gen, k, h, extra_launches=0):
    """k processes that each read every one of h shared files, each with its
    own written file, joined by a random launch tree plus extra launches."""
    triples = [(f"p{int(gen.integers(i))}", "launch", f"p{i}", EntityType.PROCESS)
               for i in range(1, k)]
    for _ in range(extra_launches):
        a, b = int(gen.integers(k)), int(gen.integers(k))
        triples.append((f"p{a}", "launch", f"p{b}", EntityType.PROCESS))
    for i in range(k):
        triples += [(f"p{i}", "read", f"hub{j}", EntityType.FILE) for j in range(h)]
        triples.append((f"p{i}", "write", f"own{i}", EntityType.FILE))
    return make_graph(triples)


def random_flags(gen, ids, k):
    return [ids[i] for i in gen.choice(len(ids), size=min(k, len(ids)), replace=False)]


# -- select_seed --------------------------------------------------------------


def test_single_noi_is_its_own_seed():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)])
    assert select_seed(["a"], g) == "a"


def test_seed_tie_breaks_on_smaller_id():
    g = make_graph(
        [("a", "launch", "x1", EntityType.PROCESS)]
        + [("b", "launch", f"y{i}", EntityType.PROCESS) for i in range(7)]
        + [("c", "launch", f"z{i}", EntityType.PROCESS) for i in range(7)]
        + [("a", "launch", "x2", EntityType.PROCESS),
           ("a", "launch", "x3", EntityType.PROCESS)]
    )
    # degrees: a=3, b=7, c=7 -> pick b (smaller id among the 7s)
    assert select_seed(["a", "b", "c"], g) == "b"


def test_seed_matches_brute_force_scan():
    gen = Rng(41)
    for _ in range(10):
        g = random_process_graph(gen, 12, 25)
        nois = [n for n in g.node_ids()][:5]
        best = min(nois, key=lambda n: (-sum(g.degree(n)), n))
        assert select_seed(nois, g) == best


def test_empty_noi_set_rejected():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)])
    with pytest.raises(ValueError):
        select_seed([], g)


# -- lambda_dfs ---------------------------------------------------------------


def test_seed_expansion_topology_lambda3():
    # v0..v3 flagged; v0-a-v1, v1-b-c-v2, v2-v3 chains; v4 flagged but 4 hops
    # past v3; dead-end benign branch off v0 is never retained.
    g = make_graph(
        [
            ("v0", "launch", "a", EntityType.PROCESS),
            ("a", "launch", "v1", EntityType.PROCESS),
            ("v1", "launch", "b", EntityType.PROCESS),
            ("b", "launch", "c", EntityType.PROCESS),
            ("c", "launch", "v2", EntityType.PROCESS),
            ("v2", "launch", "v3", EntityType.PROCESS),
            ("v3", "launch", "d1", EntityType.PROCESS),
            ("d1", "launch", "d2", EntityType.PROCESS),
            ("d2", "launch", "d3", EntityType.PROCESS),
            ("d3", "launch", "v4", EntityType.PROCESS),
            ("v0", "launch", "dead", EntityType.PROCESS),
        ]
    )
    nois = {"v0", "v1", "v2", "v3", "v4"}
    visited = lambda_dfs(g, "v0", nois, 3)
    assert visited == {"v0", "a", "v1", "b", "c", "v2", "v3"}
    assert visited == path_closure_oracle(g, "v0", nois, 3)


def test_lonely_seed_returns_itself():
    g = make_graph(
        [
            ("s", "launch", "x", EntityType.PROCESS),
            ("x", "launch", "y", EntityType.PROCESS),
            ("y", "launch", "far", EntityType.PROCESS),
            ("far", "launch", "noi2", EntityType.PROCESS),
        ]
    )
    assert lambda_dfs(g, "s", {"s", "noi2"}, 3) == {"s"}


def test_traversal_is_bidirectional():
    g = make_graph(
        [
            ("mid", "launch", "s", EntityType.PROCESS),
            ("mid", "launch", "other", EntityType.PROCESS),
        ]
    )
    # s reaches other only by walking an incoming edge backwards
    assert lambda_dfs(g, "s", {"s", "other"}, 2) == {"s", "mid", "other"}


def test_seed_must_be_flagged():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)])
    with pytest.raises(ValueError):
        lambda_dfs(g, "a", {"b"}, 2)


def test_terminates_on_cycles():
    g = make_graph(
        [
            ("a", "launch", "b", EntityType.PROCESS),
            ("b", "launch", "c", EntityType.PROCESS),
            ("c", "launch", "a", EntityType.PROCESS),
        ]
    )
    assert lambda_dfs(g, "a", {"a", "c"}, 3) == {"a", "b", "c"}


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_matches_path_closure_oracle(lam):
    gen = Rng(4000 + lam)
    for _ in range(40):
        n = int(gen.integers(5, 30))
        g = random_process_graph(gen, n, int(gen.integers(n, 2 * n)))
        ids = g.node_ids()
        k = max(2, int(gen.integers(2, max(3, len(ids) // 3 + 1))))
        nois = [ids[i] for i in gen.choice(len(ids), size=min(k, len(ids)), replace=False)]
        seed = nois[0]
        assert lambda_dfs(g, seed, nois, lam) == path_closure_oracle(g, seed, nois, lam)
    hubs = Rng(4100 + lam)
    for _ in range(15):
        g = hub_graph(hubs, int(hubs.integers(3, 9)), int(hubs.integers(1, 4)),
                      int(hubs.integers(0, 4)))
        nois = random_flags(hubs, g.node_ids(), int(hubs.integers(2, 6)))
        seed = nois[0]
        assert lambda_dfs(g, seed, nois, lam) == path_closure_oracle(g, seed, nois, lam)


# -- the skips keep the enumerating walk's result -------------------------------


@pytest.mark.parametrize("lam", [1, 2, 3, 4, 5])
def test_random_graphs_match_the_enumerating_walk(lam):
    gen = Rng(4200 + lam)
    for _ in range(40):
        n = int(gen.integers(4, 26))
        g = random_process_graph(gen, n, int(gen.integers(n, 3 * n)))
        ids = g.node_ids()
        nois = random_flags(gen, ids, int(gen.integers(1, max(2, len(ids) // 2))))
        for seed in nois[:3]:
            assert lambda_dfs(g, seed, nois, lam) == _enumerating_walk(g, seed, nois, lam)


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_hub_graphs_match_the_enumerating_walk(lam):
    gen = Rng(4300 + lam)
    for _ in range(12):
        g = hub_graph(gen, int(gen.integers(5, 40)), int(gen.integers(1, 4)),
                      int(gen.integers(0, 10)))
        procs = [n for n in g.node_ids() if n.startswith("p")]
        nois = random_flags(gen, procs, int(gen.integers(2, 10)))
        seed = select_seed(nois, g)
        assert lambda_dfs(g, seed, nois, lam) == _enumerating_walk(g, seed, nois, lam)


def test_self_loops_and_multi_edges_match_the_enumerating_walk():
    gen = Rng(4400)
    for _ in range(30):
        n = int(gen.integers(4, 16))
        triples = []
        for _ in range(int(gen.integers(n, 3 * n))):
            a, b = f"p{int(gen.integers(n))}", f"p{int(gen.integers(n))}"
            triples += [(a, "launch", b, EntityType.PROCESS)] * int(gen.integers(1, 4))
            if gen.integers(3) == 0:
                triples.append((a, "write", f"f{int(gen.integers(4))}", EntityType.FILE))
        g = make_graph(triples)
        ids = g.node_ids()
        nois = random_flags(gen, ids, int(gen.integers(1, max(2, len(ids) // 2))))
        for lam in (1, 2, 3, 4):
            got = lambda_dfs(g, nois[0], nois, lam)
            assert got == _enumerating_walk(g, nois[0], nois, lam)


def test_seed_with_no_flag_within_lambda_returns_itself():
    g = make_graph(
        [("s", "launch", "x", EntityType.PROCESS),
         ("s", "launch", "s", EntityType.PROCESS),
         ("x", "read", "hub", EntityType.FILE)]
        + [(f"q{i}", "read", "hub", EntityType.FILE) for i in range(20)]
        + [("q0", "launch", "y", EntityType.PROCESS),
           ("y", "launch", "z", EntityType.PROCESS),
           ("z", "launch", "far", EntityType.PROCESS)]
    )
    # the one path to the other flag, s-x-hub-q0-y-z-far, takes 6 hops
    nois = {"s", "far"}
    for lam in (1, 2, 3, 4, 5):
        assert lambda_dfs(g, "s", nois, lam) == _enumerating_walk(g, "s", nois, lam)
    assert lambda_dfs(g, "s", nois, 5) == {"s"}
    assert lambda_dfs(g, "s", nois, 6) == {"s", "x", "hub", "q0", "y", "z", "far"}


def _with_hubs(graph, h):
    """``graph`` where every process also reads each of h shared files."""
    procs = [n for n in graph.node_ids() if graph.entity_type(n) == EntityType.PROCESS]
    events = graph_to_events(graph)
    events += [Event(p, EntityType.PROCESS, "read", f"hub_lib{j}", EntityType.FILE, 0)
               for p in procs for j in range(h)]
    return build_graph(events), procs


def test_generated_hub_host_matches_the_enumerating_walk():
    gen = Rng(4500)
    sample = generate_sample(DEFAULT_TEMPLATES[1], gen.split("host"), 200, 0.05)
    g, procs = _with_hubs(sample.graph, 3)
    nois = sorted(set(sample.truth.nois) | set(random_flags(gen, procs, 2)))
    seed = select_seed(nois, g)
    got = lambda_dfs(g, seed, nois, 4)
    assert got == _enumerating_walk(g, seed, nois, 4)
    assert len(got) > 200  # the hubs put most processes on a flag-to-flag path


def test_lambda_dfs_leaves_no_garbage_for_the_cycle_collector():
    """A call's tables are freed when it returns, not at the next GC run."""
    gen = Rng(4550)
    sample = generate_sample(DEFAULT_TEMPLATES[1], gen.split("host"), 200, 0.05)
    g, procs = _with_hubs(sample.graph, 3)
    nois = sorted(set(sample.truth.nois) | set(random_flags(gen, procs, 2)))
    seed = select_seed(nois, g)
    lambda_dfs(g, seed, nois, 4)  # builds the shared adjacency outside the check
    gc.collect()
    gc.disable()
    try:
        assert len(lambda_dfs(g, seed, nois, 4)) > 200
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- scale ---------------------------------------------------------------------


def _timed_carve(graph, nois, lam):
    started = time.perf_counter()
    subs = sample_subgraphs(graph, nois, lam=lam, min_nois=5)
    return subs, time.perf_counter() - started


def test_four_hundred_processes_on_three_hubs_carve_in_under_a_second():
    gen = Rng(4600)
    g = hub_graph(gen, 400, 3)
    nois = random_flags(gen, [f"p{i}" for i in range(400)], 10)
    subs, seconds = _timed_carve(g, nois, 4)
    assert [set(s.nois) for s in subs] == [set(nois)]
    assert subs[0].n_nodes > 400  # every process and hub is on a flag-to-flag path
    assert seconds < 1.0


def test_hub_free_host_of_800_nodes_carves_in_under_a_second():
    gen = Rng(4700)
    g = generate_sample(DEFAULT_TEMPLATES[0], gen.split("host"), 430, 0.05).graph
    assert 750 <= g.n_nodes <= 850
    procs = sorted(n for n in g.node_ids() if g.entity_type(n) == EntityType.PROCESS)
    subs, seconds = _timed_carve(g, random_flags(gen, procs, 60), 4)
    assert seconds < 1.0


def test_carve_rounds_build_the_adjacency_once(monkeypatch):
    gen = Rng(4701)
    g = generate_sample(DEFAULT_TEMPLATES[0], gen.split("host"), 430, 0.05).graph
    procs = sorted(n for n in g.node_ids() if g.entity_type(n) == EntityType.PROCESS)
    nois = random_flags(gen, procs, 40)
    # the per-round walk: each round builds its own adjacency
    pool, want = sorted(nois), []
    while pool:
        seed = select_seed(pool, g)
        visited = lambda_dfs(g, seed, set(pool), 3)
        consumed = [nid for nid in pool if nid in visited]
        pool = [nid for nid in pool if nid not in visited]
        if len(consumed) >= 2:
            want.append((seed, tuple(consumed), sorted(visited)))
    assert len(want) > 2
    builds = []

    def counted(graph):
        builds.append(graph)
        return _undirected_rows(graph)

    monkeypatch.setattr(sampling, "_undirected_rows", counted)
    for _ in range(2):
        got = sample_subgraphs(g, nois, lam=3, min_nois=2)
        assert [(s.seed, s.nois, s.node_ids) for s in got] == want
    assert builds == [g, g]  # one build per call
    assert sample_subgraphs(g, [], lam=3) == [] and len(builds) == 2


def test_a_carved_host_graph_is_freed_with_its_last_reference():
    gen = Rng(4702)
    g = generate_sample(DEFAULT_TEMPLATES[0], gen.split("host"), 430, 0.05).graph
    procs = sorted(n for n in g.node_ids() if g.entity_type(n) == EntityType.PROCESS)
    subs = sample_subgraphs(g, random_flags(gen, procs, 40), lam=3, min_nois=2)
    assert subs
    host = weakref.ref(g)
    del g
    assert host() is None  # freed by reference counting: nothing keeps it


def test_visited_set_monotone_in_lambda():
    gen = Rng(52)
    for _ in range(10):
        g = random_process_graph(gen, 20, 35)
        ids = g.node_ids()
        nois = ids[: max(2, len(ids) // 4)]
        prev = None
        for lam in (1, 2, 3, 4):
            cur = lambda_dfs(g, nois[0], nois, lam)
            if prev is not None:
                assert prev <= cur
            prev = cur


# -- sample_subgraphs ---------------------------------------------------------


def _cluster(prefix, k, base_triples):
    """k flagged processes sharing one file: all within 2 hops."""
    triples = list(base_triples)
    for i in range(k):
        triples.append((f"{prefix}{i}", "write", f"{prefix}_shared", EntityType.FILE))
    return triples


def test_empty_noi_pool_gives_no_subgraphs():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)])
    assert sample_subgraphs(g, []) == []


def test_single_dense_cluster_emits_one_subgraph():
    g = make_graph(_cluster("m", 6, []))
    nois = [f"m{i}" for i in range(6)]
    subs = sample_subgraphs(g, nois, lam=3, min_nois=5)
    assert len(subs) == 1
    assert set(subs[0].nois) == set(nois)
    assert "m_shared" in subs[0].node_ids


def test_two_remote_clusters_emit_two_disjoint_subgraphs():
    bridge = [
        ("m0", "launch", "hop1", EntityType.PROCESS),
        ("hop1", "launch", "hop2", EntityType.PROCESS),
        ("hop2", "launch", "hop3", EntityType.PROCESS),
        ("hop3", "launch", "hop4", EntityType.PROCESS),
        ("hop4", "launch", "hop5", EntityType.PROCESS),
        ("hop5", "launch", "hop6", EntityType.PROCESS),
        ("hop6", "launch", "n0", EntityType.PROCESS),
    ]
    triples = _cluster("m", 6, _cluster("n", 6, bridge))
    g = make_graph(triples)
    nois = [f"m{i}" for i in range(6)] + [f"n{i}" for i in range(6)]
    subs = sample_subgraphs(g, nois, lam=3, min_nois=5)
    assert len(subs) == 2
    noi_sets = [s.noi_set() for s in subs]
    assert noi_sets[0] & noi_sets[1] == set()
    assert noi_sets[0] | noi_sets[1] == set(nois)


def test_small_groups_filtered_by_min_nois():
    g = make_graph(_cluster("m", 3, []))
    subs = sample_subgraphs(g, [f"m{i}" for i in range(3)], lam=3, min_nois=5)
    assert subs == []
    subs = sample_subgraphs(g, [f"m{i}" for i in range(3)], lam=3, min_nois=3)
    assert len(subs) == 1


def test_emitted_noi_sets_disjoint_on_random_inputs():
    gen = Rng(61)
    for _ in range(10):
        g = random_process_graph(gen, 25, 40)
        ids = g.node_ids()
        nois = [ids[i] for i in gen.choice(len(ids), size=10, replace=False)]
        subs = sample_subgraphs(g, nois, lam=2, min_nois=2)
        seen = set()
        for s in subs:
            assert s.seed in s.nois
            assert not (s.noi_set() & seen)
            seen |= s.noi_set()
        assert seen <= set(nois)


def test_subgraph_invariants_and_round_trip():
    g = make_graph(_cluster("m", 6, []))
    sub = sample_subgraphs(g, [f"m{i}" for i in range(6)], min_nois=5)[0]
    node_set = set(sub.node_ids)
    for e in sub.graph.edges:
        assert e.src in node_set and e.dst in node_set
    back = TechniqueSubgraph.from_dict(sub.to_dict())
    assert back.node_ids == sub.node_ids
    assert back.nois == sub.nois
    assert back.seed == sub.seed


def test_subgraph_json_with_mixed_id_types_reads_ids_as_strings():
    launch = EDGE_TYPE_IDS[(EntityType.PROCESS, "launch")]
    payload = {
        "seed": 1,
        "nodes": [{"id": 1, "type": "process"}, {"id": "a", "type": "process"}],
        "edges": [{"src": 1, "dst": "a", "type_id": launch, "ts": 0}],
        "nois": [1, "a"],
    }
    sub = TechniqueSubgraph.from_dict(payload)
    assert (sub.node_ids, sub.nois, sub.seed) == (["1", "a"], ("1", "a"), "1")
    for key, bad in (("nois", [1.5]), ("seed", None), ("nois", 5)):
        with pytest.raises(GraphError):
            TechniqueSubgraph.from_dict({**payload, key: bad})


def test_subgraph_rejects_seed_outside_nois():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)])
    with pytest.raises(GraphError):
        TechniqueSubgraph(g, ["a"], "b")


# -- sampling metrics ---------------------------------------------------------


def _tsg(graph, nois):
    return TechniqueSubgraph(graph, nois, sorted(nois)[0])


def test_perfect_sampling_scores_perfectly():
    g = make_graph(_cluster("m", 6, []))
    t = _tsg(g, [f"m{i}" for i in range(6)])
    m = sampling_metrics([t], [t])
    assert (m.precision, m.coverage, m.tpr, m.far) == (1.0, 1.0, 1.0, 0.0)


def test_three_quarter_overlap_not_correct():
    g = make_graph(_cluster("m", 3, _cluster("x", 1, [("d", "launch", "m0", EntityType.PROCESS)])))
    sampled = _tsg(g, ["m0", "m1", "m2", "x0"])
    truth = _tsg(g, ["m0", "m1", "m2", "d"])
    m = sampling_metrics([sampled], [truth])
    assert m.precision == 0.75
    assert m.coverage == 0.75
    assert m.n_correct == 0
    assert m.tpr == 0.0 and m.far == 1.0


def test_hand_worksheet_three_sampled_four_truth():
    procs = [f"p{i}" for i in range(12)]
    g = make_graph(
        [(p, "write", "shared", EntityType.FILE) for p in procs]
    )
    # truth: {p0..p2}, {p3..p5}, {p6..p8}, {p9..p11}
    truth = [_tsg(g, procs[i : i + 3]) for i in (0, 3, 6, 9)]
    # sampled: {p0..p2} exact; {p3,p4,p6}; {p9,p10,p5,p11}
    sampled = [
        _tsg(g, ["p0", "p1", "p2"]),
        _tsg(g, ["p3", "p4", "p6"]),
        _tsg(g, ["p9", "p10", "p5", "p11"]),
    ]
    m = sampling_metrics(sampled, truth)
    # matches: s0-t0 (3), s1-t1 (2), s2-t3 (3)
    # precision: (3/3 + 2/3 + 3/4) / 3
    assert abs(m.precision - (1.0 + 2 / 3 + 3 / 4) / 3) < 1e-12
    # coverage: (3/3 + 2/3 + 3/3) / 3
    assert abs(m.coverage - (1.0 + 2 / 3 + 1.0) / 3) < 1e-12
    # correct: s0 (1,1) and s2 (0.75, 1.0)? no: s2 precision 0.75 <= 0.8
    assert m.n_correct == 1
    assert m.tpr == 0.25
    assert abs(m.far - 2 / 3) < 1e-12


def test_division_guards_flag_undefined_rates():
    g = make_graph(_cluster("m", 6, []))
    t = _tsg(g, [f"m{i}" for i in range(6)])
    empty_sampled = sampling_metrics([], [t])
    assert empty_sampled.far == 0.0 and not empty_sampled.far_defined
    empty_truth = sampling_metrics([t], [])
    assert empty_truth.tpr == 0.0 and not empty_truth.tpr_defined


def test_greedy_matching_prefers_largest_overlap():
    procs = [f"p{i}" for i in range(6)]
    g = make_graph([(p, "write", "f", EntityType.FILE) for p in procs])
    sampled = [_tsg(g, ["p0", "p1", "p2"]), _tsg(g, ["p0", "p3"])]
    truth = [_tsg(g, ["p0", "p1", "p2"])]
    pairs = match_subgraphs(sampled, truth)
    assert pairs == [(0, 0)]
