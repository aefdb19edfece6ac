"""The graph's edge arrays and the matrices built from them, on edge cases.

Each reference below is the per-edge loop that features and meta-path
pairs were computed with before the edge arrays existed; results must be
equal exactly, not within a tolerance.
"""

import numpy as np
import pytest
from scipy import sparse

from provrec import features as ft
from provrec.embedding import META_PATHS, metapath_pairs
from provrec.graph import (
    EDGE_GROUPS,
    NUM_EDGE_TYPES,
    EntityType,
    build_graph,
)
from provrec.sampling import TechniqueSubgraph

from testkit import make_graph, metapath_neighbours

P, F, R, S = EntityType.PROCESS, EntityType.FILE, EntityType.REGISTRY, EntityType.SOCKET


def _isolated_node_graph():
    base = make_graph([("pa", "write", "f", F), ("pb", "read", "f", F),
                       ("pc", "launch", "pd", P)])
    return base.induced(["pa", "pb", "f", "pc"])  # pc keeps no edge


def _edgeless_graph():
    base = make_graph([("pa", "launch", "pb", P), ("pc", "launch", "pd", P)])
    return base.induced(["pa", "pd"])  # no edge survives


CASES = {
    "self_loop_launch": lambda: make_graph(
        [("pa", "launch", "pa", P), ("pa", "launch", "pb", P)]
    ),
    "repeated_launch": lambda: make_graph(
        [("pa", "launch", "pb", P), ("pa", "launch", "pb", P),
         ("pb", "launch", "pc", P)]
    ),
    "file_written_twice": lambda: make_graph(
        [("pa", "write", "f", F), ("pa", "write", "f", F), ("pb", "read", "f", F),
         ("pb", "query", "k", R), ("pc", "query", "k", R), ("pc", "send", "s", S)]
    ),
    "isolated_node": _isolated_node_graph,
    "edgeless": _edgeless_graph,
    "mixed": lambda: make_graph(
        [("pa", "launch", "pb", P), ("pb", "launch", "pa", P), ("pa", "read", "f", F),
         ("pb", "write", "f", F), ("pb", "write", "g", F), ("pc", "read", "g", F),
         ("pc", "connect", "s", S), ("pa", "send", "s", S), ("pc", "launch", "pc", P),
         ("pa", "open", "k", R), ("pa", "modify", "k", R)]
    ),
}


# -- reference loops ------------------------------------------------------------


def _ref_init_features(g):
    index = g.node_index()
    out = np.zeros((g.n_nodes, ft.FEATURE_DIM))
    for e in g.edges:
        out[index[e.dst], e.edge_type_id - 1] += 1.0
        out[index[e.src], NUM_EDGE_TYPES + e.edge_type_id - 1] += 1.0
    return out


def _ref_aggregation_matrix(g):
    n = g.n_nodes
    index = g.node_index()
    rows, cols, vals = [], [], []
    for nid in g.nodes:
        i = index[nid]
        in_neighbors = dict.fromkeys(e.src for e in g.edges if e.dst == nid)
        group = [i] + [index[u] for u in in_neighbors if index[u] != i]
        w = 1.0 / len(group)
        for j in group:
            rows.append(i)
            cols.append(j)
            vals.append(w)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _ref_metapath_neighbors(g, node_id, mp):
    if g.entity_type(node_id) != P:
        return {node_id}
    out_edges = [e for e in g.edges if e.src == node_id]
    out = {node_id}
    if mp == "MP1":
        return out | {e.dst for e in out_edges if e.edge_type_id in EDGE_GROUPS[P]}
    group = EDGE_GROUPS[{"MP2": F, "MP3": R, "MP4": S}[mp]]
    for e in out_edges:
        if e.edge_type_id in group:
            out |= {b.src for b in g.edges if b.dst == e.dst and b.edge_type_id in group}
    return out


def _ref_metapath_pairs(tsg, mp):
    index = tsg.graph.node_index()
    src, dst = [], []
    for nid in tsg.graph.nodes:
        for k in sorted(index[m] for m in _ref_metapath_neighbors(tsg.graph, nid, mp)):
            src.append(k)
            dst.append(index[nid])
    return np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp)


def _tsg(g):
    procs = sorted(nid for nid, n in g.nodes.items() if n.entity_type == P)
    return TechniqueSubgraph(g, procs, procs[0])


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and (got == want).all()


# -- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CASES))
def test_edge_arrays_follow_edge_order(case):
    g = CASES[case]()
    index = g.node_index()
    src, dst, etype = g.edge_arrays()
    assert [a.dtype for a in (src, dst, etype)] == [np.dtype(np.intp)] * 3
    assert list(zip(src.tolist(), dst.tolist(), etype.tolist())) == [
        (index[e.src], index[e.dst], e.edge_type_id) for e in g.edges
    ]
    assert g.edge_arrays()[0] is src  # cached
    with pytest.raises(ValueError):
        src[:1] = 0


@pytest.mark.parametrize("case", sorted(CASES) + ["no_nodes"])
def test_features_and_aggregation_equal_edge_loop(case):
    g = build_graph([]) if case == "no_nodes" else CASES[case]()
    assert _same(ft.init_features(g), _ref_init_features(g))
    got, want = ft.aggregation_matrix(g), _ref_aggregation_matrix(g)
    assert got.has_sorted_indices
    for attr in ("indptr", "indices", "data"):
        assert _same(getattr(got, attr), getattr(want, attr)), attr


@pytest.mark.parametrize("case", sorted(CASES))
def test_metapath_pairs_equal_edge_loop(case):
    g = CASES[case]()
    for mp in META_PATHS:
        got_src, got_dst = metapath_pairs(_tsg(g), mp)
        want_src, want_dst = _ref_metapath_pairs(_tsg(g), mp)
        assert _same(got_src, want_src), mp
        assert _same(got_dst, want_dst), mp


def _summed_aggregation_matrix(g):
    """The aggregation matrix as it was built before one CSR: COO to CSR,
    plus the identity, sorted, then each row's entries set to 1 / count."""
    n = g.n_nodes
    src, dst, _ = g.edge_arrays()
    links = sparse.csr_matrix((np.ones(len(src)), (dst, src)), shape=(n, n))
    agg = links + sparse.identity(n, format="csr")
    agg.sort_indices()
    counts = np.diff(agg.indptr)
    agg.data = np.repeat(1.0 / counts, counts)
    return agg


def _random_multigraph(gen):
    """Random launches (self-loops and repeats included) and file reads,
    with one or two nodes left without any edge."""
    m = int(gen.integers(1, 12))
    triples = [("iso_a", "launch", "iso_b", P), ("iso_c", "launch", "iso_d", P)]
    for _ in range(int(gen.integers(0, 40))):
        subject = f"p{gen.integers(m)}"
        if gen.random() < 0.5:
            triples.append((subject, "launch", f"p{gen.integers(m)}", P))
        else:
            triples.append((subject, "read", f"f{gen.integers(4)}", F))
    g = make_graph(triples)
    drop = {"iso_b", "iso_d"} if gen.random() < 0.5 else {"iso_b"}
    return g.induced([nid for nid in g.node_ids() if nid not in drop])


def test_aggregation_matrix_equals_the_summed_construction_on_multigraphs():
    gen = np.random.default_rng(35)
    for _ in range(300):
        g = _random_multigraph(gen)
        got, want = ft.aggregation_matrix(g), _summed_aggregation_matrix(g)
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert _same(getattr(got, attr), getattr(want, attr)), attr


def test_self_loop_and_repeated_edges_count_once():
    g = CASES["self_loop_launch"]()
    agg = ft.aggregation_matrix(g).toarray()
    assert agg[g.node_index()["pa"]].tolist() == [1.0, 0.0]  # pa: itself only
    t = _tsg(CASES["file_written_twice"]())
    assert metapath_neighbours(t, "pa", "MP2") == {"pa", "pb"}
    assert metapath_neighbours(t, "pb", "MP3") == {"pb", "pc"}

