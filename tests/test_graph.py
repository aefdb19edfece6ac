"""Edge-type table, graph construction, degrees, and persistence."""

import json

import pytest

from provrec.graph import (
    EDGE_TYPE_IDS,
    NUM_EDGE_TYPES,
    EntityType,
    GraphError,
    ProvenanceGraph,
    build_graph,
    disjoint_union,
    edge_type_of,
    graph_to_events,
    parse_event,
    read_events_jsonl,
    write_events_jsonl,
)
from provrec.numerics import Rng

from conftest import ev, make_graph, random_process_graph


# -- edge types ---------------------------------------------------------------

CANONICAL = [
    ("launch", EntityType.PROCESS, 1),
    ("create", EntityType.FILE, 2),
    ("read", EntityType.FILE, 3),
    ("write", EntityType.FILE, 4),
    ("close", EntityType.FILE, 5),
    ("delete", EntityType.FILE, 6),
    ("enum", EntityType.FILE, 7),
    ("open", EntityType.REGISTRY, 8),
    ("query", EntityType.REGISTRY, 9),
    ("enumerate", EntityType.REGISTRY, 10),
    ("modify", EntityType.REGISTRY, 11),
    ("close", EntityType.REGISTRY, 12),
    ("delete", EntityType.REGISTRY, 13),
    ("send", EntityType.SOCKET, 14),
    ("receive", EntityType.SOCKET, 15),
    ("retransmit", EntityType.SOCKET, 16),
    ("copy", EntityType.SOCKET, 17),
    ("connect", EntityType.SOCKET, 18),
    ("disconnect", EntityType.SOCKET, 19),
    ("accept", EntityType.SOCKET, 20),
    ("reconnect", EntityType.SOCKET, 21),
]


def test_exactly_21_edge_types():
    assert NUM_EDGE_TYPES == 21
    assert len(EDGE_TYPE_IDS) == 21


@pytest.mark.parametrize("operation,obj_type,expected", CANONICAL)
def test_canonical_edge_type_ids(operation, obj_type, expected):
    assert edge_type_of(EntityType.PROCESS, operation, obj_type) == expected


def test_edge_type_errors_name_the_triple():
    with pytest.raises(GraphError, match="process.*frobnicate.*file"):
        edge_type_of("process", "frobnicate", "file")
    with pytest.raises(GraphError, match="subjects must be processes"):
        edge_type_of("file", "read", "file")
    with pytest.raises(GraphError):
        edge_type_of("process", "launch", "file")  # illegal pair


# -- build_graph --------------------------------------------------------------


def test_empty_event_list_gives_empty_graph():
    g = build_graph([])
    assert g.n_nodes == 0 and g.n_edges == 0


def test_entity_merging_two_events_one_file():
    g = make_graph(
        [
            ("p1", "write", "shared.txt", EntityType.FILE),
            ("p2", "read", "shared.txt", EntityType.FILE),
        ]
    )
    assert g.n_nodes == 3
    assert g.n_edges == 2


def test_campaign_snippet_topology(figure_snippet):
    g = figure_snippet
    assert g.n_nodes == 8
    assert g.n_edges == 7
    assert g.entity_type("x.pdf") == EntityType.FILE
    # chrome wrote the pdf, acrobat read it, acrobat spawned powershell
    assert g.degree("x.pdf") == (2, 0)
    assert g.degree("powershell") == (1, 3)
    assert [e.src for e in g.edges if e.dst == "powershell"] == ["acrobat"]


def test_edge_count_equals_event_count():
    gen = Rng(3)
    g = random_process_graph(gen, 10, 30)
    assert g.n_edges == 30


def test_id_collision_across_types_raises():
    events = [
        ev("p1", "write", "thing", EntityType.FILE),
        ev("p1", "query", "thing", EntityType.REGISTRY),
    ]
    with pytest.raises(GraphError, match="thing"):
        build_graph(events)


def test_node_set_independent_of_event_order():
    triples = [
        ("a", "launch", "b", EntityType.PROCESS),
        ("b", "write", "f", EntityType.FILE),
        ("a", "read", "f", EntityType.FILE),
        ("b", "connect", "s", EntityType.SOCKET),
    ]
    g1 = make_graph(triples)
    g2 = make_graph(list(reversed(triples)))
    assert set(g1.node_ids()) == set(g2.node_ids())
    e1 = sorted((e.src, e.dst, e.edge_type_id) for e in g1.edges)
    e2 = sorted((e.src, e.dst, e.edge_type_id) for e in g2.edges)
    assert e1 == e2


# -- degree -------------------------------------------------------------------


def test_isolated_node_degree_zero():
    g = make_graph([("a", "launch", "b", EntityType.PROCESS)])
    sub = g.induced(["a"])
    assert sub.degree("a") == (0, 0)


def test_fan_out_degree():
    g = make_graph(
        [("root", "launch", f"c{i}", EntityType.PROCESS) for i in range(3)]
    )
    assert g.degree("root") == (0, 3)


def test_degree_matches_edge_scan_oracle():
    gen = Rng(17)
    g = random_process_graph(gen, 12, 30)
    for nid in g.node_ids():
        din = sum(1 for e in g.edges if e.dst == nid)
        dout = sum(1 for e in g.edges if e.src == nid)
        assert g.degree(nid) == (din, dout)


def test_degree_unknown_node_raises():
    g = build_graph([])
    with pytest.raises(GraphError):
        g.degree("ghost")


def test_degree_sums_equal_edge_count():
    gen = Rng(23)
    for _ in range(5):
        g = random_process_graph(gen, 15, 40)
        ins = sum(g.degree(n)[0] for n in g.node_ids())
        outs = sum(g.degree(n)[1] for n in g.node_ids())
        assert ins == outs == g.n_edges


# -- persistence --------------------------------------------------------------


def test_graph_json_round_trip(figure_snippet, tmp_path):
    path = tmp_path / "g.json"
    figure_snippet.save(path)
    loaded = ProvenanceGraph.load(path)
    assert loaded.node_ids() == figure_snippet.node_ids()
    assert [
        (e.src, e.dst, e.edge_type_id, e.ts) for e in loaded.edges
    ] == [(e.src, e.dst, e.edge_type_id, e.ts) for e in figure_snippet.edges]
    assert all(
        loaded.entity_type(n) == figure_snippet.entity_type(n)
        for n in loaded.node_ids()
    )


def test_graph_rejects_wrong_format_version(figure_snippet):
    payload = figure_snippet.to_dict()
    payload["format_version"] = 99
    with pytest.raises(GraphError, match="format_version"):
        ProvenanceGraph.from_dict(payload)


def test_induced_subgraph_keeps_internal_edges(figure_snippet):
    sub = figure_snippet.induced(["chrome", "x.pdf", "acrobat"])
    assert sub.n_nodes == 3
    assert sub.n_edges == 2  # chrome->x.pdf write, acrobat->x.pdf read
    with pytest.raises(GraphError):
        figure_snippet.induced(["chrome", "nope"])


# -- events jsonl -------------------------------------------------------------


def test_events_jsonl_round_trip(tmp_path, figure_snippet):
    events = graph_to_events(figure_snippet)
    path = tmp_path / "events.jsonl"
    write_events_jsonl(events, path)
    back, stats = read_events_jsonl(path)
    assert stats.loaded == len(events)
    assert stats.rejected_count == 0
    rebuilt = build_graph(back)
    assert rebuilt.to_dict() == figure_snippet.to_dict()


def test_ingest_rejects_bad_lines_with_reasons(tmp_path):
    path = tmp_path / "events.jsonl"
    lines = [
        '{"subject_id": "p", "subject_type": "process", "operation": "read",'
        ' "object_id": "f", "object_type": "file", "ts": 1}',
        "not json at all",
        '{"subject_id": "p", "subject_type": "process", "operation": "zap",'
        ' "object_id": "f", "object_type": "file", "ts": 2}',
        '{"subject_id": "p", "subject_type": "process", "operation": "read"}',
    ]
    path.write_text("\n".join(lines) + "\n")
    events, stats = read_events_jsonl(path)
    assert len(events) == 1
    assert stats.loaded == 1
    assert stats.rejected_count == 3
    assert [line for line, _ in stats.rejected] == [2, 3, 4]


def test_ingest_rejects_non_object_lines_and_bad_timestamps(tmp_path):
    path = tmp_path / "events.jsonl"
    event = (
        '{"subject_id": "p", "subject_type": "process", "operation": "read",'
        ' "object_id": "f", "object_type": "file", "ts": %s}'
    )
    lines = ["5", "null", "true", event % "null", event % "[1]", event % "1"]
    path.write_text("\n".join(lines) + "\n")
    for strict in (True, False):
        events, stats = read_events_jsonl(path, strict=strict)
        assert [e.ts for e in events] == [1]
        assert stats.loaded == 1
        assert [line for line, _ in stats.rejected] == [1, 2, 3, 4, 5]
        reasons = [reason for _, reason in stats.rejected]
        assert all("JSON object" in r for r in reasons[:3])
        assert all("ts" in r for r in reasons[3:])


def test_lenient_parse_allows_stream_operations():
    record = {
        "subject_id": "p", "subject_type": "process", "operation": "execute",
        "object_id": "f", "object_type": "file", "ts": 0,
    }
    with pytest.raises(GraphError):
        parse_event(record, strict=True)
    assert parse_event(record, strict=False).operation == "execute"


def test_subject_attrs_prefix_routes_to_subject():
    event = parse_event(
        {
            "subject_id": "p", "subject_type": "process", "operation": "write",
            "object_id": "f", "object_type": "file", "ts": 0,
            "attrs": {"subject_name": "winword.exe", "path": "C:/doc.txt"},
        }
    )
    g = build_graph([event])
    assert g.nodes["p"].attrs == {"name": "winword.exe"}
    assert g.nodes["f"].attrs == {"path": "C:/doc.txt"}


def test_disjoint_union_prefixes_ids(figure_snippet):
    u = disjoint_union([figure_snippet, figure_snippet])
    assert u.n_nodes == 2 * figure_snippet.n_nodes
    assert u.n_edges == 2 * figure_snippet.n_edges
    assert u.has_node("g0/chrome") and u.has_node("g1/chrome")
