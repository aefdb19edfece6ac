"""The benchmark's checks reject wrong outputs; its arithmetic is right."""

import pytest

import checks as ck
import spans
from measure import median, rate
from provrec import graph as gm
from provrec import sampling as sp
from provrec.matching import RecognitionResult
from provrec.noi import NoiReport
from provrec.numerics import Rng

P, F = gm.EntityType.PROCESS, gm.EntityType.FILE


def _graph(triples):
    return gm.build_graph(
        gm.Event(s, P, op, o, t, ts) for ts, (s, op, o, t) in enumerate(triples)
    )


def _chain_graph():
    # v0 - f1 - v1 - i1 - v2, v2 - v3, plus a benign tail the carve must skip
    return _graph([
        ("v0", "write", "f1", F), ("v1", "read", "f1", F),
        ("v1", "launch", "i1", P), ("i1", "launch", "v2", P),
        ("v2", "launch", "v3", P), ("v3", "launch", "t1", P),
        ("t1", "launch", "t2", P),
    ])


# -- ingest -------------------------------------------------------------------


def test_ingest_check_accepts_a_round_trip_and_rejects_a_lost_edge(tmp_path):
    graph = _chain_graph()
    log = tmp_path / "g.jsonl"
    events = gm.graph_to_events(graph)
    gm.write_events_jsonl(events, log)
    read, stats = gm.read_events_jsonl(log)
    ck.check_ingest(graph, gm.build_graph(read), stats, len(events), "ok")

    lines = log.read_text().splitlines()
    del lines[1]  # v1 read f1 is lost; both its nodes still have other edges
    log.write_text("\n".join(lines) + "\n")
    read, stats = gm.read_events_jsonl(log)
    with pytest.raises(ck.CheckError, match="wrote"):
        ck.check_ingest(graph, gm.build_graph(read), stats, len(events), "lost")
    # counts alone would agree if the writer lost it too: the edges differ
    with pytest.raises(ck.CheckError, match="edge multisets differ"):
        ck.check_ingest(graph, gm.build_graph(read), stats, stats.lines, "lost")


def test_ingest_check_rejects_rejected_lines(tmp_path):
    graph = _chain_graph()
    log = tmp_path / "g.jsonl"
    events = gm.graph_to_events(graph)
    gm.write_events_jsonl(events, log)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write("{not json}\n")
    read, stats = gm.read_events_jsonl(log)
    with pytest.raises(ck.CheckError, match="rejected"):
        ck.check_ingest(graph, gm.build_graph(read), stats, len(events), "bad")


# -- detection ----------------------------------------------------------------


def _report(scores, threshold=0.6):
    flagged = [n for n, s in scores.items() if s > threshold]
    return NoiReport(flagged, dict(scores), threshold)


def test_detection_check_rejects_a_score_outside_the_unit_interval():
    graph = _chain_graph()
    procs = sorted(ck.process_ids(graph))
    scores = {n: 0.3 for n in procs}
    ck.check_detection(graph, _report(scores), 0.6, "ok")
    for bad in (1.0, 1.2, 0.0, -0.1, float("nan")):
        wrong = dict(scores, v0=bad)
        with pytest.raises(ck.CheckError):
            ck.check_detection(graph, _report(wrong), 0.6, "bad")


def test_detection_check_rejects_flags_that_do_not_follow_the_threshold():
    graph = _chain_graph()
    scores = {n: 0.3 for n in ck.process_ids(graph)}
    scores["v1"] = 0.9
    report = _report(scores)
    report.flagged.append("v0")  # 0.3 is not above 0.6
    with pytest.raises(ck.CheckError, match="flagged set"):
        ck.check_detection(graph, report, 0.6, "bad")


def test_flag_precision_pools_over_graphs():
    assert ck.flag_precision([({"a", "b"}, {"a"}), ({"c", "d"}, {"c", "d"})]) == 0.75
    assert ck.flag_precision([(set(), {"a"})]) == 0.0


# -- carving ------------------------------------------------------------------


def test_carve_check_accepts_the_program_and_rejects_a_dropped_node():
    graph = _chain_graph()
    flagged = ["v0", "v1", "v2", "v3"]
    carved = sp.sample_subgraphs(graph, flagged, lam=3, min_nois=4)
    ck.check_carve(carved, flagged, 4, "ok")
    assert ck.check_first_carve(graph, flagged, carved, 3, 4, "ok")

    first = carved[0]
    kept = [n for n in first.node_ids if n != "i1"]  # a carved node dropped
    dropped = sp.TechniqueSubgraph(graph.induced(kept), first.nois, first.seed)
    with pytest.raises(ck.CheckError, match="path closure"):
        ck.check_first_carve(graph, flagged, [dropped], 3, 4, "dropped")


def test_carve_check_rejects_shared_unflagged_or_small_noi_sets():
    graph = _chain_graph()
    whole = list(graph.nodes)
    a = sp.TechniqueSubgraph(graph.induced(whole), ["v0", "v1"], "v0")
    b = sp.TechniqueSubgraph(graph.induced(whole), ["v1", "v2"], "v1")
    with pytest.raises(ck.CheckError, match="shares"):
        ck.check_carve([a, b], ["v0", "v1", "v2"], 1, "shared")
    with pytest.raises(ck.CheckError, match="unflagged"):
        ck.check_carve([a], ["v0"], 1, "unflagged")
    with pytest.raises(ck.CheckError, match="flagged nodes"):
        ck.check_carve([a], ["v0", "v1"], 3, "small")
    c = sp.TechniqueSubgraph(graph.induced(whole), ["v0", "v1"], "v0")
    c.seed = "t1"
    with pytest.raises(ck.CheckError, match="seed"):
        ck.check_carve([c], ["v0", "v1", "t1"], 1, "seed")


def test_containment_check_rejects_a_node_only_the_small_budget_keeps():
    graph = _chain_graph()
    flagged = ["v0", "v1", "v2", "v3"]
    small = sp.sample_subgraphs(graph, flagged, lam=2, min_nois=2)
    large = sp.sample_subgraphs(graph, flagged, lam=3, min_nois=2)
    ck.check_contained(small, large, "ok")
    extra = sp.TechniqueSubgraph(graph.induced(["v3", "t1"]), ["v3"], "v3")
    with pytest.raises(ck.CheckError, match="smaller hop budget"):
        ck.check_contained(small + [extra], large, "extra")


def test_path_closure_agrees_with_lambda_dfs_on_random_graphs():
    gen = Rng(7)
    for _ in range(40):
        n = int(gen.integers(6, 30))
        triples = []
        for _ in range(int(gen.integers(n, 3 * n))):
            a, b = (int(x) for x in gen.integers(0, n, size=2))
            if a != b:
                triples.append((f"p{a}", "launch", f"p{b}", P))
        if not triples:
            continue
        graph = _graph(triples)
        ids = sorted(graph.nodes)
        k = int(gen.integers(2, max(3, len(ids) // 3 + 1)))
        nois = [ids[i] for i in gen.choice(len(ids), size=min(k, len(ids)),
                                           replace=False)]
        for lam in (1, 2, 3, 4):
            assert ck.path_closure(graph, nois[0], nois, lam) == \
                sp.lambda_dfs(graph, nois[0], nois, lam)


# -- recognition --------------------------------------------------------------

TACTICS = {"T1": "Alpha", "T2": "Beta", "T3": "Gamma"}


def _result(rows, decision=None):
    rows = sorted(rows, key=lambda r: (r[2], r[0]))
    decision = decision or rows[0][0]
    return RecognitionResult(rows, decision, TACTICS.get(decision))


def test_result_check_rejects_a_swapped_technique_label():
    good = [("T1", "Alpha", 0.5), ("T2", "Beta", 1.0), ("T3", "Gamma", 2.0)]
    ck.check_result(_result(good), TACTICS, "ok")
    swapped = [("T2", "Alpha", 0.5), ("T1", "Beta", 1.0), ("T3", "Gamma", 2.0)]
    with pytest.raises(ck.CheckError, match="labelled with tactic"):
        ck.check_result(_result(swapped), TACTICS, "swapped")
    with pytest.raises(ck.CheckError, match="nearest technique"):
        ck.check_result(_result(good, decision="T2"), TACTICS, "decision")
    with pytest.raises(ck.CheckError, match="cover"):
        ck.check_result(_result(good[:2]), TACTICS, "missing")


def test_loss_and_ranking_checks():
    ck.check_loss([2.0, 1.5, 1.0], "ok")
    for bad in ([1.0, 1.0], [1.0, float("nan"), 0.5], [0.5, 0.7]):
        with pytest.raises(ck.CheckError):
            ck.check_loss(bad, "bad")
    a = _result([("T1", "Alpha", 0.5), ("T2", "Beta", 1.0), ("T3", "Gamma", 2.0)])
    b = _result([("T1", "Alpha", 0.5 + 1e-16 * 4), ("T2", "Beta", 1.0),
                 ("T3", "Gamma", 2.0)])
    ck.check_same_ranking(a, a, "same")
    with pytest.raises(ck.CheckError, match="ranks differently"):
        ck.check_same_ranking(a, b, "last bit")


def test_disjoint_check_rejects_a_training_graph_among_the_queries():
    g1, g2 = _chain_graph(), _graph([("a", "read", "f", F)])
    ck.check_disjoint([g1], [g2], "ok")
    with pytest.raises(ck.CheckError, match="also a training graph"):
        ck.check_disjoint([g1], [g2, _chain_graph()], "leak")


def test_matched_carve_prefers_the_largest_overlap():
    graph = _chain_graph()
    a = sp.TechniqueSubgraph(graph.induced(["v0"]), ["v0"], "v0")
    b = sp.TechniqueSubgraph(graph.induced(["v1", "v2"]), ["v1", "v2"], "v1")
    assert ck.matched_carve([a, b], ["v1", "v2", "v3"]) == 1
    assert ck.matched_carve([a, b], ["t1"]) is None


# -- arithmetic ---------------------------------------------------------------


def test_median_and_rate_on_fixed_inputs():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert rate(6, 3.0) == 2.0
    with pytest.raises(ValueError):
        rate(1, 0.0)
    with pytest.raises(ValueError):
        median([])


def test_self_times_subtract_children_and_wrappers_restore(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    tracer = spans.Tracer()

    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

    original = Layer.inner
    plan = [(Layer, "inner", "numerics.inner",
             lambda counts, args, result: counts.update({"items": args[0]}))]
    with tracer.installed(plan):
        with tracer.span("bench.round") as root:  # t=0
            with tracer.span("noi.detect"):  # t=1
                assert Layer.inner(2) == 3  # t=2..3
            # noi.detect closes at t=4
        # bench.round closes at t=5
    assert Layer.inner is original
    assert tracer.counts["numerics.inner"] == 1 and tracer.counts["items"] == 2
    assert tracer.self_times(root) == {"bench": 2.0, "noi": 2.0, "numerics": 1.0}
    assert tracer.total("noi.detect") == 3.0
