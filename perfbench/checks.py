"""Checks of the program's outputs, computed apart from the program.

Every check raises :class:`CheckError` with a reason when an output is
wrong. They compare against the generator's ground truth, against
independent recomputations (graph signatures from the event stream, a
networkx path closure for the carve), or against properties the method
must have (scores in (0, 1), disjoint flagged sets, monotone carving).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

import networkx as nx


class CheckError(AssertionError):
    """An output of the program failed a benchmark check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- ingest -------------------------------------------------------------------


def graph_signature(graph) -> tuple[frozenset, Counter]:
    """(node id and type pairs, multiset of (src, dst, edge type, ts))."""
    nodes = frozenset((nid, n.entity_type.value) for nid, n in graph.nodes.items())
    edges = Counter((e.src, e.dst, e.edge_type_id, e.ts) for e in graph.edges)
    return nodes, edges


def check_ingest(expected_graph, rebuilt_graph, stats, written: int, where: str) -> None:
    """Every written line loaded, and the rebuilt graph equals the original."""
    require(stats.rejected_count == 0,
            f"{where}: {stats.rejected_count} lines rejected on ingest")
    require(stats.lines == written and stats.loaded == written,
            f"{where}: wrote {written} events, read {stats.lines}, "
            f"loaded {stats.loaded}")
    exp_nodes, exp_edges = graph_signature(expected_graph)
    got_nodes, got_edges = graph_signature(rebuilt_graph)
    require(got_nodes == exp_nodes,
            f"{where}: node sets differ ({len(got_nodes ^ exp_nodes)} mismatched)")
    mismatched = (got_edges - exp_edges) + (exp_edges - got_edges)
    require(not mismatched,
            f"{where}: edge multisets differ ({sum(mismatched.values())} mismatched)")


# -- detection ----------------------------------------------------------------


def process_ids(graph) -> set[str]:
    return {nid for nid, n in graph.nodes.items() if n.entity_type.value == "process"}


def check_detection(graph, report, threshold: float, where: str) -> None:
    """Scores in (0, 1) for exactly the processes; flags = scores above threshold."""
    require(set(report.scores) == process_ids(graph),
            f"{where}: scored nodes are not the graph's processes")
    for nid, score in report.scores.items():
        require(0.0 < score < 1.0 and math.isfinite(score),
                f"{where}: score {score!r} of {nid} is outside (0, 1)")
    above = {nid for nid, score in report.scores.items() if score > threshold}
    require(set(report.flagged) == above and len(report.flagged) == len(above),
            f"{where}: flagged set differs from the scores above {threshold}")


def flag_precision(pairs: Iterable[tuple[Iterable[str], Iterable[str]]]) -> float:
    """Pooled precision of (flagged, true anomalous) pairs; 0 with no flags."""
    hits = flagged = 0
    for flags, truth in pairs:
        flags = set(flags)
        hits += len(flags & set(truth))
        flagged += len(flags)
    return hits / flagged if flagged else 0.0


# -- carving ------------------------------------------------------------------


def check_carve(carved: Sequence, flagged: Iterable[str], min_nois: int, where: str) -> None:
    """Seeds in their flagged sets, flagged sets disjoint subsets of the flags."""
    flags = set(flagged)
    seen: set[str] = set()
    for i, tsg in enumerate(carved):
        nois = set(tsg.nois)
        require(tsg.seed in nois, f"{where}: subgraph {i} seed is not flagged in it")
        require(nois <= flags, f"{where}: subgraph {i} keeps unflagged nodes as nois")
        require(nois <= set(tsg.node_ids), f"{where}: subgraph {i} lacks its nois")
        require(not nois & seen, f"{where}: subgraph {i} shares flagged nodes")
        require(len(nois) >= min_nois,
                f"{where}: subgraph {i} holds {len(nois)} < {min_nois} flagged nodes")
        seen |= nois


def carved_nodes(carved: Sequence) -> set[str]:
    return set().union(*(t.node_ids for t in carved))


def check_contained(inner: Sequence, outer: Sequence, where: str) -> None:
    """A smaller hop budget never carves a node the larger one misses."""
    missing = carved_nodes(inner) - carved_nodes(outer)
    require(not missing,
            f"{where}: {len(missing)} nodes carved at the smaller hop budget only")


def best_connected(flagged: Iterable[str], graph) -> str:
    """The flagged node of highest total degree, ties to the smaller id."""
    degree: Counter = Counter()
    for e in graph.edges:
        degree[e.src] += 1
        degree[e.dst] += 1
    return min(flagged, key=lambda nid: (-degree[nid], nid))


def path_closure(graph, seed: str, flagged: Iterable[str], lam: int) -> set[str]:
    """Nodes on simple paths of at most ``lam`` undirected hops linking flagged
    nodes, grown transitively from ``seed`` (networkx path enumeration)."""
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from((e.src, e.dst) for e in graph.edges if e.src != e.dst)
    flags = set(flagged)
    retained, reached, frontier = {seed}, {seed}, [seed]
    while frontier:
        u = frontier.pop()
        for path in nx.all_simple_paths(g, u, flags - {u}, cutoff=lam):
            retained.update(path)
            if path[-1] not in reached:
                reached.add(path[-1])
                frontier.append(path[-1])
    return retained


def check_first_carve(graph, flagged: Sequence[str], carved: Sequence, lam: int,
                      min_nois: int, where: str) -> bool:
    """The first greedy carve equals the independent path closure.

    Returns True when an equality was checked, False when the closure holds
    too few flagged nodes to be kept (then no subgraph may start there).
    """
    if not flagged:
        require(not carved, f"{where}: subgraphs carved without flagged nodes")
        return False
    seed = best_connected(flagged, graph)
    closure = path_closure(graph, seed, flagged, lam)
    if len(closure & set(flagged)) < min_nois:
        require(all(seed not in t.node_ids for t in carved),
                f"{where}: a carve kept the under-sized closure of {seed}")
        return False
    require(bool(carved), f"{where}: no subgraph carved around {seed}")
    require(carved[0].seed == seed,
            f"{where}: first carve seeds at {carved[0].seed}, expected {seed}")
    got = set(carved[0].node_ids)
    require(got == closure,
            f"{where}: first carve differs from the path closure "
            f"({len(got - closure)} extra, {len(closure - got)} missing)")
    return True


# -- recognition --------------------------------------------------------------


def matched_carve(carved: Sequence, truth_nois: Iterable[str]) -> int | None:
    """Index of the carve sharing most flagged nodes with the truth motif."""
    truth = set(truth_nois)
    best, best_overlap = None, 0
    for i, tsg in enumerate(carved):
        overlap = len(set(tsg.nois) & truth)
        if overlap > best_overlap:
            best, best_overlap = i, overlap
    return best


def check_result(result, tactic_of: Mapping[str, str], where: str) -> None:
    """A ranking over every known technique, ascending, with true tactics."""
    ranking = result.ranking
    require({row[0] for row in ranking} == set(tactic_of) and
            len(ranking) == len(tactic_of),
            f"{where}: ranking does not cover the known techniques once each")
    for tech, tactic, dist in ranking:
        require(tactic == tactic_of[tech],
                f"{where}: technique {tech} labelled with tactic {tactic!r}")
        require(math.isfinite(dist) and dist >= 0.0,
                f"{where}: distance {dist!r} to {tech}")
    dists = [row[2] for row in ranking]
    require(dists == sorted(dists), f"{where}: ranking is not ascending")
    require(result.decision == ranking[0][0] and
            result.decision_tactic == tactic_of.get(result.decision),
            f"{where}: decision {result.decision}/{result.decision_tactic} "
            "is not the nearest technique with its tactic")


def check_loss(curve: Sequence[float], where: str) -> None:
    require(len(curve) >= 2, f"{where}: loss curve has {len(curve)} points")
    require(all(math.isfinite(v) for v in curve), f"{where}: non-finite loss")
    require(curve[-1] < curve[0],
            f"{where}: loss ended at {curve[-1]:.6g}, not below {curve[0]:.6g}")


def check_disjoint(train_graphs: Sequence, query_graphs: Sequence, where: str) -> None:
    """No query graph has the content of a training graph."""
    train = {_frozen_signature(g) for g in train_graphs}
    for i, g in enumerate(query_graphs):
        require(_frozen_signature(g) not in train,
                f"{where}: query graph {i} is also a training graph")


def _frozen_signature(graph):
    nodes, edges = graph_signature(graph)
    return nodes, frozenset(edges.items())


def check_same_ranking(a, b, where: str) -> None:
    """Bit-identical distances from two copies of one bundle."""
    require([(t, d.hex()) for t, _, d in a.ranking] ==
            [(t, d.hex()) for t, _, d in b.ranking],
            f"{where}: loaded bundle ranks differently from the bundle in memory")
