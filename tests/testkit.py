"""Shared builders for small provenance graphs and checkpoints used across
the suite, the central-difference gradient check, and reference readers the
ingest tests compare against.

Test modules import these by name (``from testkit import ...``); the
fixtures stay in ``conftest.py``."""

import hashlib
import json
from collections.abc import Mapping
from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse

from provrec import features as ft
from provrec.embedding import _MP_OBJECT, SubgraphBatch, metapath_pairs
from provrec.matching import pair_loss
from provrec.graph import (
    EDGE_GROUPS,
    EntityType,
    Event,
    GraphError,
    build_graph,
    edge_type_of,
)
from provrec.numerics import (
    GradientTape,
    Matrix,
    NumericsError,
    RowIndex,
    RowWeights,
    backward,
    decode_array,
    encode_array,
)


def ev(subject, operation, obj, obj_type, ts=0):
    return Event(subject, EntityType.PROCESS, operation, obj, obj_type, ts)


def make_graph(triples):
    """Build a graph from (subject, operation, object, object_type) tuples."""
    events = [
        ev(s, op, o, t, ts=i) for i, (s, op, o, t) in enumerate(triples)
    ]
    return build_graph(events)


def launch_chain(ids):
    """p0 -> p1 -> ... as launch edges."""
    return make_graph(
        [
            (ids[i], "launch", ids[i + 1], EntityType.PROCESS)
            for i in range(len(ids) - 1)
        ]
    )


def random_process_graph(rng, n_nodes, n_edges):
    """Random launch-only graph (self loops avoided); returns the graph."""
    events = []
    for t in range(n_edges):
        a = int(rng.integers(n_nodes))
        b = int(rng.integers(n_nodes))
        if a == b:
            b = (a + 1) % n_nodes
        events.append(ev(f"p{a}", "launch", f"p{b}", EntityType.PROCESS, ts=t))
    return build_graph(events)


def grad_check(
    loss_fn: Callable[[], Matrix],
    params: Iterable[Matrix] | GradientTape,
    eps: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the forward graph from the current parameter
    values on every call and return a 1x1 matrix. The reported error is
    ``|analytic - numeric| / max(1, |analytic|)`` maximised over every entry
    of every parameter.
    """
    plist: Sequence[Matrix] = list(params)
    loss = loss_fn()
    if not isinstance(loss, Matrix) or loss.shape != (1, 1):
        raise NumericsError("loss_fn must return a scalar Matrix")
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.value) for p in plist
    ]
    worst = 0.0
    for p, ana in zip(plist, analytic):
        flat = p.value.reshape(-1)
        flat_ana = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn().item()
            flat[i] = orig - eps
            down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(flat_ana[i] - numeric) / max(1.0, abs(flat_ana[i]))
            worst = max(worst, err)
    return worst


def pair_loss_at(d, same, m):
    """The contrastive loss training runs (:func:`pair_loss`) on one branch
    row ``[[d]]`` against ``[[0]]``, so at distance ``d``."""
    return pair_loss(Matrix([[d]]), Matrix([[0.0]]), same, m).item()


def metapath_neighbours(tsg, node_id, mp):
    """Ids of the nodes :func:`metapath_pairs` lists as sources of the pairs
    that target ``node_id`` under ``mp``: its meta-path neighbours, itself
    included."""
    src, dst = metapath_pairs(tsg, mp)
    ids = tsg.node_ids
    target = ids.index(node_id)
    return {ids[s] for s in src[dst == target]}


def node_batch(subgraphs, config):
    """The reference a batch must reproduce: a ``SubgraphBatch`` with one row
    per node, built from :func:`metapath_pairs` alone. Every node is its own
    feature row, shared class and class, so every pair weight and size is 1."""
    sizes = [t.n_nodes for t in subgraphs]
    offsets = np.cumsum([0] + sizes[:-1])
    n = sum(sizes)
    batch = SubgraphBatch.__new__(SubgraphBatch)
    batch.features = Matrix(ft.scale_features(
        np.vstack([t.features() for t in subgraphs])))
    batch.graph_of = RowIndex(np.repeat(np.arange(len(sizes)), sizes), len(sizes))
    edges = [t.graph.edge_arrays() for t in subgraphs]
    batch.edges = (np.concatenate([s + o for (s, _, _), o in zip(edges, offsets)]),
                   np.concatenate([d + o for (_, d, _), o in zip(edges, offsets)]),
                   np.concatenate([t for _, _, t in edges]))
    batch.pairs, batch.pair_weights = {}, {}
    for mp in config.metapaths:
        pairs = [metapath_pairs(t, mp) for t in subgraphs]
        src, dst = (RowIndex(np.concatenate([p[side] + o for p, o in zip(pairs, offsets)]), n)
                    for side in (0, 1))
        batch.pairs[mp] = (src, dst, dst)
        batch.pair_weights[mp] = RowWeights(np.ones(len(src)))
    batch.sizes = RowWeights(np.ones(n))
    batch.node_class = batch.node_row = batch.node_shared = np.arange(n)
    batch.shared_of = RowIndex(np.arange(n), n)
    batch.node_of = RowIndex(np.tile(np.arange(n), len(batch.pairs)), n)
    return batch


def listed_pairs(tsg, mp):
    """:func:`metapath_pairs` as it was first written: every two subjects of
    one shared object (MP2-MP4) or each launch (MP1) listed as a pair, then
    sorted and made unique."""
    n = tsg.n_nodes
    src, dst, etype = tsg.graph.edge_arrays()
    on_path = np.isin(etype, list(EDGE_GROUPS[_MP_OBJECT[mp]]))
    rows, cols = src[on_path], dst[on_path]
    if mp != "MP1":
        order = np.argsort(cols)
        subject, obj = rows[order], cols[order]
        first = np.searchsorted(obj, obj)
        size = np.searchsorted(obj, obj, side="right") - first
        rows = np.repeat(subject, size)
        step = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        cols = subject[np.repeat(first, size) + step]
    keys = np.unique(np.concatenate([rows * n + cols, np.arange(n) * (n + 1)]))
    return keys % n, keys // n


def listing_class_batch(subgraphs, config):
    """The batch built from per-node pair lists (:func:`listed_pairs`), as a
    plain namespace of arrays: ``features`` (the distinct feature rows),
    ``node_shared`` and ``node_class``, per meta-path ``pairs`` (source
    feature row, target feature row, target shared class) and
    ``pair_weights``, and per class ``shared_of``, ``graph_of`` and
    ``sizes``."""
    sizes = [tsg.n_nodes for tsg in subgraphs]
    offsets = np.cumsum([0] + sizes[:-1])
    n, n_graphs = sum(sizes), len(sizes)
    graph_of = np.repeat(np.arange(n_graphs), sizes)
    x = ft.scale_features(np.vstack([tsg.features() for tsg in subgraphs]))
    node_pairs = {}
    for mp in config.metapaths:
        src, dst = zip(*(listed_pairs(tsg, mp) for tsg in subgraphs))
        node_pairs[mp] = (np.concatenate([s + o for s, o in zip(src, offsets)]),
                          np.concatenate([d + o for d, o in zip(dst, offsets)]))
    rows = x.view(np.dtype((np.void, 8 * x.shape[1])))
    _, first_row, node_row = np.unique(rows.ravel(), return_index=True,
                                       return_inverse=True)
    k_row = len(first_row)
    width = (1 + len(node_pairs)) * k_row
    cells = [np.arange(n) * width + node_row]
    for j, (src, dst) in enumerate(node_pairs.values(), start=1):
        cells.append(dst * width + j * k_row + node_row[src])
    cell, count = np.unique(np.concatenate(cells), return_counts=True)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell // width, minlength=n), out=indptr[1:])
    node_shared, first_shared = ft._row_classes(sparse.csr_matrix(
        (count.astype(np.float64), cell % width, indptr), shape=(n, width)))
    s = len(first_shared)
    is_first = np.zeros(n, dtype=bool)
    is_first[first_shared] = True
    pairs, pair_weights = {}, {}
    for mp, (src, dst) in node_pairs.items():
        kept = is_first[dst]
        pair, count = np.unique(node_shared[dst[kept]] * k_row + node_row[src[kept]],
                                return_counts=True)
        pairs[mp] = (pair % k_row, node_row[first_shared][pair // k_row], pair // k_row)
        pair_weights[mp] = count.astype(np.float64)
    # classes: (subgraph, shared class) keys, numbered by first node
    _, first, inverse = np.unique(graph_of * s + node_shared, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    node_class, first = rank[inverse], np.sort(first)
    return SimpleNamespace(features=x[first_row], node_shared=node_shared,
                           node_class=node_class, pairs=pairs, pair_weights=pair_weights,
                           shared_of=node_shared[first], graph_of=graph_of[first],
                           sizes=np.bincount(node_class).astype(np.float64))


_EVENT_KEYS = ("subject_id", "subject_type", "operation", "object_id",
               "object_type", "ts")


def reference_parse_event(record, strict=True):
    """The event parser as it was first written, one ``json.loads`` per line:
    the fields of the event as a tuple in :class:`Event` order."""
    if not isinstance(record, Mapping):
        raise GraphError(f"event must be a JSON object, got {type(record).__name__}")
    missing = [k for k in _EVENT_KEYS if k not in record]
    if missing:
        raise GraphError(f"event missing fields {missing}")
    st = EntityType.parse(record["subject_type"])
    ot = EntityType.parse(record["object_type"])
    op = str(record["operation"]).lower()
    if strict:
        edge_type_of(st, op, ot)
    elif st != EntityType.PROCESS:
        raise GraphError("event subjects must be processes")
    attrs = record.get("attrs")
    if attrs is not None and not isinstance(attrs, Mapping):
        raise GraphError("attrs must be a string map")
    try:
        ts = int(record["ts"])
    except (TypeError, ValueError, OverflowError):
        raise GraphError(f"event ts {record['ts']!r} is not an integer") from None
    return (str(record["subject_id"]), st, op, str(record["object_id"]), ot, ts,
            dict(attrs) if attrs else None)


def reference_read_events(path, strict=True):
    """(event field tuples, ``IngestStats.to_dict()``) of the first reader."""
    events, rejected, lines = [], [], 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            lines += 1
            try:
                events.append(reference_parse_event(json.loads(line), strict))
            except (json.JSONDecodeError, GraphError, ValueError) as exc:
                rejected.append((line_no, str(exc)))
    stats = {"lines": lines, "loaded": len(events), "rejected_count": len(rejected),
             "rejected": [{"line": ln, "reason": r} for ln, r in rejected]}
    return events, stats


def reference_graph_dict(events):
    """``to_dict()`` of the graph the first, per-object ``build_graph`` made
    from event field tuples."""
    nodes, edges = {}, []

    def touch(eid, etype, attrs):
        node = nodes.get(eid)
        if node is None:
            node = nodes[eid] = {"id": eid, "type": etype.value,
                                 "attrs": dict(attrs) if attrs else {}}
        elif node["type"] != etype.value:
            raise GraphError(f"entity id {eid!r} seen as both "
                             f"{node['type']} and {etype.value}")
        elif attrs:
            for k, v in attrs.items():
                node["attrs"].setdefault(k, v)
        return node["id"]

    for subject_id, subject_type, operation, object_id, object_type, ts, attrs in events:
        type_id = edge_type_of(subject_type, operation, object_type)
        subj_attrs = obj_attrs = None
        if attrs:
            subj_attrs = {k[len("subject_"):]: v for k, v in attrs.items()
                          if k.startswith("subject_")}
            obj_attrs = {k: v for k, v in attrs.items() if not k.startswith("subject_")}
        src = touch(subject_id, EntityType.parse(subject_type), subj_attrs)
        dst = touch(object_id, EntityType.parse(object_type), obj_attrs)
        edges.append({"src": src, "dst": dst, "type_id": type_id, "ts": ts})
    return {"format_version": 1, "nodes": list(nodes.values()), "edges": edges}


def rewritten_checkpoint(path, out, edit):
    """Copy the checkpoint at ``path`` to ``out`` after ``edit`` changed its
    payload in place, with the content hash recomputed to pass the check."""
    envelope = json.loads(path.read_text())
    edit(envelope["payload"])
    blob = json.dumps(envelope["payload"], sort_keys=True).encode("utf-8")
    envelope["content_hash"] = hashlib.sha256(blob).hexdigest()
    out.write_text(json.dumps(envelope))
    return out


def in_both_han_configs(payload, **settings):
    """Bundle payload edit: ``settings`` in the matcher's attention config and
    in its encoder's, so the two still agree."""
    matcher = payload["matcher"]
    for han in (matcher["config"]["han"], matcher["encoder"]["config"]):
        han.update(settings)


def cut_first_exemplar(payload, size):
    """Bundle payload edit: the first exemplar's embedding cut to ``size`` values."""
    entry = payload["exemplars"]["exemplars"][0]
    entry["embedding"] = encode_array(decode_array(entry["embedding"], None)[:size])


def repeat_first_technique(payload):
    """Bundle payload edit: one more exemplar entry, the second entry's subgraph
    and embedding filed under the first entry's technique."""
    entries = payload["exemplars"]["exemplars"]
    entries.append({**entries[1], "technique": entries[0]["technique"]})
