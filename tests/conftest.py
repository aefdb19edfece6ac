"""Shared builders for small provenance graphs and checkpoints used across
the suite."""

import hashlib
import json

import numpy as np
import pytest

from provrec import features as ft
from provrec.embedding import SubgraphBatch, metapath_pairs
from provrec.graph import EntityType, Event, build_graph
from provrec.numerics import Matrix, RowIndex, Rng


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


def node_batch(subgraphs, config):
    """The reference a class batch must reproduce: a ``SubgraphBatch`` with
    one row per node, built from :func:`metapath_pairs` alone. Every node is
    its own class, so every pair weight and size is 1."""
    sizes = [t.n_nodes for t in subgraphs]
    offsets = np.cumsum([0] + sizes[:-1])
    n = sum(sizes)
    batch = SubgraphBatch.__new__(SubgraphBatch)
    batch.features = Matrix(ft.scale_features(
        np.vstack([t.features() for t in subgraphs]), config.log1p_features))
    batch.graph_of = RowIndex(np.repeat(np.arange(len(sizes)), sizes), len(sizes))
    batch.node_pairs = {}
    for mp in config.metapaths:
        pairs = [metapath_pairs(t, mp) for t in subgraphs]
        batch.node_pairs[mp] = tuple(
            np.concatenate([p[side] + o for p, o in zip(pairs, offsets)])
            for side in (0, 1))
    batch.pairs = {mp: (RowIndex(src, n), RowIndex(dst, n))
                   for mp, (src, dst) in batch.node_pairs.items()}
    batch.pair_weights = {mp: np.ones(len(src))
                          for mp, (src, _) in batch.node_pairs.items()}
    batch.sizes = np.ones(n)
    batch.node_class = batch.node_row = np.arange(n)
    batch.node_of = RowIndex(np.tile(np.arange(n), len(batch.pairs)), n)
    return batch


def rewritten_checkpoint(path, out, edit):
    """Copy the checkpoint at ``path`` to ``out`` after ``edit`` changed its
    payload in place, with the content hash recomputed to pass the check."""
    envelope = json.loads(path.read_text())
    edit(envelope["payload"])
    blob = json.dumps(envelope["payload"], sort_keys=True).encode("utf-8")
    envelope["content_hash"] = hashlib.sha256(blob).hexdigest()
    out.write_text(json.dumps(envelope))
    return out


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def figure_snippet():
    """Small campaign snapshot: browser downloads a document whose reader
    spawns a shell that writes a script and phones home."""
    return make_graph(
        [
            ("chrome", "connect", "203.0.113.9:443", EntityType.SOCKET),
            ("chrome", "write", "x.pdf", EntityType.FILE),
            ("acrobat", "read", "x.pdf", EntityType.FILE),
            ("acrobat", "launch", "powershell", EntityType.PROCESS),
            ("powershell", "launch", "unknown", EntityType.PROCESS),
            ("powershell", "write", "payload.ps1", EntityType.FILE),
            ("powershell", "connect", "198.51.100.7:80", EntityType.SOCKET),
        ]
    )
