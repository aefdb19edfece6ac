"""Audit-event triads and the typed provenance graph they induce.

An event is (subject, operation, object) where the subject is always a
process. Four entity types and 21 operation kinds give the edge vocabulary;
the edge-type ids fixed here define feature-vector positions downstream, so
their order never changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np


class GraphError(ValueError):
    """Malformed events, id collisions, or unknown nodes."""


class EntityType(str, Enum):
    PROCESS = "process"
    FILE = "file"
    REGISTRY = "registry"
    SOCKET = "socket"

    @classmethod
    def parse(cls, value) -> "EntityType":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise GraphError(f"unknown entity type {value!r}") from None


# Canonical operation list per (process, object-type) pair. Ids 1..21 are
# assigned in this order; feature columns index by them.
OPERATIONS: dict[EntityType, tuple[str, ...]] = {
    EntityType.PROCESS: ("launch",),
    EntityType.FILE: ("create", "read", "write", "close", "delete", "enum"),
    EntityType.REGISTRY: ("open", "query", "enumerate", "modify", "close", "delete"),
    EntityType.SOCKET: (
        "send", "receive", "retransmit", "copy",
        "connect", "disconnect", "accept", "reconnect",
    ),
}

EDGE_TYPE_IDS: dict[tuple[EntityType, str], int] = {}
EDGE_TYPE_NAMES: dict[int, tuple[EntityType, str]] = {}
for _obj in (EntityType.PROCESS, EntityType.FILE, EntityType.REGISTRY, EntityType.SOCKET):
    for _op in OPERATIONS[_obj]:
        _eid = len(EDGE_TYPE_IDS) + 1
        EDGE_TYPE_IDS[(_obj, _op)] = _eid
        EDGE_TYPE_NAMES[_eid] = (_obj, _op)

NUM_EDGE_TYPES = len(EDGE_TYPE_IDS)  # 21

# Edge-type groups by object entity type (used by the meta-path definitions).
EDGE_GROUPS: dict[EntityType, frozenset[int]] = {
    obj: frozenset(eid for (o, _), eid in EDGE_TYPE_IDS.items() if o == obj)
    for obj in EntityType
}


def edge_type_of(subject_type, operation: str, object_type) -> int:
    """Canonical 1..21 id for an operation between two entity types."""
    st = EntityType.parse(subject_type)
    ot = EntityType.parse(object_type)
    if st != EntityType.PROCESS:
        raise GraphError(
            f"illegal event ({st.value}, {operation}, {ot.value}): "
            "subjects must be processes"
        )
    eid = EDGE_TYPE_IDS.get((ot, operation))
    if eid is None:
        raise GraphError(
            f"unknown operation for ({st.value}, {operation}, {ot.value})"
        )
    return eid


@dataclass(frozen=True)
class Event:
    """One audited system call: subject process acts on an object entity."""

    subject_id: str
    subject_type: EntityType
    operation: str
    object_id: str
    object_type: EntityType
    ts: int
    attrs: Mapping[str, str] | None = None


@dataclass
class EntityNode:
    id: str
    entity_type: EntityType
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    edge_type_id: int
    ts: int


class ProvenanceGraph:
    """Directed multigraph of system entities, immutable after build.

    Node insertion order is preserved and fixes the row order of every
    feature matrix computed from the graph.
    """

    FORMAT_VERSION = 1

    def __init__(self, nodes: Mapping[str, EntityNode], edges: Iterable[Edge]):
        self.nodes: dict[str, EntityNode] = dict(nodes)
        self.edges: list[Edge] = list(edges)
        for e in self.edges:
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise GraphError(f"edge endpoint missing from node set: {e}")
        self._index = {nid: i for i, nid in enumerate(self.nodes)}
        self._arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def node_ids(self) -> list[str]:
        return list(self.nodes)

    def node_index(self) -> dict[str, int]:
        return self._index

    def has_node(self, node_id: str) -> bool:
        return node_id in self.nodes

    def entity_type(self, node_id: str) -> EntityType:
        try:
            return self.nodes[node_id].entity_type
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source row, target row, edge-type id) of every edge, in edge order.

        Rows index the node order; built once and cached, read-only.
        """
        if self._arrays is None:
            index = self._index
            rows = [(index[e.src], index[e.dst], e.edge_type_id) for e in self.edges]
            arrays = np.array(rows, dtype=np.intp).reshape(-1, 3).T.copy()
            arrays.flags.writeable = False
            self._arrays = tuple(arrays)
        return self._arrays

    def degree(self, node_id: str) -> tuple[int, int]:
        """(in_degree, out_degree) counting multi-edges."""
        i = self._index.get(node_id)
        if i is None:
            raise GraphError(f"unknown node {node_id!r}")
        src, dst, _ = self.edge_arrays()
        return int(np.count_nonzero(dst == i)), int(np.count_nonzero(src == i))

    def induced(self, node_subset: Iterable[str]) -> "ProvenanceGraph":
        """Subgraph on the given nodes, preserving node and edge order."""
        keep = set(node_subset)
        unknown = keep - self.nodes.keys()
        if unknown:
            raise GraphError(f"unknown nodes in induced set: {sorted(unknown)[:5]}")
        nodes = {nid: n for nid, n in self.nodes.items() if nid in keep}
        edges = [e for e in self.edges if e.src in keep and e.dst in keep]
        return ProvenanceGraph(nodes, edges)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": self.FORMAT_VERSION,
            "nodes": [
                {"id": n.id, "type": n.entity_type.value, "attrs": n.attrs}
                for n in self.nodes.values()
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "type_id": e.edge_type_id, "ts": e.ts}
                for e in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ProvenanceGraph":
        try:
            version = payload.get("format_version")
            if version != cls.FORMAT_VERSION:
                raise GraphError(f"unsupported graph format_version {version!r}")
            nodes = {}
            for n in payload["nodes"]:
                if n["id"] in nodes:
                    raise GraphError(f"duplicate node id {n['id']!r}")
                nodes[n["id"]] = EntityNode(
                    n["id"], EntityType.parse(n["type"]), dict(n.get("attrs") or {})
                )
            edges = []
            for e in payload["edges"]:
                eid = int(e["type_id"])
                if eid not in EDGE_TYPE_NAMES:
                    raise GraphError(f"unknown edge type id {eid}")
                src, dst = nodes.get(e["src"]), nodes.get(e["dst"])
                # build_graph's rule; the constructor refuses a missing endpoint
                if src and dst and edge_type_of(
                    src.entity_type, EDGE_TYPE_NAMES[eid][1], dst.entity_type
                ) != eid:
                    raise GraphError(f"edge type id {eid} does not fit edge {e!r}")
                edges.append(Edge(e["src"], e["dst"], eid, int(e["ts"])))
        except (KeyError, TypeError, AttributeError) as exc:
            raise GraphError(f"malformed graph: {exc!r}") from None
        return cls(nodes, edges)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "ProvenanceGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def build_graph(events: Iterable[Event]) -> ProvenanceGraph:
    """Merge event triads into one graph: one node per unique entity id.

    Every event becomes one edge. An id reappearing with a different entity
    type is a collision and raises.
    """
    nodes: dict[str, EntityNode] = {}
    edges: list[Edge] = []

    def touch(eid: str, etype: EntityType, attrs: Mapping[str, str] | None) -> str:
        node = nodes.get(eid)
        if node is None:
            node = nodes[eid] = EntityNode(eid, etype, dict(attrs) if attrs else {})
        elif node.entity_type != etype:
            raise GraphError(
                f"entity id {eid!r} seen as both "
                f"{node.entity_type.value} and {etype.value}"
            )
        elif attrs:
            for k, v in attrs.items():
                node.attrs.setdefault(k, v)
        return node.id

    for ev in events:
        type_id = edge_type_of(ev.subject_type, ev.operation, ev.object_type)
        subj_attrs = None
        obj_attrs = None
        if ev.attrs:
            subj_attrs = {
                k[len("subject_"):]: v
                for k, v in ev.attrs.items()
                if k.startswith("subject_")
            }
            obj_attrs = {
                k: v for k, v in ev.attrs.items() if not k.startswith("subject_")
            }
        subject = touch(ev.subject_id, EntityType.parse(ev.subject_type), subj_attrs)
        obj = touch(ev.object_id, EntityType.parse(ev.object_type), obj_attrs)
        # edges reuse their nodes' id strings, so a graph keeps one copy of each
        edges.append(Edge(subject, obj, type_id, ev.ts))
    return ProvenanceGraph(nodes, edges)


def graph_to_events(graph: ProvenanceGraph) -> list[Event]:
    """Reconstruct the event triads of a graph's edges (subjects are processes)."""
    events = []
    for e in graph.edges:
        obj_type, operation = EDGE_TYPE_NAMES[e.edge_type_id]
        events.append(
            Event(e.src, EntityType.PROCESS, operation, e.dst, obj_type, e.ts)
        )
    return events


def disjoint_union(graphs: Sequence[ProvenanceGraph]) -> ProvenanceGraph:
    """Combine graphs into one, prefixing node ids with their graph index."""
    nodes: dict[str, EntityNode] = {}
    edges: list[Edge] = []
    for gi, g in enumerate(graphs):
        prefix = f"g{gi}/"
        for n in g.nodes.values():
            nodes[prefix + n.id] = EntityNode(prefix + n.id, n.entity_type, dict(n.attrs))
        for e in g.edges:
            edges.append(Edge(prefix + e.src, prefix + e.dst, e.edge_type_id, e.ts))
    return ProvenanceGraph(nodes, edges)


@dataclass
class IngestStats:
    """What a JSONL ingest accepted and what it refused (never silent)."""

    lines: int = 0
    loaded: int = 0
    rejected: list[tuple[int, str]] = field(default_factory=list)

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)

    def to_dict(self) -> dict:
        return {
            "lines": self.lines,
            "loaded": self.loaded,
            "rejected_count": self.rejected_count,
            "rejected": [{"line": ln, "reason": r} for ln, r in self.rejected],
        }


_REQUIRED_EVENT_KEYS = (
    "subject_id", "subject_type", "operation", "object_id", "object_type", "ts",
)


def parse_event(record: Mapping, strict: bool = True) -> Event:
    """Parse one JSON record; ``strict`` also validates the 21-op vocabulary.

    Graph building needs strict events; the rule baseline accepts stream
    operations (execute, image_load, registry create) outside that list.
    """
    if not isinstance(record, Mapping):
        raise GraphError(f"event must be a JSON object, got {type(record).__name__}")
    missing = [k for k in _REQUIRED_EVENT_KEYS if k not in record]
    if missing:
        raise GraphError(f"event missing fields {missing}")
    st = EntityType.parse(record["subject_type"])
    ot = EntityType.parse(record["object_type"])
    op = str(record["operation"]).lower()
    if strict:
        edge_type_of(st, op, ot)  # validates the triple
    elif st != EntityType.PROCESS:
        raise GraphError("event subjects must be processes")
    attrs = record.get("attrs")
    if attrs is not None and not isinstance(attrs, Mapping):
        raise GraphError("attrs must be a string map")
    try:
        ts = int(record["ts"])
    except (TypeError, ValueError, OverflowError):
        raise GraphError(f"event ts {record['ts']!r} is not an integer") from None
    return Event(
        subject_id=str(record["subject_id"]),
        subject_type=st,
        operation=op,
        object_id=str(record["object_id"]),
        object_type=ot,
        ts=ts,
        attrs=dict(attrs) if attrs else None,
    )


def read_events_jsonl(path, strict: bool = True) -> tuple[list[Event], IngestStats]:
    """Read one event per line; bad lines are counted and reported, not lost."""
    events: list[Event] = []
    stats = IngestStats()
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            stats.lines += 1
            try:
                record = json.loads(line)
                events.append(parse_event(record, strict=strict))
                stats.loaded += 1
            except (json.JSONDecodeError, GraphError, ValueError) as exc:
                stats.rejected.append((line_no, str(exc)))
    return events, stats


def write_events_jsonl(events: Iterable[Event], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            record = {
                "subject_id": ev.subject_id,
                "subject_type": ev.subject_type.value,
                "operation": ev.operation,
                "object_id": ev.object_id,
                "object_type": ev.object_type.value,
                "ts": ev.ts,
            }
            if ev.attrs:
                record["attrs"] = dict(ev.attrs)
            fh.write(json.dumps(record) + "\n")
