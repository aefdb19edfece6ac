"""Audit-event triads and the typed provenance graph they induce.

An event is (subject, operation, object) where the subject is always a
process. Four entity types and 21 operation kinds give the edge vocabulary;
the edge-type ids fixed here define feature-vector positions downstream, so
their order never changes.

A graph is stored as columns, filled by :func:`build_graph` in one pass over
the events: the node ids in insertion order, one type code per node (an
index into ``ENTITY_TYPES``), attrs for the nodes that have any, and one
int64 block of four edge columns (source row, target row, edge-type id,
ts), whose first three rows are :meth:`ProvenanceGraph.edge_arrays`.
``graph.nodes`` (id -> :class:`EntityNode`) and ``graph.edges``
(:class:`Edge` in event order) are read-only views, built from the columns
each time they are read; the pipeline reads the columns.

JSONL ingest parses and checks each line once. A line is refused, with its
line number and a reason, when it is not one JSON object, lacks a field,
names an unknown entity type, a non-process subject or (strict mode) an
operation outside the 21, has attrs that are not a map, has a ``ts`` that
is a bool, a non-integral number, not an integer at all or outside the
signed 64-bit range, or has a subject or object id that is neither a
string nor an integer.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

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
        try:
            return _ENTITY_TYPE_OF[value]
        except (KeyError, TypeError):  # another spelling, or unhashable
            pass
        try:
            return cls(str(value).lower())
        except ValueError:
            raise GraphError(f"unknown entity type {value!r}") from None


# A node's type code is its type's position here.
ENTITY_TYPES: tuple[EntityType, ...] = tuple(EntityType)
_TYPE_CODE = {t: code for code, t in enumerate(ENTITY_TYPES)}
# members hash and compare as their values, so this maps both to the member
_ENTITY_TYPE_OF = {t.value: t for t in ENTITY_TYPES}


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


class Event(NamedTuple):
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


class Edge(NamedTuple):
    src: str
    dst: str
    edge_type_id: int
    ts: int


def _edge_columns(src, dst, type_id, ts) -> np.ndarray:
    """The (4, E) int64 block of edge columns: source row, target row,
    edge-type id and ts."""
    try:
        return np.array((src, dst, type_id, ts), dtype=np.int64).reshape(4, -1)
    except OverflowError:
        raise GraphError("an edge ts is outside the signed 64-bit range") from None


class ProvenanceGraph:
    """Directed multigraph of system entities, immutable after build.

    Node insertion order is preserved and fixes the row order of every
    feature matrix computed from the graph. Storage is the columns the
    module docstring lists; ``nodes`` and ``edges`` are views over them.
    """

    FORMAT_VERSION = 1

    def __init__(
        self,
        ids: list[str],
        types: bytes,
        edges: np.ndarray,
        attrs: Mapping[int, dict] | None = None,
        index: dict[str, int] | None = None,
    ):
        """Wrap columns as given, unchecked: distinct ``ids`` in row order,
        one type code per row, the (4, E) int64 ``edges`` block (see
        :func:`_edge_columns`), non-empty ``attrs`` by row, and ``index``
        (id -> row), built here when not passed. The graph owns them."""
        self._ids = ids
        self._types = types
        self._edges = edges
        edges.flags.writeable = False
        self._arrays = tuple(edges[:3])
        self._attrs = dict(attrs) if attrs else {}
        self._index = {nid: i for i, nid in enumerate(ids)} if index is None else index

    @property
    def nodes(self) -> Mapping[str, EntityNode]:
        """Read-only id -> :class:`EntityNode` map, built on each read."""
        return MappingProxyType({
            nid: EntityNode(nid, ENTITY_TYPES[code], dict(self._attrs.get(row, ())))
            for row, (nid, code) in enumerate(zip(self._ids, self._types))
        })

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every :class:`Edge` in edge order, built on each read."""
        ids = self._ids
        return tuple(Edge(ids[src], ids[dst], type_id, ts)
                     for src, dst, type_id, ts in zip(*self._edges.tolist()))

    @property
    def n_nodes(self) -> int:
        return len(self._ids)

    @property
    def n_edges(self) -> int:
        return self._edges.shape[1]

    def node_ids(self) -> list[str]:
        return list(self._ids)

    def node_index(self) -> dict[str, int]:
        return self._index

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    def entity_type(self, node_id: str) -> EntityType:
        row = self._index.get(node_id)
        if row is None:
            raise GraphError(f"unknown node {node_id!r}")
        return ENTITY_TYPES[self._types[row]]

    def type_codes(self) -> np.ndarray:
        """Each node's type code (its position in ``ENTITY_TYPES``), read-only."""
        return np.frombuffer(self._types, dtype=np.uint8)

    def process_rows(self) -> np.ndarray:
        """Rows of the process nodes, in node order."""
        return np.flatnonzero(self.type_codes() == _TYPE_CODE[EntityType.PROCESS])

    def process_ids(self) -> list[str]:
        """Ids of the process nodes, in node order."""
        return [self._ids[row] for row in self.process_rows().tolist()]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source row, target row, edge-type id) of every edge, in edge order.

        Rows index the node order; read-only views of the edge columns.
        """
        return self._arrays

    def degree(self, node_id: str) -> tuple[int, int]:
        """(in_degree, out_degree) counting multi-edges."""
        i = self._index.get(node_id)
        if i is None:
            raise GraphError(f"unknown node {node_id!r}")
        src, dst, _ = self._arrays
        return int(np.count_nonzero(dst == i)), int(np.count_nonzero(src == i))

    def take(self, rows: Sequence[int]) -> "ProvenanceGraph":
        """Subgraph on the distinct node ``rows``, in that order; the edges
        between them keep edge order."""
        rows = np.asarray(rows, dtype=np.intp)
        new_row = np.full(self.n_nodes, -1, dtype=np.int64)
        new_row[rows] = np.arange(len(rows))
        src, dst = new_row[self._edges[0]], new_row[self._edges[1]]
        kept = (src >= 0) & (dst >= 0)
        edges = self._edges[:, kept]
        edges[0], edges[1] = src[kept], dst[kept]
        rows = rows.tolist()
        attrs = {new: self._attrs[old] for new, old in enumerate(rows)
                 if old in self._attrs} if self._attrs else None
        return ProvenanceGraph([self._ids[r] for r in rows],
                               bytes(self.type_codes()[rows]), edges, attrs)

    def induced(self, node_subset: Iterable[str]) -> "ProvenanceGraph":
        """Subgraph on the given nodes, preserving node and edge order."""
        keep = set(node_subset)
        unknown = keep - self._index.keys()
        if unknown:
            raise GraphError(f"unknown nodes in induced set: {sorted(unknown)[:5]}")
        return self.take(sorted(self._index[nid] for nid in keep))

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        ids, attrs = self._ids, self._attrs
        return {
            "format_version": self.FORMAT_VERSION,
            "nodes": [
                {"id": nid, "type": ENTITY_TYPES[code].value,
                 "attrs": dict(attrs.get(row, ()))}
                for row, (nid, code) in enumerate(zip(ids, self._types))
            ],
            "edges": [
                {"src": ids[src], "dst": ids[dst], "type_id": type_id, "ts": ts}
                for src, dst, type_id, ts in zip(*self._edges.tolist())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ProvenanceGraph":
        ids: list[str] = []
        types = bytearray()
        attrs: dict[int, dict] = {}
        index: dict[str, int] = {}
        columns: tuple[list[int], ...] = ([], [], [], [])
        try:
            version = payload.get("format_version")
            if version != cls.FORMAT_VERSION:
                raise GraphError(f"unsupported graph format_version {version!r}")
            for n in payload["nodes"]:
                if n["id"] in index:
                    raise GraphError(f"duplicate node id {n['id']!r}")
                row = index[n["id"]] = len(ids)
                ids.append(n["id"])
                types.append(_TYPE_CODE[EntityType.parse(n["type"])])
                if n.get("attrs"):
                    attrs[row] = dict(n["attrs"])
            for e in payload["edges"]:
                eid = int(e["type_id"])
                if eid not in EDGE_TYPE_NAMES:
                    raise GraphError(f"unknown edge type id {eid}")
                src, dst = index.get(e["src"]), index.get(e["dst"])
                if src is None or dst is None:
                    raise GraphError(f"edge endpoint missing from node set: {e!r}")
                # build_graph's rule
                if edge_type_of(ENTITY_TYPES[types[src]], EDGE_TYPE_NAMES[eid][1],
                                ENTITY_TYPES[types[dst]]) != eid:
                    raise GraphError(f"edge type id {eid} does not fit edge {e!r}")
                for column, value in zip(columns, (src, dst, eid, int(e["ts"]))):
                    column.append(value)
        except (KeyError, TypeError, AttributeError) as exc:
            raise GraphError(f"malformed graph: {exc!r}") from None
        return cls(ids, bytes(types), _edge_columns(*columns), attrs, index)

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
    type is a collision and raises, as does a ``ts`` that is not an int.
    Events whose types are ``EntityType`` members (as :func:`parse_event`
    makes them) cost one edge-type lookup; raw type values are checked by
    :func:`edge_type_of`.
    """
    index: dict[str, int] = {}
    ids: list[str] = []
    types = bytearray()
    attrs: dict[int, dict] = {}
    src: list[int] = []
    dst: list[int] = []
    type_ids: list[int] = []
    stamps: list[int] = []

    def row_of(eid: str, code: int, node_attrs: Mapping[str, str] | None) -> int:
        row = index.get(eid)
        if row is None:
            row = index[eid] = len(ids)
            ids.append(eid)
            types.append(code)
        elif types[row] != code:
            raise GraphError(
                f"entity id {eid!r} seen as both "
                f"{ENTITY_TYPES[types[row]].value} and {ENTITY_TYPES[code].value}"
            )
        if node_attrs:
            kept = attrs.get(row)
            if kept is None:
                attrs[row] = dict(node_attrs)
            else:
                for k, v in node_attrs.items():
                    kept.setdefault(k, v)
        return row

    process = EntityType.PROCESS
    for subject_id, subject_type, operation, object_id, object_type, ts, ev_attrs in events:
        if subject_type is process and object_type.__class__ is EntityType:
            type_id = EDGE_TYPE_IDS.get((object_type, operation))
            if type_id is None:
                edge_type_of(subject_type, operation, object_type)  # raises
        else:
            type_id = edge_type_of(subject_type, operation, object_type)
            subject_type = EntityType.parse(subject_type)
            object_type = EntityType.parse(object_type)
        subj_attrs = None
        obj_attrs = None
        if ev_attrs:
            subj_attrs = {
                k[len("subject_"):]: v
                for k, v in ev_attrs.items()
                if k.startswith("subject_")
            }
            obj_attrs = {
                k: v for k, v in ev_attrs.items() if not k.startswith("subject_")
            }
        src.append(row_of(subject_id, _TYPE_CODE[subject_type], subj_attrs))
        dst.append(row_of(object_id, _TYPE_CODE[object_type], obj_attrs))
        type_ids.append(type_id)
        stamps.append(ts)
    for ts in stamps:  # the int64 column would truncate a float silently
        if ts.__class__ is not int:
            raise GraphError(f"event ts {ts!r} is not an integer")
    return ProvenanceGraph(
        ids, bytes(types), _edge_columns(src, dst, type_ids, stamps), attrs, index
    )


def graph_to_events(graph: ProvenanceGraph) -> list[Event]:
    """Reconstruct the event triads of a graph's edges (subjects are processes)."""
    ids = graph._ids
    events = []
    for src, dst, type_id, ts in zip(*graph._edges.tolist()):
        obj_type, operation = EDGE_TYPE_NAMES[type_id]
        events.append(
            Event(ids[src], EntityType.PROCESS, operation, ids[dst], obj_type, ts)
        )
    return events


def disjoint_union(graphs: Sequence[ProvenanceGraph]) -> ProvenanceGraph:
    """Combine graphs into one, prefixing node ids with their graph index."""
    ids: list[str] = []
    attrs: dict[int, dict] = {}
    blocks = [np.zeros((4, 0), dtype=np.int64)]
    for gi, g in enumerate(graphs):
        offset = len(ids)
        ids += [f"g{gi}/{nid}" for nid in g._ids]
        attrs.update((offset + row, a) for row, a in g._attrs.items())
        block = g._edges.copy()
        block[:2] += offset
        blocks.append(block)
    types = b"".join(g._types for g in graphs)
    return ProvenanceGraph(ids, types, np.concatenate(blocks, axis=1), attrs)


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
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _event_ts(value) -> int:
    """An integer, an integral float or an integer string, within int64."""
    if value.__class__ is not int:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise GraphError(f"event ts {value!r} is not an integer")
        try:
            value = int(value)
        except (TypeError, ValueError, OverflowError):
            raise GraphError(f"event ts {value!r} is not an integer") from None
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise GraphError(f"event ts {value!r} is outside the signed 64-bit range")
    return value


def _entity_id(key: str, value) -> str:
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return str(value)
    raise GraphError(f"event {key} {value!r} is neither a string nor an integer")


_event_fields = operator.itemgetter(*_REQUIRED_EVENT_KEYS)


def parse_event(record: Mapping, strict: bool = True) -> Event:
    """Parse one JSON record; ``strict`` also validates the 21-op vocabulary.

    Graph building needs strict events; the rule baseline accepts stream
    operations (execute, image_load, registry create) outside that list.
    Nothing is coerced silently: a bool or fractional ``ts`` and an id that
    is neither a string nor an integer are refused.
    """
    # dict first: its exact-type check is cheaper than the Mapping ABC's
    if not isinstance(record, (dict, Mapping)):
        raise GraphError(f"event must be a JSON object, got {type(record).__name__}")
    try:
        subject_id, subject_type, operation, object_id, object_type, ts = (
            _event_fields(record)
        )
    except KeyError:
        missing = [k for k in _REQUIRED_EVENT_KEYS if k not in record]
        raise GraphError(f"event missing fields {missing}") from None
    st = EntityType.parse(subject_type)
    ot = EntityType.parse(object_type)
    op = str(operation).lower()
    if strict:
        if st is not EntityType.PROCESS or (ot, op) not in EDGE_TYPE_IDS:
            edge_type_of(st, op, ot)  # raises, naming the triple
    elif st != EntityType.PROCESS:
        raise GraphError("event subjects must be processes")
    attrs = record.get("attrs")
    if attrs is not None and not isinstance(attrs, (dict, Mapping)):
        raise GraphError("attrs must be a string map")
    ts = _event_ts(ts)
    return Event(
        _entity_id("subject_id", subject_id), st, op,
        _entity_id("object_id", object_id), ot, ts, dict(attrs) if attrs else None,
    )


def read_events_jsonl(path, strict: bool = True) -> tuple[list[Event], IngestStats]:
    """Read one event per line; bad lines are counted and reported, not lost.

    A line is decoded once; one that is not exactly one JSON value is
    decoded again by ``json.loads`` so that its reason is the usual one.
    """
    events: list[Event] = []
    stats = IngestStats()
    decode = json.JSONDecoder().raw_decode
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            stats.lines += 1
            try:
                try:
                    record, end = decode(line)
                    if end != len(line):
                        raise ValueError
                except ValueError:
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
