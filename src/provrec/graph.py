"""Audit-event triads and the typed provenance graph they induce.

An event is (subject, operation, object) where the subject is always a
process. Four entity types and 21 operation kinds give the edge vocabulary;
the edge-type ids fixed here define feature-vector positions downstream, so
their order never changes.

A graph is stored as columns, filled by :func:`build_graph` from the events'
columns: the node ids in insertion order, one type code per node (an
index into ``ENTITY_TYPES``), attrs for the nodes that have any, and one
int64 block of four edge columns (source row, target row, edge-type id,
ts), whose first three rows are :meth:`ProvenanceGraph.edge_arrays`.
``graph.nodes`` (id -> :class:`EntityNode`) and ``graph.edges``
(:class:`Edge` in event order) are read-only views, built from the columns
each time they are read; the pipeline reads the columns.

JSONL ingest reads a block of lines at a time: the json scanner decodes
each line, the fields are checked a column at a time, and a record in the
form the writer writes becomes an :class:`Event` directly; any other line
goes through ``json.loads`` and :func:`parse_event`, which state the rules.
A line is refused, with its line number and a reason, when it is not valid
UTF-8 (the rest of the log still loads), is not one JSON object, lacks a
field, names an unknown entity type, a non-process subject or (strict mode)
an operation outside the 21, has attrs that are not a map, has a ``ts``
that is a bool, a non-integral number, not an integer at all or outside the
signed 64-bit range, or has a subject or object id that is neither a string
nor an integer. Graph JSON (:meth:`ProvenanceGraph.from_dict`) is
read by the same rules: ids become strings, ``ts`` is checked as above,
and an edge's ``type_id`` must be an integer.
"""

from __future__ import annotations

import json
import operator
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count, islice, repeat
from json.encoder import encode_basestring_ascii
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
_TYPE_VALUE = {t: t.value for t in ENTITY_TYPES}  # ``.value`` without the descriptor


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
# the type code of each edge type's object, by edge-type id (0 is unused)
_OBJECT_CODE = bytes([0] + [_TYPE_CODE[EDGE_TYPE_NAMES[eid][0]]
                            for eid in range(1, NUM_EDGE_TYPES + 1)])

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
                nid = _entity_id("node id", n["id"])
                if nid in index:
                    raise GraphError(f"duplicate node id {nid!r}")
                row = index[nid] = len(ids)
                ids.append(nid)
                types.append(_TYPE_CODE[EntityType.parse(n["type"])])
                node_attrs = n.get("attrs")
                if node_attrs is not None and not isinstance(node_attrs, Mapping):
                    raise GraphError(f"node {nid!r} attrs must be a string map")
                if node_attrs:
                    attrs[row] = dict(node_attrs)
            for e in payload["edges"]:
                eid = e["type_id"]
                if eid.__class__ is not int or eid not in EDGE_TYPE_NAMES:
                    raise GraphError(f"unknown edge type id {eid!r}")
                src = index.get(_entity_id("edge src", e["src"]))
                dst = index.get(_entity_id("edge dst", e["dst"]))
                if src is None or dst is None:
                    raise GraphError(f"edge endpoint missing from node set: {e!r}")
                # build_graph's rule
                if edge_type_of(ENTITY_TYPES[types[src]], EDGE_TYPE_NAMES[eid][1],
                                ENTITY_TYPES[types[dst]]) != eid:
                    raise GraphError(f"edge type id {eid} does not fit edge {e!r}")
                for column, value in zip(columns, (src, dst, eid, _event_ts(e["ts"]))):
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
    Rows and edge-type ids are assigned over columns; each event's attrs go
    to its nodes in event order. When an input has several faults, the one
    a pass over the events in order meets first is raised (the ``ts`` check
    comes after every other).
    """
    subject_ids, subject_types, operations, object_ids, object_types, stamps, ev_attrs = (
        _columns(list(events), len(Event._fields)))
    type_ids, fault = _edge_types(subject_types, operations, object_types)
    n = len(type_ids)  # events before the first whose types do not resolve
    ends = [None] * (2 * n)  # subject and object id of each event, in turn
    ends[0::2], ends[1::2] = subject_ids[:n], object_ids[:n]
    end_codes = bytearray([_TYPE_CODE[EntityType.PROCESS]]) * (2 * n)
    end_codes[1::2] = bytes(map(_OBJECT_CODE.__getitem__, type_ids))
    ids = list(dict.fromkeys(ends))
    index = dict(zip(ids, range(len(ids))))
    rows = np.fromiter(map(index.__getitem__, ends), dtype=np.int64, count=2 * n)
    codes = np.frombuffer(end_codes, dtype=np.uint8)
    # rows count up from 0 in order of first appearance
    types = codes[np.flatnonzero(np.diff(np.maximum.accumulate(rows), prepend=-1))]
    clash = np.flatnonzero(types[rows] != codes)
    stop = int(clash[0]) if clash.size else 2 * n
    attrs = _node_attrs(ev_attrs[:min(stop // 2 + 1, n)], rows)
    if clash.size:
        raise GraphError(
            f"entity id {ends[stop]!r} seen as both "
            f"{ENTITY_TYPES[types[rows[stop]]].value} and {ENTITY_TYPES[codes[stop]].value}"
        )
    if fault is not None:
        raise fault
    if not _all_exactly(stamps, int):  # the int64 column would truncate a float silently
        ts = next(ts for ts in stamps if ts.__class__ is not int)
        raise GraphError(f"event ts {ts!r} is not an integer")
    return ProvenanceGraph(ids, types.tobytes(),
                           _edge_columns(rows[0::2], rows[1::2], type_ids, stamps),
                           attrs, index)


def _edge_types(subject_types, operations,
                object_types) -> tuple[list[int], Exception | None]:
    """(edge-type ids, fault) of events given as columns.

    Events whose types are ``EntityType`` members (as :func:`parse_event`
    makes them) or their values cost one lookup each; when any is not, each
    event is checked by :func:`edge_type_of`. The ids stop at the first
    event refused, and ``fault`` is its error (None when every event
    resolves).
    """
    # a type equal to a member is read as that member, as EntityType.parse reads it
    if subject_types.count(EntityType.PROCESS) == len(subject_types):
        try:
            type_ids = list(map(EDGE_TYPE_IDS.get, zip(object_types, operations)))
        except TypeError:  # an unhashable operation, refused below
            type_ids = [None]
        if None not in type_ids:
            return type_ids, None
    type_ids = []
    for subject_type, operation, object_type in zip(subject_types, operations, object_types):
        try:
            type_ids.append(edge_type_of(subject_type, operation, object_type))
        except (GraphError, TypeError) as exc:
            return type_ids, exc
    return type_ids, None


def merge_attrs(table: dict, subject, obj, attrs: Mapping) -> None:
    """Merge one event's ``attrs`` into ``table`` (entity -> attrs):
    ``subject_``-prefixed keys go to ``subject`` without the prefix, the
    rest to ``obj``, and a key an entity already has keeps its first value."""
    items = attrs.items()
    subject_attrs = {k[len("subject_"):]: v for k, v in items if k.startswith("subject_")}
    object_attrs = {k: v for k, v in items if not k.startswith("subject_")}
    for entity, entity_attrs in ((subject, subject_attrs), (obj, object_attrs)):
        if entity_attrs:
            kept = table.setdefault(entity, {})
            for k, v in entity_attrs.items():
                kept.setdefault(k, v)


def _node_attrs(ev_attrs, rows: np.ndarray) -> dict[int, dict]:
    """Node attrs by row from the events' attrs, merged in event order by
    :func:`merge_attrs`; ``rows`` holds each event's subject and object row
    in turn."""
    attrs: dict[int, dict] = {}
    if any(ev_attrs):
        rows = rows.tolist()
    for e in compress(count(), ev_attrs):
        merge_attrs(attrs, rows[2 * e], rows[2 * e + 1], ev_attrs[e])
    return attrs


def graph_to_events(graph: ProvenanceGraph) -> list[Event]:
    """Reconstruct the event triads of a graph's edges (subjects are processes)."""
    src, dst, type_ids, stamps = graph._edges.tolist()
    object_types, operations = _columns(list(map(EDGE_TYPE_NAMES.__getitem__, type_ids)), 2)
    ids = graph._ids
    return _events(map(ids.__getitem__, src), operations, map(ids.__getitem__, dst),
                   object_types, stamps)


def _all_exactly(column, cls: type) -> bool:
    """Whether every value in ``column`` is of type ``cls`` itself, not a subclass."""
    return all(map(operator.is_, map(type, column), repeat(cls)))


def _columns(rows: list, width: int) -> list[list]:
    """The ``width`` columns of equal-length tuples."""
    return [list(map(operator.itemgetter(k), rows)) for k in range(width)]


def _events(subject_ids, operations, object_ids, object_types, stamps) -> list[Event]:
    """Events of process subjects without attrs, from columns."""
    return list(map(tuple.__new__, repeat(Event), zip(
        subject_ids, repeat(EntityType.PROCESS), operations, object_ids, object_types,
        stamps, repeat(None))))


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
    raise GraphError(f"{key} {value!r} is neither a string nor an integer")


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
        _entity_id("event subject_id", subject_id), st, op,
        _entity_id("event object_id", object_id), ot, ts, dict(attrs) if attrs else None,
    )


# Lines decoded at a time; the decoded records of one block are held at once.
# On a 100x host (44k lines) blocks of 64-512 lines read in ~130 ms and
# blocks of 4,096 in ~220 ms, and a block of 512 adds ~0.5 MB to the peak.
_BLOCK_LINES = 512
_scan_once = json.JSONDecoder().scan_once
_UNREAD = (None, -1)  # a line the scanner could not read, or not UTF-8
# a byte that is not UTF-8, as ``errors="surrogateescape"`` reads it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# (types of the ids, subject type, operation, object type, types of ts and
# attrs) of a record in the form the writer writes -> its object type
_CANONICAL = {
    (str, "process", op, str, obj.value, int, type(None)): obj for obj, op in EDGE_TYPE_IDS
}


def read_events_jsonl(path, strict: bool = True) -> tuple[list[Event], IngestStats]:
    """Read one event per line; bad lines are counted and reported, not lost.

    Lines are split as text mode splits them (``\\n``, ``\\r\\n``, ``\\r``) and
    stripped, and a line that is not valid UTF-8 is refused on its own. A
    block of lines at a time is decoded by the json scanner and checked a
    field at a time; records in the writer's form become events directly,
    and every other line is read by ``json.loads`` and :func:`parse_event`,
    so its reason is the usual one.
    """
    events: list[Event] = []
    stats = IngestStats()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        first = 1
        while block := list(islice(fh, _BLOCK_LINES)):
            _read_block(block, first, strict, events, stats)
            first += len(block)
    return events, stats


def _read_block(block: list[str], first: int, strict: bool, events: list[Event],
                stats: IngestStats) -> None:
    """Read the lines numbered from ``first`` into ``events`` and ``stats``."""
    stripped = list(map(str.strip, block))
    lines = list(filter(None, stripped))
    if not lines:
        return
    stats.lines += len(lines)
    scanned = _scan(lines)
    if not all(map(str.isascii, lines)):
        for i, line in enumerate(lines):
            if _ESCAPED_BYTE.search(line):
                scanned[i] = _UNREAD
    records, ends = _columns(scanned, 2)
    rows = range(len(lines))
    # the lines that are one JSON object each
    if ends != list(map(len, lines)) or not _all_exactly(records, dict):
        rows = list(compress(rows, map(operator.and_,
                                       map(operator.eq, ends, map(len, lines)),
                                       map(operator.is_, map(type, records), repeat(dict)))))
        records = list(map(records.__getitem__, rows))
    columns = [list(map(dict.get, records, repeat(k)))
               for k in _REQUIRED_EVENT_KEYS + ("attrs",)]
    subject_ids, _, operations, object_ids, _, stamps, _ = columns
    objs = _canonical_object_types(*columns)
    fast = _events(compress(subject_ids, objs), compress(operations, objs),
                   compress(object_ids, objs), compress(objs, objs), compress(stamps, objs))
    stats.loaded += len(fast)
    if len(fast) == len(lines):
        events += fast
        return
    # the other lines, each read by the rules, in line order between the fast ones
    slow = sorted(set(range(len(lines))).difference(compress(rows, objs)))
    numbers = list(compress(count(first), stripped))
    done = 0
    for j, i in enumerate(slow):
        events += fast[done:i - j]
        done = i - j
        try:
            events.append(_parse_line(lines[i], scanned[i], strict))
            stats.loaded += 1
        except (json.JSONDecodeError, GraphError, ValueError, RecursionError) as exc:
            stats.rejected.append((numbers[i], str(exc)))
    events += fast[done:]


def _scan(lines: list[str]) -> list[tuple]:
    """(value, end) of each line by the json scanner, or ``_UNREAD``.

    The scanner raises StopIteration where no value starts, which ends a
    ``map`` as if the lines ran out; a map goes on with the next line when
    asked again, so after each stop or error the line is marked and the map
    resumed, and no line is lost.
    """
    scanned: list[tuple] = []
    it = map(_scan_once, lines, repeat(0))
    while True:
        try:
            scanned.extend(it)
        except (ValueError, RecursionError):  # malformed, or nested too deep
            pass  # its reason comes from json.loads
        if len(scanned) == len(lines):
            return scanned
        scanned.append(_UNREAD)


def _canonical_object_types(subject_ids, subject_types, operations, object_ids,
                            object_types, stamps, attrs) -> list:
    """Of each record, given as field columns (None where absent), its
    object type if it is in the writer's form, else None."""
    def keys():
        return zip(map(type, subject_ids), subject_types, operations, map(type, object_ids),
                   object_types, map(type, stamps), map(type, attrs))
    try:
        objs = list(map(_CANONICAL.get, keys()))
    except TypeError:  # a field holds a list or a map: one record at a time
        objs = []
        for key in keys():
            try:
                objs.append(_CANONICAL.get(key))
            except TypeError:
                objs.append(None)
    kept = list(compress(stamps, objs))
    if kept and not _INT64_MIN <= min(kept) <= max(kept) <= _INT64_MAX:
        objs = [obj if obj and _INT64_MIN <= ts <= _INT64_MAX else None
                for obj, ts in zip(objs, stamps)]
    return objs


def _parse_line(line: str, scanned: tuple, strict: bool) -> Event:
    """The event of a line not in the writer's form, or the error that
    refuses it, as a line-by-line ``json.loads`` reader would raise it."""
    if _ESCAPED_BYTE.search(line):
        line.encode("utf-8", "surrogateescape").decode("utf-8")  # raises, naming the byte
    value, end = scanned
    if end != len(line):
        value = json.loads(line)
    return parse_event(value, strict=strict)


_LINE = ('{"subject_id": %s, "subject_type": "%s", "operation": %s, '
         '"object_id": %s, "object_type": "%s", "ts": %d}\n')


def write_events_jsonl(events: Iterable[Event], path) -> None:
    """One ``json.dumps`` line per event: its fields, and ``attrs`` if any.

    When every id and operation is a ``str``, every type an ``EntityType``,
    every ``ts`` an ``int`` and no event has attrs, the lines are formatted
    from one template, with strings escaped as ``json.dumps`` escapes them.
    """
    events = list(events)
    columns = _columns(events, len(Event._fields))
    with open(path, "w", encoding="utf-8") as fh:
        if _plain(*columns):
            subject_ids, subject_types, operations, object_ids, object_types, stamps, _ = (
                columns)
            quote, value = encode_basestring_ascii, _TYPE_VALUE.__getitem__
            fh.writelines(map(_LINE.__mod__, zip(
                map(quote, subject_ids), map(value, subject_types), map(quote, operations),
                map(quote, object_ids), map(value, object_types), stamps)))
            return
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


def _plain(subject_ids, subject_types, operations, object_ids, object_types, stamps,
           attrs) -> bool:
    """Whether event columns fit the writer's template."""
    return (_all_exactly(subject_ids, str) and _all_exactly(operations, str)
            and _all_exactly(object_ids, str) and _all_exactly(subject_types, EntityType)
            and _all_exactly(object_types, EntityType) and _all_exactly(stamps, int)
            and not any(attrs))
