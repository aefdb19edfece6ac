"""JSONL ingest: the block reader, column graph and template writer against
the first per-line reader (``testkit.reference_*``), the coercions it
refuses, and its memory and scale gates."""

import gc
import json
import time
import tracemalloc

import numpy as np
import pytest

from provrec import graph as graph_module
from provrec.graph import (
    EntityType,
    Event,
    GraphError,
    build_graph,
    graph_to_events,
    parse_event,
    read_events_jsonl,
    write_events_jsonl,
)
from provrec.numerics import Rng
from provrec.synthetic import DEFAULT_TEMPLATES, generate_sample

from testkit import reference_graph_dict, reference_read_events

EVENT = {"subject_id": "p", "subject_type": "process", "operation": "read",
         "object_id": "f", "object_type": "file", "ts": 1}


def line(**fields):
    return json.dumps({**EVENT, **fields})


def hub_host(seed, background=200, hubs=3):
    """A ``hub-carve``-shaped host: every process also reads each hub file."""
    sample = generate_sample(DEFAULT_TEMPLATES[seed % len(DEFAULT_TEMPLATES)],
                             Rng(seed).split("host"), background, 0.05)
    events = graph_to_events(sample.graph)
    procs = sample.graph.process_ids()
    ts = max(e.ts for e in events)
    events += [Event(p, EntityType.PROCESS, "read", f"file:hub_lib{j}",
                     EntityType.FILE, ts + 1 + i)
               for i, (p, j) in enumerate((p, j) for p in procs for j in range(hubs))]
    return events


def _graph_outcome(build, events):
    try:
        return json.dumps(build(events))
    except GraphError as exc:
        return f"GraphError: {exc}"


def assert_matches_reference(path):
    for strict in (True, False):
        events, stats = read_events_jsonl(path, strict=strict)
        ref_events, ref_stats = reference_read_events(path, strict)
        assert [tuple(e) for e in events] == ref_events
        assert [type(e.ts) for e in events] == [int] * len(events)
        assert stats.to_dict() == ref_stats
        assert _graph_outcome(lambda evs: build_graph(evs).to_dict(), events) == (
            _graph_outcome(reference_graph_dict, ref_events))


# -- equivalence with the first reader ------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hub_hosts_ingest_as_the_first_reader_did(tmp_path, seed):
    path = tmp_path / "host.jsonl"
    write_events_jsonl(hub_host(seed), path)
    assert_matches_reference(path)


def test_scenario_graphs_ingest_as_the_first_reader_did(tmp_path):
    gen = Rng(31)
    for i, template in enumerate(DEFAULT_TEMPLATES):
        sample = generate_sample(template, gen.split(f"g{i}"), 120, 0.05)
        path = tmp_path / f"g{i}.jsonl"
        write_events_jsonl(graph_to_events(sample.graph), path)
        assert_matches_reference(path)
        events, _ = read_events_jsonl(path)
        assert json.dumps(build_graph(events).to_dict()) == json.dumps(
            sample.graph.to_dict())


MIXED_LINES = [
    line(),
    "",
    "   ",
    "not json at all",
    line(operation="zap"),
    '{"subject_id": "p", "subject_type": "process", "operation": "read"}',
    "5", "null", "true", "[1, 2]", '"text"',
    line(ts=None), line(ts=[1]), line(ts="17"), line(ts=" -3 "), line(ts="1.5"),
    line(ts=4.0), line(ts="x"),
    line(subject_id="P2", subject_type="PROCESS", operation="WRITE",
         object_id="F2", object_type="File"),
    line(operation="execute"),
    line(subject_type="file"),
    line(subject_type="thing"),
    line(object_type=["file"]),
    line(operation="launch"),
    line(operation=7),
    line(object_id="d", operation="write", ts=6,
         attrs={"subject_name": "winword.exe", "path": "C:/doc"}),
    line(object_id="d", operation="write", ts=7,
         attrs={"subject_name": "other.exe", "size": "5"}),
    line(attrs="nope"), line(attrs=None), line(attrs={}), line(extra=[1, 2]),
    line(ts=8) + " trailing",
    line(ts=9) + ' {"a": 1}',
    "\ufeff" + line(ts=10),
    line(subject_id=12, object_id=13, operation="launch", object_type="process"),
    line(object_id="d", object_type="registry", operation="query"),
    line().replace('"ts": 1', '"ts": 1e400'),
    line().replace('"ts": 1', '"ts": NaN'),
    line()[:-1],
    '{"a": 1}\t',
]


def test_mixed_lines_ingest_as_the_first_reader_did(tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(MIXED_LINES) + "\n", encoding="utf-8")
    assert_matches_reference(path)
    events, stats = read_events_jsonl(path)
    assert stats.loaded > 5 and stats.rejected_count > 20


# Lines that are not UTF-8, each placed where a good line would be; the
# reference reads "not json" there. Separators other than \n, \r\n and \r
# stay inside their line, as text mode reads them.
NOT_UTF8_LINES = [
    b'{"subject_id": "p", "subject_type": "process", "operation": "read", '
    b'"object_id": "\xff", "object_type": "file", "ts": 1}',
    b"\xc3",
    b'{"subject_id": "p\xed\xa0\x80", "subject_type": "process"}',
]
SEPARATOR_LINES = [
    line(object_id="a\u2028b\x85c", ts=2).encode("utf-8"),
    (line(ts=3) + "\x0b" + line(ts=4)).encode("utf-8"),
    (line(ts=5) + "\x1c" + line(ts=6)).encode("utf-8"),
]


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_a_line_that_is_not_utf8_is_refused_alone(tmp_path, newline):
    good = [line(ts=10).encode(), line(object_id="ünï", ts=11).encode("utf-8")]
    lines = [NOT_UTF8_LINES[0], *good, NOT_UTF8_LINES[1], *SEPARATOR_LINES,
             NOT_UTF8_LINES[2]]
    bad = [i for i, ln in enumerate(lines, start=1) if ln in NOT_UTF8_LINES]
    path, ref_path = tmp_path / "log.jsonl", tmp_path / "ref.jsonl"
    path.write_bytes(newline.join(lines) + newline)
    ref_path.write_bytes(newline.join(b"not json" if ln in NOT_UTF8_LINES else ln
                                      for ln in lines) + newline)
    for strict in (True, False):
        events, stats = read_events_jsonl(path, strict=strict)
        ref_events, ref_stats = reference_read_events(ref_path, strict)
        assert [tuple(e) for e in events] == ref_events
        assert [ev[3] for ev in ref_events] == ["f", "ünï", "a\u2028b\x85c"]
        got = stats.to_dict()
        for entry in got["rejected"]:
            if entry["line"] in bad:
                assert "'utf-8' codec can't decode" in entry["reason"]
                entry["reason"] = "Expecting value: line 1 column 1 (char 0)"
        assert got == ref_stats
        assert [ln for ln, _ in stats.rejected if ln in bad] == bad


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_failing_lines_first_in_the_middle_and_last_read_as_the_first_reader(
        tmp_path, monkeypatch, block):
    """A scanner stop ends a ``map`` silently: a failing line at either end
    or between good ones, alone or in a run, must not cut a block short."""
    monkeypatch.setattr(graph_module, "_BLOCK_LINES", block)
    good = [line(ts=t) for t in range(6)]
    failing = ["not json", '{"a": 1', "5", line(ts="x"), line(ts=7) + " x"]
    layouts = [failing + good, good[:3] + failing + good[3:], good + failing,
               [f for pair in zip(failing, good) for f in pair], failing]
    for i, lines in enumerate(layouts):
        path = tmp_path / f"layout{i}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert_matches_reference(path)
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join(MIXED_LINES) + "\n", encoding="utf-8")
    assert_matches_reference(path)


def _reference_write(events):
    """The bytes of one ``json.dumps(record)`` line per event, or the error
    ``json.dumps`` raises."""
    lines = []
    for ev in events:
        record = {"subject_id": ev.subject_id, "subject_type": ev.subject_type.value,
                  "operation": ev.operation, "object_id": ev.object_id,
                  "object_type": ev.object_type.value, "ts": ev.ts}
        if ev.attrs:
            record["attrs"] = dict(ev.attrs)
        try:
            lines.append(json.dumps(record) + "\n")
        except (TypeError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
    return "".join(lines).encode("utf-8")


def _written(events, path):
    try:
        write_events_jsonl(events, path)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return path.read_bytes()


AWKWARD_IDS = ['say "hi"', "back\\slash\\", "ctl\x00\x01\x1f\n\r\t\x7f", "ünï©ødé",
               "😀 \u2028 \ud83d", "12", "-0", "1e3", "", "null", "/</script>"]


def test_the_writer_writes_what_json_dumps_writes(tmp_path):
    path = tmp_path / "out.jsonl"
    events = [Event(sid, EntityType.PROCESS, "read", oid, EntityType.FILE, ts)
              for ts, (sid, oid) in enumerate(zip(AWKWARD_IDS, reversed(AWKWARD_IDS)))]
    events.append(Event("p", EntityType.PROCESS, 'la"unch', "q", EntityType.PROCESS, -2**70))
    assert _written(events, path) == _reference_write(events)
    with_attrs = events + [Event("p", EntityType.PROCESS, "write", "f", EntityType.FILE, 9,
                                 {"subject_name": 'w"x', "path": "C:\\ü"})]
    assert _written(with_attrs, path) == _reference_write(with_attrs)
    hub = hub_host(5)
    assert _written(hub, path) == _reference_write(hub)
    assert _written([], path) == b""


@pytest.mark.parametrize("ts", [True, False, 1.0, 2.5, float("nan"), float("-inf"),
                                np.int64(3), np.int32(-4), np.float64(1.0), 2**64, "7"])
def test_a_stamp_that_is_not_a_plain_int_is_written_as_json_dumps_does(tmp_path, ts):
    events = [Event("p", EntityType.PROCESS, "read", "f", EntityType.FILE, 1),
              Event("p", EntityType.PROCESS, "read", "f", EntityType.FILE, ts)]
    assert _written(events, tmp_path / "out.jsonl") == _reference_write(events)


def test_build_graph_reports_the_fault_the_first_pass_met_first(tmp_path):
    path = tmp_path / "faults.jsonl"
    path.write_text("\n".join([line(ts=1.5), line(ts=2), line(ts=True),
                               line(object_type="socket", operation="send")]) + "\n")
    events, stats = read_events_jsonl(path)
    assert [ln for ln, _ in stats.rejected] == [1, 3]
    with pytest.raises(GraphError, match="'f' seen as both file and socket"):
        build_graph(events)
    # a stamp that is not an int, before the collision, is reported after it
    stamped = [events[0]._replace(ts=2.5), *events[1:]]
    with pytest.raises(GraphError, match="'f' seen as both file and socket"):
        build_graph(stamped)
    # an unknown operation before the collision is reported first ...
    zap = Event("p", EntityType.PROCESS, "zap", "g", EntityType.FILE, 3)
    with pytest.raises(GraphError, match="unknown operation"):
        build_graph([zap, *stamped])
    # ... and one after it is not
    with pytest.raises(GraphError, match="seen as both"):
        build_graph([*stamped, zap])
    # a collision on the object of the event whose subject carries attrs
    tagged = Event("f", EntityType.PROCESS, "read", "p", EntityType.FILE, 4,
                   {"subject_name": "x"})
    with pytest.raises(GraphError, match="'f' seen as both file and process"):
        build_graph([events[0], tagged])


def test_an_entity_type_collision_reads_as_before(tmp_path):
    path = tmp_path / "collide.jsonl"
    path.write_text(line() + "\n" + line(object_type="socket", operation="send") + "\n")
    assert_matches_reference(path)
    with pytest.raises(GraphError, match="'f' seen as both file and socket"):
        build_graph(read_events_jsonl(path)[0])


# -- refused coercions ----------------------------------------------------------

REFUSED = [
    ("ts", True), ("ts", False), ("ts", 1.9), ("ts", -0.5), ("ts", 2**63),
    ("subject_id", None), ("subject_id", True), ("subject_id", 1.5),
    ("object_id", ["x"]), ("object_id", {"a": 1}),
]


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("field,value", REFUSED)
def test_coercions_are_refused_with_a_reason_naming_the_field(tmp_path, field, value,
                                                              strict):
    with pytest.raises(GraphError, match=field):
        parse_event({**EVENT, field: value}, strict=strict)
    path = tmp_path / "e.jsonl"
    path.write_text(line(**{field: value}) + "\n" + line() + "\n")
    events, stats = read_events_jsonl(path, strict=strict)
    assert [tuple(e) for e in events] == [("p", EntityType.PROCESS, "read", "f",
                                           EntityType.FILE, 1, None)]
    assert [ln for ln, _ in stats.rejected] == [1]
    assert field in stats.rejected[0][1]


@pytest.mark.parametrize("strict", [True, False])
def test_integer_strings_integral_floats_and_integer_ids_are_read(strict):
    ev = parse_event({**EVENT, "ts": "-17", "subject_id": 12, "object_id": 0},
                     strict=strict)
    assert (ev.subject_id, ev.object_id, ev.ts) == ("12", "0", -17)
    assert parse_event({**EVENT, "ts": 4.0}, strict=strict).ts == 4


@pytest.mark.parametrize("ts", [1.5, 2.0, True, "3", 2**63])
def test_build_graph_refuses_a_stamp_that_is_not_an_int(ts):
    event = Event("p", EntityType.PROCESS, "read", "f", EntityType.FILE, ts)
    with pytest.raises(GraphError, match="ts"):
        build_graph([event])


# -- memory and scale gates -----------------------------------------------------


def test_a_hub_host_graph_keeps_under_80_kb_beside_its_ids(tmp_path):
    """The storage a built host graph keeps, ``edge_arrays()`` taken, under
    tracemalloc. The id strings were allocated by the reader, before
    tracing, and are left out: any storage holds them once. On this host
    (1,197 events, 379 nodes) the columns keep 58 KB; a node and an edge
    object each kept 254 KB."""
    path = tmp_path / "host.jsonl"
    write_events_jsonl(hub_host(4), path)
    events, _ = read_events_jsonl(path)
    assert 1100 <= len(events) <= 1300
    gc.collect()
    tracemalloc.start()
    try:
        graph = build_graph(events)
        graph.edge_arrays()
        del events
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.n_edges >= 1100
    assert kept <= 80 * 1024


def test_a_100x_host_ingests_in_under_0_6_seconds(tmp_path):
    """≈44k events (background 20,000). The one-pass reader took 0.22-0.32 s
    on a shared 2-core machine, the per-object one 0.69-0.84 s; the best of
    two runs is gated."""
    sample = generate_sample(DEFAULT_TEMPLATES[0], Rng(7).split("scale"), 20000, 0.05)
    path = tmp_path / "host.jsonl"
    write_events_jsonl(graph_to_events(sample.graph), path)
    seconds = []
    for _ in range(2):
        started = time.perf_counter()
        events, stats = read_events_jsonl(path)
        graph = build_graph(events)
        seconds.append(time.perf_counter() - started)
    assert stats.loaded == graph.n_edges == sample.graph.n_edges > 40000
    assert min(seconds) < 0.6
