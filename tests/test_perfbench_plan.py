"""The benchmark's traced run wraps provrec functions by name; keep them there.

``perfbench/workloads.py`` lists in ``trace_plan()`` every ``(owner,
attribute)`` it replaces with a timing wrapper during ``--trace 1`` runs. A
rename or deletion in ``src/`` would only show up there, as a crash, so this
checks the plan from the tier-1 suite, every other provrec name that
``workloads.py`` and ``checks.py`` reach through an import, and the graph
views that ``checks.py`` reads.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _plan(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads").trace_plan()


def test_every_traced_attribute_resolves(monkeypatch):
    plan = _plan(monkeypatch)
    assert plan
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in plan
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_tracer_installs_and_restores_the_plan(monkeypatch):
    plan = _plan(monkeypatch)
    spans = importlib.import_module("spans")
    originals = [getattr(owner, attr) for owner, attr, _, _ in plan]
    with spans.Tracer().installed(plan):
        pass
    assert [getattr(owner, attr) for owner, attr, _, _ in plan] == originals



def _provrec_names(path: Path) -> list[tuple[str, str, int]]:
    """``(module, name, line)`` for every ``<alias>.<name>`` on an imported
    provrec module and every name imported from provrec in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules: dict[str, str] = {}  # local alias -> provrec module
    used: list[tuple[str, str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(
                (a.asname or a.name, a.name)
                for a in node.names if a.name.split(".")[0] == "provrec"
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            (node.module or "").split(".")[0] == "provrec"
        ):
            owner = importlib.import_module(node.module)
            for a in node.names:
                if isinstance(getattr(owner, a.name, None), types.ModuleType):
                    modules[a.asname or a.name] = f"{node.module}.{a.name}"
                else:
                    used.append((node.module, a.name, node.lineno))
    used += [
        (modules[node.value.id], node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    return used


@pytest.mark.parametrize("name", ["workloads.py", "checks.py"])
def test_every_provrec_name_the_benchmark_uses_resolves(name):
    used = _provrec_names(PERFBENCH / name)
    if name == "workloads.py":  # the parse sees the calls made through aliases
        pairs = {(module, attr) for module, attr, _ in used}
        assert {
            ("provrec.evaluation", "split_few_shot"),
            ("provrec.graph", "graph_to_events"),
            ("provrec.matching", "ExemplarSet"),
            ("provrec.config", "PipelineConfig"),
        } <= pairs
    missing = [
        f"{name}:{line}: {module}.{attr}"
        for module, attr, line in used
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_the_graph_views_the_benchmark_reads(monkeypatch):
    """``checks.py`` reads ``graph.nodes.items()`` for ``.entity_type.value``
    and ``graph.edges`` for ``.src``/``.dst``/``.edge_type_id``/``.ts``, in
    event order; the graph stores columns and builds these views on read."""
    from provrec.graph import EntityType, Event, build_graph

    P, F, S = EntityType.PROCESS, EntityType.FILE, EntityType.SOCKET
    g = build_graph([
        Event("sh", P, "launch", "curl", P, 30),
        Event("curl", P, "connect", "203.0.113.9:443", S, 10),
        Event("curl", P, "write", "x.bin", F, 20, {"subject_name": "curl"}),
        Event("sh", P, "read", "x.bin", F, 20),
    ])
    assert [(nid, n.entity_type.value) for nid, n in g.nodes.items()] == [
        ("sh", "process"), ("curl", "process"),
        ("203.0.113.9:443", "socket"), ("x.bin", "file")]
    assert [(e.src, e.dst, e.edge_type_id, e.ts) for e in g.edges] == [
        ("sh", "curl", 1, 30), ("curl", "203.0.113.9:443", 18, 10),
        ("curl", "x.bin", 4, 20), ("sh", "x.bin", 3, 20)]
    assert all(type(v) is int for e in g.edges for v in (e.edge_type_id, e.ts))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    checks = importlib.import_module("checks")
    nodes, edges = checks.graph_signature(g)
    assert ("x.bin", "file") in nodes and edges[("sh", "x.bin", 3, 20)] == 1
    assert checks.process_ids(g) == {"sh", "curl"}
    assert checks.best_connected(["sh", "curl"], g) == "curl"
