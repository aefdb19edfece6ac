"""The benchmark's traced run wraps provrec functions by name; keep them there.

``perfbench/workloads.py`` lists in ``trace_plan()`` every ``(owner,
attribute)`` it replaces with a timing wrapper during ``--trace 1`` runs. A
rename or deletion in ``src/`` would only show up there, as a crash, so this
checks the plan from the tier-1 suite.
"""

import importlib
from pathlib import Path

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
