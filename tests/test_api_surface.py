"""The package exports no name that only tests and demos call.

A name ``provrec/__init__.py`` imports must be read by the pipeline itself
(``src/provrec/`` outside the name's own definition) or by the benchmark
(``perfbench/``, whose trace plan also names what it wraps as strings).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "provrec"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced_names(tree, strings: bool = False) -> set[str]:
    """Names and attributes ``tree`` reads, string constants too when
    ``strings``; a def or class does not count its own name."""
    names = set()
    for node in ast.iter_child_nodes(tree):
        inner = referenced_names(node, strings)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner.discard(node.name)
        names |= inner
    if isinstance(tree, ast.Name):
        names.add(tree.id)
    elif isinstance(tree, ast.Attribute):
        names.add(tree.attr)
    elif strings and isinstance(tree, ast.Constant) and isinstance(tree.value, str):
        names.add(tree.value)
    return names


def _read_by(paths, strings=False) -> set[str]:
    return set().union(*(referenced_names(ast.parse(p.read_text()), strings)
                         for p in paths))


def test_every_exported_name_has_a_pipeline_or_benchmark_caller():
    pipeline = _read_by(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    benchmark = _read_by((ROOT / "perfbench").glob("*.py"), strings=True)
    exported = exported_names()
    assert len(exported) > 50  # the parse found the exports
    assert [n for n in exported if n not in pipeline | benchmark] == []


def test_a_def_does_not_count_its_own_name():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    def m(self) -> C: ...\n")
    assert referenced_names(tree) == {"n"}
    assert referenced_names(ast.parse("g = f\nh = obj.f\n")) >= {"f"}
    assert "f" in referenced_names(ast.parse("wrap(m, 'f')"), strings=True)
    assert "f" not in referenced_names(ast.parse("wrap(m, 'f')"))
