"""The benchmark workloads and the bench scripts read sirank by name. A name
that a change to the package drops would turn a benchmark run into a failed
run, not a failed test, so this test reads their source with ``ast`` and
checks that every sirank attribute they read and every name they import from
sirank exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = [ROOT / "perfbench" / "workloads.py", *sorted((ROOT / "benchmarks").glob("*.py"))]


def _dotted(node):
    """``a.b.c`` as ["a", "b", "c"], or None for anything but names and attributes."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else base + [node.attr]
    return None


def sirank_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every ``from sirank... import name`` in ``path`` and
    every attribute read through a name bound by ``import sirank...``."""
    tree = ast.parse(path.read_text())
    bound: dict[str, str] = {}  # local name -> module it is bound to
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sirank":
                    bound[alias.asname or "sirank"] = alias.name if alias.asname else "sirank"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sirank":
            reads.update((node.module, alias.name) for alias in node.names)
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            module = bound[chain[0]]
            for name in chain[1:]:
                reads.add((module, name))
                module = f"{module}.{name}"
    return reads


def _exists(module: str, name: str) -> bool:
    try:
        return hasattr(importlib.import_module(module), name)
    except ImportError:
        return False


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_sirank_name_a_benchmark_reads_exists(path):
    reads = sirank_reads(path)
    assert reads, f"{path.name} reads nothing from sirank: the parse missed its imports"
    missing = sorted(f"{module}.{name}" for module, name in reads if not _exists(module, name))
    assert missing == []

