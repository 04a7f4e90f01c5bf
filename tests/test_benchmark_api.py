"""The benchmark workloads and the bench scripts read sirank by name. A name
or a keyword argument that a change to the package drops would turn a
benchmark run into a failed run, not a failed test, so these tests read their
source with ``ast`` and check that every sirank attribute they read and every
name they import from sirank exists, and that every keyword they pass to a
sirank callable is one of its parameters."""

import ast
import importlib
import inspect
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


def _sirank_bindings(tree) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Local names bound by ``import sirank...`` (name -> module) and by
    ``from sirank... import`` (name -> (module, imported name))."""
    bound: dict[str, str] = {}
    imported: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sirank":
                    bound[alias.asname or "sirank"] = alias.name if alias.asname else "sirank"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sirank":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    return bound, imported


def _getattr_chain(node):
    """``getattr(a.b, "c", ...)`` as ["a", "b", "c"]; None for any other node
    and for a getattr whose name is not a string literal."""
    if not (isinstance(node, ast.Call) and _dotted(node.func) == ["getattr"]
            and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return None
    base = _dotted(node.args[0])
    return None if base is None else base + [node.args[1].value]


def sirank_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) for every ``from sirank... import name`` in ``path`` and
    every attribute read through a name bound by ``import sirank...``, by
    attribute access or by ``getattr`` with a literal name."""
    tree = ast.parse(path.read_text())
    bound, imported = _sirank_bindings(tree)
    reads = set(imported.values())
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else _getattr_chain(node)
        if chain and chain[0] in bound:
            module = bound[chain[0]]
            for name in chain[1:]:
                reads.add((module, name))
                module = f"{module}.{name}"
    return reads


def _resolve(dotted: str):
    """The object a dotted sirank name names, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], start=2):
        if not hasattr(obj, name):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, name)
    return obj


def _exists(module: str, name: str) -> bool:
    # a submodule the scripts import (sirank.cli) exists whether or not an
    # earlier test happened to import it
    try:
        _resolve(f"{module}.{name}")
        return True
    except (ImportError, AttributeError):
        return False


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_sirank_name_a_benchmark_reads_exists(path):
    reads = sirank_reads(path)
    assert reads, f"{path.name} reads nothing from sirank: the parse missed its imports"
    missing = sorted(f"{module}.{name}" for module, name in reads if not _exists(module, name))
    assert missing == []


def test_a_getattr_with_a_literal_name_is_a_read(tmp_path):
    script = tmp_path / "script.py"
    script.write_text("import sirank.scoring\n"
                      "gap = getattr(sirank.scoring, 'gone', None)\n"
                      "name = 'computed'\n"
                      "other = getattr(sirank.scoring, name, None)\n")
    assert sirank_reads(script) == {("sirank", "scoring"), ("sirank.scoring", "gone")}


def sirank_keyword_calls(path: Path) -> list[tuple[str, list[str]]]:
    """(dotted sirank name, keywords) for every call in ``path`` of a sirank
    name that passes keywords; ``**kwargs`` are not seen."""
    tree = ast.parse(path.read_text())
    bound, imported = _sirank_bindings(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        keywords = [kw.arg for kw in node.keywords if kw.arg]
        if not (chain and keywords):
            continue
        if chain[0] in bound:
            calls.append((".".join([bound[chain[0]], *chain[1:]]), keywords))
        elif chain[0] in imported:
            calls.append((".".join([*imported[chain[0]], *chain[1:]]), keywords))
    return calls


def _unknown_keywords(dotted: str, keywords: list[str]) -> list[str]:
    params = inspect.signature(_resolve(dotted)).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return []
    return [kw for kw in keywords if kw not in params]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_keyword_a_benchmark_passes_to_sirank_is_a_parameter(path):
    unknown = sorted(f"{name}({kw}=...)" for name, keywords in sirank_keyword_calls(path)
                     for kw in _unknown_keywords(name, keywords))
    assert unknown == []


def test_keyword_check_sees_the_config_calls():
    called = {name for path in SCRIPTS for name, _ in sirank_keyword_calls(path)}
    assert {"sirank.GeneratorConfig", "sirank.TrainConfig", "sirank.ExperimentConfig"} <= called
