"""The benchmark under bench/ stays importable: every mindswap module and name
that a bench file imports, or reads off a mindswap name it imported, exists.

The benchmark is frozen and tier-1 does not run its self-test, so without
this a simplification could delete a name the benchmark needs unnoticed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_references() -> list[str]:
    """The dotted path of each mindswap module or name that a bench file imports
    or reads as an attribute of an imported mindswap name, sorted."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}  # the local name of each import -> the dotted path it names
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] == "mindswap":
                        found.add(alias.name)
                        local = alias.asname or alias.name.partition(".")[0]
                        bound[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.partition(".")[0] == "mindswap":
                    for alias in node.names:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                        found.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in bound:
                    found.add(f"{bound[node.value.id]}.{node.attr}")
    return sorted(found)


def resolve(path: str) -> object:
    """What a dotted path names, importing a submodule where ``from a import b`` would."""
    head, *rest = path.split(".")
    obj = importlib.import_module(head)
    for part in rest:
        head = f"{head}.{part}"
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(head)
    return obj


def test_the_scan_finds_the_bench_imports():
    assert {
        "mindswap.moves.MachineMove",
        "mindswap.optimal3",
        "mindswap.keeler.solve_two_machine",
    } <= set(bench_references())


@pytest.mark.parametrize("path", bench_references())
def test_each_bench_reference_resolves(path):
    resolve(path)
