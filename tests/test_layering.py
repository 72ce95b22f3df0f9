"""Layers depend only downward: each module of dpdsurf imports only modules
above it in the README's library table.  Above the package, the benchmark
under bench/ finds every name it takes from dpdsurf, and the README's
round trip runs."""

from __future__ import annotations

import ast
import importlib
import inspect
import random
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dpdsurf"
BENCH = ROOT / "bench"

#: The README's table, top down, with errors above it; __init__ and
#: __main__ may import any module.
LAYERS = ("errors", "record", "intpoly", "exactmath", "divisor", "element", "dpdring",
          "lnd", "classify", "catalog", "cli")
EXEMPT = ("__init__", "__main__")


def relative_imports(module: str) -> dict[str, set[str]]:
    """Module name -> the names `from .module import ...` takes from it, over
    every relative import of src/dpdsurf/<module>.py (`from . import x`
    counts as importing x)."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                for alias in node.names:
                    found.setdefault(alias.name, set())
            else:
                found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted((*LAYERS, *EXEMPT))


@pytest.mark.parametrize("module", LAYERS)
def test_imports_only_modules_above(module):
    above = LAYERS[:LAYERS.index(module)]
    assert sorted(set(relative_imports(module)) - set(above)) == []


def test_lnd_imports_no_spec_class():
    """A derivation is built from a pair or a parabolic D, never from a spec."""
    taken = set().union(*relative_imports("lnd").values())
    assert taken.isdisjoint({"Elliptic", "Hyperbolic", "Parabolic", "SurfaceSpec"})


def bench_references(path: Path) -> list[tuple[str, object, str]]:
    """(where, owner, name) for each name a bench/ file takes from dpdsurf:
    `from dpdsurf.m import name`, `from dpdsurf import m`, a module bound by
    importlib.import_module("dpdsurf.m"), and every attribute chain read
    off such a binding (`lnd.DegreeSet.none`, `Poly.one`) as far as it
    runs through modules and classes."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, object] = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dpdsurf":
            owner = importlib.import_module(node.module)
            for alias in node.names:
                if node.module == "dpdsurf":
                    importlib.import_module(f"dpdsurf.{alias.name}")
                refs.append((f"{path.name}:{node.lineno}", owner, alias.name))
                bound[alias.asname or alias.name] = getattr(owner, alias.name, None)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"):
            (arg,) = node.value.args
            if isinstance(arg, ast.Constant) and arg.value.startswith("dpdsurf."):
                bound[node.targets[0].id] = importlib.import_module(arg.value)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node)
            node = node.value
        if not (isinstance(node, ast.Name) and node.id in bound and chain):
            continue
        owner = bound[node.id]
        for attr in reversed(chain):
            if not (inspect.ismodule(owner) or inspect.isclass(owner)):
                break
            refs.append((f"{path.name}:{attr.lineno}", owner, attr.attr))
            owner = getattr(owner, attr.attr, None)
    return refs


@pytest.mark.parametrize("name", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_names_exist(name):
    """Every dpdsurf name a bench/ file imports, or reads off what it
    imports, still exists."""
    missing = [(where, getattr(owner, "__name__", owner), attr)
               for where, owner, attr in bench_references(BENCH / name)
               if not hasattr(owner, attr)]
    assert missing == []


def test_bench_wraps_and_generators(monkeypatch):
    """The span tracer's modules and the methods it wraps (read from each
    class's own __dict__), and the input generators of bench/gen.py, which
    call the divisor and polynomial values they build."""
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    gen = importlib.import_module("gen")
    exactmath = importlib.import_module("dpdsurf.exactmath")
    for module in spans.MODULES:
        importlib.import_module(f"dpdsurf.{module}")
    for span, (cls, methods) in spans.METHODS.items():
        assert all(m in vars(getattr(exactmath, cls)) for m in methods), span
    for name in spans.RENAMED:
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"dpdsurf.{module}"), attr), name
    rng = random.Random(0)
    for _ in range(50):
        gen.presentation_degrees(gen.random_pair(rng))
        gen.presentation_degrees(gen.random_concentrated_pair(rng))
    assert len(gen.oracle_pairs(0)) == 29
    for _, p, _ in gen.equation_inputs(0):
        assert gen.coeff_bits(p) > 0


def test_readme_round_trip():
    """The README's "quick round trip" block runs as written."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A quick round trip in Python:\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block.group(1), "README.md", "exec"), {})
