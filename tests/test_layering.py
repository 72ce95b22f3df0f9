"""Layers depend only downward: each module of dpdsurf imports only modules
above it in the README's library table."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dpdsurf"

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
