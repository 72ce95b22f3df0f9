"""Span tracing from outside the program.

``Tracer.install`` wraps the public functions of the dpdsurf modules (in
every dpdsurf namespace that binds one) and four Poly/RatFunc methods.
Each call records a span (name, start, end, parent) in flat arrays; a
layer's self time is its span time minus the time its child spans cover.
The program itself carries no instrumentation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

from gen import coeff_bits

MODULES = ("exactmath", "divisor", "dpdring", "lnd", "classify", "catalog", "cli")
#: Span name -> (class name in exactmath, method names bound to one function).
METHODS = {
    "exactmath.poly_mul": ("Poly", ("__mul__", "__rmul__")),
    "exactmath.poly_compose": ("Poly", ("compose",)),
    "exactmath.poly_divmod": ("Poly", ("__divmod__",)),
    "exactmath.ratfunc_new": ("RatFunc", ("__init__",)),
}
RENAMED = {"exactmath.rational_linear_factorization": "exactmath.factor"}


class Tracer:
    """Records spans while ``active``; installs and removes its wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.active = False
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.max_degree = 0
        self.max_coeff_bits = 0

    def _wrap(self, span: str, fn, probe=None):
        idx = self._index.setdefault(span, len(self.names))
        if idx == len(self.names):
            self.names.append(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            sid = len(self.name)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if probe is not None:
                probe(args, result)
            return result

        return wrapper

    def _probe_mul(self, args, result) -> None:
        if hasattr(result, "degree") and result.degree > self.max_degree:
            self.max_degree = result.degree

    def _probe_factor(self, args, result) -> None:
        self.max_coeff_bits = max(self.max_coeff_bits, coeff_bits(args[0]))

    def install(self) -> None:
        mods = {m: importlib.import_module(f"dpdsurf.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    span = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                    probe = self._probe_factor if span == "exactmath.factor" else None
                    wrapped[id(obj)] = self._wrap(span, obj, probe)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "dpdsurf" or n.startswith("dpdsurf.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, wrapped[id(obj)])
        for span, (cls_name, methods) in METHODS.items():
            cls = getattr(mods["exactmath"], cls_name)
            original = cls.__dict__[methods[0]]
            probe = self._probe_mul if span == "exactmath.poly_mul" else None
            wrapper = self._wrap(span, original, probe)
            for meth in methods:
                self._undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and total self time in seconds."""
        n = len(self.name)
        self_time = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["calls"] += 1
            entry["self_s"] += self_time[i]
        return out

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
