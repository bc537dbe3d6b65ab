"""Span recording around the public functions of the sectoria layers.

The tracer rebinds every public function of the layer modules at each of
its binding sites: the module attribute, the ``from``-imports in other
sectoria modules and the package re-exports.  No source file changes; the
original bindings come back on ``uninstall``.

A span record is a list ``[name, start, end, parent, op, work]``: ``parent``
is the index of the enclosing span (-1 for an op root) and ``work`` a
per-call estimate computed from argument shapes, or 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "sectoria"
LAYERS = ("cli", "generators", "linalg", "sector", "schur", "inequalities", "claim2")


def lu_flops(a, *args, **kwargs) -> float:
    """Real flops of one complex n-by-n LU factorization, 4 * (2/3) n^3.

    Computed from the first argument's row count, not measured.
    """
    n = len(a)
    return 8.0 * n**3 / 3.0


# Functions that factor their first argument once per call.
WORK_ESTIMATES = {
    "linalg.determinant": lu_flops,
    "linalg.solve": lu_flops,
    "linalg.inverse": lu_flops,
}


def public_functions() -> dict[int, tuple[str, object]]:
    """``id(fn) -> (layer.name, fn)`` for each public function defined in a layer module."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                found[id(obj)] = (f"{layer}.{name}", obj)
    return found


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        work = WORK_ESTIMATES.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self._op,
                   work(*args, **kwargs) if work is not None else 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> int:
        """Rebind every public layer function; returns the number of sites."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = public_functions()
        wrappers = {key: self._wrap(qn, fn) for key, (qn, fn) in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None and originals[id(val)][1] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    @contextmanager
    def op(self, op_id: int, kind: str):
        """Root span around one benchmark op; layer spans inside it point to it."""
        rec = [f"op:{kind}", 0.0, 0.0, -1, op_id, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self._op = op_id
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def write_jsonl(self, path: str) -> None:
        """One JSON array per line, fields in record order (see the module docstring)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")
