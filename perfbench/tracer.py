"""Span tracer for the benchmark's traced runs.

`Tracer.install` replaces each public function of tanglekit's modules by
a wrapper that records one span per call, then rebinds every module
attribute that still points at the original function.  The rebinding is
what catches names bound with `from .x import y` (in `acceptance`,
`cli`, the package `__init__` and the modules that import each other),
because those are separate references to the same function object.

A span is (name, start, end, parent index, query id, attrs); spans stay
in memory and are written out once, at the end of the traced run.  A
span's self time is its duration minus the durations of its child
spans, which never overlap because the program is single-threaded.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

KERNEL_MODULES = ("tanglekit._enumpy", "tanglekit._enumcore")
KERNEL_SPANS = {
    "run_enumeration": "kernel.run_enumeration",
    "bracket_statesum": "jones.bracket_statesum",
}


def _enumeration_attrs(args, result):
    status, rows, _, merges = result
    return {
        "completed": int(status == 0),
        "capped": int(status != 0),
        "deductions": int(merges),
        "elements": len(rows) if status == 0 else 0,
    }


def _statesum_attrs(args, result):
    return {"states": 1 << len(args[0])}


ATTRS = {
    "kernel.run_enumeration": _enumeration_attrs,
    "jones.bracket_statesum": _statesum_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.query: str | None = None

    def _wrap(self, name, fn):
        spans, stack, attrs = self.spans, self._stack, ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else None,
                    self.query, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[5] = attrs(args, result)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span named `name` (a query root)."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap every public function of the imported tanglekit modules
        (and the kernels' two entry points), then rebind every reference
        to them in those modules."""
        replaced = {}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("tanglekit."):
                continue
            short = modname.rsplit(".", 1)[1]
            if modname in KERNEL_MODULES:
                for fname, span_name in KERNEL_SPANS.items():
                    fn = getattr(mod, fname)
                    replaced[id(fn)] = self._wrap(span_name, fn)
                    setattr(mod, fname, replaced[id(fn)])
                continue
            for fname, fn in vars(mod).items():
                if (not fname.startswith("_") and callable(fn)
                        and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == modname):
                    replaced[id(fn)] = self._wrap(f"{short}.{fname}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "tanglekit" and not modname.startswith("tanglekit."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    setattr(mod, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, query, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, query, attrs]) + "\n")


def read_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def count_under(spans, ancestor: str, name: str) -> int:
    """Spans called `name` that have a span called `ancestor` above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        count += parent is not None
    return count
