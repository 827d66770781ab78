"""Outside-in tracer: spans around ntk's public functions, installed from here.

Nothing under ``src/`` knows about it. :func:`install` replaces each
public function of the traced modules by a wrapper, wherever an ``ntk``
module binds it: as a module attribute (``ntk.construction.sylow2`` as well
as ``ntk.groups.sylow2``) or inside a module-level table such as the
constructor table of ``ntk.groupspec``. A wrapper records a span only while
an operation is open, so set-up and checking work outside the timed region
leaves no trace. Spans stay in memory; the benchmark writes them out when
its run ends.

Only the workers of a traced run install the tracer; untraced workers
never import it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# Modules whose public functions are traced. cli is traced as a whole by
# the root span the worker opens around cli.main.
TRACED_MODULES = ("groupspec", "groups", "catalog", "construction",
                  "mappings", "graphs", "latin", "guards")
# Per-element helpers, called n times by their traced callers: a span each
# would cost more than the work it times.
UNTRACED = {"groups.element_order"}


class Tracer:
    """Spans of one worker: [name, start_ns, end_ns, parent, op]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, 0, 0, parent, self.op]
            self.spans.append(span)
            self.stack.append(sid)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self.stack.pop()
        return traced

    def run_op(self, op: int, fn, *args, name: str | None = None):
        """Call ``fn`` as operation ``op``; ``name`` opens a root span around
        a function that is not wrapped already."""
        self.op = op
        try:
            return (self.wrap(name, fn) if name else fn)(*args)
        finally:
            self.op = None

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding."""
    wrappers = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"ntk.{short}"]
        for attr, obj in vars(module).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or name in UNTRACED):
                continue
            wrappers[id(obj)] = tracer.wrap(name, obj)

    def swap(value):
        if id(value) in wrappers:
            return wrappers[id(value)]
        if isinstance(value, tuple) and any(id(v) in wrappers for v in value):
            return tuple(wrappers.get(id(v), v) for v in value)
        return value

    for modname, module in list(sys.modules.items()):
        if modname != "ntk" and not modname.startswith("ntk."):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    value[key] = swap(item)
            else:
                new = swap(value)
                if new is not value:
                    setattr(module, attr, new)


# ---------------------------------------------------------------------------
# aggregation, in the benchmark's own process

def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts by span name.

    Self time is a span's duration minus the durations of its children;
    spans of one worker nest strictly, since the worker is single-threaded.
    ``spans`` must be one worker's list, with parents as indices into it.
    """
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        seconds[name] = seconds.get(name, 0.0) + (end - start - inner) / 1e9
        calls[name] = calls.get(name, 0) + 1
    return seconds, calls
