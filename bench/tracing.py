"""Span recording around the library's cross-module calls, for traced runs.

``install`` replaces names that library modules look up at call time, such
as ``odgrammar.engine.realize_structure`` or ``odgrammar.validate.
StructureIndex``, with wrappers that open a span, call the original and
close the span; ``uninstall`` puts the originals back.  Nothing in the
library is edited.  Generator stages are timed across each ``next()``
call, so a consumer that stops after the first violation is charged only
for the work it caused.

A span's self time is its duration minus the time its child spans cover.
Spans are kept in memory, aggregated per name, and written out at the end.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

import odgrammar.engine
import odgrammar.validate

# (module, attribute, span name, kind) for every wrapped cross-module call.
# The engine's own search loops (head maps, positional/slot products,
# cardinality, arrangements) are not wrapped: they are the engine's self time.
WRAPPED = (
    (odgrammar.engine, "realize_structure", "core.realize_structure", "call"),
    (odgrammar.engine, "validate_tree", "core.validate_tree", "call"),
    (odgrammar.engine, "check_valency", "constraints.check_valency", "call"),
    (odgrammar.engine, "canonical_structure", "serialize.canonical", "call"),
    (odgrammar.engine, "iter_structure_violations", "validate.first_violation", "verdict"),
    (odgrammar.validate, "iter_tree_violations", "validate.tree", "gen"),
    (odgrammar.validate, "iter_ods_violations", "validate.domains", "gen"),
    (odgrammar.validate, "iter_condition_violations", "validate.conditions", "gen"),
    (odgrammar.validate, "StructureIndex", "validate.index", "call"),
    (odgrammar.validate, "_iter_constraint_violations", "validate.lexical", "gen"),
    (odgrammar.validate, "check_valency", "constraints.check_valency", "call"),
)

# Raw spans kept for the output file; aggregates cover every span.
MAX_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.request = -1
        self._stack: list[list] = []  # [name, start, child_time, span id]
        self._next_id = 0
        self.self_s: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.rejects: Counter[str] = Counter()
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, end)
        self.dropped = 0
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str, new_call: bool = True) -> None:
        if new_call:
            self.calls[name] += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def leave(self) -> None:
        end = perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append((span_id, parent, self.request, name, start, end))
        else:
            self.dropped += 1

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, fn, name):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return wrapper

    def _wrap_gen(self, fn, name, verdict=False):
        def wrapper(*args, **kwargs):
            first = True
            new_call = True
            gen = fn(*args, **kwargs)
            while True:
                self.enter(name, new_call)
                new_call = False
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.leave()
                if verdict and first:
                    # the engine asks for one violation per candidate: its
                    # condition is the candidate's first failing check
                    self.rejects[item.condition] += 1
                first = False
                yield item

        return wrapper

    def install(self) -> None:
        for module, attr, name, kind in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if kind == "call":
                wrapped = self._wrap_call(original, name)
            else:
                wrapped = self._wrap_gen(original, name, verdict=kind == "verdict")
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name: str, fn, *args):
        """Run a top-level call of the benchmark under a span."""
        self.enter(name)
        try:
            return fn(*args)
        finally:
            self.leave()

    # -- output ------------------------------------------------------------

    def write(self, path, meta: dict, requests: list[dict]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "layers": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.total_s)
            },
            "rejects": dict(sorted(self.rejects.items())),
            "requests": requests,
            "spans_dropped": self.dropped,
            "spans": [
                {"id": i, "parent": p, "request": r, "name": n, "start": s, "end": e}
                for i, p, r, n, s, e in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n")
