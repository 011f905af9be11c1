"""Span tracing of flatiso from outside the package.

The tracer replaces public functions of the package's modules with wrappers
that record one span per call: name, start, end, parent span and a tag (the
job or request the call belongs to).  A function is replaced under every
module attribute that holds it, because that is where its callers resolve
it: ``search`` calls ``betti_numbers`` through its own ``from .cohomology
import`` name, ``cli`` and the benchmark through ``cohomology.betti_numbers``.
Spans stay in memory; the benchmark writes them out when it ends.

A module self time is the sum over its spans of the span's duration minus
the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module of the flatiso package, public function, span name)
TARGETS = (
    ("chargroup", "automorphism_table", "chargroup.aut_table"),
    ("search", "enumerate_families", "search.enumerate"),
    ("diagrep", "display_representative", "diagrep.display_rep"),
    ("diagrep", "are_equivalent", "diagrep.are_equivalent"),
    ("diagrep", "canonical_form", "diagrep.canonical_form"),
    ("cohomology", "betti_numbers", "cohomology.betti"),
    ("cohomology", "primitive_counts", "cohomology.prim"),
    ("bieberbach", "find_translations", "bieberbach.find_translations"),
    ("bieberbach", "is_torsion_free", "bieberbach.is_torsion_free"),
    ("bieberbach", "sunada_table", "bieberbach.sunada_table"),
    ("flip", "apply_flip", "flip.apply_flip"),
)

PACKAGE = "flatiso"
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every attribute."""

    def __init__(self):
        self.spans: list[list] = []
        self.tag = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(prefix) and m is not None]
        for modname, attr, span_name in TARGETS:
            module = sys.modules.get(prefix + modname)
            original = getattr(module, attr, None)
            if original is None:
                print(f"perfbench: {prefix}{modname}.{attr} not found; "
                      f"its span {span_name} is not recorded", file=sys.stderr)
                continue
            wrapper = self._wrap(original, span_name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._saved.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def _wrap(self, fn, span_name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, clock(), 0.0, stack[-1] if stack else -1, self.tag]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def span(self, span_name: str, tag=None):
        """A span of the benchmark's own; calls inside it become its children.

        On exit, spans an interrupt left open are closed at the exit time and
        the parent stack is restored, so an abandoned request cannot corrupt
        the spans that follow it.
        """
        saved_tag, depth = self.tag, len(self._stack)
        self.tag = tag
        first = len(self.spans)
        span = [span_name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, tag]
        self._stack.append(first)
        self.spans.append(span)
        try:
            yield span
        finally:
            now = time.perf_counter()
            for s in self.spans[first:]:
                if s[END] == 0.0:
                    s[END] = now
            del self._stack[depth:]
            self.tag = saved_tag

    def records(self) -> list[dict]:
        return [{"name": s[NAME], "start": s[START], "end": s[END],
                 "parent": s[PARENT], "tag": s[TAG]} for s in self.spans]


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def aggregate(spans, within) -> dict:
    """Per span name: call count, self time and total time, over the spans
    that descend from a span index in ``within`` (those spans included).

    Returns {tag: {name: {"calls": int, "self_s": float, "total_s": float}}},
    where tag None covers every span and each other tag only its own spans.
    """
    selfs = self_times(spans)
    inside = [False] * len(spans)
    roots = set(within)
    for i, s in enumerate(spans):
        inside[i] = i in roots or (s[PARENT] >= 0 and inside[s[PARENT]])
    table: dict = defaultdict(lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                                            "total_s": 0.0}))
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        for key in {None, s[TAG]}:
            row = table[key][s[NAME]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            row["total_s"] += s[END] - s[START]
    return table
