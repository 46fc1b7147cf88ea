"""Per-layer spans recorded from outside the engine.

The benchmark never edits the engine: it times a layer by replacing a
public callable with a wrapper for the length of a traced phase and
putting the original back afterwards.  Where a caller imported a
function by name (``from repro.x import f``), the wrapper replaces the
name in the *caller's* module, because that is the name the call looks
up at run time.

Every wrapped call records one span ``(name, start, end, parent,
request id)`` in memory.  A span's self time is its duration minus the
durations of the spans it directly contains.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

# (span name, module path, attribute path) — the attribute is looked up
# inside the module; "Class.method" patches the class.
WRAPPED = (
    ("parse_xquery", "repro.engine.database", "parse_xquery"),
    ("backward_translate", "repro.engine.database", "backward_translate"),
    ("rewrite_plan", "repro.engine.database", "rewrite_plan"),
    ("planner.choose", "repro.physical.planner", "PhysicalPlanner.choose"),
    ("planner.match", "repro.physical.planner", "PhysicalPlanner.match"),
    ("planner.match_bindings", "repro.physical.planner",
     "PhysicalPlanner.match_bindings"),
    ("run_tau", "repro.engine.executor", "PhysicalExecutionContext.run_tau"),
    ("run_plan", "repro.engine.database", "run_plan"),
    ("columnar_view", "repro.physical.base", "MatchRuntime.columnar_view"),
    ("residual_ok", "repro.physical.base", "MatchRuntime.residual_ok"),
    ("serialize", "repro.engine.database", "serialize"),
    ("db.query", "repro.engine.database", "Database.query"),
    ("db.insert", "repro.engine.database", "Database.insert"),
    ("db.delete", "repro.engine.database", "Database.delete"),
    ("materialise_tree", "repro.engine.database", "materialise_tree"),
    ("content.clone", "repro.storage.content", "ContentStore.clone"),
    ("succinct.clone", "repro.storage.succinct", "SuccinctDocument.clone"),
    ("succinct.insert_subtree", "repro.storage.succinct",
     "SuccinctDocument.insert_subtree"),
    ("succinct.delete_subtree", "repro.storage.succinct",
     "SuccinctDocument.delete_subtree"),
    ("interval.clone", "repro.storage.interval", "IntervalDocument.clone"),
    ("interval.insert_subtree", "repro.storage.interval",
     "IntervalDocument.insert_subtree"),
    ("interval.delete_subtree", "repro.storage.interval",
     "IntervalDocument.delete_subtree"),
    ("wal.append", "repro.durability.wal", "WriteAheadLog.append"),
    ("write_checkpoint", "repro.durability.manager", "write_checkpoint"),
    ("recover", "repro.durability.manager", "recover"),
    ("publisher.handle", "repro.replication.primary",
     "ReplicationPublisher.handle"),
    ("replica.poll_once", "repro.replication.replica", "Replica.poll_once"),
)


class SpanRecorder:
    """In-memory spans, nested per thread."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, rid)
        self.request_id = 0
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function):
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            index = len(recorder.spans)
            recorder.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                recorder.spans[index] = (name, started, ended, parent,
                                         recorder.request_id)

        return traced

    def install(self) -> None:
        import importlib

        for name, module_path, attribute in WRAPPED:
            owner = importlib.import_module(module_path)
            *classes, leaf = attribute.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no recorded parent."""
        return sum(span[2] - span[1] for span in self.spans
                   if span is not None and span[3] is None)

    def select(self, names, under=(), not_under=(),
               self_time: bool = True) -> tuple:
        """``(milliseconds, count)`` of spans named in ``names`` that
        have an ancestor named in ``under`` (when given) and none named
        in ``not_under``; self time unless ``self_time`` is false."""
        spans = self.spans
        children = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] is not None:
                children[span[3]] += span[2] - span[1]
        total, count = 0.0, 0
        for index, span in enumerate(spans):
            if span is None or span[0] not in names:
                continue
            ancestors = set()
            parent = span[3]
            while parent is not None:
                ancestors.add(spans[parent][0])
                parent = spans[parent][3]
            if under and not ancestors.intersection(under):
                continue
            if ancestors.intersection(not_under):
                continue
            duration = span[2] - span[1]
            total += duration - children[index] if self_time else duration
            count += 1
        return 1e3 * total, count


def stitched_self_ms(traces: list[dict]) -> tuple[dict, dict]:
    """Self time and call counts per span name over exported span trees
    (``Span.to_dict`` form, as the server frontend returns them)."""
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)

    def walk(node: dict) -> None:
        children = node.get("children") or []
        covered = sum(child.get("duration_seconds") or 0.0
                      for child in children)
        name = node.get("name")
        self_ms[name] += 1e3 * ((node.get("duration_seconds") or 0.0)
                                - covered)
        calls[name] += 1
        for child in children:
            walk(child)

    for trace in traces:
        walk(trace)
    return self_ms, calls


class GcMonitor:
    """Counts gen-2 collections and their pause time via
    ``gc.callbacks``."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0
        self._started = None

    def __call__(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.count += 1
            self._started = None

    def __enter__(self) -> "GcMonitor":
        import gc
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        import gc
        gc.callbacks.remove(self)
