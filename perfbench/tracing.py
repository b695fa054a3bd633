"""Spans recorded from outside the engine, around its layers' entry points.

:class:`SpanRecorder` patches a fixed list of public functions and methods
(one per layer boundary) with timing wrappers while it is installed, and
restores them afterwards; a traced run installs it for its traced
stretches only.  Nothing under ``src/`` is changed.  A span is
``(id, parent id, statement id, name, start, end)``.  The parent is the
innermost open span on the same thread, and the statement id is set by
the client loop before each call.  Spans stay in memory and are written
out as JSONL at the end of the run.

Storage scans return lazy iterators, so ``storage.scan`` gets one span
per batch pulled from the iterator; its parent is whatever span is open
while the executor pulls.  A span's self time is its duration minus the
durations of its direct children.  Children never overlap their parent
or each other, because each thread's spans nest strictly.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

import repro.engine
from repro.cache.manager import CacheManager
from repro.durability.manager import DurabilityManager
from repro.engine import Database
from repro.executor.executor import MppExecutor
from repro.optimizer.orca import OrcaOptimizer
from repro.serving.server import QueryServer
from repro.sql.binder import Binder
from repro.storage.partitioned import StorageManager
from repro.storage.table import TableStore

#: (owner, attribute, span name, the call returns an iterator to time)
ENTRY_POINTS = (
    (QueryServer, "submit", "serving.submit", False),
    (Database, "sql", "engine.sql", False),
    (CacheManager, "lookup_result", "cache.lookup", False),
    (repro.engine, "parse", "sql.parse", False),
    (Binder, "bind", "sql.bind", False),
    (Binder, "bind_select", "sql.bind", False),
    (Binder, "bind_insert_rows", "sql.bind", False),
    (OrcaOptimizer, "optimize", "optimizer.optimize", False),
    # Orca places PartitionSelectors while extracting the winning plan
    # from the Memo; this is where the engine's own
    # ``place_partition_selectors`` span sits.
    (OrcaOptimizer, "_extract", "optimizer.place_selectors", False),
    (MppExecutor, "execute", "executor.execute", False),
    (StorageManager, "scan_table_batches", "storage.scan", True),
    (TableStore, "insert_many", "storage.insert", False),
    (DurabilityManager, "commit", "durability.commit", False),
    (DurabilityManager, "checkpoint", "durability.checkpoint", False),
)

#: the layer of a span is the part of its name before the dot
LAYERS = ("serving", "engine", "cache", "sql", "optimizer", "executor",
          "storage", "durability")


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []
        #: statement id -> plan node count of the statement's optimized plan
        self.plan_nodes: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- client side ---------------------------------------------------------

    def statement(self, stmt_id: int) -> None:
        """Tag every span this thread opens from now on with ``stmt_id``."""
        self._local.stmt = stmt_id

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stmt = None
        return local

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        recorder = self

        def wrapper(*args, **kwargs):
            local = recorder._state()
            stack = local.stack
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, parent, local.stmt, name, start, end)
                )
            if name == "optimizer.optimize" and local.stmt is not None:
                recorder.plan_nodes[local.stmt] = result.node_count()
            return result

        return wrapper

    def _timed_iter(self, name: str, fn):
        recorder = self

        def pull(iterator):
            local = recorder._state()
            while True:
                stack = local.stack
                parent = stack[-1] if stack else None
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    recorder.spans.append(
                        (next(recorder._ids), parent, local.stmt, name, start, end)
                    )
                yield item

        def wrapper(*args, **kwargs):
            return pull(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        for owner, attr, name, lazy in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrap = self._timed_iter if lazy else self._timed
            setattr(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def per_statement(self):
        """statement id -> (self seconds by span name, inclusive seconds by
        span name).  Inclusive time counts only the outermost span of a
        name, so recursive calls are not counted twice."""
        by_id = {span[0]: span for span in self.spans}
        children = defaultdict(float)
        for span_id, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        own = defaultdict(lambda: defaultdict(float))
        inclusive = defaultdict(lambda: defaultdict(float))
        for span_id, parent, stmt, name, start, end in self.spans:
            duration = end - start
            own[stmt][name] += duration - children[span_id]
            if parent is None or by_id[parent][3] != name:
                inclusive[stmt][name] += duration
        return own, inclusive

    def write_jsonl(self, path) -> None:
        fields = ("id", "parent", "statement", "name", "start", "end")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
