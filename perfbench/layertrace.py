"""Spans around the program's public layer functions, recorded from outside.

:func:`install` wraps each function of :data:`TARGETS` at every import
site: a module-level function is replaced in every loaded ``repro``
module that holds it, a method is replaced on its class.  Each call
records one span ``(name, parent, start, end)`` in memory; ``parent`` is
the index of the enclosing span on the same thread (``-1`` at top
level).  Times are ``time.perf_counter`` readings, which are
CLOCK_MONOTONIC on Linux and so comparable between the client and the
server process.  Nothing is written until :meth:`Tracer.dump`.

The program's own code is not changed: the wrappers are installed by the
benchmark process (cold-batch) or by ``serve_launcher.py`` before it
hands over to ``repro.cli.main`` (serve workloads).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, List, Tuple

#: (module, attribute, span name).  ``Class.method`` attributes patch the
#: class; plain attributes patch the function at every import site.  The
#: span name's first dotted part is the layer its self time is charged to.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.ft.galileo", "loads", "ft.loads"),
    ("repro.service.queries", "specs_from_any", "queries.specs"),
    ("repro.service.queries", "BatchReport.to_dict", "batch.report"),
    ("repro.service.queries", "BatchReport.to_json", "batch.report"),
    ("repro.service.batch", "tree_fingerprint", "batch.fingerprint"),
    ("repro.service.batch", "BatchAnalyzer.__init__", "batch.init"),
    ("repro.service.batch", "BatchAnalyzer.run", "batch.run"),
    ("repro.service.batch", "BatchAnalyzer.adopt_session", "batch.adopt"),
    ("repro.service.batch", "AnalysisSession.parse", "logic.parse"),
    ("repro.service.batch", "AnalysisSession.prewarm", "translate.prewarm"),
    ("repro.engine.kinds", "execute_kind", "engine.execute"),
    ("repro.prob.queries", "ProbabilityChecker.evaluate", "prob.evaluate"),
    ("repro.bdd.manager", "BDDManager.__init__", "bdd.manager_init"),
    ("repro.bdd.manager", "BDDManager.cache_stats", "batch.stats"),
    ("repro.bdd.manager", "BDDManager.checkpoint", "bdd.checkpoint"),
    ("repro.bdd.manager", "BDDManager.collect", "bdd.collect"),
    ("repro.bdd.manager", "BDDManager.load_snapshot", "bdd.load_snapshot"),
    ("repro.bdd.manager", "BDDManager.save_snapshot", "bdd.save_snapshot"),
    ("repro.service.pool", "SessionPool.acquire", "pool.acquire"),
    ("repro.service.pool", "SessionPool.adopt", "pool.adopt"),
    ("repro.service.pool", "SessionPool.release", "pool.release"),
    ("repro.service.store", "SnapshotStore.get", "store.get"),
    ("repro.service.store", "SnapshotStore.put", "store.put"),
)

#: Modules that import a target by name; loaded before patching so every
#: import site is found.
IMPORT_SITES = (
    "repro",
    "repro.cli",
    "repro.service",
    "repro.service.server",
    "repro.service.parallel",
    "repro.checker.engine",
    "repro.ft",
    "repro.ft.edits",
)


class Tracer:
    """In-memory span recorder, safe to call from several threads."""

    def __init__(self) -> None:
        self.spans: List[Any] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        local = self._local
        lock = self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            with lock:
                spans.append(None)
                index = len(spans) - 1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end)

        return traced

    def dump(self, path: str) -> None:
        """Write the spans as one JSON list (``null`` for unfinished ones,
        so parent indices stay valid)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target at every import site; returns the function that
    puts the originals back."""
    for module_name in IMPORT_SITES:
        importlib.import_module(module_name)
    undo: List[Tuple[Any, str, Any]] = []
    for module_name, attribute, span_name in TARGETS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span_name, raw.__func__))
            else:
                wrapped = tracer.wrap(span_name, raw)
            undo.append((owner, method, raw))
            setattr(owner, method, wrapped)
            continue
        original = getattr(module, attribute)
        wrapped = tracer.wrap(span_name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    undo.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def uninstall() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_times(spans: List[Any]) -> List[float]:
    """Each span's duration minus the part its child spans cover
    (0 for unfinished spans)."""
    own = [0.0 if s is None else s[3] - s[2] for s in spans]
    for span in spans:
        if span is not None and span[1] >= 0:
            own[span[1]] -= span[3] - span[2]
    return own
