"""Session pooling: the warm tier between one-shot batteries and `bfl serve`.

This module owns the piece of per-scenario session lifecycle that
used to live inline in :class:`~repro.service.batch.BatchAnalyzer` and
that the analysis server (:mod:`repro.service.server`) needs on its own
terms:

* :func:`build_session` — snapshot warm start with the degrade-to-cold
  protocol: a corrupt kernel snapshot is only an accelerator, so it is
  logged, reported as a structured warning, and the session is rebuilt
  from the tree.

:class:`BatchAnalyzer` delegates to it, so one-shot batteries and the
server share byte-identical behaviour by construction.

On top of those sits :class:`SessionPool`, the server's LRU tier of live
:class:`~repro.service.batch.AnalysisSession`s.  Pool keys are opaque
strings — the server uses ``<tree-fingerprint>`` for plain scenarios and
``<tree-fingerprint>:<overrides-digest>`` when a request carries its own
probability overrides (the kernel is overrides-independent, but a
session's PFL answers are not).  Entries carry the tree fingerprint
separately so an evicted session can be persisted into a
:class:`~repro.service.store.SnapshotStore` under its content address:
eviction demotes a scenario from the hot tier (live kernel) to the warm
tier (kernel snapshot on disk), from which the next request rewarms it
via ``load_snapshot`` instead of a cold rebuild.  A session whose kernel
is unchanged since it was loaded from, or last written to, its store
entry is dropped without a write: the warm tier already holds it.

Pinning makes the pool safe under concurrency: a battery pins every
session it evaluates against, and pinned entries are never evicted or
snapshotted — the pool runs over capacity instead, shedding the excess
as pins release.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..ft.tree import FaultTree
from ..errors import SnapshotIntegrityError
from .batch import AnalysisSession
from .options import AnalysisOptions

logger = logging.getLogger(__name__)

__all__ = [
    "SessionPool",
    "build_session",
    "overrides_digest",
]


def overrides_digest(overrides: Mapping[str, float]) -> str:
    """Short stable digest of a resolved override map (pool-key salt:
    sessions built under different PFL weights must not be conflated,
    even though their kernels are interchangeable)."""
    payload = json.dumps(
        {str(k): float(v) for k, v in overrides.items()}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_session(
    name: str,
    tree: FaultTree,
    options: Optional[AnalysisOptions] = None,
    *,
    probabilities: Optional[Mapping[str, float]] = None,
    snapshot: Optional[Mapping[str, Any]] = None,
    warnings: Optional[List[Dict[str, str]]] = None,
) -> Tuple[AnalysisSession, bool]:
    """Build one scenario session, warm-starting from ``snapshot``.

    ``options`` carries the kernel settings and ``probabilities`` the
    scenario's resolved overrides
    (:meth:`~repro.service.options.AnalysisOptions.overrides_for`).
    Returns ``(session, warm)`` where ``warm`` says whether the snapshot
    actually seeded the kernel.  A snapshot that fails its integrity
    check must not kill the battery: the snapshot is only an
    accelerator, so the failure is logged, appended to ``warnings`` as a
    structured row (the shape ``report.stats["warnings"]`` surfaces),
    and the session is rebuilt cold from the tree.
    """
    if snapshot is not None:
        try:
            return (
                AnalysisSession(
                    name, tree, options, probabilities, snapshot=snapshot
                ),
                True,
            )
        except SnapshotIntegrityError as exc:
            message = (
                f"scenario {name!r}: kernel snapshot failed its "
                f"integrity check ({exc}); rebuilding from the tree"
            )
            logger.warning("%s", message)
            if warnings is not None:
                warnings.append(
                    {
                        "scenario": name,
                        "kind": exc.kind,
                        "message": message,
                    }
                )
    return AnalysisSession(name, tree, options, probabilities), False


class _Entry:
    """One pooled session (mutable bookkeeping record)."""

    __slots__ = ("key", "fingerprint", "session", "pins")

    def __init__(
        self, key: str, fingerprint: Optional[str], session: AnalysisSession
    ) -> None:
        self.key = key
        self.fingerprint = fingerprint
        self.session = session
        self.pins = 0


class SessionPool:
    """Bounded LRU pool of live analysis sessions with spill-to-store.

    Args:
        capacity: Target number of live sessions.  Pinned entries never
            count against evictability, so the pool may temporarily run
            over capacity while batteries are in flight; the overflow is
            shed as pins release.
        store: Optional :class:`~repro.service.store.SnapshotStore`.
            When given, an evicted entry that knows its tree fingerprint
            is snapshotted into the store before it is dropped, so the
            scenario stays warm-startable — unless the store already
            holds that kernel unchanged.

    All methods are thread-safe; the pool is shared between the server's
    event loop and its worker threads.
    """

    def __init__(self, capacity: int = 8, store: Optional[Any] = None) -> None:
        if isinstance(capacity, bool) or not isinstance(capacity, int):
            raise TypeError(f"capacity must be an integer >= 1, got {capacity!r}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.store = store
        #: key -> entry, in LRU order (oldest first).
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._persisted = 0

    # ------------------------------------------------------------------
    # Acquire / release
    # ------------------------------------------------------------------

    def acquire(self, key: str) -> Optional[AnalysisSession]:
        """The pooled session for ``key``, pinned, or ``None`` on miss.

        Every successful acquire must be paired with a :meth:`release`
        — sessions stay evictable only while unpinned.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            entry.pins += 1
            self._touch(entry)
            self._hits += 1
            return entry.session

    def adopt(
        self,
        key: str,
        session: AnalysisSession,
        fingerprint: Optional[str] = None,
    ) -> AnalysisSession:
        """Insert a freshly built session under ``key``, pinned.

        When ``key`` is already pooled (two requests raced to build the
        same scenario), the existing entry wins — it is pinned and
        returned, and the caller's duplicate is discarded — so
        concurrent batteries always converge on one session per key.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _Entry(key, fingerprint, session)
                self._entries[key] = entry
            entry.pins += 1
            self._touch(entry)
            return entry.session

    def release(self, key: str) -> None:
        """Unpin one acquire/adopt of ``key``; sheds LRU overflow."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            if entry.pins > 0:
                entry.pins -= 1
            self._evict_overflow()

    def discard(self, key: str) -> Optional[AnalysisSession]:
        """Drop ``key`` from the pool without persisting (tests /
        explicit invalidation); returns the removed session, if any."""
        with self._lock:
            entry = self._entries.pop(key, None)
            return entry.session if entry is not None else None

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def persist_all(self) -> int:
        """Snapshot every fingerprinted entry into the store (drain
        path: the server calls this before exiting so the next process
        warm-starts everything).  Returns the number written; entries
        the store already holds unchanged are skipped (see
        :meth:`_persist`)."""
        with self._lock:
            count = 0
            for entry in self._entries.values():
                if self._persist(entry):
                    count += 1
            return count

    def _persist(self, entry: _Entry) -> bool:
        """Write ``entry``'s kernel into the store unless the store
        already holds it: a session whose kernel state is unchanged since
        it was loaded from, or last written to, its entry — and whose
        entry file still exists — is skipped.  Returns True on a write."""
        if self.store is None or entry.fingerprint is None:
            return False
        session = entry.session
        state = session.kernel_state()
        if state == session.stored_state and entry.fingerprint in self.store:
            return False
        try:
            self.store.put(entry.fingerprint, session.kernel_snapshot())
        except OSError as exc:
            logger.warning(
                "session pool: persisting %s failed: %s", entry.key, exc
            )
            return False
        session.stored_state = state
        self._persisted += 1
        return True

    # ------------------------------------------------------------------
    # LRU bookkeeping (callers hold self._lock)
    # ------------------------------------------------------------------

    def _touch(self, entry: _Entry) -> None:
        # dicts preserve insertion order; re-inserting moves to the end.
        self._entries.pop(entry.key, None)
        self._entries[entry.key] = entry

    def _evict_overflow(self) -> None:
        while len(self._entries) > self.capacity:
            victim = next(
                (e for e in self._entries.values() if e.pins == 0), None
            )
            if victim is None:
                # Everything is pinned: run over capacity until pins
                # release rather than evict a session mid-battery.
                return
            self._persist(victim)
            del self._entries[victim.key]
            self._evictions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> List[str]:
        """Pooled keys, LRU order (oldest first)."""
        with self._lock:
            return list(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Pool counters (plus per-entry pin state, LRU order)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "sessions": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "persisted": self._persisted,
                "entries": [
                    {
                        "key": entry.key,
                        "fingerprint": entry.fingerprint,
                        "pins": entry.pins,
                        "nodes": entry.session.checker.manager.node_count(),
                    }
                    for entry in self._entries.values()
                ],
            }
