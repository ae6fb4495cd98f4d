"""Deterministic fault injection for the execution runtime.

The chaos harness drives four failure modes through the production code
paths without any test-only branches in the hot loops:

* **Worker kills** — a worker process whose shard contains a listed
  query id calls ``os._exit(1)`` mid-shard, exactly once per marker
  file (so the retried shard succeeds on resubmission).
* **Snapshot corruption** — :func:`corrupt_snapshot` deterministically
  flips bytes in a saved kernel snapshot; ``BatchAnalyzer`` then
  detects the sha256 mismatch and degrades to a cold prewarm.
* **Delays** — a configurable sleep at shard start, for exercising the
  hung-worker watchdog.
* **Budget trips** — listed query ids get a one-step governor swapped
  in at evaluation time, forcing a structured ``resource-limit`` error.

Configuration crosses the process boundary (workers are separate
processes) via the ``REPRO_CHAOS`` environment variable holding a JSON
object:

.. code-block:: json

    {
        "kill_queries": ["q3"],
        "kill_marker": "/tmp/chaos-kill-q3",
        "delay_ms": 0,
        "budget_trip_queries": ["q5"],
        "trip_step_budget": 1
    }

Everything is deterministic: kills fire on the first worker that picks
up a listed query (the marker file's ``O_EXCL`` creation is the "only
once" latch), corruption is seeded, and budgets trip on the first tick.
Production modules only touch this module behind an
``os.environ.get("REPRO_CHAOS")`` check, so the disarmed cost is one
environment lookup.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..bdd.manager import decode_snapshot, encode_snapshot
from ..runtime.limits import Governor

__all__ = [
    "CHAOS_ENV",
    "chaos_config",
    "on_shard_start",
    "governor_for",
    "corrupt_snapshot",
    "corrupt_store_entry",
]

#: Environment variable carrying the JSON chaos configuration.
CHAOS_ENV = "REPRO_CHAOS"


def chaos_config() -> Optional[Dict[str, Any]]:
    """Parse :data:`CHAOS_ENV`; ``None`` when unset or unparseable.

    A malformed value is treated as "chaos disabled" rather than an
    error: the harness must never be able to crash production code.
    """
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return None
    try:
        config = json.loads(raw)
    except ValueError:
        return None
    return config if isinstance(config, dict) else None


def _listed(config: Mapping[str, Any], key: str) -> List[str]:
    value = config.get(key)
    if not isinstance(value, (list, tuple)):
        return []
    return [str(item) for item in value]


def on_shard_start(query_ids: Sequence[str]) -> None:
    """Worker-side hook: maybe delay, maybe die.

    Called by ``_worker_run`` before a shard evaluates.  A kill only
    fires while the marker file does not exist; the ``O_EXCL`` create
    makes "first worker to reach a listed query" a race-free latch, so
    the resubmitted shard runs to completion.
    """
    config = chaos_config()
    if config is None:
        return
    delay_ms = config.get("delay_ms")
    if isinstance(delay_ms, (int, float)) and delay_ms > 0:
        time.sleep(delay_ms / 1000.0)
    kill_queries = set(_listed(config, "kill_queries"))
    if kill_queries and kill_queries.intersection(query_ids):
        marker = config.get("kill_marker")
        if isinstance(marker, str) and marker:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                return  # already killed once; let the retry succeed
            os.close(fd)
        # A real crash, not an exception: the parent sees the broken
        # pool exactly as it would for a segfaulted worker.
        os._exit(1)


def governor_for(query_id: str) -> Optional[Governor]:
    """Return a budget-tripping governor for *query_id*, if listed.

    The batch evaluator calls this (behind the env check) after
    installing the query's real governor; a non-``None`` return replaces
    it, so the query aborts with a structured ``resource-limit`` error
    at its first governed safe point.
    """
    config = chaos_config()
    if config is None:
        return None
    if query_id not in _listed(config, "budget_trip_queries"):
        return None
    budget = config.get("trip_step_budget", 1)
    if not isinstance(budget, int) or budget < 1:
        budget = 1
    governor = Governor(
        step_budget=budget, label=f"chaos budget trip [{query_id}]"
    ).start()
    # Pre-burn the whole budget so the *first* governed safe point the
    # query reaches raises — deterministic even for queries whose
    # evaluation is served from caches and never allocates a node.
    for _ in range(budget):
        governor.tick()
    return governor


def corrupt_snapshot(
    snapshot: Mapping[str, Any], seed: int = 0, flips: int = 8
) -> Dict[str, Any]:
    """Return a copy of *snapshot* with deterministically flipped bytes.

    Targets the first non-empty ``bytes`` value — a node column, the
    only raw bytes a snapshot holds — leaving the stored ``sha256``
    untouched: exactly the shape of on-disk bit rot the integrity check
    exists to catch.  Flips are drawn from
    ``random.Random(seed)`` so a failing chaos run reproduces
    byte-for-byte.  Service-level entries
    (``BatchAnalyzer.kernel_snapshots``) nest the kernel payload under a
    ``"kernel"`` key; that wrapper is handled transparently.
    """
    if "kernel" in snapshot and isinstance(snapshot["kernel"], Mapping):
        wrapper = dict(snapshot)
        wrapper["kernel"] = corrupt_snapshot(
            wrapper["kernel"], seed=seed, flips=flips
        )
        return wrapper
    corrupted: Dict[str, Any] = dict(snapshot)
    rng = random.Random(seed)
    for key, column in snapshot.items():
        if isinstance(column, (bytes, bytearray)) and len(column) > 0:
            mutable = bytearray(column)
            for _ in range(max(1, flips)):
                position = rng.randrange(len(mutable))
                mutable[position] ^= 1 + rng.randrange(255)
            corrupted[key] = bytes(mutable)
            return corrupted
    raise ValueError("snapshot has no column payload to corrupt")


def corrupt_store_entry(
    store: Any, fingerprint: str, seed: int = 0, flips: int = 8
) -> None:
    """Bit-rot one :class:`~repro.service.store.SnapshotStore` entry
    in place.

    The rewritten file keeps valid framing and header — only the
    kernel's column bytes are flipped (via :func:`corrupt_snapshot`) —
    so the corruption is *not* caught by the store's shape checks and
    must instead surface as the kernel's sha256 integrity failure when a
    server (or analyzer) tries to warm-start from it.  That is the
    production path this hook exists to exercise: a long-lived daemon
    whose warm tier rotted underneath it has to degrade to a cold build
    and keep answering.
    """
    entry_path = store.entry_path(fingerprint)
    entry = decode_snapshot(entry_path.read_bytes())
    entry_path.write_bytes(
        encode_snapshot(corrupt_snapshot(entry, seed=seed, flips=flips))
    )
