"""Content-addressed on-disk snapshot store (the warm cache tier).

A :class:`SnapshotStore` is a directory of kernel snapshots keyed by
kernel key (:func:`repro.service.batch.kernel_key`, a sha256 over the
tree's Galileo fingerprint and the variable order the kernel was built
in): one file per distinct tree, named ``<key>.snap``.  Content
addressing makes the store self-validating — an entry can only ever
warm-start a scenario whose tree and order hash to the same key, so
renamed scenarios, edited trees and multi-tenant servers all share one
cache directory safely.  Entries named by the bare tree fingerprint
(declaration-order kernels, written before the order was part of the
key) match no key and are simply never read.  Both
``bfl serve --store`` and ``bfl batch --store`` read and write it.

Each entry is the kernel snapshot from
:meth:`~repro.bdd.manager.BDDManager.save_snapshot` in the kernel's one
file encoding (:func:`~repro.bdd.manager.encode_snapshot`): a JSON
header line, which also carries the ``tree`` (kernel key), followed by
the raw int64 columns that load via buffer adoption.  The snapshot's
sha256 content checksum covers the columns, so on-disk bit rot is
caught at load time (:class:`~repro.errors.SnapshotIntegrityError`) and
the caller degrades to a cold build.

The store is deliberately dumb: ``get``/``put``/``delete`` plus stats.
Which entries exist when, and what happens on corruption, is decided by
the session pool (:mod:`repro.service.pool`) and the batch analyzer's
existing degrade-to-cold machinery.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..bdd.manager import decode_snapshot, encode_snapshot
from ..errors import SnapshotError

__all__ = ["SnapshotStore"]


#: Truthy for a plausible sha256 hex digest (the only keys we accept —
#: they double as file names, so anything else would be a path-traversal
#: hazard).
_is_fingerprint = re.compile(r"[0-9a-f]{64}").fullmatch


class SnapshotStore:
    """Directory of kernel snapshots keyed by kernel key (tree + order).

    Args:
        path: Store directory (created on first use).

    Entries are written atomically (tmp file + ``os.replace``), so a
    crashed or drained server never leaves a truncated entry behind.
    A *malformed* entry file (bad framing, or a header ``tree`` that is
    not the file's fingerprint) is treated as a cache miss — :meth:`get`
    returns ``None`` and counts it under ``stats()["malformed"]`` — while
    an entry whose *payload* is corrupt (checksum mismatch) is surfaced
    later, by the kernel's own integrity check, when the caller tries to
    load it.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._malformed = 0

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------

    def entry_path(self, fingerprint: str) -> Path:
        """The file that holds (or would hold) ``fingerprint``'s entry."""
        if not _is_fingerprint(fingerprint):
            raise SnapshotError(
                f"not a kernel key: {fingerprint!r} (expected a "
                "sha256 hex digest)"
            )
        return self.path / f"{fingerprint}.snap"

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored entry for ``fingerprint``, in the exact shape
        :class:`~repro.service.batch.BatchAnalyzer` accepts as a
        ``snapshots=`` value (``{"tree": fingerprint, "kernel": ...}``),
        or ``None`` when absent or unreadable."""
        entry_path = self.entry_path(fingerprint)
        try:
            kernel = decode_snapshot(entry_path.read_bytes())
        except FileNotFoundError:
            self._misses += 1
            return None
        except (OSError, SnapshotError):
            self._malformed += 1
            return None
        if kernel.pop("tree", None) != fingerprint:
            self._malformed += 1
            return None
        self._hits += 1
        return {"tree": fingerprint, "kernel": kernel}

    def put(self, fingerprint: str, kernel: Dict[str, Any]) -> Path:
        """Persist a kernel snapshot under ``fingerprint`` (atomic)."""
        entry_path = self.entry_path(fingerprint)
        self.path.mkdir(parents=True, exist_ok=True)
        data = encode_snapshot(kernel, tree=fingerprint)
        tmp_path = f"{entry_path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, entry_path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._puts += 1
        return entry_path

    def delete(self, fingerprint: str) -> bool:
        """Drop the entry for ``fingerprint``; True when one existed."""
        try:
            os.unlink(self.entry_path(fingerprint))
            return True
        except FileNotFoundError:
            return False

    def __contains__(self, fingerprint: str) -> bool:
        try:
            return self.entry_path(fingerprint).is_file()
        except SnapshotError:
            return False

    def fingerprints(self) -> List[str]:
        """Fingerprints with an entry file, sorted."""
        if not self.path.is_dir():
            return []
        return sorted(
            entry.stem
            for entry in self.path.glob("*.snap")
            if _is_fingerprint(entry.stem)
        )

    def stats(self) -> Dict[str, Any]:
        """Counters + current directory footprint."""
        entries = self.fingerprints()
        total_bytes = 0
        for fingerprint in entries:
            try:
                total_bytes += self.entry_path(fingerprint).stat().st_size
            except OSError:
                pass
        return {
            "path": str(self.path),
            "entries": len(entries),
            "bytes": total_bytes,
            "hits": self._hits,
            "misses": self._misses,
            "puts": self._puts,
            "malformed": self._malformed,
        }
