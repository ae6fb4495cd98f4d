"""The interleaved reference burst that cancels machine drift.

A small shared VM changes speed on its own: on a 2-vCPU VM the same
corpus cycle took anywhere from 0.7 s to 1.35 s within one 90-s run.
The benchmark therefore runs this fixed CPU burst in the client process
between measured operations, while no request is in flight, and reports
every timing as

    raw * REF_NOMINAL / mean(burst before, burst after)

per operation, before any percentile or sum is taken.  A machine that
slows down slows the bursts around an operation with it, and the ratio
stays put.  Raw values and the burst median are kept in the run record
so the normalisation can be undone.

The burst is dict/list work of the kind the BDD kernel does, plus a
small numpy pass when numpy is importable.  It imports nothing from the
program under test, so no change to the program can move it.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Sequence

try:
    import numpy as _np
except ImportError:  # the program treats numpy as optional too
    _np = None

#: Nominal burst duration in seconds: normalised timings read as if the
#: neighbouring bursts had taken exactly this long.  About the raw burst
#: median on an unloaded 2-vCPU x86-64 VM.
REF_NOMINAL = 0.004

_CLK_TCK = os.sysconf("SC_CLK_TCK")

if _np is not None:
    _VECTOR = _np.arange(4096, dtype=_np.float64)


def burst() -> int:
    """One fixed unit of CPU work; returns a checksum so it is not idle.

    The loop interns tuple keys in a dict and appends to parallel lists,
    the access pattern of a BDD unique table, so the burst slows down
    under the same contention as the kernel does.
    """
    unique = {}
    level, low, high = [], [], []
    previous = 0
    for i in range(6000):
        key = (i % 31, previous, (i * 17) % 1000)
        node = unique.get(key)
        if node is None:
            node = len(level)
            level.append(key[0])
            low.append(key[1])
            high.append(key[2])
            unique[key] = node
        previous = node % 997
    total = len(level)
    if _np is not None:
        total += int((_VECTOR * 0.5 + 1.0).sum())
    return total


def factor(before: float, after: float) -> float:
    """Normalising factor for an operation between bursts that took
    ``before`` and ``after`` seconds."""
    return 2.0 * REF_NOMINAL / (before + after)


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``, in seconds."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        data = handle.read()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = data[data.rindex(b")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class Reference:
    """Runs bursts, keeps their durations and the servers' CPU meanwhile.

    A timed operation is normalised by the mean of the burst just before
    and the burst just after it (:meth:`local`), so a machine that changes
    speed within a run is corrected where the operation ran rather than by
    a run-wide median.

    Args:
        server_pids: The serving children, whose CPU time is read around
            each burst (none in-process, where there is no server).
    """

    def __init__(self, server_pids: Sequence[int] = ()) -> None:
        self.server_pids = tuple(server_pids)
        self.durations: List[float] = []
        self.server_cpu = 0.0

    def _servers_cpu(self) -> float:
        return sum(process_cpu_seconds(pid) for pid in self.server_pids)

    def run(self) -> int:
        """One burst, timed, while the servers are idle; returns its index."""
        before = self._servers_cpu()
        start = time.perf_counter()
        burst()
        self.durations.append(time.perf_counter() - start)
        self.server_cpu += self._servers_cpu() - before
        return len(self.durations) - 1

    def run_median(self, count: int) -> float:
        """``count`` bursts in a row; returns their median duration."""
        first = len(self.durations)
        for _ in range(count):
            self.run()
        return statistics.median(self.durations[first:])

    def local(self, index: int) -> float:
        """Factor normalising an operation that ran between bursts
        ``index`` and ``index + 1``."""
        durations = self.durations
        return factor(durations[index], durations[index + 1])

    def median(self) -> float:
        return statistics.median(self.durations)

    def server_cpu_share(self) -> float:
        """Server CPU seconds per burst second (0 when idle, as it must be)."""
        total = sum(self.durations)
        return self.server_cpu / total if total else 0.0
