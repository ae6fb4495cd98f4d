"""`bfl serve` cache-tier latency + sustained throughput (the server gate).

The server's business case is the three-tier session lifecycle:

* **cold** — no pooled session, no store entry: the request pays the
  full tree translation (Algorithm 1) before it can answer;
* **warm** — the LRU pool holds a live session: the request is pure
  evaluation against hot caches;
* **rewarm** — a *fresh server process* whose snapshot store was
  populated by the previous one (the drain path): the request
  ``load_snapshot``-adopts the stored kernel instead of rebuilding.

This benchmark measures all three through the real HTTP surface on a
translation-heavy random tree (the covid tree is too small to show the
gap), enforces that the three arms answer identically, and gates the
cold/rewarm ratio: a restarted server with a populated store must be at
least ``BENCH_MIN_WARM_SPEEDUP``x faster than a cold build (CI pins 10).
A sustained requests/sec figure over a mixed covid battery (warm pool,
keep-alive connection) turns the ROADMAP's "millions of users" into a
measured number.  Collector passes and their total pause (through
``gc.callbacks``) over the rewarm arm and the throughput run are recorded
as an informational figure, with no gate, and so are the rewarm arm's
median ``BDDManager.load_snapshot`` time and the number of handles each
rewarmed kernel holds interned after its battery (kernel-level figures
for the rewarm path, outside the HTTP round trip).

Env:
    BENCH_MIN_WARM_SPEEDUP   cold/rewarm floor (default 1; CI pins 10)
    BENCH_SERVER_EVENTS      random-tree size (default 60 basic events)
    BENCH_SERVER_RPS_REQS    requests in the throughput run (default 200)
    BENCH_REPEATS            latency repeats per warm arm (default 5)

Run directly for a self-checking report::

    PYTHONPATH=src python benchmarks/bench_server.py

Direct runs append a machine-readable record to
``benchmarks/results/BENCH_server.json`` keyed by ``BENCH_LABEL``.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import sys
import tempfile
import threading
import time

from bench_json import record_run

from repro.bdd import BDDManager
from repro.casestudy import build_covid_tree
from repro.ft.random_trees import RandomTreeConfig, random_tree
from repro.service import AnalysisServer, ServerConfig

UNIFORM = 0.01


class ServerHandle:
    """An in-process `bfl serve` instance on an ephemeral port."""

    def __init__(self, trees, store_path):
        self.server = AnalysisServer(
            trees,
            ServerConfig(port=0, store_path=store_path, pool_size=8),
        )
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.server.run,
            kwargs={
                "ready": lambda _s: ready.set(),
                "install_signal_handlers": False,
            },
            daemon=True,
        )
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("server did not come up")
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=120
        )

    def post(self, path, payload):
        self.connection.request(
            "POST",
            path,
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = self.connection.getresponse()
        data = json.loads(response.read())
        if response.status != 200:
            raise RuntimeError(
                f"{path} -> {response.status}: {data}"
            )
        return data

    def stop(self):
        self.connection.close()
        self.server.request_drain()
        self.thread.join(30)


class CollectorPauses:
    """Counts cyclic-collector passes and sums their pauses while
    installed (``with CollectorPauses() as pauses: ...``)."""

    def __init__(self):
        self.passes = 0
        self.pause_ms = 0.0
        self._started = None

    def _hook(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.passes += 1
            self.pause_ms += (time.perf_counter() - self._started) * 1000.0
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self._hook)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._hook)


class SnapshotLoads:
    """Times every ``BDDManager.load_snapshot`` while installed and
    keeps the manager of the latest one (``with SnapshotLoads() as
    loads: ...``); :meth:`handles` counts that kernel's live interned
    handles."""

    def __init__(self):
        self.load_us = []
        self.latest = None
        self._saved = BDDManager.__dict__["load_snapshot"]

    def _timed(self, cls, data):
        start = time.perf_counter()
        manager, roots = self._saved.__func__(cls, data)
        self.load_us.append((time.perf_counter() - start) * 1e6)
        self.latest = manager
        return manager, roots

    def handles(self):
        return sum(
            entry() is not None for entry in self.latest._refs.values()
        )

    def __enter__(self):
        BDDManager.load_snapshot = classmethod(self._timed)
        return self

    def __exit__(self, *exc):
        BDDManager.load_snapshot = self._saved
        self.latest = None


def median(values):
    return sorted(values)[len(values) // 2]


def normalised_rows(report):
    """Result rows with timings zeroed (agreement comparisons)."""
    return [
        {**row, "elapsed_ms": 0.0} for row in report["results"]
    ]


def main() -> int:
    floor = float(os.environ.get("BENCH_MIN_WARM_SPEEDUP", "1"))
    events = int(os.environ.get("BENCH_SERVER_EVENTS", "70"))
    rps_requests = int(os.environ.get("BENCH_SERVER_RPS_REQS", "200"))
    repeats = int(os.environ.get("BENCH_REPEATS", "5"))

    # Seed 5 at the default size yields a ~73k-node kernel: a cold
    # build in the hundreds of milliseconds against a ~15 ms binary
    # snapshot load, so the gated ratio has real headroom.
    config = RandomTreeConfig(
        n_basic_events=events, max_children=5, max_depth=8, p_share=0.3
    )
    big = random_tree(5, config)
    covid = build_covid_tree()
    trees = {"default": covid, "big": big}
    battery = {
        "queries": [
            {"id": "b1", "formula": f"exists {big.top}", "tree": "big"},
            {
                "id": "b2",
                "kind": "probability",
                "formula": big.top,
                "tree": "big",
            },
        ],
        "uniform": UNIFORM,
    }
    store_path = os.path.join(
        tempfile.mkdtemp(prefix="bfl-bench-server-"), "store"
    )

    print("bfl serve cache-tier benchmark")
    print(
        f"  big tree: {len(big.basic_events)} basic events, "
        f"{len(big.elements)} elements"
    )

    # --- cold: fresh server, empty store -----------------------------
    cold_server = ServerHandle(trees, store_path)
    start = time.perf_counter()
    cold_report = cold_server.post("/battery", battery)
    cold_ms = (time.perf_counter() - start) * 1000.0

    # --- warm: the same server again (live pool hit) -----------------
    warm_ms = []
    warm_report = None
    for _ in range(repeats):
        start = time.perf_counter()
        warm_report = cold_server.post("/battery", battery)
        warm_ms.append((time.perf_counter() - start) * 1000.0)
    warm_ms = sorted(warm_ms)[len(warm_ms) // 2]
    # Drain persists the pooled sessions into the store — exactly what
    # a SIGTERM'd production server does.
    cold_server.stop()

    # --- rewarm: a NEW server over the populated store ---------------
    rewarm_server = ServerHandle(trees, store_path)
    rewarm_ms = []
    rewarm_handles = []
    rewarm_report = None
    with CollectorPauses() as rewarm_gc, SnapshotLoads() as loads:
        for attempt in range(repeats):
            if attempt > 0:
                # Measure the store path every time: evict the pooled
                # session so the request has to re-load the snapshot.
                for key in rewarm_server.server.pool.keys():
                    rewarm_server.server.pool.discard(key)
            start = time.perf_counter()
            rewarm_report = rewarm_server.post("/battery", battery)
            rewarm_ms.append((time.perf_counter() - start) * 1000.0)
            rewarm_handles.append(loads.handles())
        load_us = median(loads.load_us)
    rewarm_ms = median(rewarm_ms)
    rewarm_handles = median(rewarm_handles)
    rewarms = rewarm_server.server._counters["rewarms"]

    # --- agreement: all three arms answer identically ----------------
    reference = normalised_rows(cold_report)
    agree = (
        normalised_rows(warm_report) == reference
        and normalised_rows(rewarm_report) == reference
        and all(row["ok"] for row in reference)
    )

    # --- sustained throughput on the warm pool (covid battery) -------
    mixed = {
        "queries": [
            {"id": "m1", "formula": "exists IWoS"},
            {"id": "m2", "kind": "mcs"},
            {"id": "m3", "kind": "probability", "formula": "IWoS"},
        ],
        "uniform": UNIFORM,
    }
    rewarm_server.post("/battery", mixed)  # build the covid session
    with CollectorPauses() as sustained_gc:
        start = time.perf_counter()
        for _ in range(rps_requests):
            rewarm_server.post("/battery", mixed)
        rps_elapsed = time.perf_counter() - start
    rps = rps_requests / rps_elapsed
    qps = rps * len(mixed["queries"])
    rewarm_server.stop()

    cold_over_warm = cold_ms / warm_ms if warm_ms > 0 else float("inf")
    cold_over_rewarm = (
        cold_ms / rewarm_ms if rewarm_ms > 0 else float("inf")
    )
    print(f"  cold request (build from tree):   {cold_ms:9.1f} ms")
    print(f"  warm request (live pool hit):     {warm_ms:9.1f} ms")
    print(f"  rewarm request (snapshot store):  {rewarm_ms:9.1f} ms")
    print(f"  cold / warm:   {cold_over_warm:6.1f}x")
    print(f"  cold / rewarm: {cold_over_rewarm:6.1f}x  (floor {floor:g}x)")
    print(f"  store rewarms observed: {rewarms}")
    print(
        f"  rewarm kernel: load_snapshot {load_us:.0f} us, "
        f"{rewarm_handles} handles interned (informational)"
    )
    print(
        f"  sustained: {rps:7.1f} requests/sec "
        f"({qps:.1f} queries/sec, {rps_requests} keep-alive requests)"
    )
    print(
        f"  collector: rewarm {rewarm_gc.passes} passes "
        f"{rewarm_gc.pause_ms:.1f} ms, sustained {sustained_gc.passes} "
        f"passes {sustained_gc.pause_ms:.1f} ms (informational)"
    )
    print(f"  agreement across tiers: {'OK' if agree else 'MISMATCH'}")

    record_run(
        "server",
        {
            "events": events,
            "cold_ms": round(cold_ms, 2),
            "warm_ms": round(warm_ms, 2),
            "rewarm_ms": round(rewarm_ms, 2),
            "cold_over_warm": round(cold_over_warm, 2),
            "cold_over_rewarm": round(cold_over_rewarm, 2),
            "requests_per_sec": round(rps, 1),
            "queries_per_sec": round(qps, 1),
            "rps_requests": rps_requests,
            "gc_rewarm_passes": rewarm_gc.passes,
            "gc_rewarm_pause_ms": round(rewarm_gc.pause_ms, 2),
            "rewarm_load_snapshot_us": round(load_us, 1),
            "rewarm_handles": rewarm_handles,
            "gc_sustained_passes": sustained_gc.passes,
            "gc_sustained_pause_ms": round(sustained_gc.pause_ms, 2),
            "floor": floor,
            "agreement": agree,
            "gated": floor > 1,
        },
    )

    if not agree:
        print("FAIL: cache tiers disagree")
        return 1
    if rewarms < 1:
        print("FAIL: the rewarm arm never touched the snapshot store")
        return 1
    if cold_over_rewarm < floor:
        print(
            f"FAIL: cold/rewarm {cold_over_rewarm:.1f}x is under the "
            f"{floor:g}x floor"
        )
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
