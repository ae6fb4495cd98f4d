"""Robustness arms: governor overhead and chaos recovery.

Two gated arms over the COVID-19 case-study battery:

* **overhead** — the same sequential battery with and without an armed
  (never-tripping) :class:`repro.runtime.limits.Governor` (battery
  deadline + per-query timeout).  The governed arm must stay within
  ``BENCH_MAX_GOVERNOR_OVERHEAD`` (CI pins 0.05 = 5%) of the
  ungoverned arm, best-of-``BENCH_REPEATS`` samples each (a sample
  repeats the battery for at least ``MIN_SAMPLE_S``), so deadline
  support is effectively free for every battery that never trips it.
* **chaos** — the acceptance scenario for the fault-tolerance layer: a
  4-shard parallel battery where one worker is killed mid-shard (must
  be recovered by a retried shard), the warm-start snapshot is
  corrupted (must degrade to a cold build behind a structured
  warning), and one query's budget is tripped (must surface as a
  structured ``error_kind="resource-limit"`` row).  Every non-injected
  query must agree with a fault-free sequential run exactly, every
  shard must recover (100% recovery from a single injected crash), and
  every parent-side kernel must pass ``check_invariants``.

``BENCH_ROBUSTNESS_ARM`` selects ``overhead``, ``chaos`` or ``all``
(default).  Run directly for a self-checking report::

    PYTHONPATH=src python benchmarks/bench_robustness.py

Direct runs append a machine-readable record to
``benchmarks/results/BENCH_robustness.json`` keyed by ``BENCH_LABEL``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import tempfile
import time

from bench_json import record_run

from repro.casestudy import build_covid_tree
from repro.ft import RandomTreeConfig, dual_tree, random_tree
from repro.service import BatchAnalyzer
from repro.testing.chaos import corrupt_snapshot

UNIFORM = 0.03
#: Shortest timed sample of the overhead arm, in seconds.
MIN_SAMPLE_S = 4.0
#: Same curated families as bench_parallel: cost-balanced seeds so the
#: chaos shards are comparable and the overhead sample is long enough
#: (hundreds of ms) for a 5% floor to sit above timer noise.
SHARED_CONFIG = RandomTreeConfig(
    n_basic_events=20, max_children=4, p_share=0.25
)
FLAT_CONFIG = RandomTreeConfig(
    n_basic_events=40, max_children=3, p_share=0.0, max_depth=8
)


def scenarios() -> dict:
    """covid + dual + one seeded tree from each random family."""
    trees = {"covid": build_covid_tree()}
    trees["covid-dual"] = dual_tree(trees["covid"])
    trees["shared120"] = random_tree(120, SHARED_CONFIG)
    trees["flat201"] = random_tree(201, FLAT_CONFIG)
    return trees


def battery(trees: dict) -> list:
    """Mixed qualitative + PFL battery over every scenario (~27/tree)."""
    queries = []
    for name, tree in trees.items():
        events = list(tree.basic_events)
        top = tree.top
        queries.append({"id": f"{name}-mcs", "kind": "mcs", "tree": name})
        queries.append({"id": f"{name}-mps", "kind": "mps", "tree": name})
        queries.append(
            {
                "id": f"{name}-sat",
                "formula": f"[[ MCS({top}) & {events[0]} ]]",
                "tree": name,
            }
        )
        for i, event in enumerate(events[:6]):
            queries.append(
                {
                    "id": f"{name}-x{i}",
                    "formula": f"exists (MCS({top}) & {event})",
                    "tree": name,
                }
            )
            queries.append(
                {
                    "id": f"{name}-f{i}",
                    "formula": f"forall (MCS({top}) => {event})",
                    "tree": name,
                }
            )
            queries.append(
                {
                    "id": f"{name}-p{i}",
                    "formula": f"P({top} | {event}) >= 0.5",
                    "tree": name,
                }
            )
            queries.append(
                {
                    "id": f"{name}-s{i}",
                    "formula": f"P({top})[{event} := 0.5] >= 0.5",
                    "tree": name,
                }
            )
    return queries


def _stripped(report) -> list:
    """Per-query dicts minus the timing field (the agreement view)."""
    rows = []
    for result in report.results:
        data = result.to_dict()
        data.pop("elapsed_ms", None)
        rows.append(data)
    return rows


def _run_battery(trees, queries, **kwargs) -> float:
    """One cold run; returns wall seconds (asserts the battery is ok)."""
    analyzer = BatchAnalyzer(trees, uniform=UNIFORM, **kwargs)
    # The previous run's kernels are cyclic garbage; collecting them
    # here keeps a full collection from landing inside a timed run.
    gc.collect()
    start = time.perf_counter()
    report = analyzer.run(queries)
    elapsed = time.perf_counter() - start
    assert report.ok, "battery errored: " + str(
        [r.error for r in report.results if not r.ok][:3]
    )
    return elapsed


def overhead_arm(trees, queries) -> dict:
    """Best-of-N governed vs ungoverned sequential battery.

    One battery takes tens of milliseconds, and on a shared VM the speed
    of identical back-to-back batteries drifts by up to 2x in spells of
    a few hundred milliseconds.  So a sample of either arm is a fixed
    number of batteries, chosen so that it lasts at least
    ``MIN_SAMPLE_S``, and the two arms' samples are interleaved battery
    by battery (first arm alternating) so a slow spell hits both alike.
    """
    repeats = int(os.environ.get("BENCH_REPEATS", "5"))
    max_overhead = float(
        os.environ.get("BENCH_MAX_GOVERNOR_OVERHEAD", "0.05")
    )
    arms = {
        "plain": {},
        # Roomy enough to never trip: the arm measures pure bookkeeping.
        "governed": {"deadline_ms": 3_600_000.0, "query_timeout_ms": 600_000.0},
    }
    # The calibration run doubles as warm-up (imports, allocator).
    runs = max(1, math.ceil(MIN_SAMPLE_S / _run_battery(trees, queries)))
    best = dict.fromkeys(arms, float("inf"))
    for _ in range(repeats):
        sample = dict.fromkeys(arms, 0.0)
        for run in range(runs):
            for arm in sorted(arms, reverse=bool(run % 2)):
                sample[arm] += _run_battery(trees, queries, **arms[arm])
        for arm in arms:
            best[arm] = min(best[arm], sample[arm])
    plain_s, governed_s = best["plain"], best["governed"]
    overhead = governed_s / plain_s - 1.0
    print(f"batteries per sample:         {runs:8d}")
    print(f"ungoverned (best of {repeats}): {plain_s * 1000:8.1f} ms")
    print(f"governed   (best of {repeats}): {governed_s * 1000:8.1f} ms")
    print(
        f"governor overhead:            {overhead * 100:8.2f}% "
        f"(floor {max_overhead * 100:g}%)"
    )
    assert overhead <= max_overhead, (
        f"armed governor costs {overhead * 100:.2f}% on the covid "
        f"battery — above the {max_overhead * 100:g}% ceiling"
    )
    return {
        "repeats": repeats,
        "batteries_per_sample": runs,
        "ungoverned_ms": round(plain_s * 1000.0, 3),
        "governed_ms": round(governed_s * 1000.0, 3),
        "overhead": round(overhead, 4),
        "max_overhead": max_overhead,
    }


def chaos_arm(trees, queries) -> dict:
    """Kill + corrupt + budget-trip a 4-shard battery; verify recovery."""
    workers = int(os.environ.get("BENCH_CHAOS_WORKERS", "4"))
    kill_id = queries[0]["id"]
    trip_id = queries[-1]["id"]

    baseline = BatchAnalyzer(trees, uniform=UNIFORM).run(queries)
    assert baseline.ok, "fault-free sequential arm errored"

    source = BatchAnalyzer(trees, uniform=UNIFORM)
    source.prewarm_trees()
    snapshots = {
        name: corrupt_snapshot(entry, seed=13)
        for name, entry in source.kernel_snapshots().items()
    }

    marker = tempfile.mktemp(prefix="bench-chaos-kill-")
    os.environ["REPRO_CHAOS"] = json.dumps(
        {
            "kill_queries": [kill_id],
            "kill_marker": marker,
            "budget_trip_queries": [trip_id],
            "trip_step_budget": 1,
        }
    )
    start = time.perf_counter()
    try:
        analyzer = BatchAnalyzer(
            trees,
            uniform=UNIFORM,
            workers=workers,
            snapshots=snapshots,
            shard_retries=2,
            retry_backoff_ms=25.0,
        )
        report = analyzer.run(queries)
    finally:
        del os.environ["REPRO_CHAOS"]
        killed = os.path.exists(marker)
        if killed:
            os.remove(marker)
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    assert killed, "the injected worker kill never fired"
    shard_rows = report.stats["parallel"]["shards"]
    retried = [row for row in shard_rows if row.get("retried")]
    assert retried, "no shard was retried after the injected crash"
    assert all(row.get("error") is None for row in shard_rows), (
        "a shard failed permanently — retry did not recover: "
        + str([row for row in shard_rows if row.get("error")])
    )
    warnings = report.stats.get("warnings", [])

    injected = 0
    for expected, actual in zip(baseline.results, report.results):
        if actual.id == trip_id:
            assert not actual.ok and actual.error_kind == "resource-limit", (
                f"budget trip on {trip_id!r} did not surface as a "
                f"structured resource-limit row: {actual!r}"
            )
            injected += 1
            continue
        left, right = expected.to_dict(), actual.to_dict()
        left.pop("elapsed_ms")
        right.pop("elapsed_ms")
        assert left == right, (
            f"non-injected query {actual.id!r} disagrees with the "
            "fault-free sequential run"
        )
    for name in analyzer.scenarios:
        analyzer.session(name).checker.manager.check_invariants()

    print(
        f"chaos battery ({workers} shards): {elapsed_ms:8.1f} ms — "
        f"{len(retried)}/{len(shard_rows)} shards retried, "
        f"{injected} injected failure(s) structurally reported, "
        f"{len(warnings)} snapshot warning(s)"
    )
    return {
        "workers": workers,
        "elapsed_ms": round(elapsed_ms, 3),
        "queries": len(queries),
        "shards_retried": len(retried),
        "injected_failures": injected,
        "snapshot_warnings": len(warnings),
        "recovered": True,
    }


def main() -> int:
    arm = os.environ.get("BENCH_ROBUSTNESS_ARM", "all")
    trees = scenarios()
    queries = battery(trees)
    print(
        f"battery: {len(queries)} queries over {len(trees)} scenarios "
        f"(arm={arm})"
    )

    payload: dict = {"arm": arm, "queries": len(queries)}
    if arm in ("overhead", "all"):
        payload["overhead"] = overhead_arm(trees, queries)
    if arm in ("chaos", "all"):
        payload["chaos"] = chaos_arm(trees, queries)
    if arm not in ("overhead", "chaos", "all"):
        raise SystemExit(
            f"unknown BENCH_ROBUSTNESS_ARM {arm!r} "
            "(expected overhead, chaos or all)"
        )

    path = record_run("robustness", payload)
    print(f"\nrecorded -> {path}")
    print("OK: robustness arm(s) within bounds.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
