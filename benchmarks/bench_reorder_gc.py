"""In-place reordering vs rebuild sifting, and the GC batch soak.

Two claims from the PR-3 kernel are gated here:

1. **In-place sifting dominates rebuild sifting.**  The historical
   ``sift`` rebuilt the entire BDD for every candidate position of every
   variable (O(n²) reconstructions); the in-place sifter reaches every
   position with adjacent-level swaps that touch two levels only.  On
   the COVID-19 tree and the ordering-ablation random trees the final
   BDD must be *no larger* and the search ≥``BENCH_MIN_SIFT_SPEEDUP``
   times faster (CI pins 5x; measured ~20-100x).

2. **GC holds the working set flat.**  A 1000-query battery against one
   long-lived :class:`BatchAnalyzer` session accumulates dead
   intermediate BDDs (primed relations, quantifier witnesses).  With
   automatic collection armed, peak live nodes must stay below
   ``BENCH_MAX_PEAK_RATIO`` (default 2x) of the steady-state working
   set, and the collector must reclaim ≥``BENCH_MIN_RECLAIM`` (default
   90%) of all dead nodes produced.

Run directly for a self-checking report::

    PYTHONPATH=src python benchmarks/bench_reorder_gc.py

Direct runs append a machine-readable record to
``benchmarks/results/BENCH_reorder_gc.json`` keyed by ``BENCH_LABEL``.
"""

from __future__ import annotations

import itertools
import os
import time

from bench_json import record_run

from repro.bdd import BDDManager, sift_rebuild
from repro.casestudy import build_covid_tree
from repro.ft import RandomTreeConfig, random_tree, tree_to_bdd
from repro.service import BatchAnalyzer

#: Random-tree arms mirroring bench_ordering_ablation's generator.
RANDOM_TREE_SEEDS = (3, 5, 7, 11)
RANDOM_TREE_CONFIG = RandomTreeConfig(
    n_basic_events=14, max_children=4, p_share=0.3, max_depth=5
)
LARGE_TREE_CONFIG = RandomTreeConfig(
    n_basic_events=18, max_children=4, p_share=0.3, max_depth=5
)


def _builder_for(tree):
    def builder(order):
        manager = BDDManager(order)
        return manager, tree_to_bdd(tree, manager)

    return builder


def compare_sift(tree, label: str, rounds: int = 2) -> dict:
    """Rebuild sifting vs in-place sifting from the same start order."""
    builder = _builder_for(tree)
    order = list(tree.basic_events)

    start = time.perf_counter()
    _, rebuild_size = sift_rebuild(builder, order, max_rounds=rounds)
    rebuild_s = time.perf_counter() - start

    manager, root = builder(order)
    base_size = root.count_nodes()
    start = time.perf_counter()
    manager.sift_inplace(max_rounds=rounds)
    inplace_s = time.perf_counter() - start
    inplace_size = root.count_nodes()
    manager.check_invariants()

    return {
        "label": label,
        "variables": len(order),
        "base_size": base_size,
        "rebuild_size": rebuild_size,
        "inplace_size": inplace_size,
        "rebuild_ms": round(rebuild_s * 1000.0, 3),
        "inplace_ms": round(inplace_s * 1000.0, 3),
        "speedup": round(rebuild_s / inplace_s, 2) if inplace_s else float("inf"),
        "swaps": manager.cache_stats()["swaps"],
    }


def soak_battery(tree, count: int) -> list:
    """``count`` distinct layer-2 queries over shared MCS/MPS structure."""
    elements = list(tree.basic_events) + [
        "IWoS", "MoT", "SH", "CIW", "CP/R", "IS",
    ]
    human_errors = ["H1", "H2", "H3", "H4", "H5"]
    queries = []
    for a, b in itertools.product(elements, human_errors):
        queries.append(f"exists (MCS({a}) & {b})")
        queries.append(f"forall (MCS({a}) => {b})")
        queries.append(f"exists (MPS({a}) & !{b})")
        queries.append(f"exists ({a} & !{b})")
        queries.append(f"forall ((MCS({a}) & {b}) => MoT)")
        queries.append(f"exists (MPS({a}) & {b} & !UT)")
    for a, (b, c) in itertools.product(
        elements, itertools.combinations(human_errors, 2)
    ):
        queries.append(f"exists (MCS({a}) & {b} & !{c})")
        queries.append(f"forall ((MPS({a}) & {b}) => !{c})")
        queries.append(f"exists (MPS({a}) & {b} & {c})")
    if len(queries) < count:
        raise AssertionError(
            f"soak generator produced only {len(queries)} queries"
        )
    return queries[:count]


def run_soak(tree, queries, gc_on: bool) -> dict:
    """One long-lived BatchAnalyzer session over the whole battery."""
    analyzer = BatchAnalyzer(tree, auto_gc=gc_on, gc_trigger=256 if gc_on else None)
    manager = analyzer.session().checker.manager
    if gc_on:
        # 1.5x headroom after each collection keeps the peak comfortably
        # under the 2x-of-steady-state acceptance ceiling.
        manager.configure_memory(gc_growth=1.5)
    start = time.perf_counter()
    report = analyzer.run(queries)
    wall_s = time.perf_counter() - start
    stats = manager.cache_stats()
    result = {
        "gc": gc_on,
        "queries": len(queries),
        "errors": sum(1 for r in report.results if not r.ok),
        "wall_ms": round(wall_s * 1000.0, 3),
        "peak_live_nodes": stats["peak_live_nodes"],
        "live_nodes": stats["live_nodes"],
        "gc_runs": stats["gc_runs"],
        "reclaimed": stats["reclaimed"],
        "dead_at_end": manager.node_count() - manager.reachable_node_count(),
        "answers": [r.holds for r in report.results],
    }
    if gc_on:
        # Steady-state working set: what one final collection leaves —
        # the session's truly live BDDs (Algorithm 1 caches and all).
        final_reclaim = manager.collect()
        result["final_reclaim"] = final_reclaim
        result["steady_state"] = manager.node_count()
        # live_nodes must now equal the reachable count *exactly*.
        assert manager.node_count() == manager.reachable_node_count()
        manager.check_invariants()
        total_dead = stats["reclaimed"] + final_reclaim
        result["reclaim_ratio"] = (
            round(stats["reclaimed"] / total_dead, 4) if total_dead else 1.0
        )
        result["peak_ratio"] = round(
            stats["peak_live_nodes"] / result["steady_state"], 3
        )
    return result


# ----------------------------------------------------------------------
# pytest-benchmark entry points (same harness as the sibling files)
# ----------------------------------------------------------------------


def bench_sift_rebuild_covid(benchmark):
    tree = build_covid_tree()
    builder = _builder_for(tree)
    _, size = benchmark(
        sift_rebuild, builder, list(tree.basic_events), 1
    )
    assert size > 0


def bench_sift_inplace_covid(benchmark):
    tree = build_covid_tree()

    def run():
        manager, root = _builder_for(tree)(list(tree.basic_events))
        manager.sift_inplace(max_rounds=1)
        return root.count_nodes()

    size = benchmark(run)
    assert size > 0


# ----------------------------------------------------------------------
# Stand-alone gated report
# ----------------------------------------------------------------------


def main() -> int:
    min_speedup = float(os.environ.get("BENCH_MIN_SIFT_SPEEDUP", "1"))
    max_peak_ratio = float(os.environ.get("BENCH_MAX_PEAK_RATIO", "2"))
    min_reclaim = float(os.environ.get("BENCH_MIN_RECLAIM", "0.9"))
    soak_queries = int(os.environ.get("BENCH_SOAK_QUERIES", "1000"))

    covid = build_covid_tree()
    arms = [compare_sift(covid, "covid")]
    for seed in RANDOM_TREE_SEEDS:
        arms.append(
            compare_sift(
                random_tree(seed, RANDOM_TREE_CONFIG), f"random-{seed}"
            )
        )
    arms.append(
        compare_sift(random_tree(7, LARGE_TREE_CONFIG), "random-large")
    )

    print("in-place sifting vs rebuild sifting (same start order):")
    for arm in arms:
        print(
            f"  {arm['label']:>13}: {arm['base_size']:4d} -> "
            f"rebuild {arm['rebuild_size']:4d} in {arm['rebuild_ms']:8.1f} ms | "
            f"in-place {arm['inplace_size']:4d} in {arm['inplace_ms']:7.1f} ms "
            f"({arm['speedup']:6.1f}x, {arm['swaps']} swaps)"
        )
        assert arm["inplace_size"] <= arm["rebuild_size"], (
            f"{arm['label']}: in-place sifting ended with a larger BDD "
            f"({arm['inplace_size']} > {arm['rebuild_size']})"
        )

    total_rebuild = sum(a["rebuild_ms"] for a in arms)
    total_inplace = sum(a["inplace_ms"] for a in arms)
    overall = total_rebuild / total_inplace
    covid_speedup = arms[0]["speedup"]
    print(
        f"  overall: {total_rebuild:.1f} ms -> {total_inplace:.1f} ms "
        f"({overall:.1f}x; covid {covid_speedup:.1f}x)"
    )

    queries = soak_battery(covid, soak_queries)
    managed = run_soak(covid, queries, gc_on=True)
    unmanaged = run_soak(covid, queries, gc_on=False)
    assert managed["answers"] == unmanaged["answers"], (
        "GC must not change any query answer"
    )
    assert managed["errors"] == 0, f"{managed['errors']} soak queries errored"
    for arm_result in (managed, unmanaged):
        arm_result.pop("answers")

    print(f"\n{len(queries)}-query batch soak (one long-lived session):")
    print(
        f"  GC off: peak {unmanaged['peak_live_nodes']} live nodes "
        f"(never reclaims), {unmanaged['wall_ms']:.0f} ms"
    )
    print(
        f"  GC on:  peak {managed['peak_live_nodes']}, steady state "
        f"{managed['steady_state']}, peak/steady {managed['peak_ratio']}x, "
        f"{managed['gc_runs']} collections reclaiming {managed['reclaimed']} "
        f"nodes, {managed['wall_ms']:.0f} ms"
    )

    path = record_run(
        "reorder_gc",
        {
            "sift": arms,
            "sift_overall_speedup": round(overall, 2),
            "soak_gc_on": managed,
            "soak_gc_off": unmanaged,
        },
    )
    print(f"\nrecorded -> {path}")

    assert covid_speedup >= min_speedup, (
        f"in-place sifting speedup on the COVID tree {covid_speedup:.1f}x "
        f"regressed below the {min_speedup:g}x floor"
    )
    assert managed["peak_ratio"] <= max_peak_ratio, (
        f"soak peak live nodes reached {managed['peak_ratio']}x the steady "
        f"state (ceiling {max_peak_ratio}x)"
    )
    assert managed["reclaim_ratio"] >= min_reclaim, (
        f"GC reclaimed only {managed['reclaim_ratio']:.0%} of dead nodes "
        f"(floor {min_reclaim:.0%})"
    )
    print(
        f"OK: in-place sifting >= {min_speedup:g}x, soak peak <= "
        f"{max_peak_ratio:g}x steady state, reclaim >= {min_reclaim:.0%}."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
