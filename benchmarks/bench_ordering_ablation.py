"""Ablation A2 (DESIGN.md): variable-ordering heuristics vs BDD size.

The paper cites Bouissou's RAMS'96 heuristic for building FT BDDs
(Sec. V-A notes size can grow "at worst exponentially, depending on
variable's ordering").  This ablation builds the COVID-19 BDD — and a
larger random tree's BDD — under every heuristic and a random order, and
reports build time; node counts are printed alongside.

Run as a script, it is the record behind the default order
(``repro.bdd.ordering.DEFAULT_ORDER``, ``dfs``): per heuristic, the cold
build of the top event's BDD (``tree_to_bdd`` in a fresh manager: median
ms, the top BDD's node count and the kernel's) and a cold battery (a
fresh ``ModelChecker`` in that order answering ``exists TOP``, the top's
MCSs on paper-scale trees and ``P(TOP)``: median ms and quartiles), on
COVID, perfbench's two- and three-ward templates and its two-bank
template (seed 1), and the ``bench_server`` 70-event tree::

    PYTHONPATH=src python benchmarks/bench_ordering_ablation.py

Repeats (``BENCH_REPEATS``, default 3) are interleaved across the
heuristics, so machine drift hits every order alike.  It then prints,
per tree, dfs's cold battery against declaration order's: the ratio of
medians and the spread of the per-repeat ratios.  It appends to
``benchmarks/results/BENCH_ordering.json`` under ``BENCH_LABEL`` and
never fails on a number (a record, not a gate).
"""

import os
import statistics
import sys
import time

import pytest

from repro.bdd import BDDManager, HEURISTICS, random_order, sift
from repro.casestudy import build_covid_tree
from repro.checker import ModelChecker
from repro.ft import RandomTreeConfig, galileo, random_tree, tree_to_bdd

_LARGE = random_tree(
    7, RandomTreeConfig(n_basic_events=18, max_children=4, p_share=0.3, max_depth=5)
)

_SIZES = {}


def _build(tree, order):
    manager = BDDManager(order)
    return manager, tree_to_bdd(tree, manager)


@pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
def bench_covid_ordering(benchmark, heuristic):
    tree = build_covid_tree()
    order = HEURISTICS[heuristic](tree, tree.basic_events)

    _, root = benchmark(_build, tree, order)

    _SIZES[("covid", heuristic)] = root.count_nodes()
    print(f"[ordering] covid/{heuristic}: {root.count_nodes()} nodes")


def bench_covid_ordering_random_control(benchmark):
    tree = build_covid_tree()
    order = random_order(tree, tree.basic_events, seed=99)
    _, root = benchmark(_build, tree, order)
    print(f"[ordering] covid/random: {root.count_nodes()} nodes")


@pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
def bench_large_tree_ordering(benchmark, heuristic):
    order = HEURISTICS[heuristic](_LARGE, _LARGE.basic_events)
    _, root = benchmark(_build, _LARGE, order)
    print(f"[ordering] large/{heuristic}: {root.count_nodes()} nodes")


def bench_sifting_search(benchmark):
    """Sifting on the COVID tree starting from the declaration order."""
    tree = build_covid_tree()

    def run():
        return sift(
            lambda order: _build(tree, order), list(tree.basic_events), max_rounds=1
        )

    best_order, best_size = benchmark(run)
    base_size = _build(tree, tree.basic_events)[1].count_nodes()
    print(f"[ordering] covid/sifted: {best_size} nodes (from {base_size})")
    assert best_size <= base_size


# ----------------------------------------------------------------------
# Script mode: the cold-build record per heuristic
# ----------------------------------------------------------------------


def _record_trees():
    """(name, tree, battery) for every tree the record covers."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "perfbench"))
    import corpus

    templates = {
        "covid-2or": corpus._COVID_2,  # noqa: SLF001
        "covid-3or": corpus._COVID_3,  # noqa: SLF001
        "bank-2x10": corpus._BANK_2,  # noqa: SLF001
    }
    trees = [("covid", build_covid_tree(), True)]
    for name, template in templates.items():
        (generated,) = corpus.build_corpus(1, (template,))
        trees.append((name, galileo.loads(generated.text), name != "bank-2x10"))
    server_tree = random_tree(
        5,
        RandomTreeConfig(
            n_basic_events=70, max_children=5, max_depth=8, p_share=0.3
        ),
    )
    trees.append(("bench_server", server_tree, False))
    for name, tree, with_mcs in trees:
        battery = [f"exists {tree.top}"]
        if with_mcs:
            battery.append({"kind": "mcs"})
        battery.append({"kind": "probability", "formula": tree.top})
        yield name, tree, battery


def _timed_ms(run):
    start = time.perf_counter()
    result = run()
    return (time.perf_counter() - start) * 1000.0, result


def _quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def _cold_battery(tree, heuristic, battery):
    checker = ModelChecker(tree, order=heuristic)
    weights = dict.fromkeys(tree.basic_events, 0.01)
    return [checker.execute(spec, probabilities=weights) for spec in battery]


def main() -> int:
    from bench_json import record_run

    repeats = int(os.environ.get("BENCH_REPEATS", "3"))
    heuristics = list(HEURISTICS)
    rows = []
    ratios = []
    print("variable-order ablation: cold build and cold battery per heuristic")
    print(
        f"  {'tree':<13} {'events':>6} {'order':<12} {'top nodes':>9} "
        f"{'kernel nodes':>12} {'build ms':>9} {'battery ms':>11} "
        f"{'battery q1-q3':>15}"
    )
    for name, tree, battery in _record_trees():
        builds = {heuristic: [] for heuristic in heuristics}
        batteries = {heuristic: [] for heuristic in heuristics}
        roots = {}
        for repeat in range(repeats):
            shift = repeat % len(heuristics)
            for heuristic in heuristics[shift:] + heuristics[:shift]:
                build_ms, roots[heuristic] = _timed_ms(
                    lambda: tree_to_bdd(tree, order=heuristic)
                )
                battery_ms, results = _timed_ms(
                    lambda: _cold_battery(tree, heuristic, battery)
                )
                if not all(result.ok for result in results):
                    print(f"FAIL: battery failed on {name} under {heuristic}")
                    return 1
                builds[heuristic].append(build_ms)
                batteries[heuristic].append(battery_ms)
        for heuristic in heuristics:
            root = roots[heuristic]
            q1, q3 = _quartiles(batteries[heuristic])
            row = {
                "tree": name,
                "events": len(tree.basic_events),
                "order": heuristic,
                "top_nodes": root.count_nodes(),
                "kernel_nodes": root.manager.node_count(),
                "build_ms": round(statistics.median(builds[heuristic]), 2),
                "battery_ms": round(statistics.median(batteries[heuristic]), 2),
                "battery_q1_ms": round(q1, 2),
                "battery_q3_ms": round(q3, 2),
            }
            rows.append(row)
            print(
                f"  {name:<13} {row['events']:>6} {heuristic:<12} "
                f"{row['top_nodes']:>9} {row['kernel_nodes']:>12} "
                f"{row['build_ms']:>9.1f} {row['battery_ms']:>11.1f} "
                f"{q1:>7.1f}-{q3:<7.1f}"
            )
        paired = [
            dfs / declaration
            for dfs, declaration in zip(batteries["dfs"], batteries["declaration"])
        ]
        q1, q3 = _quartiles(paired)
        ratio = {
            "tree": name,
            "median_ratio": round(
                statistics.median(batteries["dfs"])
                / statistics.median(batteries["declaration"]),
                3,
            ),
            "paired_q1": round(q1, 3),
            "paired_q3": round(q3, 3),
        }
        ratios.append(ratio)
    print("dfs cold battery / declaration cold battery (ratio of medians; "
          "per-repeat ratio quartiles)")
    for ratio in ratios:
        print(
            f"  {ratio['tree']:<13} {ratio['median_ratio']:>6.3f} "
            f"({ratio['paired_q1']:.3f}-{ratio['paired_q3']:.3f})"
        )
    record_run(
        "ordering",
        {"repeats": repeats, "rows": rows, "dfs_vs_declaration": ratios},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
