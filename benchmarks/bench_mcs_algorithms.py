"""Ablation A3 (DESIGN.md): the paper's primed-relation MCS/MPS
construction vs the minimal-solutions recursion the checker uses.

Both compute ``BT(MCS(phi))`` and ``BT(MPS(phi))`` for any operand.  The
paper's construction declares a primed twin of every event (interleaved
with it, as kernels were laid out while it was the production path) and
quantifies over a strict-subset relation; the recursion is one memoised
sweep with an up-/down-closure and no primes.  Each tree contributes a
monotone operand (its top event) and a non-monotone one (``top and not
e`` for the first event ``e`` in the order the top can fail without).  Each timed iteration uses a
fresh manager so memoisation cannot flatter either arm; the agreement
arm asserts both build the identical edge.

Run as a script, it is the record behind EXPERIMENTS.md ("One MCS/MPS
construction"): median ms of ``MCS(top)`` and ``MPS(top)`` under each
construction and the kernel's node count after tree + MCS + MPS, on
COVID, the four perfbench templates (seed 1) and two random trees::

    PYTHONPATH=src python benchmarks/bench_mcs_algorithms.py

Repeats (``BENCH_REPEATS``, default 7) alternate the two arms.  It
appends to ``benchmarks/results/BENCH_mcs_algorithms.json`` under
``BENCH_LABEL`` and fails only if the constructions disagree (a record,
not a gate).
"""

import os
import statistics
import sys
import time

import pytest

from repro.bdd import (
    BDDManager,
    maximal_assignments,
    maximal_solutions,
    minimal_assignments,
    minimal_solutions,
    resolve_order,
)
from repro.bdd.minimal import prime_name
from repro.casestudy import build_covid_tree
from repro.ft import RandomTreeConfig, galileo, random_tree, tree_to_bdd

TREES = {
    "covid": build_covid_tree(),
    "random18": random_tree(
        11, RandomTreeConfig(n_basic_events=18, max_children=4, p_share=0.25)
    ),
    "random24": random_tree(
        13, RandomTreeConfig(n_basic_events=24, max_children=4, p_share=0.25)
    ),
}

OPERANDS = ("top", "top-and-not-e")

#: The paper construction (MCS, MPS) and the recursion (MCS, MPS).
PAPER = (minimal_assignments, maximal_assignments)
RECURSION = (minimal_solutions, maximal_solutions)


def _fresh(tree, primed):
    """A fresh kernel in the default order with the tree's top built;
    ``primed`` interleaves each event with its primed twin."""
    order = resolve_order(tree)
    if primed:
        order = [name for event in order for name in (event, prime_name(event))]
    manager = BDDManager(order)
    return manager, tree_to_bdd(tree, manager)


def _operand(manager, root, which):
    """(operand, scope): the top, or ``top and not e`` for the first
    event ``e`` in the order that the top can fail without."""
    if which == "top-and-not-e":
        for name in sorted(manager.support(root), key=manager.level_of):
            operand = manager.and_(root, manager.nvar(name))
            if operand is not manager.false:
                root = operand
                break
    return root, sorted(manager.support(root), key=manager.level_of)


def _mcs_mps(manager, operand, scope, constructions):
    minimal, maximal = constructions
    return (
        minimal(manager, operand, scope),
        maximal(manager, manager.negate(operand), scope),
    )


@pytest.mark.parametrize("which", OPERANDS)
@pytest.mark.parametrize("name", sorted(TREES))
def bench_mcs_primed_relation(benchmark, name, which):
    tree = TREES[name]

    def run():
        manager, root = _fresh(tree, primed=True)
        operand, scope = _operand(manager, root, which)
        return manager, _mcs_mps(manager, operand, scope, PAPER)

    manager, (mcs, _) = benchmark(run)
    assert mcs is not manager.false


@pytest.mark.parametrize("which", OPERANDS)
@pytest.mark.parametrize("name", sorted(TREES))
def bench_mcs_minimal_solutions(benchmark, name, which):
    tree = TREES[name]

    def run():
        manager, root = _fresh(tree, primed=False)
        operand, scope = _operand(manager, root, which)
        return manager, _mcs_mps(manager, operand, scope, RECURSION)

    manager, (mcs, _) = benchmark(run)
    assert mcs is not manager.false
    assert len(manager.variables) == len(tree.basic_events)


@pytest.mark.parametrize("name", sorted(TREES))
def bench_mcs_constructions_agree(benchmark, name):
    """Correctness arm: identical edges from both constructions, for
    MCS and MPS of the monotone and the non-monotone operand."""
    tree = TREES[name]

    def run():
        manager, root = _fresh(tree, primed=True)
        pairs = []
        for which in OPERANDS:
            operand, scope = _operand(manager, root, which)
            pairs.append(
                (
                    _mcs_mps(manager, operand, scope, PAPER),
                    _mcs_mps(manager, operand, scope, RECURSION),
                )
            )
        return pairs

    for paper, recursion in benchmark(run):
        assert paper[0] is recursion[0]
        assert paper[1] is recursion[1]


# ----------------------------------------------------------------------
# Script mode: the record behind EXPERIMENTS.md
# ----------------------------------------------------------------------


def _record_trees():
    """(name, tree) for every tree the record covers."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "perfbench"))
    import corpus

    yield "covid", TREES["covid"]
    templates = (
        corpus._COVID_2,  # noqa: SLF001
        corpus._COVID_3,  # noqa: SLF001
        corpus._BANK_2,  # noqa: SLF001
        corpus._BANK_3,  # noqa: SLF001
    )
    for template, generated in zip(templates, corpus.build_corpus(1, templates)):
        yield template[0], galileo.loads(generated.text)
    yield "random18", TREES["random18"]
    yield "random24", TREES["random24"]


def _one_run(tree, primed, constructions):
    """(mcs ms, mps ms, kernel nodes after tree + MCS + MPS)."""
    manager, root = _fresh(tree, primed)
    scope = sorted(manager.support(root), key=manager.level_of)
    minimal, maximal = constructions
    start = time.perf_counter()
    minimal(manager, root, scope)
    mid = time.perf_counter()
    maximal(manager, manager.negate(root), scope)
    end = time.perf_counter()
    return (mid - start) * 1000.0, (end - mid) * 1000.0, manager.node_count()


def main() -> int:
    from bench_json import record_run

    repeats = int(os.environ.get("BENCH_REPEATS", "7"))
    arms = {"paper": (True, PAPER), "recursion": (False, RECURSION)}
    rows = []
    print("MCS/MPS of the top event: paper construction vs recursion "
          f"(median of {repeats}, ms)")
    print(
        f"  {'tree':<10} {'events':>6} {'MCS paper':>10} {'MCS rec':>8} "
        f"{'MPS paper':>10} {'MPS rec':>8} {'nodes paper':>12} {'nodes rec':>10}"
    )
    for name, tree in _record_trees():
        samples = {arm: {"mcs": [], "mps": []} for arm in arms}
        nodes = {}
        for repeat in range(repeats):
            order = list(arms) if repeat % 2 == 0 else list(reversed(arms))
            for arm in order:
                primed, constructions = arms[arm]
                mcs_ms, mps_ms, nodes[arm] = _one_run(
                    tree, primed, constructions
                )
                samples[arm]["mcs"].append(mcs_ms)
                samples[arm]["mps"].append(mps_ms)
        # Agreement: both constructions in one (interleaved) kernel.
        manager, root = _fresh(tree, primed=True)
        scope = sorted(manager.support(root), key=manager.level_of)
        paper = _mcs_mps(manager, root, scope, PAPER)
        recursion = _mcs_mps(manager, root, scope, RECURSION)
        if any(a is not b for a, b in zip(paper, recursion)):
            print(f"FAIL: the constructions disagree on {name}")
            return 1
        row = {"tree": name, "events": len(tree.basic_events)}
        for arm in arms:
            for kind in ("mcs", "mps"):
                row[f"{kind}_{arm}_ms"] = round(
                    statistics.median(samples[arm][kind]), 2
                )
            row[f"nodes_{arm}"] = nodes[arm]
        rows.append(row)
        print(
            f"  {name:<10} {row['events']:>6} {row['mcs_paper_ms']:>10.1f} "
            f"{row['mcs_recursion_ms']:>8.1f} {row['mps_paper_ms']:>10.1f} "
            f"{row['mps_recursion_ms']:>8.1f} {row['nodes_paper']:>12} "
            f"{row['nodes_recursion']:>10}"
        )
    record_run("mcs_algorithms", {"repeats": repeats, "rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
