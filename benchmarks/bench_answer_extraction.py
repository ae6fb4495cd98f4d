"""Answer extraction (paper Algorithm 3): the raw-edge cube walk vs the
earlier walk over ``Ref`` handles.

``iter_cubes`` now walks the kernel's int columns directly.  The
baseline below is the walk it replaced: the same depth-first,
low-edge-first enumeration, but over ``Ref.low``/``Ref.high``, so every
node it visits for the first time is interned through ``_wrap`` as a
``Ref`` that dies right after the walk.  Both arms
walk the same warm ``MCS(top)`` / ``MPS(top)`` BDD of one
``ModelChecker`` (translation excluded), and the agreement arm asserts
they yield the identical cube sequence.

Run as a script, it is the record behind EXPERIMENTS.md ("Answer
extraction on raw edges"): median ms per walk of each arm and the
handles the baseline interns per walk, on COVID and the four perfbench
templates (seed 1)::

    PYTHONPATH=src python benchmarks/bench_answer_extraction.py

Repeats (``BENCH_REPEATS``, default 21) alternate the two arms.  It
appends to ``benchmarks/results/BENCH_answer_extraction.json`` under
``BENCH_LABEL`` and fails only if the arms disagree (a record, not a
gate).
"""

import os
import statistics
import sys
import time

import pytest

from repro.bdd import iter_cubes
from repro.casestudy import build_covid_tree
from repro.checker import ModelChecker
from repro.ft import galileo
from repro.logic import MCS, MPS, Atom


def ref_iter_cubes(manager, u):
    """The baseline: the mutate-and-undo DFS over ``Ref`` handles."""
    if u is manager.false:
        return
    if u is manager.true:
        yield {}
        return
    partial = {}
    stack = [(0, u)]
    while stack:
        op, arg = stack.pop()
        if op == 1:
            name, value = arg
            partial[name] = value
        elif op == 2:
            del partial[arg]
        else:
            node = arg
            if node.is_terminal:
                if node.value:
                    yield dict(partial)
                continue
            name = manager.name_of(node.level)
            stack.append((2, name))
            stack.append((0, node.high))
            stack.append((1, (name, True)))
            stack.append((0, node.low))
            stack.append((1, (name, False)))


ARMS = {"ref": ref_iter_cubes, "raw": iter_cubes}


def _warm(tree, operator):
    """(manager, root) of ``operator(top)`` in a warm checker."""
    checker = ModelChecker(tree)
    return checker.manager, checker.translator.bdd(operator(Atom(tree.top)))


@pytest.mark.parametrize("operator", [MCS, MPS], ids=["mcs", "mps"])
@pytest.mark.parametrize("arm", sorted(ARMS))
def bench_cube_walk(benchmark, covid_tree, arm, operator):
    manager, root = _warm(covid_tree, operator)
    cubes = benchmark(lambda: list(ARMS[arm](manager, root)))
    assert cubes


@pytest.mark.parametrize("operator", [MCS, MPS], ids=["mcs", "mps"])
def bench_cube_walks_agree(benchmark, covid_tree, operator):
    """Correctness arm: identical cubes, in the same order, with the
    same key order."""
    manager, root = _warm(covid_tree, operator)

    def run():
        return [
            [list(cube.items()) for cube in walk(manager, root)]
            for walk in ARMS.values()
        ]

    ref, raw = benchmark(run)
    assert ref == raw


# ----------------------------------------------------------------------
# Script mode: the record behind EXPERIMENTS.md
# ----------------------------------------------------------------------


def _record_trees():
    """(name, tree, operators) for every tree the record covers; the
    bank trees' path sets run to ~10^8 cubes, so they get MCS only."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "perfbench"))
    import corpus

    yield "covid", build_covid_tree(), (MCS, MPS)
    templates = (
        corpus._COVID_2,  # noqa: SLF001
        corpus._COVID_3,  # noqa: SLF001
        corpus._BANK_2,  # noqa: SLF001
        corpus._BANK_3,  # noqa: SLF001
    )
    for template, generated in zip(templates, corpus.build_corpus(1, templates)):
        operators = (MCS, MPS) if generated.size_class == corpus.PAPER else (MCS,)
        yield template[0], galileo.loads(generated.text), operators


def _interned(manager, root):
    """Handles the baseline interns in one walk of ``root``."""
    wrapped = []
    original = manager._wrap
    manager._wrap = lambda edge: wrapped.append(edge) or original(edge)
    try:
        list(ref_iter_cubes(manager, root))
    finally:
        del manager._wrap
    return len(wrapped)


def main() -> int:
    from bench_json import record_run

    repeats = int(os.environ.get("BENCH_REPEATS", "21"))
    rows = []
    print(f"Cube walk of a warm BDD: Ref walk vs raw edges (median of {repeats}, ms)")
    print(
        f"  {'tree':<10} {'op':<4} {'cubes':>6} {'handles':>8} "
        f"{'ref':>8} {'raw':>8} {'ratio':>6}"
    )
    for name, tree, operators in _record_trees():
        for operator in operators:
            manager, root = _warm(tree, operator)
            ref = [list(c.items()) for c in ref_iter_cubes(manager, root)]
            raw = [list(c.items()) for c in iter_cubes(manager, root)]
            if ref != raw:
                print(f"FAIL: the walks disagree on {operator.__name__}({name})")
                return 1
            samples = {arm: [] for arm in ARMS}
            for repeat in range(repeats):
                order = sorted(ARMS, reverse=bool(repeat % 2))
                for arm in order:
                    start = time.perf_counter()
                    for _ in ARMS[arm](manager, root):
                        pass
                    samples[arm].append((time.perf_counter() - start) * 1000.0)
            row = {
                "tree": name,
                "op": operator.__name__.lower(),
                "cubes": len(raw),
                "handles_per_ref_walk": _interned(manager, root),
            }
            for arm in ARMS:
                row[f"{arm}_ms"] = round(statistics.median(samples[arm]), 3)
            rows.append(row)
            print(
                f"  {name:<10} {row['op']:<4} {row['cubes']:>6} "
                f"{row['handles_per_ref_walk']:>8} {row['ref_ms']:>8.2f} "
                f"{row['raw_ms']:>8.2f} {row['ref_ms'] / row['raw_ms']:>5.1f}x"
            )
    record_run("answer_extraction", {"repeats": repeats, "rows": rows})
    return 0


if __name__ == "__main__":
    sys.exit(main())
