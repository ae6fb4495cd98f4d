"""Per-layer cold-path timings: parse, tree translation, MCS, battery.

A cold query is the paper's Algorithm 1 from nothing: parse the Galileo
text, translate the tree (``Psi_FT``), then build ``MCS(phi)``.  This
script times each of those layers on its own, on the benchmark's seed-1
corpus (``perfbench/corpus.py``, read only): two- and three-ward
COVID-shaped trees and two- and three-bank 5-of-10 vote trees, each with
the query battery the benchmark runs on it.

Per tree it prints the minimum over ``BENCH_REPEATS`` runs (default 40)
of:

* ``loads_ms`` -- :func:`repro.ft.galileo.loads` of the text;
* ``psi_ms`` -- ``Psi(top)`` on a fresh kernel (the tree translator's
  top element);
* ``mcs_ms`` -- ``MCS(top)`` on a fresh kernel that already holds
  ``Psi(top)`` (paper-scale trees only, as in the benchmark battery);
* ``battery_ms`` -- ``loads`` + a fresh :class:`BatchAnalyzer` + the
  tree's battery + ``to_json``.

Rows are grouped by template; the record also keeps, per template, the
median of its trees' minima.  Informational only: no gate, no floor.  It
gives a change to the cold path a per-layer number outside the
end-to-end benchmark.  Run::

    PYTHONPATH=src python benchmarks/bench_cold_path.py

and the record lands in ``BENCH_cold_path.json`` (see ``bench_json``;
``BENCH_LABEL`` selects the tracked ``benchmarks/results`` copy).
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from typing import Callable, Dict

from bench_json import record_run

from repro.bdd import _nputil
from repro.bdd.minimal import minimal_solutions
from repro.checker import ModelChecker
from repro.ft import galileo
from repro.service import BatchAnalyzer

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))
from corpus import PAPER, CorpusTree, battery, build_corpus  # noqa: E402

REPEATS = int(os.environ.get("BENCH_REPEATS", "40"))


def _min_ms(run: Callable[[], Callable[[], object]]) -> float:
    """Minimum over :data:`REPEATS` of the timed half of ``run``: the
    untimed set-up returns the callable to time."""
    best = float("inf")
    for _ in range(REPEATS):
        timed = run()
        start = time.perf_counter()
        timed()
        best = min(best, time.perf_counter() - start)
    return round(best * 1000.0, 4)


def measure_tree(entry: CorpusTree) -> Dict[str, float]:
    """The four per-layer minima for one corpus tree."""
    text = entry.text
    tree = galileo.loads(text)
    top = tree.top
    queries = battery(entry)
    paper = entry.size_class == PAPER

    def psi():
        translator = ModelChecker(tree).translator.tree_translator
        return lambda: translator.element(top)

    def mcs():
        checker = ModelChecker(tree)
        root = checker.translator.tree_translator.element(top)
        scope = tree.basic_events
        return lambda: minimal_solutions(checker.manager, root, scope)

    def whole():
        return lambda: BatchAnalyzer(
            {entry.name: galileo.loads(text)}
        ).run(queries).to_json()

    return {
        "loads_ms": _min_ms(lambda: lambda: galileo.loads(text)),
        "psi_ms": _min_ms(psi),
        "mcs_ms": _min_ms(mcs) if paper else None,
        "battery_ms": _min_ms(whole),
    }


def _cell(value) -> str:
    return f"{'-' if value is None else f'{value:.3f}':>10}"


def main() -> None:
    corpus = sorted(build_corpus(1), key=lambda entry: entry.template)
    rows: Dict[str, Dict[str, float]] = {}
    templates: Dict[str, Dict[str, float]] = {}
    print(f"cold path, seed-1 corpus, per-tree minimum of {REPEATS} runs (ms)")
    print(f"{'tree':<16}{'loads':>10}{'Psi(top)':>10}{'MCS(top)':>10}"
          f"{'battery':>10}")
    for entry in corpus:
        row = rows[entry.name] = measure_tree(entry)
        print(f"{entry.name:<16}" + "".join(_cell(v) for v in row.values()))
    for template in dict.fromkeys(entry.template for entry in corpus):
        group = [rows[e.name] for e in corpus if e.template == template]
        templates[template] = {
            key: None if group[0][key] is None else round(
                statistics.median(row[key] for row in group), 4)
            for key in group[0]
        }
        print(f"{template + ' p50':<16}"
              + "".join(_cell(v) for v in templates[template].values()))
    path = record_run("cold_path", {
        "repeats": REPEATS,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "numpy": _nputil.np is not None,
        "corpus_seed": 1,
        "trees": rows,
        "templates": templates,
    })
    print(f"record: {path}")


if __name__ == "__main__":
    main()
