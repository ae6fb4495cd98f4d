"""Shared fixtures for the benchmark harness.

Every benchmark regenerates a table or figure of the paper (or an ablation
DESIGN.md calls for) and *asserts the paper-reported shape* before timing,
so `pytest benchmarks/ --benchmark-only` doubles as a reproduction check.
CI runs the harness with `--benchmark-disable`: every benchmark body (and
its asserts) runs once, untimed.
"""

from __future__ import annotations

import pytest

from repro.casestudy import build_covid_tree
from repro.checker import ModelChecker

#: Modules whose ``bench_*`` functions are script helpers (plain
#: arguments, no fixtures) or record writers, not pytest-benchmark
#: benchmarks: they run as ``python benchmarks/<module>.py``.
collect_ignore = ["bench_json.py", "bench_kernel.py"]


@pytest.fixture(scope="session")
def covid_tree():
    return build_covid_tree()


@pytest.fixture(scope="session")
def covid_checker(covid_tree):
    return ModelChecker(covid_tree)
