"""The cold path builds the same kernel, node for node.

``BDDManager._mk`` runs its find, allocate and insert steps in one frame
and the minimal-solutions sweep runs on an explicit stack; neither may
change what a battery builds.  The figures below were read off the
kernel as it stood before both changes (separate ``_ut_find`` /
``_alloc_slot`` / ``_ut_insert`` calls, a recursive sweep): the node
columns, the unique-table counters, the computed-table counters and the
peak live-node count of a cold battery, for the COVID-19 tree under one
query of every kind and for a three-bank 5-of-10 tree.
"""

import hashlib

import pytest

from repro.bdd import BDDManager
from repro.casestudy import build_covid_tree
from repro.errors import ResourceLimitError
from repro.runtime.limits import Governor
from repro.service import BatchAnalyzer

from test_bdd_first_use_tables import bank_tree
from test_service_server import ALL_KINDS, UNIFORM

KEYS = ("ut_collisions", "ut_max_probe", "ut_resizes", "apply_hits",
        "apply_misses", "ite_hits", "ite_misses", "cache_evictions",
        "cache_resizes", "peak_live_nodes")

BANK_BATTERY = [
    {"id": "exists", "kind": "check", "formula": "exists TOP"},
    {"id": "mcs", "kind": "mcs"},
    {"id": "prob", "kind": "probability", "formula": "TOP"},
]


def columns_digest(manager):
    """sha256 over the three node columns, in decimal (byte-order free)."""
    digest = hashlib.sha256()
    for column in (manager._level, manager._low, manager._high):
        digest.update(",".join(map(str, column)).encode() + b";")
    return digest.hexdigest()


def cold_kernel(tree, battery):
    analyzer = BatchAnalyzer(tree, uniform=UNIFORM)
    assert all(row.ok for row in analyzer.run(battery).results)
    (session,) = analyzer.sessions.values()
    manager = session.checker.manager
    manager.check_invariants()
    stats = manager.cache_stats()
    return columns_digest(manager), {key: stats[key] for key in KEYS}


def test_covid_nine_kind_battery_builds_the_pinned_kernel():
    digest, stats = cold_kernel(build_covid_tree(), ALL_KINDS)
    assert digest == (
        "bfc0bec8793725e22e17ddfb60d364c4c6c3bb2192d87ebea3da355de337dd73"
    )
    assert stats == {
        "ut_collisions": 82, "ut_max_probe": 6, "ut_resizes": 0,
        "apply_hits": 132, "apply_misses": 350,
        "ite_hits": 0, "ite_misses": 0,
        "cache_evictions": 4, "cache_resizes": 0,
        "peak_live_nodes": 297,
    }


def test_three_bank_battery_builds_the_pinned_kernel():
    digest, stats = cold_kernel(bank_tree(banks=3), BANK_BATTERY)
    assert digest == (
        "c45019f6d8cc8afb63422d39b55b8a0a9d58a8da22a5583f482bd2c5b42c9be1"
    )
    assert stats == {
        "ut_collisions": 927, "ut_max_probe": 29, "ut_resizes": 1,
        "apply_hits": 893, "apply_misses": 1154,
        "ite_hits": 0, "ite_misses": 234,
        "cache_evictions": 85, "cache_resizes": 0,
        "peak_live_nodes": 990,
    }


@pytest.mark.parametrize("budget", [1, 7, 40, 120])
def test_node_budget_trips_within_one_node(budget):
    manager = BDDManager([f"x{i}" for i in range(24)])
    operands = [manager.var(f"x{i}") for i in range(24)]
    start = manager.node_count()
    manager.governor = Governor(node_budget=start + budget).start()
    with pytest.raises(ResourceLimitError):
        manager.threshold(operands, 12)  # about 150 new nodes
    manager.governor = None
    # The trip fires at the first allocation past the budget, before
    # that node is stored: the store ends at most one node over.
    assert start + budget <= manager.node_count() <= start + budget + 1
    manager.check_invariants()


def test_first_miss_after_a_snapshot_load_builds_the_table_once(monkeypatch):
    source = BDDManager(["a", "b", "c"])
    root = source.or_(source.and_(source.var("a"), source.var("b")),
                      source.var("c"))
    loaded, roots = BDDManager.load_snapshot(
        source.save_snapshot(roots={"f": root})
    )
    lazy = loaded._ut_unbuilt  # the vectorised load leaves it unbuilt
    builds = []
    rebuild = BDDManager._ut_rebuild

    def counted(self):
        builds.append(self)
        rebuild(self)

    monkeypatch.setattr(BDDManager, "_ut_rebuild", counted)
    f = roots["f"]
    # Hits on stored nodes after the build, then new nodes: one build.
    assert loaded.or_(loaded.and_(loaded.var("a"), loaded.var("b")),
                      loaded.var("c")) is f
    loaded.xor(f, loaded.var("b"))
    assert len(builds) == (1 if lazy else 0)
    assert not loaded._ut_unbuilt
    loaded.check_invariants()
