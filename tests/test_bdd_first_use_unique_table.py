"""A snapshot load builds its unique table on first use.

``BDDManager.load_snapshot`` validates every canonical-form invariant
eagerly (checksum, shapes, the vectorised checks including duplicate
triples) and then adopts the node columns without building the unique
table.  The first ``_mk`` that misses, reordering, ``check_invariants``
or a reclaiming ``collect`` builds it; a battery answered from the
adopted roots (``exists`` + ``probability``) never does, and still
reports the capacity and population the build would give.
"""

import gc as pygc
import random

import pytest

from repro.bdd import BDDManager, _nputil
from repro.bdd.manager import _stamp_snapshot
from repro.casestudy import build_covid_tree
from repro.checker import ModelChecker
from repro.errors import SnapshotError
from repro.ft import figure1_tree
from repro.service import ServerConfig

from test_bdd_first_use_tables import bank_tree
from test_service_server import UNIFORM, running

SIZE_KEYS = ("unique_capacity", "unique_table_size", "live_nodes")

#: The pure-Python load checks duplicates through the table it builds,
#: so only the vectorised load leaves it unbuilt.
numpy_load = pytest.mark.skipif(
    not _nputil.have_numpy(), reason="the pure-Python load builds eagerly"
)


def bank_snapshot():
    """A rooted snapshot big enough to size the table past its minimum."""
    checker = ModelChecker(bank_tree(), order="declaration")
    assert checker.check("exists TOP")
    return checker.translator.tree_translator, checker.manager.save_snapshot(
        roots=checker.translator.tree_translator.export_cache()
    )


def sizes(manager):
    stats = manager.cache_stats()
    return {key: stats[key] for key in SIZE_KEYS}


@numpy_load
def test_load_leaves_the_table_unbuilt_and_reports_the_built_sizes():
    _, snapshot = bank_snapshot()
    lazy, _ = BDDManager.load_snapshot(snapshot)
    assert lazy._ut_unbuilt and len(lazy._ut_slots) == 1
    # Figures read off the kernel that built its table at load.
    before = sizes(lazy)
    assert before == {"unique_capacity": 16384, "unique_table_size": 6855,
                      "live_nodes": 6856}
    lazy.check_invariants()
    assert not lazy._ut_unbuilt
    assert sizes(lazy) == before
    assert len(lazy._ut_slots) == before["unique_capacity"]
    stats = lazy.cache_stats()
    assert (stats["ut_resizes"], stats["ut_collisions"],
            stats["ut_max_probe"]) == (1, 2898, 26)


@numpy_load
def test_rewarm_battery_never_builds_the_table(tmp_path):
    trees = {"covid": build_covid_tree(), "fig1": figure1_tree()}
    config = ServerConfig(
        port=0, pool_size=1, store_path=str(tmp_path / "kernels")
    )

    def battery(name):
        top = trees[name].top
        return {
            "queries": [
                {"id": "e", "kind": "check", "formula": f"exists {top}",
                 "tree": name},
                {"id": "p", "kind": "probability", "formula": top,
                 "tree": name},
            ],
            "uniform": UNIFORM,
        }

    with running(trees, config) as harness:
        for name in ("covid", "fig1", "covid"):
            status, report, _ = harness.post("/battery", battery(name))
            assert status == 200
        assert harness.server._counters["rewarms"] == 1
        (entry,) = harness.server.pool._entries.values()
        manager = entry.session.checker.manager
        assert manager._ut_unbuilt
        # Capacity and entries read off the eagerly built kernel; the
        # build counters count only builds that happened.
        unique = report["stats"]["scenarios"]["covid"]["tables"]["unique"]
        assert unique == {"capacity": 1024, "entries": 73, "collisions": 0,
                          "resizes": 0, "max_probe": 0}


def test_mk_after_load_finds_the_snapshot_nodes():
    _, snapshot = bank_snapshot()
    manager, roots = BDDManager.load_snapshot(snapshot)
    count = manager.node_count()
    top = roots["TOP"]
    level, low, high = (manager._level[top.index], manager._low[top.index],
                        manager._high[top.index])
    # The first miss builds the table and finds the stored node.
    assert manager._mk(level, low, high) == top.edge & ~1
    assert not manager._ut_unbuilt
    for name in manager.variables:
        manager.var(name)
    assert manager.node_count() == count
    manager.check_invariants()


def test_var_after_load_builds_and_returns_the_stored_literal():
    _, snapshot = bank_snapshot()
    manager, roots = BDDManager.load_snapshot(snapshot)
    count = manager.node_count()
    literal = manager.var("P0_0")
    assert not manager._ut_unbuilt
    assert manager.node_count() == count
    assert manager.var("P0_0") is literal
    assert manager.and_(literal, roots["TOP"]) is not None
    manager.check_invariants()


@numpy_load
def test_collect_on_an_unbuilt_table():
    _, snapshot = bank_snapshot()
    manager, roots = BDDManager.load_snapshot(snapshot)
    manager.collect()  # every node is rooted: nothing to reclaim
    assert manager._ut_unbuilt
    keep = roots["V0"]
    del roots
    pygc.collect()
    assert manager.collect() > 0
    assert not manager._ut_unbuilt
    manager.check_invariants()
    assert manager.node_count() == manager.reachable_node_count()
    assert keep.count_nodes() > 1


@numpy_load
def test_sift_on_an_unbuilt_table_preserves_every_root():
    translator, snapshot = bank_snapshot()
    reference = translator.export_cache()
    source = translator.manager
    manager, roots = BDDManager.load_snapshot(snapshot)
    assert manager._ut_unbuilt
    manager.sift_inplace(max_rounds=1)
    manager.check_invariants()
    rng = random.Random(7)
    for _ in range(200):
        vector = {name: rng.random() < 0.5 for name in manager.variables}
        for name in ("TOP", "V0", "V1"):
            assert manager.evaluate(roots[name], vector) == source.evaluate(
                reference[name], vector
            )


def test_duplicate_triple_still_fails_at_load():
    manager = BDDManager(["x", "y"])
    f = manager.and_(manager.var("x"), manager.var("y"))
    snapshot = dict(manager.save_snapshot(roots={"f": f}))
    levels = snapshot["levels"]
    lows = snapshot["lows"]
    highs = snapshot["highs"]
    # Append a copy of the last node: a valid order, one repeated key.
    snapshot["levels"] = levels + levels[-8:]
    snapshot["lows"] = lows + lows[-8:]
    snapshot["highs"] = highs + highs[-8:]
    snapshot.pop("sha256")
    with pytest.raises(SnapshotError, match="duplicates node"):
        BDDManager.load_snapshot(_stamp_snapshot(snapshot))


def test_pure_python_load_gives_the_same_kernel(monkeypatch):
    _, snapshot = bank_snapshot()
    lazy, lazy_roots = BDDManager.load_snapshot(snapshot)
    monkeypatch.setattr(_nputil, "np", None)
    eager, eager_roots = BDDManager.load_snapshot(snapshot)
    assert not eager._ut_unbuilt
    assert sizes(lazy) == sizes(eager)
    assert lazy.save_snapshot(lazy_roots) == eager.save_snapshot(eager_roots)
    assert {name: ref.edge for name, ref in lazy_roots.items()} == {
        name: ref.edge for name, ref in eager_roots.items()
    }
    lazy.check_invariants()
    eager.check_invariants()
