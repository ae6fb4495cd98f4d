"""Computed tables allocate their slots on first use.

A kernel that never runs apply, ite, restrict, compose or exists — a
rewarmed snapshot answering ``exists`` and ``probability`` from its
nodes — holds one slot per table, so the cyclic collector has nothing of
its tables to walk.  The first insert allocates the table's full
capacity, and from there the lossy direct mapping, the doubling rule and
the ``cache_evictions``/``cache_resizes`` counters behave as before: the
pinned figures below were read off the eager-allocation kernel.
"""

from repro.bdd import BDDManager
from repro.bdd.quantify import exists
from repro.casestudy import build_covid_tree
from repro.checker import ModelChecker
from repro.ft import FaultTreeBuilder, figure1_tree
from repro.service import BatchAnalyzer, ServerConfig

from test_service_server import ALL_KINDS, UNIFORM, running

TABLES = ("_apply_cache", "_ite_cache", "_restrict_cache",
          "_compose_cache", "_exists_cache")
CAPACITY = {"_apply_cache": 1 << 14, "_ite_cache": 1 << 14,
            "_restrict_cache": 1 << 12, "_compose_cache": 1 << 12,
            "_exists_cache": 1 << 12}
TOTAL_CAPACITY = sum(CAPACITY.values())


def slots(manager):
    return {name: len(getattr(manager, name).keys) for name in TABLES}


def assert_unallocated(manager):
    assert slots(manager) == dict.fromkeys(TABLES, 1)
    for name in TABLES:
        assert len(getattr(manager, name).vals) == 1
    assert manager.cache_stats()["cache_capacity"] == TOTAL_CAPACITY


def bank_tree(banks=2, pairs=10, threshold=5):
    """``banks`` k-of-n votes over primary/backup pairs; primaries are
    declared before backups, so declaration order keeps pairs apart."""
    builder = FaultTreeBuilder()
    votes = []
    for bank in range(banks):
        primaries = [f"P{bank}_{i}" for i in range(pairs)]
        backups = [f"B{bank}_{i}" for i in range(pairs)]
        builder.basic_events(*primaries, *backups)
        units = []
        for i in range(pairs):
            builder.and_gate(f"U{bank}_{i}", primaries[i], backups[i])
            units.append(f"U{bank}_{i}")
        builder.vot_gate(f"V{bank}", threshold, *units)
        votes.append(f"V{bank}")
    builder.or_gate("TOP", *votes)
    return builder.build("TOP")


def test_fresh_manager_holds_one_slot_per_table():
    assert_unallocated(BDDManager(["a", "b"]))


def test_loaded_snapshot_holds_one_slot_per_table():
    checker = ModelChecker(build_covid_tree())
    checker.check("exists IWoS")
    snapshot = checker.manager.save_snapshot()
    reloaded, _ = BDDManager.load_snapshot(snapshot)
    assert_unallocated(reloaded)


def test_first_insert_allocates_todays_capacity():
    m = BDDManager(["a", "b", "c"])
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    m.and_(a, b)
    assert slots(m)["_apply_cache"] == CAPACITY["_apply_cache"]
    m.ite(a, b, c)
    m.restrict(m.or_(a, b), "a", False)
    m.compose(m.and_(a, c), "a", b)
    exists(m, m.and_(a, b), ["a"])
    assert slots(m) == CAPACITY
    # Allocation is not growth.
    assert m.op_stats.cache_resizes == 0
    assert m.cache_stats()["cache_capacity"] == TOTAL_CAPACITY


def test_clear_caches_releases_slots_and_keeps_learned_capacity():
    checker = ModelChecker(bank_tree(), order="declaration")
    checker.check("exists TOP")
    manager = checker.manager
    grown = manager.cache_stats()["cache_capacity"]
    assert manager.op_stats.cache_resizes > 0 and grown > TOTAL_CAPACITY
    manager.clear_caches()
    assert slots(manager) == dict.fromkeys(TABLES, 1)
    assert manager.cache_stats()["cache_capacity"] == grown
    # The next insert comes back at the learned capacity.
    checker.minimal_cut_sets()
    assert len(manager._apply_cache.keys) == manager._apply_cache.size
    assert manager._apply_cache.size > CAPACITY["_apply_cache"]


def test_rewarm_battery_leaves_every_table_unallocated(tmp_path):
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
        assert entry.session.name == "covid"
        assert_unallocated(entry.session.checker.manager)
        bdd = report["stats"]["scenarios"]["covid"]["bdd"]
        assert bdd["apply_misses"] == bdd["ite_misses"] == 0


OP_KEYS = ("hits", "misses", "apply_hits", "apply_misses", "ite_hits",
           "ite_misses", "restrict_hits", "restrict_misses",
           "compose_hits", "compose_misses", "cache_evictions",
           "cache_resizes")


def test_covid_battery_counters_match_eager_tables():
    report = BatchAnalyzer(build_covid_tree(), uniform=UNIFORM).run(
        ALL_KINDS
    ).to_dict()
    scenario = report["stats"]["scenarios"]["default"]
    assert {k: scenario["bdd"][k] for k in OP_KEYS} == {
        "hits": 132, "misses": 379,
        "apply_hits": 132, "apply_misses": 350,
        "ite_hits": 0, "ite_misses": 0,
        "restrict_hits": 0, "restrict_misses": 6,
        "compose_hits": 0, "compose_misses": 0,
        "cache_evictions": 4, "cache_resizes": 0,
    }
    assert scenario["tables"]["caches"] == {
        "capacity": TOTAL_CAPACITY, "evictions": 4, "resizes": 0,
    }


def test_bank_tree_counters_match_eager_tables():
    checker = ModelChecker(bank_tree(), order="declaration")
    assert checker.check("exists TOP")
    assert len(checker.minimal_cut_sets()) == 2 * 252
    stats = checker.manager.cache_stats()
    assert {k: stats[k] for k in OP_KEYS} == {
        "hits": 39424, "misses": 78881,
        "apply_hits": 39424, "apply_misses": 60181,
        "ite_hits": 0, "ite_misses": 18700,
        "restrict_hits": 0, "restrict_misses": 0,
        "compose_hits": 0, "compose_misses": 0,
        "cache_evictions": 38702, "cache_resizes": 3,
    }
    assert stats["cache_capacity"] == 110592
