"""Array-native kernel storage: cross-validation, snapshots, sweeps.

The kernel rewrite moved nodes into contiguous ``array('q')`` columns
behind an open-addressed unique table, with packed-key computed tables
and a vectorised multi-profile probability sweep.  The public ``Ref``
surface is unchanged, so these tests pin the storage semantics through
it:

* hypothesis cross-validation against :class:`ReferenceSemantics` with
  ``collect()`` / ``sift_inplace()`` / ``move_to_level()`` interleaved
  between checks — the operations that rewire or reclaim slots;
* snapshot round-trips over the array format (numpy and pure-Python
  save/load paths): complement roots, stores with post-GC holes, stores
  that resized the unique table, the byteorder guard, and the rejection
  of the retired version-1 list payload;
* ``probability_many`` (single- and multi-root, numpy and pure-Python
  fallback) against column-by-column :meth:`probability` calls;
* the open-addressed observability counters surfaced in
  ``cache_stats()`` and the batch report's ``tables`` block.
"""

from __future__ import annotations

import gc as pygc
import itertools
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from repro.bdd import _nputil
from repro.checker import FormulaTranslator, check
from repro.errors import SnapshotError
from repro.logic import ReferenceSemantics
from repro.casestudy import build_covid_tree
from repro.service import BatchAnalyzer

from bfl_strategies import formulas_for, small_trees


def _assert_matches_reference(translator, semantics, formula, tree):
    names = list(tree.basic_events)
    for bits in itertools.product((False, True), repeat=len(names)):
        vector = dict(zip(names, bits))
        assert check(translator, formula, vector) == semantics.holds(
            formula, vector
        )


class TestCrossValidationUnderStorageChurn:
    """Reference semantics must survive reclaim + rewire interleaving."""

    @given(data=st.data(), tree=small_trees(max_basic_events=4))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    def test_collect_sift_move_interleaved(self, data, tree):
        translator = FormulaTranslator(tree)
        semantics = ReferenceSemantics(tree)
        manager = translator.manager
        formula = data.draw(formulas_for(tree))
        translator.bdd(formula)

        # collect() sweeps dead slots onto the free list and rebuilds
        # the open-addressed table tombstone-free.
        pygc.collect()
        manager.collect()
        manager.check_invariants()
        _assert_matches_reference(translator, semantics, formula, tree)

        # sift_inplace() swaps adjacent levels in place (unique-table
        # deletes + re-inserts on live slots).
        manager.sift_inplace(max_rounds=1)
        manager.check_invariants()
        _assert_matches_reference(translator, semantics, formula, tree)

        # move_to_level() exercises the directed swap chain.
        name = data.draw(st.sampled_from(list(tree.basic_events)))
        level = data.draw(
            st.integers(min_value=0, max_value=len(manager.variables) - 1)
        )
        manager.move_to_level(name, level)
        manager.check_invariants()
        _assert_matches_reference(translator, semantics, formula, tree)

        # And once more after a second reclaim, post-reorder.
        pygc.collect()
        manager.collect()
        manager.check_invariants()
        _assert_matches_reference(translator, semantics, formula, tree)


def _holes_manager():
    """A manager whose store has free-list holes from a real GC."""
    manager = BDDManager(["a", "b", "c", "d", "e"])
    keep = manager.or_(
        manager.and_(manager.var("a"), manager.var("b")),
        manager.negate(manager.var("e")),
    )
    junk = [
        manager.and_(manager.var(x), manager.negate(manager.var(y)))
        for x, y in [("c", "d"), ("b", "c"), ("a", "e"), ("d", "a")]
    ]
    junk_count = len(junk)
    del junk
    pygc.collect()
    assert manager.collect() > 0, "expected the junk to be reclaimable"
    return manager, keep, junk_count


class TestArraySnapshotRoundTrips:
    def test_complement_roots_round_trip_binary(self):
        manager = BDDManager(["x", "y", "z"])
        f = manager.or_(manager.var("x"), manager.and_(manager.var("y"), manager.var("z")))
        snapshot = manager.save_snapshot(roots={"f": f, "nf": ~f})
        assert snapshot["version"] == 2
        assert isinstance(snapshot["levels"], bytes)
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        assert roots["nf"] is ~roots["f"]
        for bits in itertools.product((False, True), repeat=3):
            vector = dict(zip(("x", "y", "z"), bits))
            assert reloaded.evaluate(roots["f"], vector) == manager.evaluate(
                f, vector
            )
            assert reloaded.evaluate(roots["nf"], vector) != reloaded.evaluate(
                roots["f"], vector
            )

    @pytest.mark.parametrize("use_numpy", [False, True])
    def test_post_gc_holes_compact_away(self, use_numpy, monkeypatch):
        if not use_numpy:
            monkeypatch.setattr(_nputil, "np", None)
        manager, keep, _ = _holes_manager()
        snapshot = manager.save_snapshot(roots={"keep": keep})
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        # The reloaded store is dense: exactly the reachable nodes plus
        # the terminal, no holes shipped.
        assert reloaded.node_count() == manager.reachable_node_count()
        for bits in itertools.product((False, True), repeat=5):
            vector = dict(zip(("a", "b", "c", "d", "e"), bits))
            assert reloaded.evaluate(roots["keep"], vector) == manager.evaluate(
                keep, vector
            )

    @pytest.mark.parametrize("use_numpy", [False, True])
    def test_resized_unique_table_round_trips(self, use_numpy, monkeypatch):
        if not use_numpy:
            monkeypatch.setattr(_nputil, "np", None)
        # Enough distinct nodes to force open-addressed growth past the
        # initial capacity (load is kept <= 1/2).
        names = [f"v{i:02d}" for i in range(24)]
        manager = BDDManager(names)
        acc = manager.false
        refs = []
        for i in range(0, 24, 2):
            pair = manager.and_(manager.var(names[i]), manager.var(names[i + 1]))
            refs.append(pair)
            acc = manager.or_(acc, pair)
        before = manager.cache_stats()
        assert before["unique_capacity"] >= 1024
        snapshot = manager.save_snapshot(roots={"acc": acc})
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        stats = reloaded.cache_stats()
        # Rebuilt table honours the load-factor invariant for the
        # adopted population.
        assert stats["unique_capacity"] >= 2 * stats["unique_table_size"]
        vector = {name: False for name in names}
        assert reloaded.evaluate(roots["acc"], vector) is False
        vector[names[0]] = vector[names[1]] = True
        assert reloaded.evaluate(roots["acc"], vector) is True

    def test_numpy_and_pure_paths_save_identical_bytes(self, monkeypatch):
        manager, keep, _ = _holes_manager()
        rooted = manager.save_snapshot(roots={"keep": keep})
        full = manager.save_snapshot()
        monkeypatch.setattr(_nputil, "np", None)
        assert manager.save_snapshot(roots={"keep": keep}) == rooted
        assert manager.save_snapshot() == full

    def test_version_1_is_rejected(self):
        manager, keep, _ = _holes_manager()
        snapshot = manager.save_snapshot(roots={"keep": keep})
        legacy = {
            **snapshot,
            "version": 1,
            "levels": list(array("q", snapshot["levels"])),
            "lows": list(array("q", snapshot["lows"])),
            "highs": list(array("q", snapshot["highs"])),
        }
        legacy["sha256"] = "0" * 64
        with pytest.raises(SnapshotError, match="version 1"):
            BDDManager.load_snapshot(legacy)

    def test_foreign_byteorder_is_rejected(self):
        manager = BDDManager(["x"])
        f = manager.var("x")
        snapshot = manager.save_snapshot(roots={"f": f})
        snapshot["byteorder"] = (
            "big" if snapshot["byteorder"] == "little" else "little"
        )
        with pytest.raises(SnapshotError):
            BDDManager.load_snapshot(snapshot)

    def test_truncated_binary_column_is_rejected(self):
        manager = BDDManager(["x", "y"])
        f = manager.and_(manager.var("x"), manager.var("y"))
        snapshot = manager.save_snapshot(roots={"f": f})
        snapshot["lows"] = snapshot["lows"][:-8]
        with pytest.raises(SnapshotError):
            BDDManager.load_snapshot(snapshot)


def _sweep_fixture():
    manager = BDDManager(["a", "b", "c", "d"])
    f = manager.or_(
        manager.and_(manager.var("a"), manager.var("b")),
        manager.and_(manager.var("c"), manager.negate(manager.var("d"))),
    )
    profiles = [
        {"a": 0.1, "b": 0.9, "c": 0.5, "d": 0.25},
        {"a": 0.7, "b": 0.2, "c": 0.05, "d": 0.6},
        {"a": 0.0, "b": 1.0, "c": 1.0, "d": 0.0},
        {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5},
    ]
    return manager, f, profiles


class TestProbabilityMany:
    def test_matches_column_by_column(self):
        manager, f, profiles = _sweep_fixture()
        swept = manager.probability_many(f, profiles)
        for value, profile in zip(swept, profiles):
            assert value == pytest.approx(
                manager.probability(f, profile), abs=1e-12
            )
        # Complemented root: every column is the complement measure.
        swept_neg = manager.probability_many(~f, profiles)
        for a, b in zip(swept, swept_neg):
            assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_multi_root_rows_match_single_calls(self):
        manager, f, profiles = _sweep_fixture()
        g = manager.and_(manager.var("a"), manager.var("d"))
        rows = manager.probability_many(
            [f, ~f, g, manager.true, manager.false], profiles
        )
        for root, row in zip(
            [f, ~f, g, manager.true, manager.false], rows
        ):
            assert row == pytest.approx(
                manager.probability_many(root, profiles), abs=1e-12
            )
        assert rows[3] == [1.0] * len(profiles)
        assert rows[4] == [0.0] * len(profiles)

    def test_terminal_and_empty_cases(self):
        manager, f, profiles = _sweep_fixture()
        assert manager.probability_many(manager.true, profiles) == [1.0] * 4
        assert manager.probability_many(manager.false, profiles) == [0.0] * 4
        assert manager.probability_many(f, []) == []
        assert manager.probability_many([], profiles) == []
        assert manager.probability_many([f, ~f], []) == [[], []]

    def test_missing_weight_raises_like_probability(self):
        from repro.errors import MissingWeightError

        manager, f, profiles = _sweep_fixture()
        bad = [profiles[0], {"a": 0.5}]
        with pytest.raises(MissingWeightError):
            manager.probability_many(f, bad)

    def test_fallback_agrees_with_numpy_path(self, monkeypatch):
        manager, f, profiles = _sweep_fixture()
        g = manager.and_(manager.var("a"), manager.var("d"))
        vectorised = manager.probability_many([f, ~f, g], profiles)
        monkeypatch.setattr(_nputil, "np", None)
        fallback = manager.probability_many([f, ~f, g], profiles)
        for row_a, row_b in zip(vectorised, fallback):
            assert row_a == pytest.approx(row_b, abs=1e-12)
        single = manager.probability_many(f, profiles)
        assert single == pytest.approx(vectorised[0], abs=1e-12)


class TestOpenAddressedObservability:
    def test_cache_stats_reports_table_health(self):
        manager = BDDManager(["a", "b", "c"])
        manager.or_(manager.var("a"), manager.and_(manager.var("b"), manager.var("c")))
        stats = manager.cache_stats()
        assert stats["unique_capacity"] >= stats["unique_table_size"] * 2
        assert stats["unique_capacity"] & (stats["unique_capacity"] - 1) == 0
        for key in (
            "ut_collisions",
            "ut_resizes",
            "ut_max_probe",
            "cache_capacity",
            "cache_evictions",
            "cache_resizes",
        ):
            assert key in stats and stats[key] >= 0

    def test_batch_report_surfaces_tables_block(self):
        tree = build_covid_tree()
        analyzer = BatchAnalyzer(tree, uniform=0.03)
        report = analyzer.run(["exists MCS(IWoS)", "P(MoT) >= 0.5"])
        tables = report.stats["scenarios"]["default"]["tables"]
        unique = tables["unique"]
        assert unique["capacity"] >= 2 * unique["entries"]
        assert unique["entries"] > 0
        assert unique["max_probe"] >= 0
        caches = tables["caches"]
        assert caches["capacity"] > 0
        assert caches["evictions"] >= 0
        assert caches["resizes"] >= 0
        # The stats block round-trips through the JSON report.
        assert "tables" in report.to_dict()["stats"]["scenarios"]["default"]


class TestInvariantsAfterEverything:
    def test_gc_sift_snapshot_reload_chain(self):
        from repro.logic.parser import parse_formula

        tree = build_covid_tree()
        translator = FormulaTranslator(tree)
        top = translator.bdd(parse_formula("MCS(IWoS)"))
        manager = translator.manager
        pygc.collect()
        manager.collect()
        manager.check_invariants()
        manager.sift_inplace(max_rounds=1)
        manager.check_invariants()
        snapshot = manager.save_snapshot(roots={"top": top})
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        vector = {name: True for name in tree.basic_events}
        assert reloaded.evaluate(roots["top"], vector) == manager.evaluate(
            top, vector
        )
