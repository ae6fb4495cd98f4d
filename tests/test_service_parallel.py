"""Sharded multi-process batch execution and portable kernel snapshots.

Covers the PR-5 surface end to end:

* ``BDDManager.save_snapshot``/``load_snapshot`` — round-trip unit
  tests plus a hypothesis property cross-validating reloaded managers
  against :class:`~repro.logic.semantics.ReferenceSemantics`, including
  complemented roots, post-GC free-list holes and post-sift variable
  orders;
* the shard planner — determinism, balance, coverage, scenario
  locality and single-scenario splitting;
* ``BatchAnalyzer(workers=N)`` — parallel reports byte-identical to
  sequential ones modulo timing/stats, per-query errors (including
  ``ZeroProbabilityEvidenceError``) reported in place, merged stats;
* snapshot warm starts (``snapshots=``, fingerprint guard, the
  ``.snap`` store entries and the ``bfl batch --workers/--store`` CLI).
"""

from __future__ import annotations

import itertools
import json
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfl_strategies import small_trees
from repro.bdd import BDDManager
from repro.bdd.manager import decode_snapshot, encode_snapshot, snapshot_checksum
from repro.casestudy import build_covid_tree
from repro.cli import main as cli_main
from repro.errors import SnapshotError, SnapshotIntegrityError
from repro.ft import TreeTranslator, dual_tree, figure1_tree, tree_to_bdd
from repro.logic import ReferenceSemantics
from repro.logic.ast_nodes import Atom
from repro.service import (
    BatchAnalyzer,
    QuerySpec,
    SnapshotStore,
    estimate_cost,
    plan_shards,
    specs_from_any,
    tree_fingerprint,
)
from repro.testing.chaos import corrupt_store_entry


def _stripped(report):
    """Result dicts minus timing — the determinism view."""
    rows = []
    for result in report.results:
        data = result.to_dict()
        data.pop("elapsed_ms", None)
        rows.append(data)
    return rows


# ----------------------------------------------------------------------
# Kernel snapshots: unit tests
# ----------------------------------------------------------------------


def _column(snapshot, name):
    return array("q", snapshot[name])


def _set_item(snapshot, name, position, value):
    column = _column(snapshot, name)
    column[position] = value
    snapshot[name] = column.tobytes()


class TestKernelSnapshot:
    def test_round_trip_preserves_functions_and_invariants(self):
        tree = build_covid_tree()
        manager = BDDManager(tree.basic_events)
        translator = TreeTranslator(tree, manager)
        top = translator.element(tree.top)
        snapshot = manager.save_snapshot(roots={"top": top, "neg": ~top})
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        assert list(reloaded.variables) == list(manager.variables)
        assert roots["neg"].complemented != roots["top"].complemented
        names = list(tree.basic_events)
        for bits in itertools.islice(
            itertools.product((False, True), repeat=len(names)), 512
        ):
            vector = dict(zip(names, bits))
            assert reloaded.evaluate(roots["top"], vector) == manager.evaluate(
                top, vector
            )
            assert reloaded.evaluate(roots["neg"], vector) != (
                reloaded.evaluate(roots["top"], vector)
            )

    def test_snapshot_codec_round_trip(self):
        manager = BDDManager(["a", "b", "c"])
        f = manager.or_(
            manager.and_(manager.var("a"), manager.var("b")),
            manager.nvar("c"),
        )
        data = encode_snapshot(manager.save_snapshot({"f": f}))
        assert isinstance(data, bytes)
        snapshot = decode_snapshot(data)
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        assert reloaded.evaluate(
            roots["f"], {"a": True, "b": True, "c": True}
        )

    def test_rooted_snapshot_drops_garbage(self):
        tree = build_covid_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        # Build (and keep) unrelated functions; a rooted snapshot must
        # not ship them.
        junk = [
            manager.restrict(root, name, True)
            for name in tree.basic_events
        ]
        snapshot = manager.save_snapshot(roots={"top": root})
        reloaded, _ = BDDManager.load_snapshot(snapshot)
        assert reloaded.node_count() < manager.node_count()
        assert junk  # keep the refs alive to the end

    def test_unrooted_snapshot_keeps_live_store(self):
        manager = BDDManager(["a", "b"])
        f = manager.and_(manager.var("a"), manager.var("b"))
        snapshot = manager.save_snapshot()
        assert snapshot["roots"] == {}
        reloaded, _ = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        assert reloaded.node_count() == manager.node_count()
        assert f is not None

    def test_post_gc_holes_compact_away(self):
        tree = build_covid_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        junk = manager.restrict(root, "IW", True)
        del junk
        manager.collect()
        assert manager._free, "test needs real free-list holes"
        snapshot = manager.save_snapshot(roots={"top": root})
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        assert not reloaded._free
        # Post-collect the source holds exactly the root-reachable store.
        assert reloaded.node_count() == manager.node_count()
        vector = {name: True for name in tree.basic_events}
        assert reloaded.evaluate(roots["top"], vector) == manager.evaluate(
            root, vector
        )

    def test_post_sift_order_survives(self):
        tree = build_covid_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        manager.sift_inplace(max_rounds=1)
        assert list(manager.variables) != list(tree.basic_events)
        snapshot = manager.save_snapshot(roots={"top": root})
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        assert list(reloaded.variables) == list(manager.variables)
        assert reloaded.node_count() <= manager.node_count()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.update(format="not-a-snapshot"),
            lambda s: s.update(version=99),
            lambda s: s.update(levels=s["levels"][:-8]),
            lambda s: _set_item(s, "highs", 0, _column(s, "highs")[0] | 1),
            lambda s: s.update(variables=["a", "a"]),
            lambda s: s["roots"].update(bad=10**6),
            lambda s: s.update(
                levels=array("q", [99] * len(_column(s, "levels"))).tobytes()
            ),
            lambda s: _set_item(
                s, "lows", -1, (len(_column(s, "lows")) + 5) << 1
            ),
            lambda s: s.update(levels=s["levels"][:-1]),
            lambda s: s.update(variables=[["a"], "b", "c"]),
            lambda s: s.update(variables=[]),
        ],
    )
    def test_corrupt_snapshots_are_rejected(self, mutate):
        """Structural damage behind a *valid* checksum (re-stamped after
        the mutation) is still caught by the canonical-form checks."""
        manager = BDDManager(["a", "b", "c"])
        f = manager.or_(
            manager.and_(manager.var("a"), manager.var("b")),
            manager.var("c"),
        )
        snapshot = manager.save_snapshot({"f": f})
        mutate(snapshot)
        snapshot["sha256"] = snapshot_checksum(snapshot)
        with pytest.raises(SnapshotError):
            BDDManager.load_snapshot(snapshot)

    def test_adopt_rejects_foreign_elements(self):
        covid = build_covid_tree()
        fig1 = figure1_tree()
        manager = BDDManager(covid.basic_events)
        translator = TreeTranslator(covid, manager)
        translator.element(covid.top)
        snapshot = manager.save_snapshot(roots=translator.export_cache())
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        other = TreeTranslator(fig1, BDDManager(fig1.basic_events))
        with pytest.raises(SnapshotError):
            other.adopt(roots)


# ----------------------------------------------------------------------
# Kernel snapshots: hypothesis property
# ----------------------------------------------------------------------


class TestSnapshotProperty:
    @given(
        data=st.data(),
        tree=small_trees(max_basic_events=5),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
        ],
    )
    def test_round_trip_matches_reference_semantics(self, data, tree):
        """load_snapshot(save_snapshot(m)) preserves semantics vs the
        enumerative reference, across GC holes, sifted orders and
        complemented roots."""
        manager = BDDManager(tree.basic_events)
        translator = TreeTranslator(tree, manager)
        top = translator.element(tree.top)
        neg = ~top
        names = list(tree.basic_events)
        # Optionally create garbage + free-list holes.
        if data.draw(st.booleans(), label="make_holes"):
            junk = manager.restrict(top, names[0], True)
            del junk
            manager.collect()
        # Optionally sift to a non-declaration order.
        if data.draw(st.booleans(), label="sift"):
            manager.sift_inplace(max_rounds=1)
        snapshot = manager.save_snapshot(
            roots={**translator.export_cache(), "!top": neg}
        )
        snapshot = decode_snapshot(encode_snapshot(snapshot))  # file trip
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        semantics = ReferenceSemantics(tree)
        top_formula = Atom(tree.top)
        for vector in semantics.iter_vectors():
            expected = semantics.holds(top_formula, vector)
            assert reloaded.evaluate(roots[tree.top], vector) == expected
            assert reloaded.evaluate(roots["!top"], vector) == (not expected)
            # Every adopted element must agree with the reference too.
            statuses = semantics._statuses(vector)
            for name, ref in roots.items():
                if name == "!top":
                    continue
                assert reloaded.evaluate(ref, vector) == statuses[name]


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------


def _mini_trees():
    covid = build_covid_tree()
    return {
        "covid": covid,
        "dual": dual_tree(covid),
        "fig1": figure1_tree(),
    }


def _mini_battery():
    return specs_from_any(
        [
            {"id": "a", "formula": "forall (IS => MoT)", "tree": "covid"},
            {"id": "b", "kind": "mcs", "tree": "covid"},
            {"id": "c", "formula": "exists (MCS(IWoS) & H1)", "tree": "covid"},
            {"id": "d", "kind": "mps", "tree": "dual"},
            {"id": "e", "formula": "exists MCS(CP/R)", "tree": "covid"},
            {"id": "f", "kind": "mcs", "tree": "fig1"},
            {"id": "g", "formula": "P(MoT | H1) >= 0.0", "tree": "covid"},
            {"id": "h", "formula": "[[ MCS(MoT) & IS ]]", "tree": "covid"},
        ]
    )


class TestShardPlanner:
    def test_plan_covers_every_query_exactly_once(self):
        specs = _mini_battery()
        shards = plan_shards(specs, _mini_trees(), 3)
        indices = sorted(i for shard in shards for i in shard.indices)
        assert indices == list(range(len(specs)))
        for shard in shards:
            assert list(shard.indices) == sorted(shard.indices)
            assert len(shard.specs) == len(shard.indices)

    def test_plan_is_deterministic(self):
        specs = _mini_battery()
        trees = _mini_trees()
        assert plan_shards(specs, trees, 3) == plan_shards(specs, trees, 3)

    def test_plan_balances_costs(self):
        trees = {"covid": build_covid_tree()}
        specs = specs_from_any(
            [
                {"id": f"q{i}", "formula": "exists (MCS(MoT) & H1)"}
                for i in range(40)
            ]
        )
        shards = plan_shards(specs, trees, 4)
        assert len(shards) == 4
        costs = [shard.cost for shard in shards]
        assert max(costs) <= 2 * min(costs)

    def test_single_scenario_battery_still_splits(self):
        trees = {"default": build_covid_tree()}
        specs = specs_from_any(["exists MoT"] * 8)
        shards = plan_shards(specs, trees, 4)
        assert len(shards) > 1

    def test_shard_count_never_exceeds_request(self):
        specs = _mini_battery()
        shards = plan_shards(specs, _mini_trees(), 100)
        assert len(shards) <= len(specs)

    def test_unknown_scenario_gets_nominal_cost(self):
        spec = QuerySpec(id="x", formula="exists MoT", tree="nope")
        assert estimate_cost(spec, None) == 1.0

    def test_minimisation_queries_cost_more(self):
        tree = build_covid_tree()
        check = QuerySpec(id="a", formula="exists (IS & MoT)")
        mcs = QuerySpec(id="b", kind="mcs")
        assert estimate_cost(mcs, tree) > estimate_cost(check, tree)


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------


class TestParallelExecution:
    def battery(self):
        return [
            {"id": "a", "formula": "forall (IS => MoT)", "tree": "covid"},
            {"id": "b", "kind": "mcs", "tree": "covid"},
            {"id": "c", "formula": "exists (MCS(IWoS) & H1)", "tree": "covid"},
            {"id": "d", "kind": "mps", "tree": "dual"},
            {"id": "e", "kind": "mcs", "tree": "fig1"},
            {"id": "f", "formula": "P(MoT | H1) >= 0.0", "tree": "covid"},
            # Per-query errors must ride along in place:
            {"id": "g", "formula": "P(MoT | H1 & !H1) >= 0.5", "tree": "covid"},
            {"id": "h", "formula": "exists Zzz", "tree": "missing"},
            {"id": "i", "formula": "[[ MCS(MoT) & IS ]]", "tree": "covid"},
        ]

    def test_parallel_report_matches_sequential(self):
        trees = _mini_trees()
        sequential = BatchAnalyzer(trees, uniform=0.1).run(self.battery())
        parallel = BatchAnalyzer(trees, uniform=0.1, workers=3).run(
            self.battery()
        )
        assert _stripped(sequential) == _stripped(parallel)
        assert parallel.stats["parallel"]["workers"] == 3

    def test_errors_reported_in_place(self):
        trees = _mini_trees()
        report = BatchAnalyzer(trees, uniform=0.1, workers=2).run(
            self.battery()
        )
        assert not report.ok
        assert "zero-probability" in report["g"].error
        assert "unknown scenario" in report["h"].error
        assert report["a"].ok and report["i"].ok

    def test_merged_stats_aggregate(self):
        trees = _mini_trees()
        report = BatchAnalyzer(trees, uniform=0.1, workers=2).run(
            self.battery()
        )
        queries = report.stats["queries"]
        assert queries["total"] == len(self.battery())
        assert queries["errors"] == 2
        shards = report.stats["parallel"]["shards"]
        assert sum(row["queries"] for row in shards) == len(self.battery())
        assert all("cost" in row for row in shards)
        assert "covid" in report.stats["scenarios"]

    def test_workers_one_is_pure_in_process(self):
        analyzer = BatchAnalyzer(build_covid_tree(), workers=1)
        report = analyzer.run(["forall (IS => MoT)"])
        assert "parallel" not in report.stats

    def test_single_query_battery_skips_the_pool(self):
        analyzer = BatchAnalyzer(build_covid_tree(), workers=4)
        report = analyzer.run(["forall (IS => MoT)"])
        assert report.results[0].holds is False
        assert "parallel" not in report.stats

    def test_bad_workers_rejected(self):
        from repro.service.queries import QuerySpecError

        for bad in (0, -1, 1.5, True):
            with pytest.raises(QuerySpecError):
                BatchAnalyzer(build_covid_tree(), workers=bad)

    def test_failed_shards_still_count_in_merged_stats(self):
        """A crashed worker's queries must show up in the aggregated
        totals, not just as per-query errors."""
        from repro.service.parallel import merge_reports

        trees = {"default": build_covid_tree()}
        specs = specs_from_any(["exists MoT", "exists IS", "exists SH"])
        shards = plan_shards(specs, trees, 2)
        merged = merge_reports(
            specs,
            shards,
            [None] * len(shards),
            ["BrokenProcessPool: boom"] * len(shards),
            workers=2,
            elapsed_ms=1.0,
        )
        assert not merged.ok
        assert merged.stats["queries"]["total"] == len(specs)
        assert merged.stats["queries"]["errors"] == len(specs)
        assert all(
            "worker shard failed" in result.error
            for result in merged.results
        )

    def test_sessions_are_lazy(self):
        """Neither the parent of a parallel run nor a worker should pay
        for scenarios its queries never touch."""
        trees = _mini_trees()
        analyzer = BatchAnalyzer(trees, uniform=0.1, workers=2)
        assert analyzer._sessions == {}
        report = analyzer.run(
            [
                {"formula": "exists MoT", "tree": "covid"},
                {"formula": "forall (IS => MoT)", "tree": "covid"},
            ]
        )
        assert report.ok
        # The parallel parent never evaluates, so it builds no session.
        assert analyzer._sessions == {}
        assert set(analyzer.scenarios) == set(trees)


# ----------------------------------------------------------------------
# Snapshot warm starts through the service layer
# ----------------------------------------------------------------------


class TestServiceSnapshots:
    def test_warm_start_answers_identically(self):
        trees = _mini_trees()
        source = BatchAnalyzer(trees, uniform=0.1)
        source.prewarm_trees()
        snapshots = source.kernel_snapshots()
        warm = BatchAnalyzer(trees, uniform=0.1, snapshots=snapshots)
        session = warm.session("covid")
        translator = session.checker.translator.tree_translator
        assert len(translator.cached_elements) == len(
            trees["covid"].elements
        )
        battery = [
            "forall (IS => MoT)",
            "exists MCS(CP/R)",
            "P(MoT) >= 0.5",
        ]
        cold_report = BatchAnalyzer(trees, uniform=0.1).run(battery)
        warm_report = warm.run(battery)
        assert _stripped(cold_report) == _stripped(warm_report)
        session.checker.manager.check_invariants()

    def test_fingerprint_mismatch_raises(self):
        trees = _mini_trees()
        source = BatchAnalyzer(trees, uniform=0.1)
        source.prewarm_trees()
        snapshots = source.kernel_snapshots()
        wrong = {"covid": snapshots["fig1"]}
        with pytest.raises(SnapshotError):
            BatchAnalyzer(trees, snapshots=wrong)

    def test_malformed_snapshot_entry_raises(self):
        with pytest.raises(SnapshotError):
            BatchAnalyzer(
                build_covid_tree(), snapshots={"default": {"bogus": 1}}
            )

    def test_snapshot_entry_without_fingerprint_rejected(self):
        """An entry that cannot prove which tree it came from must not
        warm-start anything (the staleness guard is mandatory)."""
        trees = _mini_trees()
        source = BatchAnalyzer(trees, uniform=0.1)
        source.prewarm_trees()
        entry = dict(source.kernel_snapshots()["covid"])
        entry.pop("tree")
        with pytest.raises(SnapshotError):
            BatchAnalyzer(trees, snapshots={"covid": entry})

    def test_fingerprint_is_structural(self):
        covid = build_covid_tree()
        assert tree_fingerprint(covid) == tree_fingerprint(
            build_covid_tree()
        )
        assert tree_fingerprint(covid) != tree_fingerprint(figure1_tree())

    def test_snapshot_file_round_trip(self, tmp_path):
        trees = _mini_trees()
        source = BatchAnalyzer(trees, uniform=0.1)
        source.prewarm_trees()
        store = SnapshotStore(tmp_path / "kernels")
        for entry in source.kernel_snapshots().values():
            path = store.put(entry["tree"], entry["kernel"])
            assert path.name == f"{entry['tree']}.snap"
        loaded = {
            name: store.get(tree_fingerprint(tree))
            for name, tree in trees.items()
        }
        assert all(entry is not None for entry in loaded.values())
        assert store.stats()["hits"] == len(trees)
        warm = BatchAnalyzer(trees, uniform=0.1, snapshots=loaded)
        report = warm.run(
            [{"formula": "forall (IS => MoT)", "tree": "covid"}]
        )
        assert report.ok
        assert "warnings" not in report.stats

    def test_snapshot_file_rejects_garbage(self, tmp_path):
        with pytest.raises(SnapshotError):
            decode_snapshot(b'{"format": "nope"}')
        store = SnapshotStore(tmp_path)
        fingerprint = tree_fingerprint(build_covid_tree())
        store.entry_path(fingerprint).write_bytes(b"garbage")
        assert store.get(fingerprint) is None
        assert store.stats()["malformed"] == 1
        # An intact entry filed under another tree's fingerprint is
        # malformed too: the header's tree must match the file name.
        source = BatchAnalyzer(figure1_tree())
        source.prewarm_trees()
        entry = source.kernel_snapshots()["default"]
        store.entry_path(fingerprint).write_bytes(
            encode_snapshot(entry["kernel"], tree=entry["tree"])
        )
        assert store.get(fingerprint) is None
        assert store.stats()["malformed"] == 2
        # Pre-codec JSON entries are never read.
        (tmp_path / f"{fingerprint}.json").write_text("{}")
        store.delete(fingerprint)
        assert store.fingerprints() == []
        assert store.get(fingerprint) is None
        assert store.stats()["misses"] == 1


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestBatchCLI:
    def _query_file(self, tmp_path, extra=None):
        data = {
            "uniform": 0.05,
            "queries": [
                {"id": "q1", "formula": "forall (IS => MoT)"},
                {"id": "q2", "kind": "mcs"},
                {"id": "q3", "formula": "exists (MCS(IWoS) & H1)"},
                {"id": "q4", "formula": "P(MoT | H1) >= 0.1"},
            ],
        }
        data.update(extra or {})
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_workers_flag_matches_sequential(self, tmp_path, capsys):
        queries = self._query_file(tmp_path)
        assert cli_main(["batch", queries]) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert cli_main(["batch", queries, "--workers", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        for row in sequential["results"] + parallel["results"]:
            row.pop("elapsed_ms", None)
        assert sequential["results"] == parallel["results"]
        assert parallel["stats"]["parallel"]["workers"] == 2

    def test_workers_key_in_query_file(self, tmp_path, capsys):
        queries = self._query_file(tmp_path, {"workers": 2})
        assert cli_main(["batch", queries]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stats"]["parallel"]["workers"] == 2

    def test_bad_workers_flag_exits_2(self, tmp_path, capsys):
        queries = self._query_file(tmp_path)
        assert cli_main(["batch", queries, "--workers", "0"]) == 2
        capsys.readouterr()

    def test_store_flag_creates_then_reuses(self, tmp_path, capsys, monkeypatch):
        queries = self._query_file(tmp_path)
        store_dir = tmp_path / "kernels"
        assert cli_main(["batch", queries, "--store", str(store_dir)]) == 0
        first = json.loads(capsys.readouterr().out)
        store = SnapshotStore(store_dir)
        assert store.fingerprints() == [tree_fingerprint(build_covid_tree())]
        hits = []
        get = SnapshotStore.get

        def counting_get(self, fingerprint):
            entry = get(self, fingerprint)
            hits.append(entry is not None)
            return entry

        monkeypatch.setattr(SnapshotStore, "get", counting_get)
        assert cli_main(
            ["batch", queries, "--store", str(store_dir), "--workers", "2"]
        ) == 0
        second = json.loads(capsys.readouterr().out)
        assert hits == [True]
        assert "warnings" not in second["stats"]
        # Cold single-process and warm two-worker reports agree byte
        # for byte once timings are zeroed.
        first_rows, second_rows = (
            json.dumps(
                [{**row, "elapsed_ms": 0.0} for row in report["results"]],
                sort_keys=True,
            )
            for report in (first, second)
        )
        assert first_rows == second_rows

    def test_store_repairs_a_corrupt_entry(self, tmp_path, capsys):
        """A store hit that fails its integrity check is rebuilt cold
        once and put back, so the next run warm-starts cleanly."""
        queries = self._query_file(tmp_path)
        store_dir = tmp_path / "kernels"
        assert cli_main(["batch", queries, "--store", str(store_dir)]) == 0
        capsys.readouterr()
        fingerprint = tree_fingerprint(build_covid_tree())
        corrupt_store_entry(SnapshotStore(store_dir), fingerprint, seed=7)
        with pytest.raises(SnapshotIntegrityError):
            BDDManager.load_snapshot(
                SnapshotStore(store_dir).get(fingerprint)["kernel"]
            )
        reports = []
        for _ in range(2):
            assert cli_main(["batch", queries, "--store", str(store_dir)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert [w["kind"] for w in reports[0]["stats"]["warnings"]] == [
            "snapshot-integrity"
        ]
        assert "warnings" not in reports[1]["stats"]
        first, second = (
            [{**row, "elapsed_ms": 0.0} for row in report["results"]]
            for report in reports
        )
        assert first == second
        BDDManager.load_snapshot(
            SnapshotStore(store_dir).get(fingerprint)["kernel"]
        )

    def test_store_key_in_query_file(self, tmp_path, capsys):
        store_dir = tmp_path / "kernels"
        queries = self._query_file(tmp_path, {"store": str(store_dir)})
        assert cli_main(["batch", queries]) == 0
        capsys.readouterr()
        assert len(SnapshotStore(store_dir).fingerprints()) == 1

    def test_legacy_snapshot_key_exits_2(self, tmp_path, capsys):
        queries = self._query_file(tmp_path, {"snapshot": "kernels.json"})
        assert cli_main(["batch", queries]) == 2
        assert "'store'" in capsys.readouterr().err
        assert not (tmp_path / "kernels.json").exists()
