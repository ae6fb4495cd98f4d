"""Resource governance, snapshot integrity and the chaos harness.

Covers the PR-8 surface:

* :class:`repro.runtime.limits.Governor` — budget/deadline semantics,
  injectable clock, re-arming, trip accounting;
* governed kernel aborts — a deadline or budget trip mid-operation
  leaves the manager consistent (``check_invariants``) and the same
  work succeeds once the governor is removed, including with GC and
  sifting interleaved (hypothesis-driven);
* sha256 snapshot integrity — round trips, deterministic corruption
  and truncation detection, legacy checksum-free payloads, and the
  ``BatchAnalyzer`` degrade-to-prewarm fallback with structured
  warnings;
* batch governance — per-query ``timeout_ms``, analyzer-level battery
  deadlines, structured ``error_kind`` rows;
* the chaos harness end to end — a killed worker recovered by shard
  retry, retry exhaustion reported as ``worker-crash``, budget trips as
  ``resource-limit``, with non-injected queries byte-identical to a
  fault-free sequential run.
"""

from __future__ import annotations

import json
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bfl_strategies import small_trees
from repro.bdd import BDDManager, count_cubes, iter_cubes
from repro.bdd.manager import (
    decode_snapshot,
    encode_snapshot,
    snapshot_checksum,
)
from repro.errors import (
    ExecutionError,
    QueryDeadlineError,
    ReproError,
    ResourceLimitError,
    SnapshotError,
    SnapshotIntegrityError,
    WorkerCrashError,
    error_kind,
)
from repro.ft import TreeTranslator, figure1_tree, tree_to_bdd
from repro.runtime import Governor
from repro.service import BatchAnalyzer, QuerySpec, specs_from_any
from repro.service.queries import QuerySpecError
from repro.testing.chaos import chaos_config, corrupt_snapshot, on_shard_start


class FakeClock:
    """Deterministic monotonic clock the tests advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _stripped(report):
    rows = []
    for result in report.results:
        data = result.to_dict()
        data.pop("elapsed_ms", None)
        rows.append(data)
    return rows


def _battery(event: str):
    return specs_from_any(
        [
            {"id": "q1", "formula": f"[[ {event} ]]"},
            {"id": "q2", "kind": "mcs"},
            {"id": "q3", "formula": f"forall ({event} => {event})"},
            {"id": "q4", "kind": "mps"},
            {"id": "q5", "formula": f"[[ {event} & {event} ]]"},
            {"id": "q6", "formula": f"exists {event}"},
            {"id": "q7", "formula": f"forall (!{event} | {event})"},
            {"id": "q8", "kind": "mcs"},
        ]
    )


# ----------------------------------------------------------------------
# Governor unit semantics
# ----------------------------------------------------------------------


class TestGovernor:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Governor(deadline_ms=0)
        with pytest.raises(ValueError):
            Governor(deadline_ms=-5)
        with pytest.raises(ValueError):
            Governor(node_budget=0)
        with pytest.raises(ValueError):
            Governor(step_budget=0)
        with pytest.raises(ValueError):
            Governor(check_interval=0)

    def test_step_budget_trips_after_budget_ticks(self):
        governor = Governor(step_budget=5).start()
        for _ in range(5):
            governor.tick()
        with pytest.raises(ResourceLimitError) as excinfo:
            governor.tick()
        assert "apply-step budget" in str(excinfo.value)
        assert governor.trips == 1
        assert error_kind(excinfo.value) == "resource-limit"

    def test_node_budget_trips_on_live_count(self):
        governor = Governor(node_budget=10).start()
        governor.tick(live_nodes=10)  # at the budget: fine
        with pytest.raises(ResourceLimitError) as excinfo:
            governor.tick(live_nodes=11)
        assert "node budget" in str(excinfo.value)

    def test_deadline_trips_with_injected_clock(self):
        clock = FakeClock()
        governor = Governor(
            deadline_ms=100, check_interval=1, clock=clock
        ).start()
        governor.tick()
        clock.advance(0.2)  # 200 ms > the 100 ms budget
        with pytest.raises(QueryDeadlineError) as excinfo:
            governor.tick()
        assert error_kind(excinfo.value) == "deadline"
        assert governor.trips == 1

    def test_first_tick_checks_deadline_even_with_wide_interval(self):
        clock = FakeClock()
        governor = Governor(
            deadline_ms=1, check_interval=1024, clock=clock
        ).start()
        clock.advance(1.0)
        with pytest.raises(QueryDeadlineError):
            governor.tick()

    def test_wall_clock_only_read_at_interval(self):
        clock = FakeClock()
        governor = Governor(
            deadline_ms=100, check_interval=8, clock=clock
        ).start()
        governor.tick()  # step 1 always checks
        clock.advance(1.0)
        for _ in range(5):  # steps 2..6: no clock reads, no trip
            governor.tick()
        with pytest.raises(QueryDeadlineError):
            for _ in range(8):
                governor.tick()

    def test_check_deadline_is_unconditional(self):
        clock = FakeClock()
        governor = Governor(
            deadline_ms=100, check_interval=1 << 20, clock=clock
        ).start()
        clock.advance(1.0)
        with pytest.raises(QueryDeadlineError):
            governor.check_deadline()

    def test_start_rearms_deadline_and_steps(self):
        clock = FakeClock()
        governor = Governor(
            deadline_ms=100, check_interval=1, clock=clock
        ).start()
        clock.advance(0.2)
        with pytest.raises(QueryDeadlineError):
            governor.tick()
        governor.start()  # re-arm from the new now
        governor.tick()
        assert governor.steps == 1
        assert governor.trips == 1

    def test_remaining_ms(self):
        clock = FakeClock()
        governor = Governor(deadline_ms=100, clock=clock).start()
        clock.advance(0.04)
        assert governor.remaining_ms() == pytest.approx(60.0)
        clock.advance(1.0)
        assert governor.remaining_ms() == 0.0
        assert Governor(step_budget=3).remaining_ms() is None

    def test_tick_autostarts(self):
        governor = Governor(step_budget=1)
        governor.tick()
        with pytest.raises(ResourceLimitError):
            governor.tick()


class TestErrorKinds:
    def test_stable_kinds(self):
        assert error_kind(ResourceLimitError("x")) == "resource-limit"
        assert error_kind(QueryDeadlineError("x")) == "deadline"
        assert error_kind(WorkerCrashError("x")) == "worker-crash"
        assert error_kind(SnapshotIntegrityError("x")) == "snapshot-integrity"
        assert error_kind(ValueError("x")) == "ValueError"

    def test_integrity_error_is_both_snapshot_and_execution(self):
        exc = SnapshotIntegrityError("x")
        assert isinstance(exc, SnapshotError)
        assert isinstance(exc, ExecutionError)

    def test_worker_crash_carries_traceback(self):
        exc = WorkerCrashError("boom", traceback_text="Traceback ...")
        assert exc.traceback_text == "Traceback ..."


# ----------------------------------------------------------------------
# Governed kernel aborts leave the manager consistent
# ----------------------------------------------------------------------


class TestGovernedKernel:
    def test_ungoverned_manager_runs_free(self):
        tree = figure1_tree()
        manager = BDDManager(tree.basic_events)
        assert manager.governor is None
        tree_to_bdd(tree, manager)
        manager.check_invariants()

    def test_deadline_abort_leaves_manager_consistent(self):
        tree = figure1_tree()
        manager = BDDManager(tree.basic_events)
        clock = FakeClock()
        governor = Governor(
            deadline_ms=1, check_interval=1, clock=clock
        ).start()
        clock.advance(1.0)
        manager.governor = governor
        with pytest.raises(QueryDeadlineError):
            tree_to_bdd(tree, manager)
        manager.check_invariants()
        assert governor.trips >= 1
        # Removing the governor lets the identical work complete, and
        # the result matches a never-governed manager.
        manager.governor = None
        root = tree_to_bdd(tree, manager)
        fresh = BDDManager(tree.basic_events)
        expected = tree_to_bdd(tree, fresh)
        weights = {name: 0.25 for name in tree.basic_events}
        assert manager.probability(root, weights) == pytest.approx(
            fresh.probability(expected, weights)
        )

    def test_node_budget_abort_consistent(self):
        tree = figure1_tree()
        manager = BDDManager(tree.basic_events)
        manager.governor = Governor(node_budget=2)
        with pytest.raises(ResourceLimitError):
            tree_to_bdd(tree, manager)
        manager.check_invariants()
        manager.governor = None
        tree_to_bdd(tree, manager)
        manager.check_invariants()

    def test_step_budget_abort_during_sift(self):
        tree = figure1_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        weights = {name: 0.25 for name in tree.basic_events}
        before = manager.probability(root, weights)
        manager.governor = Governor(step_budget=1)
        with pytest.raises(ResourceLimitError):
            manager.sift_inplace()
        manager.check_invariants()
        manager.governor = None
        # The aborted sift preserved every function.
        assert manager.probability(root, weights) == pytest.approx(before)
        manager.sift_inplace()
        assert manager.probability(root, weights) == pytest.approx(before)

    def test_governed_probability_completes_under_roomy_budget(self):
        tree = figure1_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        manager.governor = Governor(deadline_ms=60_000)
        weights = {name: 0.25 for name in tree.basic_events}
        value = manager.probability(root, weights)
        manager.governor = None
        fresh = BDDManager(tree.basic_events)
        assert value == pytest.approx(
            fresh.probability(tree_to_bdd(tree, fresh), weights)
        )

    def test_cube_enumeration_ticks_the_governor(self):
        names = [f"x{i}" for i in range(16)]
        manager = BDDManager(names)
        # 2**15 paths and not one node allocated while walking them.
        parity = manager.false
        for name in names:
            parity = manager.xor(parity, manager.var(name))
        manager.governor = Governor(step_budget=1000)
        with pytest.raises(ResourceLimitError):
            sum(1 for _ in iter_cubes(manager, parity))
        # Counting is a DP over the nodes, not a walk over the paths.
        assert count_cubes(manager, parity) == 2**15
        manager.governor = None
        assert sum(1 for _ in iter_cubes(manager, parity)) == 2**15
        for name in [f"y{i}" for i in range(48)]:
            manager.declare(name)
            parity = manager.xor(parity, manager.var(name))
        assert count_cubes(manager, parity) == 2**63

    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tree=small_trees(), step_budget=st.integers(1, 60))
    def test_abort_then_retry_matches_fresh_build(self, tree, step_budget):
        """Trip mid-translation, GC, sift, retry: semantics preserved.

        The governed manager either finishes within the budget or
        aborts consistently; after the abort the interleaved GC and
        sifting passes must still see a sound store, and the retried
        translation must agree with a never-governed manager.
        """
        manager = BDDManager(tree.basic_events)
        manager.governor = Governor(step_budget=step_budget)
        aborted = False
        try:
            tree_to_bdd(tree, manager)
        except ExecutionError:
            aborted = True
        manager.check_invariants()
        manager.governor = None
        manager.collect()
        manager.check_invariants()
        root = tree_to_bdd(tree, manager)
        manager.sift_inplace()
        manager.check_invariants()
        fresh = BDDManager(tree.basic_events)
        expected = tree_to_bdd(tree, fresh)
        weights = {name: 0.25 for name in tree.basic_events}
        assert manager.probability(root, weights) == pytest.approx(
            fresh.probability(expected, weights)
        )
        if not aborted:
            # Small trees may fit the budget — that run must be exact.
            assert manager.node_count() >= 0


# ----------------------------------------------------------------------
# Snapshot integrity
# ----------------------------------------------------------------------


def _snapshot_of(tree):
    manager = BDDManager(tree.basic_events)
    translator = TreeTranslator(tree, manager)
    top = translator.element(tree.top)
    return manager, manager.save_snapshot(roots={"top": top})


class TestSnapshotIntegrity:
    def test_round_trip_carries_checksum(self):
        _, snapshot = _snapshot_of(figure1_tree())
        assert snapshot["sha256"] == snapshot_checksum(snapshot)
        reloaded, roots = BDDManager.load_snapshot(snapshot)
        reloaded.check_invariants()
        assert "top" in roots

    def test_codec_round_trip_still_validates(self):
        _, snapshot = _snapshot_of(figure1_tree())
        portable = decode_snapshot(encode_snapshot(snapshot))
        assert portable == snapshot
        reloaded, _ = BDDManager.load_snapshot(portable)
        reloaded.check_invariants()

    def test_corruption_detected(self):
        _, snapshot = _snapshot_of(figure1_tree())
        portable = decode_snapshot(encode_snapshot(snapshot))
        bad = corrupt_snapshot(portable, seed=3, flips=1)
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            BDDManager.load_snapshot(bad)
        assert error_kind(excinfo.value) == "snapshot-integrity"
        assert "sha256" in str(excinfo.value)

    def test_truncation_detected(self):
        _, snapshot = _snapshot_of(figure1_tree())
        truncated = dict(snapshot)
        truncated["lows"] = truncated["lows"][:-8]
        with pytest.raises(SnapshotIntegrityError):
            BDDManager.load_snapshot(truncated)

    def test_snapshot_without_checksum_is_rejected(self):
        _, snapshot = _snapshot_of(figure1_tree())
        unsigned = dict(snapshot)
        unsigned.pop("sha256")
        with pytest.raises(SnapshotIntegrityError, match="no sha256"):
            BDDManager.load_snapshot(unsigned)

    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tree=small_trees(), seed=st.integers(0, 2**16))
    def test_single_flip_always_detected(self, tree, seed):
        _, snapshot = _snapshot_of(tree)
        bad = corrupt_snapshot(snapshot, seed=seed, flips=1)
        with pytest.raises(SnapshotIntegrityError):
            BDDManager.load_snapshot(bad)

    def test_batch_degrades_to_prewarm_on_corrupt_snapshot(self):
        tree = figure1_tree()
        event = sorted(tree.basic_events)[0]
        specs = _battery(event)
        cold = BatchAnalyzer(tree).run(specs)

        source = BatchAnalyzer(tree)
        source.prewarm_trees()
        snapshots = source.kernel_snapshots()
        bad = {
            name: corrupt_snapshot(entry, seed=11)
            for name, entry in snapshots.items()
        }
        degraded_analyzer = BatchAnalyzer(tree, snapshots=bad)
        degraded = degraded_analyzer.run(specs)
        assert degraded.ok
        assert _stripped(degraded) == _stripped(cold)
        warnings = degraded.stats.get("warnings")
        assert warnings and warnings[0]["kind"] == "snapshot-integrity"

    def test_batch_accepts_intact_snapshot_silently(self):
        tree = figure1_tree()
        source = BatchAnalyzer(tree)
        source.prewarm_trees()
        warm = BatchAnalyzer(tree, snapshots=source.kernel_snapshots())
        report = warm.run(_battery(sorted(tree.basic_events)[0]))
        assert report.ok
        assert "warnings" not in report.stats


# ----------------------------------------------------------------------
# Batch governance: timeouts and deadlines
# ----------------------------------------------------------------------


class TestBatchGovernance:
    def test_timeout_ms_validation(self):
        with pytest.raises(QuerySpecError):
            QuerySpec(id="q", formula="[[ a ]]", timeout_ms=0)
        with pytest.raises(QuerySpecError):
            QuerySpec(id="q", formula="[[ a ]]", timeout_ms=-1)

    def test_timeout_ms_from_dict_round_trip(self):
        spec = QuerySpec.from_dict(
            {"formula": "[[ a ]]", "timeout_ms": 250}, "q1"
        )
        assert spec.timeout_ms == 250.0

    def test_analyzer_governance_validation(self):
        tree = figure1_tree()
        with pytest.raises(ReproError):
            BatchAnalyzer(tree, deadline_ms=0)
        with pytest.raises(ReproError):
            BatchAnalyzer(tree, query_timeout_ms=-1)
        with pytest.raises(ReproError):
            BatchAnalyzer(tree, shard_retries=-1)
        with pytest.raises(ReproError):
            BatchAnalyzer(tree, shard_retries=True)
        with pytest.raises(ReproError):
            BatchAnalyzer(tree, retry_backoff_ms=-1)
        with pytest.raises(ReproError):
            BatchAnalyzer(tree, watchdog_ms=0)

    def test_battery_deadline_rows_are_structured(self):
        tree = figure1_tree()
        event = sorted(tree.basic_events)[0]
        report = BatchAnalyzer(tree, deadline_ms=1e-6).run(_battery(event))
        assert not report.ok
        for result in report.results:
            assert result.error_kind == "deadline"
            assert "deadline" in result.error

    def test_path_set_enumeration_meets_the_query_timeout(self):
        """Two 5-of-10 banks have about 1.8e8 minimal path sets; their
        enumeration must end as a ``deadline`` row, not run out of
        memory."""
        from test_variable_order import bank_tree

        start = time.perf_counter()
        report = BatchAnalyzer(bank_tree(), query_timeout_ms=500).run(
            [{"kind": "mps"}]
        )
        assert time.perf_counter() - start < 5
        assert report.results[0].error_kind == "deadline"

    def test_expired_query_timeout_is_per_query(self):
        tree = figure1_tree()
        event = sorted(tree.basic_events)[0]
        specs = specs_from_any(
            [
                {"id": "fast", "formula": f"[[ {event} ]]"},
                # A budget this small expires before the query's first
                # governed safe point.
                {"id": "slow", "kind": "mcs", "timeout_ms": 1e-6},
                {"id": "after", "kind": "mps"},
            ]
        )
        report = BatchAnalyzer(tree).run(specs)
        assert report["fast"].ok
        assert report["after"].ok
        assert not report["slow"].ok
        assert report["slow"].error_kind == "deadline"

    def test_error_kind_serialised(self):
        tree = figure1_tree()
        report = BatchAnalyzer(tree, deadline_ms=1e-6).run(
            specs_from_any([{"id": "q", "kind": "mcs"}])
        )
        data = report.to_dict()["results"][0]
        assert data["error_kind"] == "deadline"

    def test_roomy_budgets_do_not_disturb_results(self):
        tree = figure1_tree()
        event = sorted(tree.basic_events)[0]
        specs = _battery(event)
        plain = BatchAnalyzer(tree).run(specs)
        governed = BatchAnalyzer(
            tree, deadline_ms=300_000, query_timeout_ms=60_000
        ).run(specs)
        assert _stripped(governed) == _stripped(plain)


# ----------------------------------------------------------------------
# Chaos harness
# ----------------------------------------------------------------------


class TestChaosHarness:
    def test_config_parsing_is_forgiving(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos_config() is None
        monkeypatch.setenv("REPRO_CHAOS", "not json")
        assert chaos_config() is None
        monkeypatch.setenv("REPRO_CHAOS", "[1, 2]")
        assert chaos_config() is None
        monkeypatch.setenv("REPRO_CHAOS", '{"delay_ms": 1}')
        assert chaos_config() == {"delay_ms": 1}

    def test_kill_respects_existing_marker(self, monkeypatch, tmp_path):
        marker = tmp_path / "killed"
        marker.write_text("")
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps(
                {"kill_queries": ["q1"], "kill_marker": str(marker)}
            ),
        )
        on_shard_start(["q1"])  # must NOT exit: already killed once

    def test_no_kill_for_unlisted_queries(self, monkeypatch, tmp_path):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps(
                {
                    "kill_queries": ["other"],
                    "kill_marker": str(tmp_path / "m"),
                }
            ),
        )
        on_shard_start(["q1", "q2"])
        assert not (tmp_path / "m").exists()

    def test_corrupt_snapshot_is_deterministic(self):
        _, snapshot = _snapshot_of(figure1_tree())
        first = corrupt_snapshot(snapshot, seed=5)
        second = corrupt_snapshot(snapshot, seed=5)
        assert first == second
        assert first != snapshot

    def test_corrupt_snapshot_needs_a_column(self):
        with pytest.raises(ValueError):
            corrupt_snapshot({"format": "x"}, seed=0)


@pytest.mark.parametrize("auto_manage", [False, True])
def test_chaos_parallel_differential(tmp_path, monkeypatch, auto_manage):
    """Kill + corrupt + budget-trip a 4-shard battery; verify recovery.

    The acceptance scenario: one worker killed mid-shard (recovered by
    retry), one corrupted snapshot (degraded to a cold build), one
    budget-tripped query (structured ``resource-limit`` row).  Every
    non-injected query must match a fault-free sequential run exactly —
    with GC and sifting interleaved in the managed variant.
    """
    tree = figure1_tree()
    event = sorted(tree.basic_events)[0]
    specs = _battery(event)
    manage = {"auto_gc": auto_manage, "auto_reorder": auto_manage}

    baseline = BatchAnalyzer(tree, **manage).run(specs)
    assert baseline.ok

    source = BatchAnalyzer(tree)
    source.prewarm_trees()
    snapshots = {
        name: corrupt_snapshot(entry, seed=7)
        for name, entry in source.kernel_snapshots().items()
    }

    marker = tmp_path / "chaos-kill"
    monkeypatch.setenv(
        "REPRO_CHAOS",
        json.dumps(
            {
                "kill_queries": ["q3"],
                "kill_marker": str(marker),
                "budget_trip_queries": ["q5"],
                "trip_step_budget": 1,
            }
        ),
    )
    analyzer = BatchAnalyzer(
        tree,
        workers=4,
        snapshots=snapshots,
        shard_retries=2,
        retry_backoff_ms=10.0,
        **manage,
    )
    report = analyzer.run(specs)
    monkeypatch.delenv("REPRO_CHAOS")

    assert marker.exists(), "the chaos kill never fired"
    shard_rows = report.stats["parallel"]["shards"]
    assert any(row.get("retried") for row in shard_rows)
    assert all(row.get("error") is None for row in shard_rows)

    for expected, actual in zip(baseline.results, report.results):
        if actual.id == "q5":
            assert not actual.ok
            assert actual.error_kind == "resource-limit"
            continue
        left = expected.to_dict()
        right = actual.to_dict()
        left.pop("elapsed_ms")
        right.pop("elapsed_ms")
        assert left == right

    # The managers the parent holds must still be sound.
    for name in analyzer.scenarios:
        analyzer.session(name).checker.manager.check_invariants()


def test_chaos_retry_exhaustion_reports_worker_crash(monkeypatch):
    """A shard that dies on every attempt becomes a structured failure."""
    tree = figure1_tree()
    event = sorted(tree.basic_events)[0]
    specs = specs_from_any(
        [
            {"id": "q1", "formula": f"[[ {event} ]]"},
            {"id": "q2", "kind": "mcs"},
        ]
    )
    # No kill_marker: the kill fires on every attempt.
    monkeypatch.setenv(
        "REPRO_CHAOS", json.dumps({"kill_queries": ["q1", "q2"]})
    )
    analyzer = BatchAnalyzer(
        tree, workers=2, shard_retries=1, retry_backoff_ms=5.0
    )
    report = analyzer.run(specs)
    monkeypatch.delenv("REPRO_CHAOS")

    assert not report.ok
    failed = [r for r in report.results if not r.ok]
    assert failed
    for result in failed:
        assert result.error_kind == "worker-crash"
        assert "worker shard failed" in result.error
    rows = report.stats["parallel"]["shards"]
    assert any(row.get("error_kind") == "worker-crash" for row in rows)
    assert all(row.get("attempts") == 2 for row in rows if row.get("error"))
    stats = report.stats["queries"]
    assert stats["errors"] >= len(failed)
