"""Garbage collection and in-place dynamic reordering (PR 3 kernel).

Pins the contract of the memory-managed kernel:

* ``collect()`` reclaims exactly the nodes unreachable from live Refs,
  leaves the unique and interning tables consistent with holes in the
  index space, and ``live_nodes`` matches the reachable count afterwards;
* interning a handle registers no per-Ref finalizer and no weakref
  callback: the interning table is the only record of which nodes user
  code holds, and it stays within twice its live handles;
* reclaimed indices are reused by ``_mk`` without breaking canonicity;
* ``swap``/``sift_inplace`` preserve function semantics — every
  pre-existing Ref keeps denoting the same Boolean function — verified
  against the enumerative reference semantics and against a
  transfer-rebuilt manager;
* the automatic triggers (``auto_gc``/``auto_reorder``) fire at
  translation/query safe points and surface their counters.
"""

import gc as pygc
import itertools
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager, sift, sift_rebuild, transfer
from repro.checker import FormulaTranslator, ModelChecker, check
from repro.ft import figure1_tree, tree_to_bdd
from repro.logic import ReferenceSemantics
from repro.casestudy import build_covid_tree
from repro.service import BatchAnalyzer

from bfl_strategies import formulas_for, small_trees


def _truth_table(manager, ref, names):
    return [
        manager.evaluate(ref, dict(zip(names, bits)))
        for bits in itertools.product((False, True), repeat=len(names))
    ]


def _random_program(manager, names, ops):
    expr = manager.var(names[0])
    for op, name, neg in ops:
        literal = manager.var(name)
        if neg:
            literal = manager.negate(literal)
        expr = manager.apply(op, expr, literal)
    return expr


OPS = st.lists(
    st.tuples(
        st.sampled_from(["and", "or", "xor", "xnor", "nand", "nor", "implies"]),
        st.sampled_from(["v1", "v2", "v3", "v4", "v5"]),
        st.booleans(),
    ),
    max_size=12,
)


class TestCollect:
    def test_collect_reclaims_unreachable_nodes(self):
        m = BDDManager(["a", "b", "c", "d"])
        keep = m.or_(m.and_(m.var("a"), m.var("b")), m.var("c"))
        scratch = m.and_(m.var("c"), m.var("d"))
        assert m.node_count() > keep.count_nodes()
        del scratch
        pygc.collect()
        reclaimed = m.collect()
        assert reclaimed > 0
        m.check_invariants()
        # Acceptance: live_nodes matches the reachable-from-live-Refs
        # count *exactly* after a collection.
        stats = m.cache_stats()
        assert stats["live_nodes"] == m.reachable_node_count()
        assert m.node_count() - m.reachable_node_count() == 0
        assert stats["gc_runs"] == 1
        assert stats["reclaimed"] == reclaimed
        assert stats["free_list"] == reclaimed

    def test_collect_keeps_externally_referenced_nodes(self):
        m = BDDManager(["a", "b"])
        f = m.and_(m.var("a"), m.var("b"))
        before = _truth_table(m, f, ["a", "b"])
        m.collect()
        m.check_invariants()
        assert _truth_table(m, f, ["a", "b"]) == before
        # Everything reachable: nothing to reclaim.
        assert m.collect() == 0

    def test_free_slots_are_reused_and_stay_canonical(self):
        m = BDDManager(["a", "b", "c", "d"])
        scratch = m.and_(m.var("c"), m.var("d"))
        del scratch
        pygc.collect()
        holes = m.collect()
        assert holes > 0
        slots_before = len(m._level)
        rebuilt = m.and_(m.var("c"), m.var("d"))
        # The rebuild refilled the holes instead of growing the arrays.
        assert len(m._level) == slots_before
        m.check_invariants()
        assert m.evaluate(rebuilt, {"c": True, "d": True}) is True
        # Hash-consing across a collect: rebuilding the same function
        # twice shares one node again.
        assert m.and_(m.var("c"), m.var("d")) is rebuilt

    def test_dead_node_estimate_tracks_dropped_refs(self):
        m = BDDManager(["a", "b", "c"])
        literals = [m.var(n) for n in "abc"]
        junk = m.xor(literals[0], m.xor(literals[1], literals[2]))
        assert m.node_count() - m.reachable_node_count() == 0
        del junk
        pygc.collect()
        dead = m.node_count() - m.reachable_node_count()
        assert dead > 0
        assert m.collect() == dead

    def test_handles_register_no_finalizers(self):
        def finalizers():
            return sum(isinstance(o, weakref.finalize) for o in pygc.get_objects())

        before = finalizers()
        checker = ModelChecker(build_covid_tree())
        assert len(checker.minimal_cut_sets()) == 12
        assert finalizers() == before

    def test_peak_live_nodes_survives_collection(self):
        m = BDDManager(["a", "b", "c", "d"])
        junk = [m.threshold([m.var(n) for n in "abcd"], 2)]
        peak = m.peak_node_count()
        junk.clear()
        pygc.collect()
        m.collect()
        assert m.peak_node_count() == peak
        assert m.node_count() < peak

    @given(ops=OPS, keep_mask=st.integers(min_value=0, max_value=4095))
    @settings(max_examples=40, deadline=None)
    def test_collect_preserves_kept_functions(self, ops, keep_mask):
        names = ["v1", "v2", "v3", "v4", "v5"]
        m = BDDManager(names)
        exprs = []
        expr = m.var(names[0])
        for i, (op, name, neg) in enumerate(ops):
            literal = m.var(name)
            if neg:
                literal = m.negate(literal)
            expr = m.apply(op, expr, literal)
            exprs.append(expr)
        kept = [e for i, e in enumerate(exprs) if keep_mask & (1 << i)]
        tables = [_truth_table(m, e, names) for e in kept]
        exprs = expr = None
        pygc.collect()
        m.collect()
        m.check_invariants()
        assert m.cache_stats()["live_nodes"] == m.reachable_node_count()
        for e, table in zip(kept, tables):
            assert _truth_table(m, e, names) == table


class TestInterning:
    """Handles are interned through callback-free weak references: a
    dead handle leaves a stale entry that the next wrap of its edge
    overwrites, or a sweep drops."""

    def test_stale_entry_is_overwritten_and_identity_kept(self):
        m = BDDManager(["a", "b"])
        f = m.and_(m.var("a"), m.var("b"))
        edge = f.edge
        del f
        assert m._refs[edge]() is None
        g = m.and_(m.var("a"), m.var("b"))
        assert g.edge == edge and m._refs[edge]() is g
        assert m.and_(m.var("b"), m.var("a")) is g
        assert m.negate(m.negate(g)) is g
        assert m.constant(True) is m.true and m.negate(m.true) is m.false
        m.check_invariants()

    def test_dropped_handle_node_is_reclaimed(self):
        m = BDDManager(["a", "b", "c"])
        keep = m.var("a")
        f = m.and_(m.var("b"), m.var("c"))
        index = f.index
        del f
        assert m.collect() > 0
        assert m._level[index] == -1
        assert m.reachable_node_count() == m.node_count()
        assert m.evaluate(keep, {"a": True}) is True
        m.check_invariants()

    def test_table_stays_bounded_with_gc_off(self):
        names = [f"v{i}" for i in range(12)]
        m = BDDManager(names)
        held = [m.var(name) for name in names]
        m.threshold(held, 6)  # a few hundred nodes, handle dropped
        edges = [
            (index << 1) | c
            for index in range(1, len(m._level))
            for c in (0, 1)
        ]
        live = len(held) + 2  # plus m.true and m.false
        largest = 0
        pygc.disable()
        try:
            for i in range(100_000):
                m._wrap(edges[i % len(edges)])
                largest = max(largest, len(m._refs))
        finally:
            pygc.enable()
        assert sum(e() is not None for e in m._refs.values()) == live
        assert largest <= 2 * live
        m.check_invariants()

    def test_rewarm_creates_no_keyed_refs(self):
        def keyed_refs():
            return sum(
                isinstance(o, weakref.KeyedRef) for o in pygc.get_objects()
            )

        tree = build_covid_tree()
        cold = BatchAnalyzer(tree, uniform=0.01)
        cold.run(["exists IWoS"])
        snapshots = cold.kernel_snapshots()
        pygc.collect()
        before = keyed_refs()
        warm = BatchAnalyzer(tree, uniform=0.01, snapshots=snapshots)
        report = warm.run(["exists IWoS", "P(IWoS) >= 0"])
        assert report.ok and len(warm.session("default").checker.manager._refs) > 2
        assert keyed_refs() <= before


class TestSwap:
    def test_swap_exchanges_adjacent_variables(self):
        m = BDDManager(["a", "b", "c"])
        f = m.or_(m.and_(m.var("a"), m.var("b")), m.var("c"))
        table = _truth_table(m, f, ["a", "b", "c"])
        m.swap(0)
        assert m.variables == ("b", "a", "c")
        m.check_invariants()
        assert _truth_table(m, f, ["a", "b", "c"]) == table
        m.swap(0)
        assert m.variables == ("a", "b", "c")
        m.check_invariants()
        assert _truth_table(m, f, ["a", "b", "c"]) == table

    def test_swap_rejects_bad_levels(self):
        from repro.errors import VariableError

        m = BDDManager(["a", "b"])
        with pytest.raises(VariableError):
            m.swap(1)
        with pytest.raises(VariableError):
            m.swap(-1)

    def test_swap_keeps_live_refs_valid_without_forwarding(self):
        """In-place swaps preserve the function denoted by every index,
        so handles survive with no remapping step."""
        m = BDDManager(["a", "b", "c", "d"])
        refs = {
            "f": m.or_(m.and_(m.var("a"), m.var("c")), m.var("d")),
            "g": m.xor(m.var("b"), m.var("c")),
            "ng": m.negate(m.xor(m.var("b"), m.var("c"))),
        }
        names = ["a", "b", "c", "d"]
        tables = {k: _truth_table(m, r, names) for k, r in refs.items()}
        edges = {k: r.edge for k, r in refs.items()}
        for level in (0, 1, 2, 1, 0, 2):
            m.swap(level)
            m.check_invariants()
        for key, ref in refs.items():
            assert ref.edge == edges[key]  # the handle itself is untouched
            assert _truth_table(m, ref, names) == tables[key]

    @given(ops=OPS, levels=st.lists(st.integers(min_value=0, max_value=3), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_random_swap_sequences_preserve_semantics(self, ops, levels):
        names = ["v1", "v2", "v3", "v4", "v5"]
        m = BDDManager(names)
        expr = _random_program(m, names, ops)
        table = _truth_table(m, expr, names)
        for level in levels:
            m.swap(level)
            m.check_invariants()
        assert _truth_table(m, expr, names) == table


class TestSiftInplace:
    def test_sift_preserves_semantics_and_never_worsens(self):
        tree = build_covid_tree()
        m = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, m)
        names = list(tree.basic_events)
        import random

        rnd = random.Random(7)
        vectors = [
            {n: rnd.random() < 0.5 for n in names} for _ in range(64)
        ]
        answers = [m.evaluate(root, v) for v in vectors]
        m.collect()
        before = m.node_count()
        after = m.sift_inplace(max_rounds=2)
        m.check_invariants()
        assert after <= before
        assert [m.evaluate(root, v) for v in vectors] == answers
        assert m.cache_stats()["sift_runs"] == 1
        assert m.cache_stats()["swaps"] > 0

    def test_sift_matches_transfer_rebuilt_manager(self):
        """Cross-validation: rebuilding the sifted BDD from scratch in a
        fresh manager with the sifted order yields the identical
        canonical form."""
        tree = build_covid_tree()
        m = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, m)
        m.sift_inplace(max_rounds=1)
        fresh = BDDManager(m.variables)
        rebuilt = tree_to_bdd(tree, fresh)
        moved = transfer(m, root, fresh)
        assert moved is rebuilt

    def test_sift_solves_the_interleaving_problem(self):
        from repro.ft import FaultTreeBuilder

        builder = FaultTreeBuilder().basic_events(
            "a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"
        )
        for i in (1, 2, 3, 4):
            builder.and_gate(f"g{i}", f"a{i}", f"b{i}")
        tree = builder.or_gate("top", "g1", "g2", "g3", "g4").build("top")
        grouped = ["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"]
        m = BDDManager(grouped)
        root = tree_to_bdd(tree, m)
        grouped_size = root.count_nodes()
        m.sift_inplace(max_rounds=2)
        assert root.count_nodes() < grouped_size

    def test_sift_respects_variable_restriction(self):
        m = BDDManager(["a", "b", "c", "d"])
        m.and_(m.var("a"), m.or_(m.var("b"), m.var("d")))
        m.sift_inplace(variables=["b", "d"])
        # Unlisted variables keep their relative order.
        order = m.variables
        assert order.index("a") < order.index("c")

    def test_sift_rejects_undeclared_variables(self):
        from repro.errors import VariableError

        m = BDDManager(["a", "b"])
        m.and_(m.var("a"), m.var("b"))
        with pytest.raises(VariableError):
            m.sift_inplace(variables=["a", "typo"])

    def test_module_level_sift_agrees_with_rebuild_search(self):
        tree = figure1_tree()

        def builder(order):
            manager = BDDManager(order)
            return manager, tree_to_bdd(tree, manager)

        bad_order = ["IW", "IT", "H3", "H2"]
        inplace_order, inplace_size = sift(builder, bad_order, max_rounds=2)
        _, rebuild_size = sift_rebuild(builder, bad_order, max_rounds=2)
        assert sorted(inplace_order) == sorted(bad_order)
        assert inplace_size <= rebuild_size

    @given(data=st.data(), tree=small_trees(max_basic_events=4))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_sift_cross_validates_against_reference_semantics(self, data, tree):
        translator = FormulaTranslator(tree)
        semantics = ReferenceSemantics(tree)
        formula = data.draw(formulas_for(tree))
        translator.bdd(formula)
        translator.manager.sift_inplace(max_rounds=1)
        translator.manager.check_invariants()
        names = list(tree.basic_events)
        for bits in itertools.product((False, True), repeat=len(names)):
            vector = dict(zip(names, bits))
            assert check(translator, formula, vector) == semantics.holds(
                formula, vector
            )


class TestAutomaticTriggers:
    def test_auto_gc_fires_at_query_boundaries(self):
        tree = build_covid_tree()
        plain = BatchAnalyzer(tree)
        managed = BatchAnalyzer(tree, auto_gc=True, gc_trigger=64)
        battery = [
            "exists (MCS(IWoS) & H1)",
            "forall (IS => MoT)",
            "exists (MPS(MoT) & !UT)",
            "forall (MCS(SH) => (VW & H1))",
            "exists MCS(CP/R)",
        ]
        baseline = plain.run(battery)
        report = managed.run(battery)
        assert [r.holds for r in report.results] == [
            r.holds for r in baseline.results
        ]
        memory = report.stats["scenarios"]["default"]["memory"]
        assert memory["gc_runs"] > 0
        assert memory["reclaimed"] > 0
        manager = managed.session().checker.manager
        manager.check_invariants()

    def test_auto_reorder_fires_and_preserves_answers(self):
        tree = build_covid_tree()
        plain = BatchAnalyzer(tree)
        managed = BatchAnalyzer(
            tree, auto_reorder=True, reorder_trigger=64
        )
        battery = [
            "exists (MCS(IWoS) & H1)",
            "forall (MCS(IWoS) => H2)",
            "exists (MPS(IWoS) & !H3)",
            "forall (IS => MoT)",
        ]
        baseline = plain.run(battery)
        report = managed.run(battery)
        assert [r.holds for r in report.results] == [
            r.holds for r in baseline.results
        ]
        reorder = report.stats["scenarios"]["default"]["reorder"]
        assert reorder["auto_reorders"] > 0
        assert reorder["swaps"] > 0
        managed.session().checker.manager.check_invariants()
