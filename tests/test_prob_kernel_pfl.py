"""PR 4: the in-kernel weighted-evaluation engine and the PFL surface.

Covers the deep-BDD probability regression (pinned at the same depth the
kernel ``sat_count`` tests use), the complement-edge cache sharing, the
probability cache's GC/reordering lifecycle, hypothesis cross-validation
against enumeration and the recursive baseline, the PFL parser/AST, and
the batch-service / CLI integration.
"""

import json
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from repro.casestudy import build_covid_tree
from repro.cli import main
from repro.errors import FaultTreeError, LogicError, MissingWeightError, ReproError
from repro.ft import FaultTreeBuilder, figure1_tree, random_tree, tree_to_bdd
from repro.ft.random_trees import RandomTreeConfig
from repro.logic import atom
from repro.logic.ast_nodes import Atom, Or, ProbabilityQuery
from repro.logic.parser import format_statement, parse
from repro.logic.semantics import ReferenceSemantics
from repro.prob import (
    MissingProbabilityError,
    ProbabilityChecker,
    ZeroProbabilityEvidenceError,
    bdd_probability,
    conditional_probability,
    enumeration_probability,
    parse_prob_query,
    recursive_probability,
)
from repro.service import BatchAnalyzer

from bfl_strategies import formulas_for, small_trees

UNIFORM = 0.1


def _uniform(tree, p=UNIFORM):
    return {name: p for name in tree.basic_events}


def _sample_manager():
    m = BDDManager(["a", "b", "c"])
    f = m.or_(m.var("a"), m.and_(m.var("b"), m.var("c")))
    w = {"a": 0.1, "b": 0.2, "c": 0.3}
    return m, f, w


# ----------------------------------------------------------------------
# Satellite: the deep-BDD RecursionError regression
# ----------------------------------------------------------------------

class TestDeepChainProbability:
    """The crash that motivated the kernel pass: a depth-4000 chain (the
    depth the PR 2 ``sat_count``/``support`` tests pin) overflowed the
    recursive walk."""

    DEPTH = 4000

    def _chain(self):
        names = [f"x{i}" for i in range(self.DEPTH)]
        m = BDDManager(names)
        node = m.true
        for level in range(self.DEPTH - 1, -1, -1):
            node = m.mk(level, m.false, node)  # AND of all variables
        return m, node, names

    def test_bdd_probability_survives_deep_chains(self):
        m, node, names = self._chain()
        weights = {name: 0.999 for name in names}
        value = bdd_probability(m, node, weights)
        assert math.isclose(value, 0.999 ** self.DEPTH, rel_tol=1e-9)
        # The complement is one bit flip and one subtraction.
        assert bdd_probability(m, m.negate(node), weights) == pytest.approx(
            1.0 - value
        )

    def test_recursive_baseline_documents_the_bug(self):
        m, node, names = self._chain()
        if sys.getrecursionlimit() >= self.DEPTH:
            pytest.skip("recursion limit raised beyond the chain depth")
        with pytest.raises(RecursionError):
            recursive_probability(m, node, {name: 0.5 for name in names})


# ----------------------------------------------------------------------
# Tentpole: the kernel weighted pass and its manager-level cache
# ----------------------------------------------------------------------

class TestKernelWeightedPass:
    def test_matches_closed_form(self):
        m, f, w = _sample_manager()
        assert m.probability(f, w) == pytest.approx(1 - 0.9 * (1 - 0.06))

    def test_terminals_need_no_weights(self):
        m = BDDManager(["a"])
        assert m.probability(m.true, {}) == 1.0
        assert m.probability(m.false, {}) == 0.0

    def test_missing_weight_rejected(self):
        m = BDDManager(["a"])
        with pytest.raises(MissingWeightError):
            m.probability(m.var("a"), {})
        with pytest.raises(MissingProbabilityError):
            bdd_probability(m, m.var("a"), {})

    def test_complement_shares_every_cache_entry(self):
        """Satellite: f and ~f used to be memoised as distinct entries;
        keying on the regular index makes the negation free."""
        m, f, w = _sample_manager()
        pf = m.probability(f, w)
        misses = m.op_stats.prob_misses
        size = m.cache_stats()["prob_cache_size"]
        pnf = m.probability(m.negate(f), w)
        assert pnf == pytest.approx(1.0 - pf)
        assert m.op_stats.prob_misses == misses  # nothing recomputed
        assert m.cache_stats()["prob_cache_size"] == size  # nothing added

    def test_repeated_queries_hit_the_manager_cache(self):
        m, f, w = _sample_manager()
        m.probability(f, w)
        hits, misses = m.op_stats.prob_hits, m.op_stats.prob_misses
        again = m.probability(f, w)
        assert m.op_stats.prob_misses == misses
        assert m.op_stats.prob_hits == hits + 1
        assert again == pytest.approx(m.probability(f, w))

    def test_weight_profile_change_invalidates(self):
        m, f, w = _sample_manager()
        first = m.probability(f, w)
        flat = m.probability(f, {"a": 0.5, "b": 0.5, "c": 0.5})
        assert flat == pytest.approx(1 - 0.5 * (1 - 0.25))
        assert m.probability(f, w) == pytest.approx(first)

    def test_alternating_profiles_keep_their_caches(self):
        """Mixed batteries (base profile interleaved with per-query
        settings) must not thrash: each profile keeps its own cache up
        to a small LRU bound."""
        m, f, w = _sample_manager()
        overridden = dict(w, a=0.7)
        m.probability(f, w)
        m.probability(f, overridden)
        misses = m.op_stats.prob_misses
        for _ in range(3):  # alternate: everything is already valued
            m.probability(f, w)
            m.probability(f, overridden)
        assert m.op_stats.prob_misses == misses
        assert m.cache_stats()["prob_profiles"] == 2

    def test_profile_lru_is_bounded(self):
        m, f, w = _sample_manager()
        for i in range(10):
            m.probability(f, dict(w, a=i / 10.0))
        from repro.bdd.manager import _PROB_PROFILE_LIMIT

        assert m.cache_stats()["prob_profiles"] <= _PROB_PROFILE_LIMIT

    def test_failed_query_neither_evicts_nor_registers_profiles(self):
        """A MissingWeightError must not push an empty profile into the
        LRU (evicting a warm one) — the failure happens before any
        value is computed."""
        from repro.bdd.manager import _PROB_PROFILE_LIMIT

        m, f, w = _sample_manager()
        for i in range(_PROB_PROFILE_LIMIT):
            m.probability(f, dict(w, a=(i + 1) / 10.0))
        warm = m.cache_stats()
        with pytest.raises(MissingWeightError):
            m.probability(f, {"a": 0.5})  # b, c unweighted
        assert m.cache_stats()["prob_profiles"] == warm["prob_profiles"]
        assert m.cache_stats()["prob_cache_size"] == warm["prob_cache_size"]
        # ... and the warm profiles themselves stay fully valued.
        misses = m.op_stats.prob_misses
        m.probability(f, dict(w, a=_PROB_PROFILE_LIMIT / 10.0))
        assert m.op_stats.prob_misses == misses  # still fully cached

    def test_restricted_queries_share_subgraph_values(self):
        """The importance-measure hot path: restrictions differ near the
        root but agree below, so only new nodes are valued."""
        tree = build_covid_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        weights = _uniform(tree)
        manager.probability(root, weights)
        misses_before = manager.op_stats.prob_misses
        for name in tree.basic_events:
            manager.probability(manager.restrict(root, name, True), weights)
            manager.probability(manager.restrict(root, name, False), weights)
        fresh_cost = misses_before  # one full pass values every node
        marginal = manager.op_stats.prob_misses - misses_before
        assert marginal < 2 * len(tree.basic_events) * fresh_cost
        assert manager.op_stats.prob_hits > 0


class TestProbCacheLifecycle:
    def test_cache_stats_exposes_the_probability_cache(self):
        m, f, w = _sample_manager()
        assert m.cache_stats()["prob_cache_size"] == 0
        m.probability(f, w)
        stats = m.cache_stats()
        assert stats["prob_cache_size"] > 0
        assert stats["prob_hits"] == m.op_stats.prob_hits
        assert stats["prob_misses"] == m.op_stats.prob_misses

    def test_collect_drops_the_cache_when_nodes_are_reclaimed(self):
        m, f, w = _sample_manager()
        value = m.probability(f, w)
        garbage = m.and_(f, m.xor(m.var("a"), m.var("c")))
        m.probability(garbage, w)
        del garbage
        reclaimed = m.collect()
        assert reclaimed > 0
        assert m.cache_stats()["prob_cache_size"] == 0
        assert m.probability(f, w) == pytest.approx(value)
        m.check_invariants()

    def test_swap_drops_the_cache_and_preserves_the_value(self):
        m, f, w = _sample_manager()
        value = m.probability(f, w)
        m.swap(0)
        assert m.cache_stats()["prob_cache_size"] == 0
        assert m.probability(f, w) == pytest.approx(value)
        m.check_invariants()

    def test_sift_inplace_drops_the_cache_and_preserves_the_value(self):
        tree = build_covid_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        weights = _uniform(tree)
        value = manager.probability(root, weights)
        manager.sift_inplace(max_rounds=1)
        assert manager.cache_stats()["prob_cache_size"] == 0
        assert manager.probability(root, weights) == pytest.approx(value)
        manager.check_invariants()


class TestHypothesisCrossValidation:
    @given(
        seed=st.integers(0, 10**6),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_kernel_pass_matches_enumeration_under_gc_and_sifting(
        self, seed, p
    ):
        tree = random_tree(seed, RandomTreeConfig(n_basic_events=5))
        overrides = _uniform(tree, p)
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        reference = enumeration_probability(tree, overrides=overrides)
        assert bdd_probability(manager, root, overrides) == pytest.approx(
            reference, abs=1e-12
        )
        # The value must survive a collection and an in-place sift (the
        # cache is dropped; the function each Ref denotes is not).
        manager.collect()
        assert bdd_probability(manager, root, overrides) == pytest.approx(
            reference, abs=1e-12
        )
        manager.sift_inplace(max_rounds=1)
        assert bdd_probability(manager, root, overrides) == pytest.approx(
            reference, abs=1e-12
        )
        manager.check_invariants()

    @given(data=st.data(), tree=small_trees(max_basic_events=4))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_formula_probability_matches_weighted_reference(self, data, tree):
        """P([[phi]]) for random BFL formulae: kernel pass vs weighted
        vector enumeration vs the recursive baseline."""
        formula = data.draw(formulas_for(tree, max_depth=2))
        overrides = _uniform(tree, 0.3)
        checker = ProbabilityChecker(tree, overrides=overrides)
        value = checker.probability(formula)
        semantics = ReferenceSemantics(tree)
        reference = 0.0
        for vector in semantics.iter_vectors():
            if not semantics.holds(formula, vector):
                continue
            weight = 1.0
            for name, bit in vector.items():
                weight *= overrides[name] if bit else 1.0 - overrides[name]
            reference += weight
        assert value == pytest.approx(reference, abs=1e-9)
        root = checker.translator.bdd(formula)
        baseline = recursive_probability(
            checker.translator.manager, root, overrides
        )
        assert value == pytest.approx(baseline, abs=1e-12)


# ----------------------------------------------------------------------
# PFL queries: parser, AST, checker
# ----------------------------------------------------------------------

class TestPFLParser:
    def test_simple_bound(self):
        query = parse("P(MoT) >= 0.3")
        assert query == ProbabilityQuery(
            formula=Atom("MoT"), comparator=">=", bound=0.3
        )

    def test_conditional_bar(self):
        query = parse("P(MoT | H1 & VW) < 0.5")
        assert isinstance(query, ProbabilityQuery)
        assert query.condition is not None
        assert query.comparator == "<"

    def test_double_bar_is_disjunction_inside_p(self):
        query = parse("P(a || b)")
        assert query.condition is None
        assert isinstance(query.formula, Or)

    def test_parenthesised_bar_is_disjunction(self):
        query = parse("P((a | b) | c)")
        assert isinstance(query.formula, Or)
        assert query.condition == Atom("c")

    def test_bar_outside_p_stays_disjunction(self):
        assert isinstance(parse("a | b"), Or)
        inner = parse("P(MCS(a | b))")
        assert isinstance(inner.formula.operand, Or)

    def test_probability_settings(self):
        query = parse("P(IWoS)[H1 := 0.25, VW := 1] > 0")
        assert query.settings == (("H1", 0.25), ("VW", 1.0))

    def test_value_query_without_bound(self):
        query = parse("P(MoT | H1)")
        assert query.comparator is None and query.bound is None

    def test_round_trips_through_format(self):
        for text in (
            "P(MoT) >= 0.3",
            "P(MoT | H1 & VW) < 0.5",
            "P((a | b) | c)[H1 := 0.25] >= 0.001",
            "P(MCS(IWoS) & H4)",
            "P(a => b | c) = 0.5",
        ):
            statement = parse(text)
            assert parse(format_statement(statement)) == statement

    def test_bound_outside_unit_interval_rejected(self):
        with pytest.raises(ReproError):
            parse("P(a) >= 1.5")

    def test_nested_p_rejected(self):
        with pytest.raises(ReproError):
            parse("exists (P(a) >= 0.5)")
        with pytest.raises(ReproError):
            parse("P(P(a) >= 0.5) >= 0.5")

    def test_element_named_p_still_usable(self):
        assert parse("P & b") == parse("P && b")
        assert parse('"P"') == Atom("P")

    def test_parse_prob_query_compat(self):
        query = parse_prob_query("P(MoT & !H1) >= 0.25")
        assert query.comparator == ">=" and query.bound == 0.25
        with pytest.raises(ValueError):
            parse_prob_query("P(MoT)")  # no comparator
        with pytest.raises(ValueError):
            parse_prob_query("P(MoT | H1) >= 0.25")  # conditional
        # The historical contract: malformed *text* is also ValueError
        # (BFLSyntaxError is chained as the cause, not raised).
        with pytest.raises(ValueError):
            parse_prob_query("P(MoT >= 0.3")
        with pytest.raises(ValueError):
            parse_prob_query("P() >= 0.1")
        # Semantically invalid queries carry the real diagnostic.
        with pytest.raises(ValueError, match="outside"):
            parse_prob_query("P(MoT) >= 2")


class TestProbabilityQueryAst:
    def test_comparator_and_bound_come_together(self):
        with pytest.raises(ValueError):
            ProbabilityQuery(formula=Atom("a"), comparator=">=")
        with pytest.raises(ValueError):
            ProbabilityQuery(formula=Atom("a"), bound=0.5)

    def test_settings_validated(self):
        with pytest.raises(ValueError):
            ProbabilityQuery(formula=Atom("a"), settings=(("e", 1.5),))

    def test_layer2_operand_rejected(self):
        from repro.logic.ast_nodes import Exists

        with pytest.raises(LogicError):
            ProbabilityQuery(formula=Exists(Atom("a")))


class TestProbabilityCheckerPFL:
    @pytest.fixture(scope="class")
    def checker(self):
        tree = build_covid_tree()
        return ProbabilityChecker(tree, overrides=_uniform(tree))

    def test_conditional_matches_definition(self, checker):
        outcome = checker.evaluate("P(MoT | H1 & VW)")
        joint = checker.probability("MoT & H1 & VW")
        evidence = checker.probability("H1 & VW")
        assert outcome.value == pytest.approx(joint / evidence)
        assert outcome.condition_probability == pytest.approx(evidence)

    def test_settings_override_per_query(self, checker):
        # {H1} is an MPS: forcing p(H1) = 0 kills the top event.
        outcome = checker.evaluate("P(IWoS)[H1 := 0]")
        assert outcome.value == 0.0
        # ... without disturbing later queries.
        assert checker.probability("IWoS") > 0.0

    def test_unknown_setting_rejected(self, checker):
        with pytest.raises(MissingProbabilityError):
            checker.evaluate("P(IWoS)[ghost := 0.5]")

    def test_verdict(self, checker):
        assert checker.check("P(MoT) > 0") is True
        assert checker.check("P(MoT) >= 0.99") is False

    def test_equality_of_a_rare_top_event(self):
        builder = FaultTreeBuilder()
        builder.basic_events("A", "B")
        builder.and_gate("T", "A", "B")
        tree = builder.build("T")
        rare = ProbabilityChecker(tree, overrides={"A": 1e-6, "B": 1.1e-7})
        value = rare.probability("T")
        assert 1e-13 < value < 1.2e-13
        assert rare.check("P(T) > 0") is True
        assert rare.check("P(T) = 0") is False
        assert rare.check(f"P(T) = {value!r}") is True
        # Equal up to the relative tolerance, not an absolute one.
        assert rare.check(f"P(T) = {value * (1 + 1e-13)!r}") is True
        assert rare.check(f"P(T) = {value * (1 + 1e-9)!r}") is False
        assert rare.check("P(T)[A := 0] = 0") is True

    def test_zero_probability_evidence(self, checker):
        with pytest.raises(ZeroProbabilityEvidenceError):
            checker.evaluate("P(MoT | IWoS & !IWoS)")

    def test_shared_translator_reuses_the_manager(self):
        from repro.checker import ModelChecker

        tree = build_covid_tree()
        qualitative = ModelChecker(tree)
        quantitative = ProbabilityChecker(
            overrides=_uniform(tree), translator=qualitative.translator
        )
        assert quantitative.translator.manager is qualitative.manager
        qualitative.check("exists (MCS(MoT) & H1)")
        hits_before = qualitative.manager.op_stats.prob_hits
        quantitative.evaluate("P(MoT) >= 0")
        quantitative.evaluate("P(MoT) >= 0")
        assert qualitative.manager.op_stats.prob_hits > hits_before

    def test_mismatched_tree_and_translator_rejected(self):
        from repro.checker import ModelChecker

        covid = build_covid_tree()
        other = figure1_tree()
        with pytest.raises(ValueError):
            ProbabilityChecker(
                other, translator=ModelChecker(covid).translator
            )


class TestZeroProbabilityEvidenceError:
    def test_hierarchy(self):
        assert issubclass(ZeroProbabilityEvidenceError, FaultTreeError)
        # Callers of the historical contract keep working.
        assert issubclass(ZeroProbabilityEvidenceError, ZeroDivisionError)

    def test_conditional_probability_raises_it(self):
        tree = figure1_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        with pytest.raises(ZeroProbabilityEvidenceError):
            conditional_probability(
                manager, root, manager.false, _uniform(tree)
            )


class TestGivenValidation:
    """Satellite: ``given(H1=2)`` used to be silently coerced to 1."""

    def test_booleans_and_bits_accepted(self):
        evidence = atom("a").given(H1=1, H2=False, H3=True, H4=0)
        assert evidence.assignments == (
            ("H1", True), ("H2", False), ("H3", True), ("H4", False)
        )

    @pytest.mark.parametrize("value", [2, -1, 0.5, "1", None])
    def test_non_boolean_values_rejected(self, value):
        with pytest.raises(ValueError):
            atom("a").given(H1=value)


# ----------------------------------------------------------------------
# Batch service and CLI
# ----------------------------------------------------------------------

class TestBatchProbability:
    def test_mixed_battery_with_shared_manager(self):
        tree = build_covid_tree()
        analyzer = BatchAnalyzer(tree, uniform=UNIFORM)
        report = analyzer.run([
            "exists (MCS(MoT) & H1)",
            "P(MoT) >= 0",
            {"id": "cond", "formula": "P(MoT | H1 & VW) < 0.5"},
            {"id": "val", "kind": "probability", "formula": "MCS(IWoS) & H4"},
        ])
        assert report.ok
        standalone = ProbabilityChecker(tree, overrides=_uniform(tree))
        assert report["q2"].probability == pytest.approx(
            standalone.probability("MoT")
        )
        assert report["cond"].condition_probability == pytest.approx(
            UNIFORM * UNIFORM
        )
        assert report["val"].holds is None
        assert 0.0 < report["val"].probability < 1.0
        stats = report.stats["scenarios"]["default"]
        assert stats["memory"]["prob_cache"] > 0
        assert stats["bdd"]["prob_misses"] > 0

    def test_values_match_a_standalone_checker(self):
        tree = build_covid_tree()
        analyzer = BatchAnalyzer(tree, uniform=UNIFORM)
        report = analyzer.run(["P(MoT | H1)"])
        checker = ProbabilityChecker(tree, overrides=_uniform(tree))
        assert report.results[0].probability == pytest.approx(
            checker.evaluate("P(MoT | H1)").value
        )

    def test_zero_probability_evidence_reported_per_query(self):
        tree = build_covid_tree()
        analyzer = BatchAnalyzer(tree, uniform=UNIFORM)
        report = analyzer.run([
            {"id": "bad", "formula": "P(MoT | IWoS & !IWoS) >= 0.1"},
            {"id": "good", "formula": "P(MoT) >= 0"},
        ])
        assert not report["bad"].ok
        assert "zero-probability" in report["bad"].error
        assert report["good"].ok and report["good"].holds is True

    def test_missing_probabilities_fail_per_query_not_per_batch(self):
        tree = build_covid_tree()  # no probabilities attached
        analyzer = BatchAnalyzer(tree)
        report = analyzer.run([
            "exists (MCS(MoT) & H1)",
            {"id": "p", "formula": "P(MoT) >= 0"},
        ])
        assert report.results[0].ok
        assert not report["p"].ok
        assert "probability" in report["p"].error

    def test_cache_survives_gc_and_sifting_checkpoints(self):
        """The acceptance scenario: probabilistic batteries with GC and
        in-place sifting armed stay correct (the cache is dropped at the
        checkpoints and rebuilt on demand)."""
        tree = build_covid_tree()
        reference = BatchAnalyzer(tree, uniform=UNIFORM)
        hardened = BatchAnalyzer(
            tree,
            uniform=UNIFORM,
            auto_gc=True,
            gc_trigger=64,
            auto_reorder=True,
            reorder_trigger=64,
        )
        queries = []
        for element in ("MoT", "IWoS", "SH", "CIW", "IS"):
            queries.append(f"P({element}) >= 0")
            queries.append(f"P(MCS({element}) | H1) >= 0")
            queries.append(f"exists (MCS({element}) & H2)")
        plain = reference.run(queries)
        managed = hardened.run(queries)
        assert plain.ok and managed.ok
        stats = managed.stats["scenarios"]["default"]
        assert stats["memory"]["gc_runs"] > 0
        for expected, got in zip(plain.results, managed.results):
            assert got.holds == expected.holds
            if expected.probability is not None:
                assert got.probability == pytest.approx(expected.probability)

    def test_status_vector_on_probabilistic_query_rejected_per_query(self):
        tree = build_covid_tree()
        analyzer = BatchAnalyzer(tree, uniform=UNIFORM)
        report = analyzer.run([
            {"id": "bad", "formula": "P(MoT) >= 0.5", "failed": ["H1"]},
            {"id": "good", "formula": "P(MoT) >= 0"},
        ])
        assert not report["bad"].ok
        assert "failed=/bits=" in report["bad"].error
        assert report["good"].ok

    def test_flat_probability_map_is_filtered_per_scenario(self):
        """A flat map is 'applied to every scenario': events a tree does
        not have must not poison that scenario's queries."""
        analyzer = BatchAnalyzer(
            {"covid": build_covid_tree(), "fig1": figure1_tree()},
            uniform=UNIFORM,
            probabilities={"H1": 0.02},  # covid-only event
        )
        report = analyzer.run([
            {"id": "a", "tree": "covid", "formula": "P(MoT | H1) >= 0"},
            {"id": "b", "tree": "fig1", "formula": 'P("CP/R") >= 0'},
        ])
        assert report.ok
        assert report["a"].condition_probability == pytest.approx(0.02)

    def test_per_scenario_probability_maps(self):
        analyzer = BatchAnalyzer(
            {"covid": build_covid_tree(), "fig1": figure1_tree()},
            probabilities={
                "covid": _uniform(build_covid_tree()),
                "fig1": _uniform(figure1_tree(), 0.2),
            },
        )
        report = analyzer.run([
            {"id": "a", "tree": "covid", "formula": "P(MoT) >= 0"},
            {"id": "b", "tree": "fig1", "formula": 'P("CP/R") >= 0'},
        ])
        assert report.ok

    def test_mixed_probability_map_scoped_entries_win(self):
        analyzer = BatchAnalyzer(
            {"covid": build_covid_tree()},
            uniform=UNIFORM,
            probabilities={
                "H1": 0.3,  # flat: applies where H1 exists
                "covid": {"H1": 0.02},  # scoped: wins for this scenario
            },
        )
        report = analyzer.run([
            {"id": "q", "tree": "covid", "formula": "P(MoT | H1) >= 0"},
        ])
        assert report.ok
        assert report["q"].condition_probability == pytest.approx(0.02)

    def test_unknown_scenario_probability_map_rejected(self):
        from repro.service.queries import QuerySpecError

        with pytest.raises(QuerySpecError, match="fig-1"):
            BatchAnalyzer(
                {"fig1": figure1_tree()},
                probabilities={"fig-1": {"H2": 0.5}},
            )

    def test_flat_probability_for_unknown_event_rejected(self):
        from repro.service.queries import QuerySpecError

        # "HI" is a typo for "H1": known to no scenario, so it must be
        # rejected up front rather than silently filtered away.
        with pytest.raises(QuerySpecError, match="HI"):
            BatchAnalyzer(
                {"covid": build_covid_tree(), "fig1": figure1_tree()},
                uniform=UNIFORM,
                probabilities={"HI": 0.9},
            )


class TestCLIProbability:
    def test_prob_value_query(self, capsys):
        assert main(["prob", "--uniform", "0.1", "P(MoT)"]) == 0
        assert "P = " in capsys.readouterr().out

    def test_prob_conditional_query(self, capsys):
        code = main(["prob", "--uniform", "0.1", "P(MoT | H1 & VW) < 0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "P(evidence)" in out and "holds" in out

    def test_prob_plain_formula_still_works(self, capsys):
        assert main(["prob", "--uniform", "0.1", "MoT & H1"]) == 0
        assert "P = " in capsys.readouterr().out

    def test_batch_uniform_true_rejected(self, tmp_path, capsys):
        query_file = tmp_path / "queries.json"
        query_file.write_text(json.dumps({
            "uniform": True,  # a flag-shaped typo, not p = 1.0
            "queries": [{"formula": "P(MoT) >= 0"}],
        }), encoding="utf-8")
        assert main(["batch", str(query_file)]) == 2
        assert "'uniform'" in capsys.readouterr().err

    def test_batch_uniform_flag_validated_like_the_file_key(
        self, tmp_path, capsys
    ):
        query_file = tmp_path / "queries.json"
        query_file.write_text(json.dumps({
            "queries": [{"formula": "P(MoT) >= 0"}],
        }), encoding="utf-8")
        assert main(["batch", str(query_file), "--uniform", "2.0"]) == 2
        assert "'uniform'" in capsys.readouterr().err

    def test_batch_string_probability_rejected_up_front(
        self, tmp_path, capsys
    ):
        query_file = tmp_path / "queries.json"
        query_file.write_text(json.dumps({
            "uniform": 0.1,
            "probabilities": {"H1": "0.02"},  # quoted number
            "queries": [{"formula": "P(MoT) >= 0"}],
        }), encoding="utf-8")
        assert main(["batch", str(query_file)]) == 2
        assert "probability for 'H1'" in capsys.readouterr().err

    def test_batch_pfl_end_to_end(self, tmp_path, capsys):
        """Acceptance: a conditional PFL query through ``bfl batch`` with
        GC and in-place sifting armed."""
        query_file = tmp_path / "queries.json"
        query_file.write_text(json.dumps({
            "uniform": 0.1,
            "probabilities": {"H1": 0.02},
            "gc": True,
            "auto_reorder": True,
            "queries": [
                {"id": "pfl", "formula": "P(MoT | H1 & VW) >= 0"},
                {"id": "val", "kind": "probability", "formula": "IWoS"},
                {"id": "set", "formula": "P(IWoS)[H1 := 0] > 0"},
            ],
        }), encoding="utf-8")
        code = main(["batch", str(query_file), "--pretty"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"]
        by_id = {r["id"]: r for r in report["results"]}
        assert by_id["pfl"]["holds"] is True
        assert 0.0 <= by_id["pfl"]["probability"] <= 1.0
        assert by_id["pfl"]["condition_probability"] == pytest.approx(
            0.02 * 0.1
        )
        assert by_id["val"]["probability"] > 0.0
        assert by_id["set"]["holds"] is False
        memory = report["stats"]["scenarios"]["default"]["memory"]
        assert "prob_cache" in memory
