"""Quantitative extension: probabilities, PBFL-lite, importance measures."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from repro.casestudy import build_covid_tree
from repro.errors import ReproError
from repro.ft import FaultTreeBuilder, figure1_tree, random_tree, tree_to_bdd
from repro.ft.random_trees import RandomTreeConfig
from repro.logic import parse
from repro.logic.ast_nodes import ProbabilityQuery
from repro.prob import (
    MissingProbabilityError,
    ProbabilityChecker,
    bdd_probability,
    conditional_probability,
    enumeration_probability,
    event_probabilities,
    importance_table,
    min_cut_upper_bound,
    rare_event_approximation,
    render_importance_table,
)

UNIFORM = 0.1


def _uniform(tree, p=UNIFORM):
    return {name: p for name in tree.basic_events}


class TestEventProbabilities:
    def test_overrides_win(self):
        tree = figure1_tree()
        probs = event_probabilities(tree, {name: 0.2 for name in tree.basic_events})
        assert probs["IW"] == 0.2

    def test_missing_probability_rejected(self):
        tree = figure1_tree()
        with pytest.raises(MissingProbabilityError):
            event_probabilities(tree)

    def test_unknown_override_rejected(self):
        tree = figure1_tree()
        with pytest.raises(MissingProbabilityError):
            event_probabilities(tree, {"ghost": 0.5})

    def test_out_of_range_rejected(self):
        tree = figure1_tree()
        overrides = _uniform(tree)
        overrides["IW"] = 1.5
        with pytest.raises(MissingProbabilityError):
            event_probabilities(tree, overrides)


class TestBDDProbability:
    def test_or_of_independent_events(self):
        tree = (
            FaultTreeBuilder()
            .basic_events("a", "b")
            .or_gate("top", "a", "b")
            .build("top")
        )
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        p = bdd_probability(manager, root, {"a": 0.1, "b": 0.2})
        assert math.isclose(p, 1 - 0.9 * 0.8)

    def test_terminals(self):
        manager = BDDManager(["a"])
        assert bdd_probability(manager, manager.true, {}) == 1.0
        assert bdd_probability(manager, manager.false, {}) == 0.0

    def test_missing_variable_rejected(self):
        manager = BDDManager(["a"])
        with pytest.raises(MissingProbabilityError):
            bdd_probability(manager, manager.var("a"), {})

    @given(
        seed=st.integers(0, 10**6),
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_enumeration_on_random_trees(self, seed, p):
        tree = random_tree(seed, RandomTreeConfig(n_basic_events=5))
        overrides = _uniform(tree, p)
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        exact = bdd_probability(manager, root, overrides)
        reference = enumeration_probability(tree, overrides=overrides)
        assert math.isclose(exact, reference, rel_tol=1e-9, abs_tol=1e-12)


class TestBoundsAndApproximations:
    def test_rare_event_is_an_upper_bound_for_small_p(self):
        tree = build_covid_tree()
        overrides = _uniform(tree, 0.01)
        exact = enumeration_probability(tree, overrides=overrides)
        rare = rare_event_approximation(tree, overrides=overrides)
        mcub = min_cut_upper_bound(tree, overrides=overrides)
        assert exact <= rare + 1e-15
        assert exact <= mcub + 1e-15
        # and both approximations are close at small p
        assert math.isclose(exact, rare, rel_tol=0.05)

    def test_min_cut_upper_bound_below_rare_event(self):
        tree = build_covid_tree()
        overrides = _uniform(tree, 0.3)
        assert min_cut_upper_bound(tree, overrides=overrides) <= (
            rare_event_approximation(tree, overrides=overrides)
        )


class TestConditional:
    def test_conditioning_on_certain_event(self):
        tree = figure1_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        overrides = _uniform(tree)
        p = conditional_probability(
            manager, root, manager.true, overrides
        )
        assert math.isclose(p, bdd_probability(manager, root, overrides))

    def test_zero_probability_evidence_rejected(self):
        tree = figure1_tree()
        manager = BDDManager(tree.basic_events)
        root = tree_to_bdd(tree, manager)
        with pytest.raises(ZeroDivisionError):
            conditional_probability(
                manager, root, manager.false, _uniform(tree)
            )


class TestProbabilityChecker:
    @pytest.fixture(scope="class")
    def checker(self):
        tree = build_covid_tree()
        return ProbabilityChecker(tree, overrides=_uniform(tree))

    def test_unreliability_matches_enumeration(self, checker):
        exact = enumeration_probability(
            checker.tree, overrides=_uniform(checker.tree)
        )
        assert math.isclose(checker.unreliability(), exact, rel_tol=1e-9)

    def test_probability_of_bfl_formula(self, checker):
        # MCS vectors are a subset of the cut vectors.
        assert checker.probability("MCS(IWoS)") <= checker.probability("IWoS")

    def test_evidence_in_probability(self, checker):
        # With H1 prevented, the TLE is unreachable ({H1} is an MPS).
        assert checker.probability("IWoS[H1 := 0]") == 0.0

    def test_conditional_raises_probability(self, checker):
        base = checker.unreliability()
        conditioned = checker.conditional("IWoS", "H1 & VW & IW")
        assert conditioned > base

    def test_check_comparators(self, checker):
        assert checker.check("P(MoT) > 0")
        assert checker.check(parse("P(MoT) <= 1"))
        assert not checker.check("P(MoT) >= 0.99")
        with pytest.raises(ValueError):
            checker.check("P(MoT)")  # a value query has no verdict


class TestParseProbQuery:
    def test_round_trip_fields(self):
        query = parse("P(MoT & !H1) >= 0.25")
        assert isinstance(query, ProbabilityQuery)
        assert query.comparator == ">="
        assert query.bound == 0.25

    @pytest.mark.parametrize(
        "text", ["P(MoT)", "Q(MoT) >= 0.1", "P(MoT) >= two", "P() >= 0.1"]
    )
    def test_rejects_malformed(self, text):
        tree = build_covid_tree()
        checker = ProbabilityChecker(tree, overrides=_uniform(tree))
        with pytest.raises((ValueError, ReproError)):
            checker.check(text)

    def test_bound_range_validated(self):
        with pytest.raises(ValueError):
            ProbabilityQuery(
                formula=parse("P(MoT) >= 0.1").formula,
                comparator=">=",
                bound=1.5,
            )


class TestImportance:
    @pytest.fixture(scope="class")
    def rows(self):
        tree = build_covid_tree()
        return importance_table(tree, overrides=_uniform(tree))

    def test_h1_is_fully_critical(self, rows):
        by_name = {row.name: row for row in rows}
        # Every MCS contains H1 (the qualitative Sec. VII finding), so its
        # criticality is 1: given system failure H1 is always critical.
        assert math.isclose(by_name["H1"].criticality, 1.0, rel_tol=1e-9)
        assert math.isclose(by_name["VW"].criticality, 1.0, rel_tol=1e-9)

    def test_birnbaum_sorted_descending(self, rows):
        values = [row.birnbaum for row in rows]
        assert values == sorted(values, reverse=True)

    def test_render_contains_all_events(self, rows):
        text = render_importance_table(rows)
        tree = build_covid_tree()
        for name in tree.basic_events:
            assert name in text

    def test_superfluous_event_has_zero_birnbaum(self):
        tree = (
            FaultTreeBuilder()
            .basic_events("a", "b")
            .or_gate("g", "a", "b")
            .and_gate("top", "g", "a")
            .build("top")
        )
        rows = importance_table(tree, overrides={"a": 0.5, "b": 0.5})
        by_name = {row.name: row for row in rows}
        assert by_name["b"].birnbaum == 0.0
        assert by_name["b"].fussell_vesely == 0.0
