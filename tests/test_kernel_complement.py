"""Complement-edge kernel guarantees: O(1) negation, canonical form,
iterative inspection, and cross-validation against the reference
semantics.

These tests pin down the contract introduced by the integer-handle
rewrite of ``repro.bdd``:

* ``negate`` is a complement-bit flip — zero unique-table insertions and
  zero node-count growth, no matter how often it runs;
* every *stored* node has a regular (uncomplemented) high edge, children
  are distinct, and levels strictly increase towards the leaves
  (``BDDManager.check_invariants``);
* ``sat_count`` / ``support`` / ``iter_nodes`` are iterative and survive
  BDDs far deeper than Python's recursion limit;
* random BFL formulae translated onto the new kernel agree with the
  enumerative reference semantics vector-for-vector.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from repro.checker import FormulaTranslator, check
from repro.logic import ReferenceSemantics

from bfl_strategies import formulas_for, small_trees, vectors_for


@pytest.fixture()
def manager():
    return BDDManager(["a", "b", "c", "d"])


def _sample_function(manager):
    a, b, c, d = (manager.var(n) for n in "abcd")
    return manager.or_(
        manager.and_(a, manager.xor(b, c)), manager.and_(c, d)
    )


class TestO1Negation:
    def test_negate_performs_no_unique_table_insertions(self, manager):
        f = _sample_function(manager)
        before_nodes = manager.node_count()
        before_tables = manager.cache_stats()
        g = f
        for _ in range(1000):
            g = manager.negate(g)
        after_tables = manager.cache_stats()
        # Zero node-count growth across repeated negations ...
        assert manager.node_count() == before_nodes
        assert after_tables["unique_table_size"] == before_tables["unique_table_size"]
        assert after_tables["peak_live_nodes"] == before_tables["peak_live_nodes"]
        # ... and no memo-table traffic either: only the flip counter moves.
        for key in ("apply_cache_size", "ite_cache_size", "restrict_cache_size"):
            assert after_tables[key] == before_tables[key]
        assert after_tables["negations"] - before_tables["negations"] == 1000

    def test_negation_is_an_involutive_bit_flip(self, manager):
        f = _sample_function(manager)
        g = manager.negate(f)
        assert g is not f
        assert g.uid == f.uid ^ 1
        assert manager.negate(g) is f
        assert (~f) is g  # Ref.__invert__ sugar

    def test_negation_shares_every_node(self, manager):
        """f and ~f are the same DAG: the complement halves live nodes on
        negation-heavy workloads (the old kernel duplicated the DAG)."""
        f = _sample_function(manager)
        before = manager.node_count()
        manager.negate(f)
        assert manager.node_count() == before
        assert f.index == manager.negate(f).index

    def test_de_morgan_is_free_of_new_nodes(self, manager):
        a, b = manager.var("a"), manager.var("b")
        conj = manager.and_(a, b)
        before = manager.node_count()
        # nor/nand/or of already-built operands only flip bits around the
        # existing AND nodes.
        assert manager.apply("nand", a, b) is manager.negate(conj)
        assert manager.node_count() == before


class TestCanonicalForm:
    def test_stored_high_edges_are_regular(self, manager):
        f = _sample_function(manager)
        manager.negate(f)
        manager.ite(f, manager.var("b"), manager.nvar("d"))
        manager.check_invariants()

    def test_public_mk_normalises_complemented_high(self, manager):
        b = manager.var("b")
        node = manager.mk(0, manager.true, manager.negate(b))
        # The canonical store keeps the high edge regular; the semantic
        # view through Ref still shows the requested cofactors.
        assert node.complemented
        assert node.low is manager.true
        assert node.high is manager.negate(b)
        manager.check_invariants()

    def test_terminal_edges_share_the_stored_terminal(self, manager):
        assert manager.true.index == 0
        assert manager.false.index == 0
        assert manager.false.uid == manager.true.uid ^ 1
        assert manager.true.value is True
        assert manager.false.value is False

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_op_programs_keep_invariants(self, data):
        names = ["v1", "v2", "v3", "v4", "v5"]
        m = BDDManager(names)
        ops = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        ["and", "or", "xor", "xnor", "nand", "nor", "implies"]
                    ),
                    st.sampled_from(names),
                    st.booleans(),
                ),
                max_size=10,
            )
        )
        expr = m.var(names[0])
        for op, name, neg in ops:
            literal = m.var(name)
            if neg:
                literal = m.negate(literal)
            expr = m.apply(op, expr, literal)
        m.check_invariants()
        # The semantic DAG seen through Ref never exposes a complemented
        # high edge pair that collides: distinct reachable refs denote
        # distinct functions.
        uids = [node.uid for node in expr.iter_nodes()]
        assert len(uids) == len(set(uids))


class TestIterativeInspection:
    """sat_count/support/iter_nodes on BDDs deeper than the recursion
    limit (chains built through the non-recursive ``mk``)."""

    DEPTH = 4000

    def _chain(self):
        names = [f"x{i}" for i in range(self.DEPTH)]
        m = BDDManager(names)
        node = m.true
        for level in range(self.DEPTH - 1, -1, -1):
            node = m.mk(level, m.false, node)  # AND of all variables
        return m, node

    def test_sat_count_survives_deep_chains(self):
        m, node = self._chain()
        assert m.sat_count(node) == 1
        # The complement counts by subtraction, still iteratively.
        assert m.sat_count(m.negate(node)) == 2**self.DEPTH - 1

    def test_support_survives_deep_chains(self):
        m, node = self._chain()
        assert len(m.support(node)) == self.DEPTH

    def test_iter_nodes_survives_deep_chains(self):
        m, node = self._chain()
        assert node.count_nodes() == self.DEPTH + 2

    def test_evaluate_survives_deep_chains(self):
        m, node = self._chain()
        assignment = {f"x{i}": True for i in range(self.DEPTH)}
        assert m.evaluate(node, assignment) is True
        assignment["x3999"] = False
        assert m.evaluate(node, assignment) is False


class TestRefTraversalSurface:
    def test_old_surface_still_walks(self, manager):
        f = _sample_function(manager)
        node = f
        env = {"a": True, "b": True, "c": False, "d": False}
        while not node.is_terminal:
            name = manager.name_of(node.level)
            node = node.high if env[name] else node.low
        assert node.value is manager.evaluate(f, env)


class TestCrossValidation:
    """Random BFL formulae on the complement-edge kernel vs the
    truth-table reference semantics, with kernel invariants checked on
    every translated formula."""

    @given(data=st.data(), tree=small_trees(max_basic_events=4))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_formula_truth_tables_agree(self, data, tree):
        translator = FormulaTranslator(tree)
        semantics = ReferenceSemantics(tree)
        formula = data.draw(formulas_for(tree))
        names = list(tree.basic_events)
        for bits in itertools.product((False, True), repeat=len(names)):
            vector = dict(zip(names, bits))
            assert check(translator, formula, vector) == semantics.holds(
                formula, vector
            )
        translator.manager.check_invariants()

    @given(data=st.data(), tree=small_trees(max_basic_events=4))
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_negation_agrees_and_stays_free(self, data, tree):
        from repro.logic.ast_nodes import Not

        translator = FormulaTranslator(tree)
        formula = data.draw(formulas_for(tree, allow_minimal_ops=False))
        root = translator.bdd(formula)
        nodes_before = translator.manager.node_count()
        negated = translator.bdd(Not(formula))
        assert translator.manager.node_count() == nodes_before
        assert negated is translator.manager.negate(root)
        vector = data.draw(vectors_for(tree))
        assert translator.manager.evaluate(negated, vector) is (
            not translator.manager.evaluate(root, vector)
        )
