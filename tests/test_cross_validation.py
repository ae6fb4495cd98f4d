"""Cross-validation: the BDD model checker (Sec. V) against the
enumerative reference semantics (Sec. III-B), on random trees and random
formulae, under both minimality scopes.

These are the strongest correctness guarantees in the suite: any
disagreement between the two independent implementations of BFL's
semantics fails here.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import maximal_assignments, minimal_assignments
from repro.logic import (
    MCS,
    MPS,
    Exists,
    Forall,
    IDP,
    MinimalityScope,
    ReferenceSemantics,
)
from repro.checker import FormulaTranslator, ModelChecker, check, satisfying_vectors

from bfl_strategies import formulas_for, small_trees, vectors_for

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(data=st.data(), tree=small_trees(max_basic_events=4))
@settings(**_SETTINGS)
@pytest.mark.parametrize("scope", list(MinimalityScope))
def test_layer1_check_agrees(data, tree, scope):
    translator = FormulaTranslator(tree, scope=scope)
    semantics = ReferenceSemantics(tree, scope=scope)
    formula = data.draw(formulas_for(tree))
    vector = data.draw(vectors_for(tree))
    assert check(translator, formula, vector) == semantics.holds(
        formula, vector
    )


@given(data=st.data(), tree=small_trees(max_basic_events=4))
@settings(**_SETTINGS)
@pytest.mark.parametrize("scope", list(MinimalityScope))
def test_satisfying_vectors_agree(data, tree, scope):
    translator = FormulaTranslator(tree, scope=scope)
    semantics = ReferenceSemantics(tree, scope=scope)
    formula = data.draw(formulas_for(tree))
    bdd_vectors = {
        tuple(sorted(v.items()))
        for v in satisfying_vectors(translator, formula)
    }
    ref_vectors = {
        tuple(sorted(v.items()))
        for v in semantics.satisfying_vectors(formula)
    }
    assert bdd_vectors == ref_vectors


@given(data=st.data(), tree=small_trees(max_basic_events=4))
@settings(**_SETTINGS)
@pytest.mark.parametrize("scope", list(MinimalityScope))
def test_satisfaction_set_counts_agree(data, tree, scope):
    """``len`` and ``bool`` read the cubes alone; the lazily expanded
    vectors are the reference semantics' set."""
    satset = ModelChecker(tree, scope=scope).satisfaction_set(
        data.draw(formulas_for(tree))
    )
    ref_vectors = {
        tuple(sorted(v.items()))
        for v in ReferenceSemantics(tree, scope=scope).satisfying_vectors(
            satset.formula
        )
    }
    assert len(satset) == len(ref_vectors)
    assert bool(satset) == bool(ref_vectors)
    assert {tuple(sorted(v.items())) for v in satset.vectors} == ref_vectors
    assert len(satset.vectors) == len(satset)


@given(data=st.data(), tree=small_trees(max_basic_events=4))
@settings(**_SETTINGS)
def test_layer2_quantifiers_agree(data, tree):
    checker = ModelChecker(tree)
    semantics = ReferenceSemantics(tree)
    formula = data.draw(formulas_for(tree))
    assert checker.check(Exists(formula)) == semantics.holds(Exists(formula))
    assert checker.check(Forall(formula)) == semantics.holds(Forall(formula))


@given(data=st.data(), tree=small_trees(max_basic_events=4))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_idp_agrees(data, tree):
    checker = ModelChecker(tree)
    semantics = ReferenceSemantics(tree)
    left = data.draw(formulas_for(tree, allow_minimal_ops=False))
    right = data.draw(formulas_for(tree, allow_minimal_ops=False))
    assert checker.check(IDP(left, right)) == semantics.holds(IDP(left, right))


@given(data=st.data(), tree=small_trees(max_basic_events=5))
@settings(**_SETTINGS)
@pytest.mark.parametrize("churn", ["none", "collect", "sift"])
@pytest.mark.parametrize("scope", list(MinimalityScope))
def test_recursion_equals_paper_construction(data, tree, scope, churn):
    """MCS/MPS of any operand (negation, equivalence, xor, evidence,
    nested MCS/MPS) are canonically the edge the paper's primed-relation
    construction builds in the same kernel, also after a collection or
    an in-place sift has renumbered or reordered it, and they agree with
    the reference semantics."""
    translator = FormulaTranslator(tree, scope=scope)
    manager = translator.manager
    operand = data.draw(formulas_for(tree))
    inner = translator.bdd(operand)
    if churn == "collect":
        manager.collect()
    elif churn == "sift":
        manager.sift_inplace()
    mcs = translator.bdd(MCS(operand))
    mps = translator.bdd(MPS(operand))
    names = translator._minimality_scope(inner)
    assert mcs is minimal_assignments(manager, inner, names)
    assert mps is maximal_assignments(manager, manager.negate(inner), names)
    semantics = ReferenceSemantics(tree, scope=scope)
    vector = data.draw(vectors_for(tree))
    for formula in (MCS(operand), MPS(operand)):
        assert check(translator, formula, vector) == semantics.holds(
            formula, vector
        )
