"""Algorithm 1: formula -> BDD translation, caching, scopes, MCS/MPS."""

import pytest

from repro.errors import LogicError
from repro.ft import figure1_tree, figure3_or_tree
from repro.logic import (
    MCS,
    MPS,
    Atom,
    Constant,
    MinimalityScope,
    Not,
    Vot,
    desugar,
    parse_formula,
)
from repro.checker import FormulaTranslator


@pytest.fixture()
def fig1_translator():
    return FormulaTranslator(figure1_tree())


class TestBasicTranslation:
    def test_atom_is_psi_ft(self, fig1_translator):
        manager = fig1_translator.manager
        cp = fig1_translator.bdd(Atom("CP"))
        expected = manager.and_(manager.var("IW"), manager.var("H3"))
        assert cp is expected

    def test_constants(self, fig1_translator):
        assert fig1_translator.bdd(Constant(True)) is fig1_translator.manager.true
        assert fig1_translator.bdd(Constant(False)) is fig1_translator.manager.false

    def test_not_and(self, fig1_translator):
        manager = fig1_translator.manager
        formula = parse_formula("!(IW & H3)")
        expected = manager.negate(
            manager.and_(manager.var("IW"), manager.var("H3"))
        )
        assert fig1_translator.bdd(formula) is expected

    def test_unknown_element_rejected(self, fig1_translator):
        with pytest.raises(LogicError):
            fig1_translator.bdd(Atom("ghost"))

    def test_evidence_is_restrict(self, fig1_translator):
        manager = fig1_translator.manager
        formula = parse_formula("CP[IW := 1]")
        assert fig1_translator.bdd(formula) is manager.var("H3")

    def test_evidence_on_gate_rejected(self, fig1_translator):
        with pytest.raises(LogicError):
            fig1_translator.bdd(parse_formula("CP/R[CP := 1]"))

    @pytest.mark.parametrize(
        "text",
        [
            "IW | H3",
            "IW => H3",
            "IW <=> H3",
            "IW <!> H3",
            "VOT(>= 2; IW, H3, IT)",
            "VOT(= 1; IW, H3)",
            "VOT(< 2; IW, H3, IT)",
            "VOT(<= 1; IW, H3)",
            "VOT(> 0; IW, H3)",
        ],
    )
    def test_sugared_operators_equal_desugared_translation(
        self, fig1_translator, text
    ):
        formula = parse_formula(text)
        direct = fig1_translator.bdd(formula)
        via_core = fig1_translator.bdd(desugar(formula))
        assert direct is via_core  # canonicity makes this an identity check


class TestMCSTranslation:
    def test_or_gate_mcs_bdd(self):
        translator = FormulaTranslator(figure3_or_tree())
        manager = translator.manager
        node = translator.bdd(MCS(Atom("Top")))
        # Exactly the two singleton cut vectors (0,1) and (1,0).
        e1, e2 = manager.var("e1"), manager.var("e2")
        expected = manager.xor(e1, e2)
        assert node is expected

    def test_mcs_mps_equal_the_paper_construction(self):
        from repro.bdd import maximal_assignments, minimal_assignments

        translator = FormulaTranslator(figure1_tree())
        manager = translator.manager
        texts = ["MCS(CP/R)", "MPS(CP/R)", "MCS(CP)", "MPS(CR)",
                 "MCS(CP <=> !CR)", "MPS(CP & !IW)", "MCS(CP/R[IW := 1])"]
        built = {text: translator.bdd(parse_formula(text)) for text in texts}
        # One level per basic event: the recursion declares no primes.
        assert sorted(manager.variables) == sorted(figure1_tree().basic_events)
        for text, node in built.items():
            formula = parse_formula(text)
            inner = translator.bdd(formula.operand)
            scope = translator._minimality_scope(inner)
            if isinstance(formula, MCS):
                expected = minimal_assignments(manager, inner, scope)
            else:
                expected = maximal_assignments(
                    manager, manager.negate(inner), scope
                )
            assert node is expected, text

    def test_scope_support_leaves_irrelevant_events_free(self):
        translator = FormulaTranslator(
            figure1_tree(), scope=MinimalityScope.SUPPORT
        )
        node = translator.bdd(MCS(Atom("CP")))
        # IT/H2 do not influence CP, so they stay out of the BDD.
        assert translator.manager.support(node) == {"IW", "H3"}

    def test_scope_full_pins_irrelevant_events_to_zero(self):
        translator = FormulaTranslator(
            figure1_tree(), scope=MinimalityScope.FULL
        )
        node = translator.bdd(MCS(Atom("CP")))
        assert translator.manager.support(node) == {"IW", "H3", "IT", "H2"}
        vector = {"IW": True, "H3": True, "IT": True, "H2": False}
        assert not translator.manager.evaluate(node, vector)

    def test_mps_is_maximal_vectors_of_negation(self, fig1_translator):
        node = fig1_translator.bdd(MPS(Atom("CP/R")))
        manager = fig1_translator.manager
        from repro.bdd import all_models

        models = all_models(
            manager, node, list(figure1_tree().basic_events)
        )
        operational = {
            frozenset(n for n, v in m.items() if not v) for m in models
        }
        assert operational == {
            frozenset({"IW", "IT"}),
            frozenset({"IW", "H2"}),
            frozenset({"H3", "IT"}),
            frozenset({"H3", "H2"}),
        }


class TestCaching:
    def test_formula_cache_hits(self, fig1_translator):
        formula = parse_formula("MCS(CP/R) & IW")
        fig1_translator.bdd(formula)
        misses_after_first = fig1_translator.stats.formula_misses
        fig1_translator.bdd(formula)
        assert fig1_translator.stats.formula_misses == misses_after_first
        assert fig1_translator.stats.formula_hits >= 1

    def test_shared_subformulae_translated_once(self, fig1_translator):
        fig1_translator.bdd(parse_formula("CP & CP"))
        # 'CP' is one cache entry, hit on the second conjunct.
        assert fig1_translator.stats.formula_hits >= 1

    def test_support_helper(self, fig1_translator):
        assert fig1_translator.support(Atom("CP")) == {"IW", "H3"}
