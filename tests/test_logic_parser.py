"""The BFL DSL: parsing, precedence, errors, and print/parse round-trips."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import ModelChecker
from repro.errors import BFLSyntaxError
from repro.ft import figure1_tree
from repro.logic import (
    MCS,
    MPS,
    SUP,
    And,
    Atom,
    Constant,
    Equiv,
    Evidence,
    Exists,
    Forall,
    IDP,
    Implies,
    Not,
    NotEquiv,
    Or,
    Vot,
    format_formula,
    format_statement,
    parse,
    parse_formula,
    parse_request,
)
from repro.logic.parser import MAX_DEPTH, MAX_NESTING

from bfl_strategies import formulas_for


class TestBasics:
    def test_atom(self):
        assert parse("IW") == Atom("IW")

    def test_quoted_atom_with_slash(self):
        assert parse('"CP/R"') == Atom("CP/R")

    def test_bare_name_with_slash(self):
        assert parse("CP/R") == Atom("CP/R")

    def test_constants(self):
        assert parse("true") == Constant(True)
        assert parse("FALSE") == Constant(False)

    def test_not_variants(self):
        assert parse("!A") == Not(Atom("A"))
        assert parse("~A") == Not(Atom("A"))

    def test_and_or_variants(self):
        assert parse("A & B") == And(Atom("A"), Atom("B"))
        assert parse("A && B") == And(Atom("A"), Atom("B"))
        assert parse("A | B") == Or(Atom("A"), Atom("B"))
        assert parse("A || B") == Or(Atom("A"), Atom("B"))


class TestPrecedence:
    def test_and_binds_tighter_than_or(self):
        assert parse("A | B & C") == Or(Atom("A"), And(Atom("B"), Atom("C")))

    def test_or_binds_tighter_than_implies(self):
        assert parse("A | B => C") == Implies(
            Or(Atom("A"), Atom("B")), Atom("C")
        )

    def test_implies_is_right_associative(self):
        assert parse("A => B => C") == Implies(
            Atom("A"), Implies(Atom("B"), Atom("C"))
        )

    def test_equiv_lowest(self):
        assert parse("A => B <=> C") == Equiv(
            Implies(Atom("A"), Atom("B")), Atom("C")
        )

    def test_nequiv(self):
        assert parse("A <!> B") == NotEquiv(Atom("A"), Atom("B"))

    def test_not_binds_tightest(self):
        assert parse("!A & B") == And(Not(Atom("A")), Atom("B"))

    def test_parentheses_override(self):
        assert parse("A & (B | C)") == And(Atom("A"), Or(Atom("B"), Atom("C")))


class TestOperators:
    def test_mcs_mps(self):
        assert parse("MCS(A & B)") == MCS(And(Atom("A"), Atom("B")))
        assert parse("mps(A)") == MPS(Atom("A"))

    def test_evidence_assign_variants(self):
        expected = Evidence(Atom("A"), (("H1", False),))
        assert parse("A[H1 := 0]") == expected
        assert parse("A[H1 -> 0]") == expected
        assert parse("A[H1 |-> 0]") == expected

    def test_evidence_multiple_assignments(self):
        assert parse("A[H1 := 0, H2 := 1]") == Evidence(
            Atom("A"), (("H1", False), ("H2", True))
        )

    def test_evidence_chains(self):
        formula = parse("A[H1 := 0][H2 := 1]")
        assert formula == Evidence(
            Evidence(Atom("A"), (("H1", False),)), (("H2", True),)
        )

    def test_vot_default_geq(self):
        formula = parse("VOT(>= 2; A, B, C)")
        assert formula == Vot(">=", 2, (Atom("A"), Atom("B"), Atom("C")))

    @pytest.mark.parametrize("op", ["<", "<=", "=", ">=", ">"])
    def test_vot_all_operators(self, op):
        formula = parse(f"VOT({op} 1; A, B)")
        assert isinstance(formula, Vot)
        assert formula.operator == op

    def test_vot_over_formulae(self):
        formula = parse("VOT(>= 1; A & B, !C)")
        assert formula.operands == (And(Atom("A"), Atom("B")), Not(Atom("C")))


class TestLayer2:
    def test_exists_forall(self):
        assert parse("exists (A & B)") == Exists(And(Atom("A"), Atom("B")))
        assert parse("forall A => B") == Forall(Implies(Atom("A"), Atom("B")))

    def test_idp(self):
        assert parse("IDP(CIO, CIS)") == IDP(Atom("CIO"), Atom("CIS"))

    def test_sup(self):
        assert parse("SUP(PP)") == SUP("PP")

    def test_layer2_inside_formula_rejected(self):
        with pytest.raises(BFLSyntaxError):
            parse("A & exists B")

    def test_parse_formula_rejects_queries(self):
        with pytest.raises(BFLSyntaxError):
            parse_formula("forall A")

    def test_parse_request_detects_satset_brackets(self):
        statement, satset = parse_request("[[ MCS(IWoS) & H4 ]]")
        assert satset
        assert statement == And(MCS(Atom("IWoS")), Atom("H4"))
        statement, satset = parse_request("MCS(IWoS)")
        assert not satset


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "A &",
            "(A",
            "A[H1]",
            "A[H1 := 2]",
            "MCS A",
            "VOT(2; A)",  # missing comparison is allowed? no: default needs NUMBER after '('
            "A @ B",
            'IDP(A)',
            "SUP()",
        ],
    )
    def test_rejected_inputs(self, text):
        with pytest.raises(BFLSyntaxError):
            parse(text)

    def test_error_carries_position(self):
        with pytest.raises(BFLSyntaxError) as excinfo:
            parse("A &\n& B")
        assert excinfo.value.line == 2

    def test_trailing_garbage_rejected(self):
        with pytest.raises(BFLSyntaxError):
            parse("A B")


#: Wrappers the nesting property test stacks: prefix and suffix of one
#: more level around an inner formula.
_LAYERS = [
    ("(", ")"),
    ("!", ""),
    ("MCS(", ")"),
    ("VOT(>= 1; H2, ", ")"),
    ("", " & H2"),
    ("", " => H2"),
    ("", "[H2 := 1]"),
]
_CHECKER = ModelChecker(figure1_tree())


class TestNestingBound:
    """Hostile nesting is a positioned syntax error, never a
    ``RecursionError``; a formula at either bound still answers."""

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ("(" * 150 + "A" + ")" * 150, 1, MAX_NESTING),
            ("\n" + "MCS(" * 100 + "A" + ")" * 100, 2, 4 * MAX_NESTING + 3),
            ("!" * 2000 + "A", 1, 2000 - MAX_DEPTH),
            (" & ".join(["A"] * 2000), 1, 4 * MAX_DEPTH - 2),
            (" => ".join(["A"] * 2000), 1, 5 * (1999 - MAX_DEPTH) + 2),
            ("A" + "[B := 1]" * 2000, 1, 1 + 8 * (MAX_DEPTH - 1)),
        ],
        ids=["parens", "mcs", "not", "and", "implies", "evidence"],
    )
    def test_too_deep_is_a_syntax_error(self, text, line, column):
        with pytest.raises(BFLSyntaxError) as excinfo:
            parse(text)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    @pytest.mark.parametrize("wrapper", ["exists {}", "P({}) > 0.5", "IDP({}, A)"])
    def test_statements_bound_their_operands(self, wrapper):
        with pytest.raises(BFLSyntaxError):
            parse(wrapper.format("(" * 300 + "A" + ")" * 300))

    @settings(max_examples=40, deadline=None)
    @given(levels=st.integers(100, 400), seed=st.integers(0, 2**32 - 1))
    def test_any_nesting_answers_or_is_a_syntax_error(self, levels, seed):
        # A seeded shuffle mixes the layers evenly; hypothesis's own
        # lists lean on the first choice.
        rng = random.Random(seed)
        text = "IW"
        for _ in range(levels):
            prefix, suffix = rng.choice(_LAYERS)
            text = prefix + text + suffix
        # Hypothesis raises the recursion limit while it runs a test;
        # the bounds must hold under the interpreter's default.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            try:
                formula = parse_formula(text)
            except BFLSyntaxError:
                return
            assert parse(format_formula(formula)) == formula
            _CHECKER.check(Exists(formula))
        finally:
            sys.setrecursionlimit(limit)

    def test_formulas_at_the_bound_round_trip(self):
        for text in [
            "(" * MAX_NESTING + "A" + ")" * MAX_NESTING,
            "MCS(" * MAX_NESTING + "A" + ")" * MAX_NESTING,
            "!" * (MAX_DEPTH - 1) + "A",
            " & ".join(["A"] * MAX_DEPTH),
            " => ".join(["A"] * MAX_DEPTH),
            "A" + "[B := 1]" * (MAX_DEPTH - 1),
        ]:
            formula = parse(text)
            assert parse(format_formula(formula)) == formula


class TestPaperFormulae:
    """Every BFL formula printed in the paper parses."""

    @pytest.mark.parametrize(
        "text",
        [
            "forall (IS => MoT)",
            "forall (MoT => (H1 | H2 | H3 | H4 | H5))",
            "forall (H4 => IWoS)",
            "forall (VOT(>= 2; H1, H2, H3, H4, H5) => IWoS)",
            "MCS(IWoS) & H4",
            "MPS(IWoS)[H1 := 0, H2 := 0, H3 := 0, H4 := 0, H5 := 0]",
            "IDP(CIO, CIS)",
            "SUP(PP)",
            'forall (CP => "CP/R")',
            "exists (CP & CR)",
            "MCS(e1) & MCS(e3)",
            "MPS(e1) & MPS(e3)",
        ],
    )
    def test_parses(self, text):
        parse(text)


class TestRoundTrip:
    @given(formula=formulas_for(figure1_tree(), allow_minimal_ops=True))
    @settings(max_examples=120, deadline=None)
    def test_format_parse_round_trip(self, formula):
        assert parse(format_formula(formula)) == formula

    def test_statement_round_trip(self):
        for text in [
            "forall (A => B)",
            "exists (MCS(A))",
            "IDP(A, B & C)",
            "SUP(PP)",
        ]:
            statement = parse(text)
            assert parse(format_statement(statement)) == statement

    def test_quoting_of_awkward_names(self):
        formula = Atom("weird name")
        assert format_formula(formula) == '"weird name"'
        assert parse(format_formula(formula)) == formula

    def test_keyword_like_names_quoted(self):
        formula = Atom("mcs")
        assert parse(format_formula(formula)) == formula
