"""A textual DSL for BFL.

The paper lists a Domain Specific Language as future work ("a step towards
usability"); this module provides one.  The concrete syntax mirrors the
paper's mathematical notation:

=====================================  =========================================
Paper                                  DSL
=====================================  =========================================
``forall (CP => CP/R)``                ``forall (CP => CP/R)``
``exists (CP and CR)``                 ``exists (CP & CR)``
``MCS(IWoS) and H4``                   ``MCS(IWoS) & H4``
``MPS(IWoS)[H1 -> 0, H2 -> 0]``        ``MPS(IWoS)[H1 := 0, H2 := 0]``
``Vot_{>=2}(H1, ..., H5)``             ``VOT(>= 2; H1, H2, H3, H4, H5)``
``IDP(CIO, CIS)``                      ``IDP(CIO, CIS)``
``SUP(PP)``                            ``SUP(PP)``
``[[ MCS(IWoS) and H4 ]]``             ``[[ MCS(IWoS) & H4 ]]`` (via
                                       :func:`parse_request`)
``P(MoT) >= 0.3`` (PFL)                ``P(MoT) >= 0.3``
``P(MoT | H1) < 0.5`` (PFL)            ``P(MoT | H1) < 0.5``
PFL probability settings               ``P(MoT)[H1 := 0.25] >= 0.1``
=====================================  =========================================

Operators by increasing precedence: ``<=>``/``<!>``, ``=>`` (right
associative), ``|``, ``&``, ``!``/``~``, evidence suffix ``[e := 0/1]``.
Element names may be quoted (``"CP/R"``) or bare; bare names may contain
letters, digits, ``_``, ``/`` and ``-``.  Keywords are case-insensitive.
Evidence also accepts ``->`` and ``|->`` as the assignment arrow.

PFL queries (``P(...)``) sit at the statement level, like
``exists``/``forall``.  Directly inside ``P(...)`` an *unparenthesised*
``|`` is the conditioning bar; write ``||``, ``\\/`` or parenthesise to
get disjunction there (everywhere else ``|`` stays disjunction).  After
the closing parenthesis an optional bracket of probability settings
``[e := 0.25, ...]`` overrides per-event failure probabilities for this
query (``0``/``1`` act as deterministic settings), and an optional
comparator + number turns the value query into a Boolean one.

Nesting is bounded: brackets (parentheses and operator argument lists)
nest at most :data:`MAX_NESTING` levels and a formula tree is at most
:data:`MAX_DEPTH` nodes deep; deeper input is a :class:`BFLSyntaxError`
at the offending token, not a ``RecursionError`` in a later pass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import BFLSyntaxError
from .ast_nodes import (
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
    Formula,
    IDP,
    Implies,
    Not,
    NotEquiv,
    Or,
    ProbabilityQuery,
    Statement,
    Synthesize,
    Vot,
)

#: Deepest bracket nesting accepted: parentheses and the argument lists
#: of ``MCS``/``MPS``/``VOT``/``SYNTHESIZE``.  Each level costs the
#: recursive descent about ten Python frames.
MAX_NESTING = 64

#: Deepest formula tree accepted, counted in nodes from the root to a
#: leaf.  Translation, formatting and the frozen AST's own hash and
#: equality recurse once or twice per level, so a formula at this depth
#: stays clear of Python's default recursion limit (1000).
MAX_DEPTH = 256

_KEYWORDS = {
    "mcs",
    "mps",
    "idp",
    "sup",
    "vot",
    "exists",
    "forall",
    "synthesize",
    "true",
    "false",
}

_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("LLBRACKET", r"\[\["),
    ("RRBRACKET", r"\]\]"),
    ("EQUIV", r"<=>"),
    ("NEQUIV", r"<!>"),
    ("IMPLIES", r"=>"),
    ("ASSIGN", r":=|\|->|->"),
    ("LE", r"<="),
    ("GE", r">="),
    ("LT", r"<"),
    ("GT", r">"),
    ("EQ", r"="),
    ("AND", r"&&?|/\\"),
    ("OR", r"\|\||\\/"),
    ("BAR", r"\|"),
    ("NOT", r"!|~"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LBRACKET", r"\["),
    ("RBRACKET", r"\]"),
    ("COMMA", r","),
    ("SEMI", r";"),
    ("FLOAT", r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+"),
    ("NUMBER", r"\d+"),
    ("QUOTED", r'"[^"]*"'),
    ("NAME", r"[A-Za-z_][A-Za-z0-9_/\-]*"),
]

_MASTER_RE = re.compile(
    "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC)
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, line_start = 1, 0
    position = 0
    while position < len(text):
        match = _MASTER_RE.match(text, position)
        if match is None:
            column = position - line_start
            raise BFLSyntaxError(
                f"unexpected character {text[position]!r}", line, column
            )
        kind = match.lastgroup
        value = match.group()
        if kind == "WS":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = match.start() + value.rfind("\n") + 1
        else:
            tokens.append(_Token(kind, value, line, match.start() - line_start))
        position = match.end()
    tokens.append(_Token("EOF", "", line, position - line_start))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: List[_Token]) -> None:
        self._tokens = tokens
        self._index = 0
        # Directly inside P( ... ) a top-level single `|` is the
        # conditioning bar, not disjunction; parentheses (and every other
        # nesting construct) restore the default reading.
        self._bar_conditional = False
        # Open brackets around the current token, and id(node) -> depth
        # for every operator node built so far (leaves have depth 1).
        self._nesting = 0
        self._depths: Dict[int, int] = {}

    # -- token helpers --------------------------------------------------

    @property
    def _current(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._current
        self._index += 1
        return token

    def _check(self, kind: str) -> bool:
        return self._current.kind == kind

    def _accept(self, kind: str) -> Optional[_Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _expect(self, kind: str, what: str) -> _Token:
        if not self._check(kind):
            token = self._current
            raise BFLSyntaxError(
                f"expected {what}, found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _node(self, token: _Token, node: Formula) -> Formula:
        """Record ``node``'s depth, rejecting it past :data:`MAX_DEPTH`
        at ``token`` (its operator)."""
        depths = self._depths
        depth = 1 + max(depths.get(id(child), 1) for child in node.children())
        if depth > MAX_DEPTH:
            raise BFLSyntaxError(
                f"formula nests deeper than {MAX_DEPTH} levels",
                token.line,
                token.column,
            )
        depths[id(node)] = depth
        return node

    def _keyword(self) -> Optional[str]:
        """Lower-cased keyword if the current token is a NAME keyword."""
        if self._check("NAME") and self._current.text.lower() in _KEYWORDS:
            return self._current.text.lower()
        return None

    # -- grammar --------------------------------------------------------

    def parse_statement(self) -> Statement:
        statement = self._statement()
        self._expect("EOF", "end of input")
        return statement

    def _statement(self) -> Statement:
        if self._at_prob_query():
            return self._prob_query()
        keyword = self._keyword()
        if keyword == "exists":
            self._advance()
            return Exists(self._formula())
        if keyword == "forall":
            self._advance()
            return Forall(self._formula())
        if keyword == "idp":
            self._advance()
            self._expect("LPAREN", "'(' after IDP")
            left = self._formula()
            self._expect("COMMA", "',' between IDP arguments")
            right = self._formula()
            self._expect("RPAREN", "')' closing IDP")
            return IDP(left, right)
        if keyword == "sup":
            self._advance()
            self._expect("LPAREN", "'(' after SUP")
            name = self._element_name()
            self._expect("RPAREN", "')' closing SUP")
            return SUP(name)
        if keyword == "synthesize":
            opening = self._advance()
            bracket = self._expect("LPAREN", "'(' after SYNTHESIZE")
            formula = self._inner_formula(bracket)
            candidates: List[str] = []
            if self._accept("SEMI"):
                candidates.append(self._element_name())
                while self._accept("COMMA"):
                    candidates.append(self._element_name())
            self._expect("RPAREN", "')' closing SYNTHESIZE")
            try:
                return Synthesize(formula, tuple(candidates))
            except ValueError as error:
                raise BFLSyntaxError(
                    str(error), opening.line, opening.column
                ) from None
        return self._formula()

    def _formula(self) -> Formula:
        return self._equivalence()

    def _inner_formula(self, bracket: _Token) -> Formula:
        """A formula inside ``bracket`` (parentheses, MCS/MPS/VOT/
        SYNTHESIZE arguments), where ``|`` always means disjunction
        again."""
        if self._nesting >= MAX_NESTING:
            raise BFLSyntaxError(
                f"brackets nest deeper than {MAX_NESTING} levels",
                bracket.line,
                bracket.column,
            )
        saved = self._bar_conditional
        self._bar_conditional = False
        self._nesting += 1
        try:
            return self._formula()
        finally:
            self._bar_conditional = saved
            self._nesting -= 1

    def _equivalence(self) -> Formula:
        left = self._implication()
        while True:
            token = self._accept("EQUIV") or self._accept("NEQUIV")
            if token is None:
                return left
            node = Equiv if token.kind == "EQUIV" else NotEquiv
            left = self._node(token, node(left, self._implication()))

    def _implication(self) -> Formula:
        # Right associative: a => b => c  ==  a => (b => c).  Operands
        # are collected first so a long chain costs no recursion.
        operands = [self._disjunction()]
        arrows: List[_Token] = []
        while True:
            arrow = self._accept("IMPLIES")
            if arrow is None:
                break
            arrows.append(arrow)
            operands.append(self._disjunction())
        formula = operands.pop()
        while arrows:
            formula = self._node(
                arrows.pop(), Implies(operands.pop(), formula)
            )
        return formula

    def _disjunction(self) -> Formula:
        left = self._conjunction()
        while True:
            token = self._accept("OR") or (
                None if self._bar_conditional else self._accept("BAR")
            )
            if token is None:
                return left
            left = self._node(token, Or(left, self._conjunction()))

    def _conjunction(self) -> Formula:
        left = self._unary()
        while True:
            token = self._accept("AND")
            if token is None:
                return left
            left = self._node(token, And(left, self._unary()))

    def _unary(self) -> Formula:
        negations: List[_Token] = []
        while True:
            token = self._accept("NOT")
            if token is None:
                break
            negations.append(token)
        formula = self._postfix()
        while negations:
            formula = self._node(negations.pop(), Not(formula))
        return formula

    def _postfix(self) -> Formula:
        formula = self._primary()
        while self._check("LBRACKET"):
            bracket = self._advance()
            assignments = [self._substitution()]
            while self._accept("COMMA"):
                assignments.append(self._substitution())
            self._expect("RBRACKET", "']' closing evidence")
            formula = self._node(
                bracket, Evidence(formula, tuple(assignments))
            )
        return formula

    def _substitution(self) -> Tuple[str, bool]:
        name = self._element_name()
        self._expect("ASSIGN", "':=' in evidence")
        token = self._expect("NUMBER", "0 or 1")
        if token.text not in ("0", "1"):
            raise BFLSyntaxError(
                f"evidence value must be 0 or 1, got {token.text!r}",
                token.line,
                token.column,
            )
        return name, token.text == "1"

    def _primary(self) -> Formula:
        if self._at_prob_query():
            token = self._current
            raise BFLSyntaxError(
                "probabilistic queries P(...) cannot be nested inside "
                "a formula",
                token.line,
                token.column,
            )
        bracket = self._accept("LPAREN")
        if bracket is not None:
            inner = self._inner_formula(bracket)
            self._expect("RPAREN", "')'")
            return inner
        keyword = self._keyword()
        if keyword in ("mcs", "mps"):
            operator = self._advance()
            bracket = self._expect("LPAREN", f"'(' after {keyword.upper()}")
            inner = self._inner_formula(bracket)
            self._expect("RPAREN", f"')' closing {keyword.upper()}")
            return self._node(
                operator, MCS(inner) if keyword == "mcs" else MPS(inner)
            )
        if keyword == "vot":
            return self._vot(self._advance())
        if keyword == "true":
            self._advance()
            return Constant(True)
        if keyword == "false":
            self._advance()
            return Constant(False)
        if keyword in ("exists", "forall", "idp", "sup", "synthesize"):
            token = self._current
            raise BFLSyntaxError(
                f"layer-2 operator {keyword!r} cannot appear inside a formula",
                token.line,
                token.column,
            )
        if self._check("NAME") or self._check("QUOTED"):
            return Atom(self._element_name())
        token = self._current
        raise BFLSyntaxError(
            f"expected a formula, found {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )

    def _comparator(self) -> Optional[str]:
        """Consume a comparison operator token, if present (shared by
        VOT thresholds and PFL probability bounds)."""
        for kind, symbol in (
            ("GE", ">="),
            ("LE", "<="),
            ("EQ", "="),
            ("LT", "<"),
            ("GT", ">"),
        ):
            if self._accept(kind):
                return symbol
        return None

    def _vot(self, keyword: _Token) -> Formula:
        bracket = self._expect("LPAREN", "'(' after VOT")
        operator = self._comparator() or ">="
        token = self._expect("NUMBER", "VOT threshold")
        threshold = int(token.text)
        self._expect("SEMI", "';' between VOT threshold and operands")
        operands = [self._inner_formula(bracket)]
        while self._accept("COMMA"):
            operands.append(self._inner_formula(bracket))
        self._expect("RPAREN", "')' closing VOT")
        try:
            node = Vot(operator, threshold, tuple(operands))
        except ValueError as error:
            raise BFLSyntaxError(str(error), token.line, token.column) from None
        return self._node(keyword, node)

    def _element_name(self) -> str:
        if self._check("QUOTED"):
            return self._advance().text[1:-1]
        token = self._expect("NAME", "an element name")
        return token.text

    # -- PFL probability queries ----------------------------------------

    def _at_prob_query(self) -> bool:
        """True when the next tokens are ``P`` ``(`` — the start of a PFL
        query (an element named ``P`` on its own keeps working)."""
        return (
            self._check("NAME")
            and self._current.text.lower() == "p"
            and self._tokens[self._index + 1].kind == "LPAREN"
        )

    def _prob_query(self) -> ProbabilityQuery:
        opening = self._advance()  # the P
        self._expect("LPAREN", "'(' after P")
        saved = self._bar_conditional
        self._bar_conditional = True
        try:
            formula = self._formula()
            condition = None
            if self._accept("BAR"):
                condition = self._formula()
        finally:
            self._bar_conditional = saved
        self._expect("RPAREN", "')' closing P")
        settings: List[Tuple[str, float]] = []
        if self._accept("LBRACKET"):
            settings.append(self._prob_setting())
            while self._accept("COMMA"):
                settings.append(self._prob_setting())
            self._expect("RBRACKET", "']' closing probability settings")
        comparator = self._comparator()
        bound: Optional[float] = None
        if comparator is not None:
            bound = self._probability_value("probability bound")
        try:
            return ProbabilityQuery(
                formula=formula,
                condition=condition,
                comparator=comparator,
                bound=bound,
                settings=tuple(settings),
            )
        except ValueError as error:
            raise BFLSyntaxError(
                str(error), opening.line, opening.column
            ) from None

    def _prob_setting(self) -> Tuple[str, float]:
        name = self._element_name()
        self._expect("ASSIGN", "':=' in probability settings")
        return name, self._probability_value("a probability in [0, 1]")

    def _probability_value(self, what: str) -> float:
        if self._check("FLOAT") or self._check("NUMBER"):
            return float(self._advance().text)
        token = self._current
        raise BFLSyntaxError(
            f"expected {what}, found {token.text or 'end of input'!r}",
            token.line,
            token.column,
        )


def parse(text: str) -> Statement:
    """Parse DSL text into a layer-1 :class:`Formula` or layer-2
    :class:`Query`.

    Raises:
        BFLSyntaxError: With a line/column position on bad input.
    """
    return _Parser(_tokenize(text)).parse_statement()


def parse_formula(text: str) -> Formula:
    """Parse text that must be a layer-1 formula."""
    statement = parse(text)
    if not isinstance(statement, Formula):
        raise BFLSyntaxError(
            "expected a layer-1 formula, got a layer-2 query"
        )
    return statement


def parse_request(text: str) -> Tuple[Statement, bool]:
    """Parse, recognising the paper's satisfaction-set brackets.

    ``[[ formula ]]`` means "compute all satisfying vectors" rather than
    "evaluate"; the second component of the result is True in that case.
    """
    stripped = text.strip()
    if stripped.startswith("[[") and stripped.endswith("]]"):
        return parse(stripped[2:-2]), True
    return parse(stripped), False


# ----------------------------------------------------------------------
# Pretty printing (the inverse of parsing)
# ----------------------------------------------------------------------

_BARE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_/\-]*\Z")


def _format_name(name: str) -> str:
    if _BARE_NAME_RE.match(name) and name.lower() not in _KEYWORDS:
        return name
    return f'"{name}"'


def _precedence(formula: Formula) -> int:
    if isinstance(formula, (Equiv, NotEquiv)):
        return 1
    if isinstance(formula, Implies):
        return 2
    if isinstance(formula, Or):
        return 3
    if isinstance(formula, And):
        return 4
    if isinstance(formula, Not):
        return 5
    return 6


def _wrap(formula: Formula, parent_precedence: int) -> str:
    text = format_formula(formula)
    if _precedence(formula) < parent_precedence:
        return f"({text})"
    return text


def format_formula(formula: Formula) -> str:
    """Canonical DSL text for a formula; ``parse`` round-trips it."""
    if isinstance(formula, Atom):
        return _format_name(formula.name)
    if isinstance(formula, Constant):
        return "true" if formula.value else "false"
    if isinstance(formula, Not):
        return "!" + _wrap(formula.operand, 5)
    if isinstance(formula, And):
        return f"{_wrap(formula.left, 4)} & {_wrap(formula.right, 5)}"
    if isinstance(formula, Or):
        return f"{_wrap(formula.left, 3)} | {_wrap(formula.right, 4)}"
    if isinstance(formula, Implies):
        # Right associative: parenthesise a left operand of equal precedence.
        return f"{_wrap(formula.left, 3)} => {_wrap(formula.right, 2)}"
    if isinstance(formula, Equiv):
        return f"{_wrap(formula.left, 1)} <=> {_wrap(formula.right, 2)}"
    if isinstance(formula, NotEquiv):
        return f"{_wrap(formula.left, 1)} <!> {_wrap(formula.right, 2)}"
    if isinstance(formula, Evidence):
        inner = _wrap(formula.operand, 6)
        parts = ", ".join(
            f"{_format_name(name)} := {int(value)}"
            for name, value in formula.assignments
        )
        return f"{inner}[{parts}]"
    if isinstance(formula, MCS):
        return f"MCS({format_formula(formula.operand)})"
    if isinstance(formula, MPS):
        return f"MPS({format_formula(formula.operand)})"
    if isinstance(formula, Vot):
        operands = ", ".join(format_formula(op) for op in formula.operands)
        return f"VOT({formula.operator} {formula.threshold}; {operands})"
    raise TypeError(f"cannot format {formula!r}")


def _format_probability(value: float) -> str:
    return repr(float(value))


def format_statement(statement: Statement) -> str:
    """Canonical DSL text for a statement."""
    if isinstance(statement, ProbabilityQuery):
        # An unparenthesised top-level `|` inside P(...) is the
        # conditioning bar, so Or (and looser) operands are wrapped.
        inner = _wrap(statement.formula, 4)
        if statement.condition is not None:
            inner += f" | {_wrap(statement.condition, 4)}"
        text = f"P({inner})"
        if statement.settings:
            parts = ", ".join(
                f"{_format_name(name)} := {_format_probability(value)}"
                for name, value in statement.settings
            )
            text += f"[{parts}]"
        if statement.comparator is not None:
            text += (
                f" {statement.comparator} "
                f"{_format_probability(statement.bound)}"
            )
        return text
    if isinstance(statement, Exists):
        return f"exists ({format_formula(statement.operand)})"
    if isinstance(statement, Forall):
        return f"forall ({format_formula(statement.operand)})"
    if isinstance(statement, IDP):
        return (
            f"IDP({format_formula(statement.left)}, "
            f"{format_formula(statement.right)})"
        )
    if isinstance(statement, SUP):
        return f"SUP({_format_name(statement.element)})"
    if isinstance(statement, Synthesize):
        text = f"SYNTHESIZE({format_formula(statement.formula)}"
        if statement.candidates:
            text += "; " + ", ".join(
                _format_name(name) for name in statement.candidates
            )
        return text + ")"
    if isinstance(statement, Formula):
        return format_formula(statement)
    raise TypeError(f"cannot format {statement!r}")
