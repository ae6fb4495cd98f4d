"""PFL: probabilistic queries over BFL formulae.

The paper's future work asks for "a probabilistic fault tree logic" —
realised by the authors as PFL.  This module provides the query surface
over the kernel's weighted-evaluation pass:

    P(phi) |><| c                  e.g.  P(MoT) >= 0.3
    P(phi | psi) |><| c            e.g.  P(MoT | H1 & VW) < 0.5
    P(phi)[e := p, ...] |><| c     per-query probability settings

where ``phi``/``psi`` are any layer-1 BFL formulae, evaluated against
independent basic-event failure probabilities.  A query has one form:
:func:`repro.logic.parser.parse` turns the text into a
:class:`~repro.logic.ast_nodes.ProbabilityQuery` (which validates the
comparator and the bound), and :meth:`ProbabilityChecker.evaluate` and
:meth:`ProbabilityChecker.check` take either.  Probabilities are
computed on exactly the BDD that Algorithm 1 builds for ``phi``, so
every BFL construct — evidence, MCS/MPS, VOT — participates for free,
and the BDDs land in the same manager (and manager-level probability
cache) the qualitative checker uses, which is what makes repeated
queries cheap.

Note the design decision documented here: for ``P(phi)`` the probability
mass of a formula is the measure of its satisfying *status vectors*
(``[[phi]]``); under the SUPPORT minimality scope the don't-care variables
contribute their full mass, which is the measure-theoretically consistent
reading.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..checker.translate import FormulaTranslator
from ..ft.tree import FaultTree
from ..logic.ast_nodes import Formula, ProbabilityQuery
from ..logic.parser import parse, parse_formula
from ..logic.scope import MinimalityScope
from .measure import (
    MissingProbabilityError,
    ZeroProbabilityEvidenceError,
    bdd_probability,
    bdd_probability_many,
    event_probabilities,
    probabilities_agree,
)

#: ``=`` is the one probability contract: equal up to a relative
#: ``PROBABILITY_RTOL``, and a structural zero equals only zero (an
#: absolute tolerance would make ``P(T) = 0`` and ``P(T) > 0`` both hold
#: for a rare top event).
_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "=": probabilities_agree,
    ">=": operator.ge,
    ">": operator.gt,
}


@dataclass(frozen=True)
class ProbabilityOutcome:
    """Everything :meth:`ProbabilityChecker.evaluate` learned.

    Attributes:
        value: ``P(phi)`` or ``P(phi | psi)``.
        holds: The verdict of ``value |><| bound`` (``None`` for a bare
            value query without comparator).
        condition_probability: ``P(psi)`` for conditional queries.
    """

    value: float
    holds: Optional[bool] = None
    condition_probability: Optional[float] = None


class ProbabilityChecker:
    """Quantitative companion to :class:`repro.checker.ModelChecker`.

    Args:
        tree: The fault tree (basic events need probabilities, or pass
            ``overrides``).  May be omitted when ``translator`` is given.
        overrides: Per-event probability overrides.
        scope: Minimality scope forwarded to the formula translator
            (ignored when ``translator`` is given).
        translator: Share an existing :class:`FormulaTranslator` — and
            thereby its BDD manager, Algorithm 1 cache and the kernel's
            probability cache — with a qualitative checker.  This is how
            the batch service serves mixed qualitative/probabilistic
            batteries from one manager.
    """

    def __init__(
        self,
        tree: Optional[FaultTree] = None,
        overrides: Optional[Mapping[str, float]] = None,
        scope: MinimalityScope = MinimalityScope.SUPPORT,
        translator: Optional[FormulaTranslator] = None,
    ) -> None:
        if translator is None:
            if tree is None:
                raise ValueError(
                    "ProbabilityChecker needs a tree or a translator"
                )
            translator = FormulaTranslator(tree, scope=scope)
        elif tree is None:
            tree = translator.tree
        elif tree is not translator.tree:
            raise ValueError(
                "tree and translator.tree disagree; pass one of the two"
            )
        self.tree = tree
        self.probabilities = event_probabilities(tree, overrides)
        self.translator = translator

    def _formula(self, formula) -> Formula:
        if isinstance(formula, str):
            return parse_formula(formula)
        return formula

    def probability(self, formula) -> float:
        """``P(formula)`` — the measure of ``[[formula]]``."""
        root = self.translator.bdd(self._formula(formula))
        return bdd_probability(self.translator.manager, root, self.probabilities)

    def conditional(self, formula, given) -> float:
        """``P(formula | given)``.

        Raises:
            ZeroProbabilityEvidenceError: If ``P(given) = 0``.
        """
        return self.evaluate(
            ProbabilityQuery(
                formula=self._formula(formula),
                condition=self._formula(given),
            )
        ).value

    def evaluate(
        self, query: Union[str, ProbabilityQuery, Formula]
    ) -> ProbabilityOutcome:
        """Answer a full PFL query (value, conditional, settings, bound).

        Accepts DSL text (``"P(MoT | H1) >= 0.3"``), a parsed
        :class:`~repro.logic.ast_nodes.ProbabilityQuery`, or a bare
        layer-1 formula (meaning ``P(formula)``).
        """
        if isinstance(query, str):
            statement = parse(query)
        else:
            statement = query
        if isinstance(statement, Formula):
            statement = ProbabilityQuery(formula=statement)
        if not isinstance(statement, ProbabilityQuery):
            raise ValueError(
                f"expected a probabilistic query, got {statement!r}"
            )
        probabilities = self.probabilities
        if statement.settings:
            probabilities = dict(probabilities)
            for name, value in statement.settings:
                if name not in self.tree.basic_events:
                    raise MissingProbabilityError(
                        f"probability setting for unknown basic event "
                        f"{name!r}"
                    )
                probabilities[name] = float(value)
        manager = self.translator.manager
        f = self.translator.bdd(statement.formula)
        condition_probability: Optional[float] = None
        if statement.condition is None:
            value = bdd_probability(manager, f, probabilities)
        else:
            g = self.translator.bdd(statement.condition)
            condition_probability = bdd_probability(manager, g, probabilities)
            if condition_probability == 0.0:
                raise ZeroProbabilityEvidenceError(
                    "conditioning on a zero-probability event"
                )
            joint = bdd_probability(
                manager, manager.and_(f, g), probabilities
            )
            value = joint / condition_probability
        holds: Optional[bool] = None
        if statement.comparator is not None:
            holds = _COMPARATORS[statement.comparator](
                value, statement.bound
            )
        return ProbabilityOutcome(
            value=value,
            holds=holds,
            condition_probability=condition_probability,
        )

    def sweep(
        self,
        formula,
        profiles: Sequence[Mapping[str, float]],
    ) -> List[float]:
        """``P(formula)`` under many probability profiles at once.

        Each profile is a per-event override mapping applied on top of
        the tree's base probabilities (exactly like a query's
        ``[e := p]`` settings); the result is one probability per
        profile, in order.  The formula's BDD is built once and handed
        to the kernel's vectorised multi-profile sweep
        (:meth:`BDDManager.probability_many
        <repro.bdd.manager.BDDManager.probability_many>`), so a variant
        battery or a sensitivity grid pays one traversal instead of one
        :meth:`probability` call per profile.

        Raises:
            MissingProbabilityError: On overrides for unknown basic
                events.
        """
        base = self.probabilities
        known = self.tree.basic_events
        merged: List[Mapping[str, float]] = []
        for overrides in profiles:
            unknown = set(overrides) - set(known)
            if unknown:
                raise MissingProbabilityError(
                    "overrides for unknown basic events: "
                    + ", ".join(sorted(unknown))
                )
            if overrides:
                weights = dict(base)
                for name, value in overrides.items():
                    weights[name] = float(value)
                merged.append(weights)
            else:
                merged.append(base)
        root = self.translator.bdd(self._formula(formula))
        return bdd_probability_many(self.translator.manager, root, merged)

    def check(self, query: Union[ProbabilityQuery, str]) -> bool:
        """The verdict of ``P(formula) |><| bound`` (DSL text or a parsed
        :class:`~repro.logic.ast_nodes.ProbabilityQuery`; see
        :meth:`evaluate`).

        Raises:
            ValueError: If the query has no comparator and bound.
        """
        outcome = self.evaluate(query)
        if outcome.holds is None:
            raise ValueError(
                "query has no comparator/bound; use evaluate() for the "
                "probability value"
            )
        return outcome.holds

    def unreliability(self) -> float:
        """``P(e_top)`` — the classical top-event unreliability."""
        return self.probability(self.tree.top)
