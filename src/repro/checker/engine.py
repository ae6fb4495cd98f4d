"""The model-checking facade: one object that answers every BFL query.

:class:`ModelChecker` wires together Algorithm 1 (translation + caches),
Algorithm 2 (vector checking), Algorithm 3 (satisfaction sets), Algorithm 4
(counterexamples) and the IDP/SUP machinery, and accepts formulae either as
AST objects or as DSL text.

Example:
    >>> from repro.casestudy import build_covid_tree
    >>> from repro.checker import ModelChecker
    >>> checker = ModelChecker(build_covid_tree())
    >>> checker.check("forall (IS => MoT)")
    False
    >>> [sorted(s) for s in checker.satisfaction_set("MCS(MoT) & IS").failed_sets()]
    [['H1', 'H5', 'IS']]
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Union

from ..bdd.manager import BDDManager
from ..errors import LogicError, StatusVectorError
from ..ft.tree import FaultTree, StatusVector
from ..logic.ast_nodes import (
    MCS,
    MPS,
    Atom,
    Formula,
    Query,
    Statement,
)
from ..logic.parser import parse
from ..logic.scope import MinimalityScope
from .counterexample import Counterexample, algorithm4, closest_counterexample
from .evaluate import check as algorithm2_check
from .independence import influencing_basic_events
from .results import IndependenceResult, SatisfactionSet
from .satisfy import iter_satisfying_vectors, satisfying_cubes
from .translate import FormulaTranslator

#: Formulae may be passed as AST nodes or as DSL text.
FormulaLike = Union[Formula, str]
StatementLike = Union[Statement, str]


class ModelChecker:
    """BFL model checker for one fault tree.

    ``MCS``/``MPS`` of any operand are built by one construction, the
    minimal-solutions recursion of :mod:`repro.bdd.minimal`; the kernel
    holds one level per basic event.

    Args:
        tree: The fault tree ``T``.
        scope: MCS/MPS minimality scope (default SUPPORT; DESIGN.md dev. 2).
        order: BDD variable order: a
            :data:`~repro.bdd.ordering.HEURISTICS` name (``"declaration"``,
            ``"dfs"``, ``"bfs"``, ``"weight"``), an explicit list of
            basic-event names, or ``None`` for the default tree DFS order
            (:func:`~repro.bdd.ordering.resolve_order`).
        auto_gc: Arm automatic BDD garbage collection on the session's
            manager (reclaims dead intermediate BDDs at translation safe
            points; see ``BDDManager.collect``).
        auto_reorder: Arm automatic in-place variable reordering (Rudell
            sifting) when live nodes grow past the manager's trigger.
        gc_trigger: Optional live-node count arming the first collection.
        reorder_trigger: Optional live-node count arming the first sift.
        manager: Optional pre-built BDD manager to translate into —
            typically one rebuilt by ``BDDManager.load_snapshot`` for a
            warm-started session.  ``order`` is ignored when given (the
            manager's own variable order wins).
    """

    def __init__(
        self,
        tree: FaultTree,
        scope: MinimalityScope = MinimalityScope.SUPPORT,
        order: Union[None, str, Sequence[str]] = None,
        auto_gc: bool = False,
        auto_reorder: bool = False,
        gc_trigger: Optional[int] = None,
        reorder_trigger: Optional[int] = None,
        manager: Optional[BDDManager] = None,
    ) -> None:
        self.tree = tree
        self.translator = FormulaTranslator(
            tree,
            manager=manager,
            scope=scope,
            order=order,
            auto_gc=auto_gc,
            auto_reorder=auto_reorder,
            gc_trigger=gc_trigger,
            reorder_trigger=reorder_trigger,
        )

    # ------------------------------------------------------------------
    # Input normalisation
    # ------------------------------------------------------------------

    def _statement(self, statement: StatementLike) -> Statement:
        if isinstance(statement, str):
            return parse(statement)
        return statement

    def _formula(self, formula: FormulaLike) -> Formula:
        statement = self._statement(formula)
        if not isinstance(statement, Formula):
            raise LogicError(
                "expected a layer-1 formula; got a layer-2 query "
                "(exists/forall/IDP/SUP)"
            )
        return statement

    def _vector(
        self,
        vector: Optional[StatusVector] = None,
        failed: Optional[Sequence[str]] = None,
        bits: Optional[Sequence[int]] = None,
    ) -> Dict[str, bool]:
        given = [value for value in (vector, failed, bits) if value is not None]
        if len(given) != 1:
            raise StatusVectorError(
                "provide exactly one of: vector=, failed=, bits="
            )
        if vector is not None:
            self.tree.check_vector(vector)
            return {n: bool(vector[n]) for n in self.tree.basic_events}
        if failed is not None:
            return self.tree.vector_from_failed(failed)
        return self.tree.vector_from_bits(bits)

    # ------------------------------------------------------------------
    # Checking (Algorithm 2 + layer 2)
    # ------------------------------------------------------------------

    def check(
        self,
        statement: StatementLike,
        vector: Optional[StatusVector] = None,
        failed: Optional[Sequence[str]] = None,
        bits: Optional[Sequence[int]] = None,
    ) -> bool:
        """``b, T |= phi`` (layer 1, needs a vector) or ``T |= psi``
        (layer 2, must not get one).

        Args:
            statement: Formula/query as AST or DSL text.
            vector: Status vector as a name->bool mapping.
            failed: Alternative: the set of failed basic events.
            bits: Alternative: 0/1 bits in declaration order (the paper's
                ``b = (b1, ..., bn)`` notation).
        """
        parsed = self._statement(statement)
        if isinstance(parsed, Query):
            if vector is not None or failed is not None or bits is not None:
                raise LogicError(
                    "layer-2 queries quantify over vectors; do not pass one"
                )
            return self._check_query(parsed)
        return algorithm2_check(
            self.translator, parsed, self._vector(vector, failed, bits)
        )

    def _check_query(self, query: Query) -> bool:
        # The statement-type dispatch lives next to the query-kind
        # registry so the checker facade and the service layer cannot
        # drift apart (lazy import: the registry sits above this module).
        from ..engine import check_statement

        return check_statement(self, query)

    # ------------------------------------------------------------------
    # Satisfaction sets (Algorithm 3)
    # ------------------------------------------------------------------

    def satisfaction_set(self, formula: FormulaLike) -> SatisfactionSet:
        """``[[formula]]``: every satisfying status vector, plus the cube
        view used for cut-set style reporting."""
        parsed = self._formula(formula)
        return SatisfactionSet(
            formula=parsed,
            basic_events=tuple(self.tree.basic_events),
            cubes=tuple(satisfying_cubes(self.translator, parsed)),
            expand=lambda: iter_satisfying_vectors(self.translator, parsed),
        )

    def minimal_cut_sets(self, element: Optional[str] = None) -> List[FrozenSet[str]]:
        """MCSs of ``element`` (default: the top level event) via
        ``[[MCS(element)]]``."""
        target = element if element is not None else self.tree.top
        return self.satisfaction_set(MCS(Atom(target))).failed_sets()

    def minimal_path_sets(self, element: Optional[str] = None) -> List[FrozenSet[str]]:
        """MPSs of ``element`` (default: the top level event) via
        ``[[MPS(element)]]``."""
        target = element if element is not None else self.tree.top
        return self.satisfaction_set(MPS(Atom(target))).operational_sets()

    # ------------------------------------------------------------------
    # Independence (IDP / SUP) and IBE
    # ------------------------------------------------------------------

    def influencing(self, formula: FormulaLike) -> FrozenSet[str]:
        """``IBE(formula)`` via BDD support."""
        return influencing_basic_events(self.translator, self._formula(formula))

    def independence(
        self, left: FormulaLike, right: FormulaLike
    ) -> IndependenceResult:
        """``IDP(left, right)`` with the shared-influencer explanation."""
        left_f = self._formula(left)
        right_f = self._formula(right)
        left_ibe = influencing_basic_events(self.translator, left_f)
        right_ibe = influencing_basic_events(self.translator, right_f)
        return IndependenceResult(
            independent=not (left_ibe & right_ibe),
            left_influencers=left_ibe,
            right_influencers=right_ibe,
            shared=left_ibe & right_ibe,
        )

    def superfluous(self, element: str) -> bool:
        """``SUP(element)``."""
        return self.independence(Atom(element), Atom(self.tree.top)).independent

    # ------------------------------------------------------------------
    # Counterexamples (Algorithm 4)
    # ------------------------------------------------------------------

    def counterexample(
        self,
        formula: FormulaLike,
        vector: Optional[StatusVector] = None,
        failed: Optional[Sequence[str]] = None,
        bits: Optional[Sequence[int]] = None,
        method: str = "algorithm4",
    ) -> Counterexample:
        """A counterexample vector ``b'`` for an unsatisfied formula.

        Args:
            formula: The layer-1 formula.
            vector / failed / bits: The vector ``b`` (one of the three).
            method: ``"algorithm4"`` (the paper's greedy walk) or
                ``"closest"`` (Hamming-minimal Def. 7 witness).
        """
        parsed = self._formula(formula)
        b = self._vector(vector, failed, bits)
        if method == "algorithm4":
            return algorithm4(self.translator, parsed, b)
        if method == "closest":
            result = closest_counterexample(self.translator, parsed, b)
            if result is None:
                from ..errors import NoCounterexampleError

                raise NoCounterexampleError(
                    "the formula is unsatisfiable for this tree"
                )
            return result
        raise ValueError(f"unknown counterexample method {method!r}")

    # ------------------------------------------------------------------
    # Repair regions (SYNTHESIZE)
    # ------------------------------------------------------------------

    def synthesize(
        self,
        formula: StatementLike,
        candidates: Optional[Sequence[str]] = None,
    ):
        """Must-1 / must-0 / don't-care repair regions of ``formula``.

        Args:
            formula: Layer-1 target property, or a ``SYNTHESIZE(...)``
                statement (whose embedded candidates win; passing both
                is an error).

        Returns:
            :class:`repro.checker.synthesis.SynthesisRegions`.
        """
        from ..logic.ast_nodes import Synthesize
        from .synthesis import synthesis_regions

        parsed = self._statement(formula)
        if isinstance(parsed, Synthesize):
            if candidates is not None and parsed.candidates:
                raise LogicError(
                    "pass candidates either in the SYNTHESIZE(...) text "
                    "or as the candidates argument, not both"
                )
            target = parsed.formula
            chosen = candidates or parsed.candidates or None
        else:
            target = self._formula(parsed)
            chosen = candidates
        return synthesis_regions(self.translator, target, chosen)

    # ------------------------------------------------------------------
    # Service-layer specs (the query-kind registry)
    # ------------------------------------------------------------------

    def execute(
        self,
        query,
        probabilities: Optional[Mapping[str, float]] = None,
    ):
        """Answer one service-layer query spec through the query-kind
        registry — the same hooks :class:`repro.service.BatchAnalyzer`
        dispatches with, minus governors and sharding.

        Args:
            query: A :class:`repro.service.QuerySpec`, a JSON-style
                mapping, DSL text, or an AST statement.
            probabilities: Per-event failure probabilities for the
                ``probability`` / ``probability-sweep`` kinds.

        Returns:
            :class:`repro.service.QueryResult` (errors are captured in
            the result row, exactly as the batch service reports them).
        """
        from ..engine import CheckerSession, run_query
        from ..service.queries import QuerySpec, specs_from_any

        if isinstance(query, QuerySpec):
            spec = query
        else:
            spec = specs_from_any([query])[0]
        return run_query(CheckerSession(self, probabilities), spec)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def manager(self) -> BDDManager:
        """The underlying BDD manager (for size statistics etc.)."""
        return self.translator.manager

    def cache_stats(self) -> Dict[str, int]:
        """Algorithm 1 cache counters."""
        stats = self.translator.stats
        return {
            "formula_hits": stats.formula_hits,
            "formula_misses": stats.formula_misses,
            "element_requests": stats.element_requests,
            "bdd_nodes": self.manager.node_count(),
        }
