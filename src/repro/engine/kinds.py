"""Built-in query kinds and the shared execution helpers.

Each kind's hooks were extracted verbatim from the former per-kind
``if``/``elif`` chains in :mod:`repro.service.batch` (PR 2-8), so the
service layer's behaviour — messages, result shapes, promotion rules —
is unchanged; the chains are gone.  :func:`run_query` is the single
dispatch path shared by :meth:`repro.checker.engine.ModelChecker.execute`
and the batch evaluator.

Module-level imports stay below the checker/service layers (logic, BDD
kernel, errors) so the registry can be consulted from anywhere; the
hooks import the heavier machinery lazily at call time.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional

from ..bdd.allsat import path_sets
from ..bdd.quantify import is_satisfiable, is_tautology
from ..errors import LogicError, QuerySpecError, ReproError, error_kind
from ..logic.ast_nodes import (
    MCS,
    MPS,
    SUP,
    Atom,
    Exists,
    Forall,
    Formula,
    IDP,
    ProbabilityQuery,
    Query,
    Statement,
    Synthesize,
)
from ..logic.parser import format_statement, parse_request
from .registry import QueryKind, QueryKindRegistry, ResultFields

#: The process-wide registry every entry point consults.
REGISTRY = QueryKindRegistry()


def _sets_view(sets):
    from ..service.queries import sets_view

    return sets_view(sets)


def _reject_vector_for_probabilistic(spec, parenthetical: bool) -> None:
    suffix = (
        " (use evidence or conditioning inside P(...) instead)"
        if parenthetical
        else ""
    )
    if spec.failed is not None or spec.bits is not None:
        raise QuerySpecError(
            f"query {spec.id!r}: probabilistic queries measure over all "
            f"vectors; do not pass failed=/bits={suffix}"
        )


# ----------------------------------------------------------------------
# statements hooks (parse/translate phase)
# ----------------------------------------------------------------------


def _statements_default(spec, session) -> List[Statement]:
    return [session.parse(spec.formula)]


def _statements_minimal_sets(constructor):
    def hook(spec, session) -> List[Statement]:
        target = spec.element if spec.element is not None else session.tree.top
        return [constructor(Atom(target))]

    return hook


def _statements_probability(spec, session) -> List[Statement]:
    statement = session.parse(spec.formula)
    if isinstance(statement, Formula):
        # A bare layer-1 formula means "compute P(formula)"; the wrapper
        # is a frozen dataclass, so structural dedup with explicit
        # P(...) texts still applies.
        return [ProbabilityQuery(formula=statement)]
    if not isinstance(statement, ProbabilityQuery):
        raise QuerySpecError(
            f"query {spec.id!r}: kind 'probability' needs a "
            "layer-1 formula or a P(...) query"
        )
    return [statement]


def _statements_probability_sweep(spec, session) -> List[Statement]:
    statement = session.parse(spec.formula)
    if (
        isinstance(statement, ProbabilityQuery)
        and statement.condition is None
        and statement.comparator is None
        and not statement.settings
    ):
        # Accept a bare `P(phi)` spelling; the sweep measures phi under
        # each profile, so only the inner formula matters.
        statement = statement.formula
    if not isinstance(statement, Formula):
        raise QuerySpecError(
            f"query {spec.id!r}: kind 'probability-sweep' needs "
            "a layer-1 formula (per-profile settings come from "
            "'profiles', not the query text)"
        )
    return [statement]


def _statements_independence(spec, session) -> List[Statement]:
    return [session.parse(spec.formula), session.parse(spec.other)]


def _statements_synthesize(spec, session) -> List[Statement]:
    statement = session.parse(spec.formula)
    if isinstance(statement, Synthesize):
        if spec.candidates:
            raise QuerySpecError(
                f"query {spec.id!r}: pass candidates either in the "
                "SYNTHESIZE(...) text or in 'candidates', not both"
            )
        if spec.candidate_sets is not None and statement.candidates:
            raise QuerySpecError(
                f"query {spec.id!r}: a candidate-sweep takes its sets "
                "from 'candidate_sets'; drop the candidates from the "
                "SYNTHESIZE(...) text"
            )
        return [statement]
    if isinstance(statement, Formula):
        # The wrapper is a frozen dataclass, so structural dedup with
        # explicit SYNTHESIZE(...) texts still applies.
        return [Synthesize(statement, tuple(spec.candidates or ()))]
    raise QuerySpecError(
        f"query {spec.id!r}: kind 'synthesize' needs a layer-1 "
        "formula or a SYNTHESIZE(...) query"
    )


# ----------------------------------------------------------------------
# execute hooks (evaluate phase)
# ----------------------------------------------------------------------


def _execute_check(session, spec, statement) -> ResultFields:
    # ModelChecker.check rejects a vector on a layer-2 query and a
    # missing vector on a layer-1 formula; pass the spec's vector
    # through so those diagnostics surface.
    holds = session.checker.check(
        statement,
        failed=list(spec.failed) if spec.failed is not None else None,
        bits=list(spec.bits) if spec.bits is not None else None,
    )
    return {"holds": holds}


def _execute_satisfaction_set(session, spec, statement) -> ResultFields:
    # The row reads a count, a truth value and one set view, so it needs
    # no cube per 1-path (ModelChecker.satisfaction_set builds those).
    checker = session.checker
    manager = checker.manager
    u = checker.translator.bdd(checker._formula(statement))
    return {
        "vector_count": manager.sat_count(u, checker.tree.basic_events),
        "holds": u is not manager.false,
        "sets": _sets_view(path_sets(manager, u, spec.view != "operational")),
    }


def _execute_mcs(session, spec, statement) -> ResultFields:
    return {"sets": _sets_view(session.checker.minimal_cut_sets(spec.element))}


def _execute_mps(session, spec, statement) -> ResultFields:
    return {"sets": _sets_view(session.checker.minimal_path_sets(spec.element))}


def _execute_counterexample(session, spec, statement) -> ResultFields:
    cex = session.checker.counterexample(
        statement,
        failed=list(spec.failed) if spec.failed is not None else None,
        bits=list(spec.bits) if spec.bits is not None else None,
        method=spec.method,
    )
    return {
        "counterexample": {
            "original": dict(cex.original),
            "vector": dict(cex.vector),
            "changed": list(cex.changed),
            "def7_compliant": cex.def7_compliant,
        }
    }


def _execute_independence(session, spec, statement) -> ResultFields:
    result = session.checker.independence(statement, session.parse(spec.other))
    return {
        "holds": result.independent,
        "independence": {
            "independent": result.independent,
            "shared": sorted(result.shared),
            "left_influencers": sorted(result.left_influencers),
            "right_influencers": sorted(result.right_influencers),
        },
    }


def _execute_probability(session, spec, statement) -> ResultFields:
    _reject_vector_for_probabilistic(spec, parenthetical=True)
    if isinstance(statement, Formula):
        statement = ProbabilityQuery(formula=statement)
    outcome = session.prob_checker().evaluate(statement)
    return {
        "probability": outcome.value,
        "holds": outcome.holds,
        "condition_probability": outcome.condition_probability,
    }


def _execute_probability_sweep(session, spec, statement) -> ResultFields:
    _reject_vector_for_probabilistic(spec, parenthetical=False)
    values = session.prob_checker().sweep(statement, spec.profiles or ())
    return {"probabilities": tuple(values)}


def _execute_synthesize(session, spec, statement) -> ResultFields:
    from ..checker.synthesis import synthesis_regions

    translator = session.checker.translator
    if not isinstance(statement, Synthesize):
        raise QuerySpecError(
            f"query {spec.id!r}: kind 'synthesize' needs a layer-1 "
            "formula or a SYNTHESIZE(...) query"
        )
    if spec.candidate_sets is not None:
        sweep = [
            synthesis_regions(
                translator, statement.formula, tuple(candidates) or None
            ).to_dict()
            for candidates in spec.candidate_sets
        ]
        return {"synthesis": {"sweep": sweep}}
    regions = synthesis_regions(
        translator, statement.formula, statement.candidates or None
    )
    return {"synthesis": regions.to_dict(), "holds": regions.satisfiable}


# ----------------------------------------------------------------------
# promotion and validation hooks
# ----------------------------------------------------------------------


def _promote_check(spec, statement) -> Optional[str]:
    # A `check` whose formula parsed to P(...) / SYNTHESIZE(...) is
    # served by the specialised kind, so query files stay kind-free.
    if isinstance(statement, ProbabilityQuery):
        return "probability"
    if isinstance(statement, Synthesize):
        return "synthesize"
    return None


def _validate_probability_sweep(spec) -> None:
    if not spec.profiles:
        raise QuerySpecError(
            f"query {spec.id!r}: probability-sweep needs a "
            "non-empty 'profiles' list"
        )
    for position, profile in enumerate(spec.profiles):
        if not isinstance(profile, Mapping):
            raise QuerySpecError(
                f"query {spec.id!r}: profile #{position + 1} is "
                "not a mapping of event name to probability"
            )


def _validate_synthesize(spec) -> None:
    if spec.candidates is not None and spec.candidate_sets is not None:
        raise QuerySpecError(
            f"query {spec.id!r}: provide at most one of "
            "candidates=/candidate_sets="
        )
    if spec.candidate_sets is not None:
        if not spec.candidate_sets:
            raise QuerySpecError(
                f"query {spec.id!r}: 'candidate_sets' must be a "
                "non-empty list of candidate-event lists"
            )
        for position, candidates in enumerate(spec.candidate_sets):
            if isinstance(candidates, str) or not isinstance(
                candidates, (list, tuple)
            ):
                raise QuerySpecError(
                    f"query {spec.id!r}: candidate set #{position + 1} "
                    "is not a list of event names"
                )


def _synthesize_cost_factor(spec) -> float:
    # A candidate sweep is one projection per set — the planner sees the
    # sweep width so hundreds of sets spread across workers.
    if spec.candidate_sets is not None:
        return float(max(1, len(spec.candidate_sets)))
    return 1.0


# ----------------------------------------------------------------------
# Registration (order is public API: KINDS, messages, --list-kinds)
# ----------------------------------------------------------------------


CHECK = REGISTRY.register(QueryKind(
    name="check",
    summary="b, T |= phi (layer 1, with a vector) or T |= psi (layer 2)",
    weight=1.0,
    requires=(("formula", "kind {kind!r} needs a formula"),),
    statements=_statements_default,
    execute=_execute_check,
    promote=_promote_check,
    cli="bfl check / bfl batch",
))

SATISFACTION_SET = REGISTRY.register(QueryKind(
    name="satisfaction-set",
    summary="[[phi]]: every satisfying status vector (Algorithm 3)",
    weight=3.0,
    requires=(("formula", "kind {kind!r} needs a formula"),),
    statements=_statements_default,
    execute=_execute_satisfaction_set,
    cli="bfl allsat / bfl batch",
))

MCS_KIND = REGISTRY.register(QueryKind(
    name="mcs",
    summary="minimal cut sets of 'element' (default: the top event)",
    weight=4.0,
    statements=_statements_minimal_sets(MCS),
    execute=_execute_mcs,
    cli="bfl mcs / bfl batch",
))

MPS_KIND = REGISTRY.register(QueryKind(
    name="mps",
    summary="minimal path sets of 'element' (default: the top event)",
    weight=4.0,
    statements=_statements_minimal_sets(MPS),
    execute=_execute_mps,
    cli="bfl mps / bfl batch",
))

COUNTEREXAMPLE = REGISTRY.register(QueryKind(
    name="counterexample",
    summary="counterexample vector for an unsatisfied formula (Algorithm 4)",
    weight=2.0,
    requires=(("formula", "kind {kind!r} needs a formula"),),
    statements=_statements_default,
    execute=_execute_counterexample,
    cli="bfl cex / bfl batch",
))

INDEPENDENCE = REGISTRY.register(QueryKind(
    name="independence",
    summary="IDP(formula, other) with the shared-influencer explanation",
    weight=1.5,
    requires=(
        ("formula", "kind {kind!r} needs a formula"),
        ("other", "independence needs a second formula ('other')"),
    ),
    statements=_statements_independence,
    execute=_execute_independence,
    cli="bfl batch",
))

PROBABILITY = REGISTRY.register(QueryKind(
    name="probability",
    summary="PFL query P(phi), P(phi | psi) >= p, ... over the scenario's"
    " failure probabilities",
    weight=1.0,
    requires=(("formula", "kind {kind!r} needs a formula"),),
    statements=_statements_probability,
    execute=_execute_probability,
    cli="bfl prob / bfl batch",
))

PROBABILITY_SWEEP = REGISTRY.register(QueryKind(
    name="probability-sweep",
    summary="P(formula) under each 'profiles' entry in one vectorised pass",
    weight=1.0,
    requires=(("formula", "kind {kind!r} needs a formula"),),
    accepts=("profiles",),
    validate=_validate_probability_sweep,
    statements=_statements_probability_sweep,
    execute=_execute_probability_sweep,
    cli="bfl batch",
))

SYNTHESIZE_KIND = REGISTRY.register(QueryKind(
    name="synthesize",
    summary="must-1/must-0/don't-care repair regions of 'formula' over"
    " candidate events",
    weight=2.0,
    requires=(("formula", "kind {kind!r} needs a formula"),),
    accepts=("candidates", "candidate_sets"),
    validate=_validate_synthesize,
    statements=_statements_synthesize,
    execute=_execute_synthesize,
    cost_factor=_synthesize_cost_factor,
    cli="bfl synth / bfl batch",
))


# ----------------------------------------------------------------------
# Shared dispatch helpers
# ----------------------------------------------------------------------


def statements_for(spec, session) -> List[Statement]:
    """The statement(s) a spec needs translated (element names resolve
    here so MCS/MPS specs share cache entries with textual ``MCS(...)``
    queries)."""
    kind = REGISTRY.get(spec.kind)
    hook = kind.statements or _statements_default
    return hook(spec, session)


def resolve_kind(spec, statement) -> QueryKind:
    """The kind that actually serves ``statement`` (after promotion)."""
    kind = REGISTRY.get(spec.kind)
    if kind.promote is not None and statement is not None:
        target = kind.promote(spec, statement)
        if target is not None:
            kind = REGISTRY.get(target)
    return kind


def execute_kind(session, spec, statement) -> ResultFields:
    """Promote + execute: the one dispatch point for every entry path."""
    return resolve_kind(spec, statement).execute(session, spec, statement)


class CheckerSession:
    """Adapter giving a bare :class:`ModelChecker` the session surface
    the execute hooks expect (``checker`` / ``tree`` / ``parse`` /
    ``prob_checker``), so one-shot :meth:`ModelChecker.execute` calls
    run the exact same hook code as the batch service."""

    def __init__(
        self,
        checker,
        probabilities: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.checker = checker
        self._prob_overrides: Dict[str, float] = dict(probabilities or {})
        self._prob_checker = None

    @property
    def tree(self):
        return self.checker.tree

    def parse(self, formula) -> Statement:
        if not isinstance(formula, str):
            return formula
        statement, _ = parse_request(formula.strip())
        return statement

    def prob_checker(self):
        if self._prob_checker is None:
            from ..prob.queries import ProbabilityChecker

            self._prob_checker = ProbabilityChecker(
                overrides=self._prob_overrides,
                translator=self.checker.translator,
            )
        return self._prob_checker


def run_query(session, spec):
    """Answer one spec against a session, as a ``QueryResult``.

    This is the governance-free core dispatch (parse -> promote ->
    execute -> shape); the batch evaluator adds per-query governors,
    chaos hooks and kernel checkpoints around the same hooks.
    """
    from ..service.queries import QueryResult

    start = time.perf_counter()
    fields: ResultFields = {}
    formula_text: Optional[str] = None
    error: Optional[str] = None
    kind_tag: Optional[str] = None
    try:
        statements = statements_for(spec, session)
        statement = statements[0] if statements else None
        formula_text = (
            format_statement(statement) if statement is not None else None
        )
        fields = execute_kind(session, spec, statement)
    except ReproError as exc:
        error = str(exc)
        kind_tag = error_kind(exc)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return QueryResult(
        id=spec.id,
        kind=spec.kind,
        tree=spec.tree,
        formula=formula_text,
        ok=error is None,
        elapsed_ms=elapsed_ms,
        error=error,
        error_kind=kind_tag,
        **fields,
    )


def check_statement(checker, query: Query) -> bool:
    """Layer-2 truth of ``query`` for :meth:`ModelChecker.check`.

    The statement-type dispatch the checker facade shares with the
    registry's ``check`` kind (which reaches it via ``checker.check``).
    """
    translator = checker.translator
    manager = translator.manager
    if isinstance(query, Exists):
        return is_satisfiable(manager, translator.bdd(query.operand))
    if isinstance(query, Forall):
        return is_tautology(manager, translator.bdd(query.operand))
    if isinstance(query, IDP):
        return checker.independence(query.left, query.right).independent
    if isinstance(query, SUP):
        return checker.independence(
            Atom(query.element), Atom(checker.tree.top)
        ).independent
    if isinstance(query, Synthesize):
        # SYNTHESIZE as a plain check asks "is the property achievable
        # at all" — satisfiability of the target formula.
        return is_satisfiable(manager, translator.bdd(query.formula))
    if isinstance(query, ProbabilityQuery):
        raise LogicError(
            "probabilistic queries need failure probabilities; use "
            "repro.prob.ProbabilityChecker (sharing this checker's "
            "translator) or the batch service's probability "
            "configuration"
        )
    raise TypeError(f"cannot check {query!r}")
