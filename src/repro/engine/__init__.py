"""``repro.engine`` — the query-kind registry.

One :class:`~repro.engine.registry.QueryKind` descriptor per query kind
bundles spec validation, statement parsing, execution against an
analysis session, the shard planner's cost weight and CLI metadata.
The batch service (:class:`repro.service.batch.BatchAnalyzer`), the
parallel planner (:func:`repro.service.parallel.estimate_cost`) and the
``bfl`` CLI all consult the same :data:`REGISTRY`; the checker facade
(:meth:`repro.checker.engine.ModelChecker.execute`) answers through the
batch service's evaluator.  Adding a kind is one
``REGISTRY.register(...)`` call (see :mod:`repro.engine.kinds` for the
built-ins — ``synthesize`` is the worked example).
"""

from .kinds import REGISTRY, execute_kind, resolve_kind, statements_for
from .registry import QueryKind, QueryKindRegistry

__all__ = [
    "QueryKind",
    "QueryKindRegistry",
    "REGISTRY",
    "execute_kind",
    "resolve_kind",
    "statements_for",
]
