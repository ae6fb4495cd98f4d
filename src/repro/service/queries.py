"""Query specifications and structured results for the batch service.

A :class:`QuerySpec` is one question; a battery of them goes into
:meth:`repro.service.batch.BatchAnalyzer.run`, which answers with a
:class:`BatchReport` of :class:`QueryResult` objects.  Everything here is
plain data — JSON-serialisable both ways — so query files can be written
by hand, checked into a repo, or generated by another service.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..engine import REGISTRY
from ..errors import QuerySpecError
from ..logic.ast_nodes import Formula, Query, Statement

#: Query kinds understood by the service — derived from the query-kind
#: registry (:data:`repro.engine.REGISTRY`), the single source of truth
#: every entry point shares.
KINDS = REGISTRY.names()

#: Default scenario name used when the analyzer wraps a single tree.
DEFAULT_SCENARIO = "default"

# ``QuerySpecError`` is re-exported above for compatibility: the class
# moved to :mod:`repro.errors` so the registry can raise it without
# importing the service layer.


@dataclass(frozen=True)
class QuerySpec:
    """One question for the batch service.

    Attributes:
        id: Caller-chosen identifier echoed in the result (auto-numbered
            ``q1, q2, ...`` when omitted).
        kind: One of :data:`KINDS`.  ``check`` answers ``b, T |= phi`` /
            ``T |= psi``; ``satisfaction-set`` computes ``[[phi]]``;
            ``mcs``/``mps`` list minimal cut/path sets of ``element``;
            ``counterexample`` runs Algorithm 4; ``independence`` decides
            ``IDP(formula, other)``; ``probability`` evaluates a PFL
            query (``P(phi)``, ``P(phi | psi) >= p``, ...) against the
            scenario's failure probabilities — a plain formula is read as
            ``P(formula)``.  A ``check`` whose formula parses to a
            ``P(...)`` query is promoted to ``probability`` at
            evaluation time, so query files can stay kind-free.
            ``probability-sweep`` evaluates ``P(formula)`` under each of
            ``profiles`` in one vectorised kernel pass.  ``synthesize``
            computes must-1 / must-0 / don't-care repair regions of the
            formula over candidate events (a ``check`` whose formula
            parses to ``SYNTHESIZE(...)`` is promoted the same way
            ``P(...)`` texts are).
        formula: DSL text or a pre-built AST statement (not used by
            ``mcs``/``mps``).
        tree: Scenario name the query targets.
        failed / bits: Optional status vector for layer-1 checks and
            counterexamples (at most one of the two).
        element: Target element for ``mcs``/``mps`` (default: top).
        other: Second formula for ``independence``.
        method: Counterexample construction (``algorithm4``/``closest``).
        view: Cube reporting for satisfaction sets (``failed``/
            ``operational``).
        profiles: For ``probability-sweep``: a tuple of per-event
            probability override mappings, one entry per profile (an
            empty mapping means "the scenario's base probabilities").
        candidates: For ``synthesize``: the candidate basic events the
            repair regions are computed over (default: every basic
            event; may also come from the ``SYNTHESIZE(phi; ...)``
            text, but not both).
        candidate_sets: For ``synthesize``: a repair-candidate sweep —
            one region decomposition per candidate-event list (an empty
            list means "all basic events").  Mutually exclusive with
            ``candidates``.
        timeout_ms: Per-query wall-clock budget in milliseconds.  The
            evaluator installs a kernel governor for the query's
            evaluation phase; on expiry the query is reported as a
            structured ``error_kind="deadline"`` failure while the rest
            of the battery continues.  ``None`` falls back to the
            analyzer-level default (``query_timeout_ms``), if any.
    """

    id: str
    kind: str = "check"
    formula: Optional[Union[str, Statement]] = None
    tree: str = DEFAULT_SCENARIO
    failed: Optional[Tuple[str, ...]] = None
    bits: Optional[Tuple[int, ...]] = None
    element: Optional[str] = None
    other: Optional[Union[str, Statement]] = None
    method: str = "algorithm4"
    view: str = "failed"
    profiles: Optional[Tuple[Mapping[str, float], ...]] = None
    candidates: Optional[Tuple[str, ...]] = None
    candidate_sets: Optional[Tuple[Tuple[str, ...], ...]] = None
    timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in REGISTRY:
            raise QuerySpecError(
                f"query {self.id!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(KINDS)})"
            )
        kind = REGISTRY.get(self.kind)
        if self.failed is not None and self.bits is not None:
            raise QuerySpecError(
                f"query {self.id!r}: provide at most one of failed=/bits="
            )
        for field_name, message in kind.requires:
            if getattr(self, field_name) is None:
                raise QuerySpecError(
                    f"query {self.id!r}: "
                    + message.format(kind=self.kind)
                )
        if self.method not in ("algorithm4", "closest"):
            raise QuerySpecError(
                f"query {self.id!r}: unknown counterexample method "
                f"{self.method!r} (expected algorithm4 or closest)"
            )
        if self.view not in ("failed", "operational"):
            raise QuerySpecError(
                f"query {self.id!r}: unknown view {self.view!r} "
                "(expected failed or operational)"
            )
        if kind.validate is not None:
            kind.validate(self)
        for field_name in REGISTRY.owned_fields():
            # Kind-owned optional fields ('profiles', 'candidates', ...)
            # are rejected on kinds that do not accept them, with the
            # owner list derived from the registry.
            if (
                getattr(self, field_name) is not None
                and field_name not in kind.accepts
            ):
                owners = "/".join(REGISTRY.owners_of(field_name))
                raise QuerySpecError(
                    f"query {self.id!r}: {field_name!r} only applies to "
                    f"{owners} queries"
                )
        if self.timeout_ms is not None and not self.timeout_ms > 0:
            raise QuerySpecError(
                f"query {self.id!r}: timeout_ms must be > 0, "
                f"got {self.timeout_ms!r}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], default_id: str) -> "QuerySpec":
        """Build a spec from a JSON-style mapping (the query-file format)."""
        unknown = set(data) - {
            "id", "kind", "formula", "tree", "failed", "bits",
            "element", "other", "method", "view", "profiles",
            "candidates", "candidate_sets", "timeout_ms",
        }
        if unknown:
            raise QuerySpecError(
                f"query {data.get('id', default_id)!r}: "
                f"unknown field(s) {', '.join(sorted(unknown))}"
            )
        failed = data.get("failed")
        bits = data.get("bits")
        formula = data.get("formula")
        kind = data.get("kind")
        if kind is None:
            # `[[ ... ]]` is the paper's satisfaction-set request syntax.
            text = formula.strip() if isinstance(formula, str) else ""
            kind = (
                "satisfaction-set"
                if text.startswith("[[") and text.endswith("]]")
                else "check"
            )
        return cls(
            id=str(data.get("id", default_id)),
            kind=kind,
            formula=formula,
            tree=str(data.get("tree", DEFAULT_SCENARIO)),
            failed=tuple(failed) if failed is not None else None,
            bits=tuple(int(b) for b in bits) if bits is not None else None,
            element=data.get("element"),
            other=data.get("other"),
            method=data.get("method", "algorithm4"),
            view=data.get("view", "failed"),
            profiles=(
                tuple(
                    dict(profile) if isinstance(profile, Mapping) else profile
                    for profile in data["profiles"]
                )
                if data.get("profiles") is not None
                else None
            ),
            candidates=(
                tuple(data["candidates"])
                if data.get("candidates") is not None
                else None
            ),
            candidate_sets=(
                tuple(
                    tuple(entry)
                    if isinstance(entry, (list, tuple))
                    else entry
                    for entry in data["candidate_sets"]
                )
                if data.get("candidate_sets") is not None
                else None
            ),
            timeout_ms=(
                float(data["timeout_ms"])
                if data.get("timeout_ms") is not None
                else None
            ),
        )


def specs_from_any(
    queries: Iterable[Union[QuerySpec, str, Statement, Mapping[str, Any]]],
) -> List[QuerySpec]:
    """Normalise a heterogeneous battery into :class:`QuerySpec` objects.

    Accepts ready specs, JSON-style mappings, DSL text (``[[ ... ]]``
    selects a satisfaction set) and AST statements.
    """
    specs: List[QuerySpec] = []
    for index, item in enumerate(queries, start=1):
        default_id = f"q{index}"
        if isinstance(item, QuerySpec):
            specs.append(item)
        elif isinstance(item, Mapping):
            specs.append(QuerySpec.from_dict(item, default_id))
        elif isinstance(item, str):
            specs.append(QuerySpec.from_dict({"formula": item}, default_id))
        elif isinstance(item, (Formula, Query)):
            specs.append(QuerySpec(id=default_id, formula=item))
        else:
            raise QuerySpecError(
                f"cannot interpret {item!r} as a query specification"
            )
    return specs


@dataclass(frozen=True)
class QueryResult:
    """Structured answer to one :class:`QuerySpec`.

    Exactly the fields relevant to the query's kind are populated; the
    rest stay ``None``.  ``elapsed_ms`` is the evaluation time *after*
    the shared translation phase, so it reflects the marginal cost of
    this query under sharing.

    Failed queries carry two error fields: ``error`` is the
    human-readable message (kept for compatibility — older consumers
    string-match on it), and ``error_kind`` is the stable
    machine-readable discriminator from :func:`repro.errors.error_kind`
    (``"deadline"``, ``"resource-limit"``, ``"worker-crash"``,
    ``"snapshot-integrity"``, or the exception class name).
    """

    id: str
    kind: str
    tree: str
    formula: Optional[str]
    ok: bool
    elapsed_ms: float
    holds: Optional[bool] = None
    sets: Optional[Tuple[Tuple[str, ...], ...]] = None
    vector_count: Optional[int] = None
    counterexample: Optional[Dict[str, Any]] = None
    independence: Optional[Dict[str, Any]] = None
    probability: Optional[float] = None
    condition_probability: Optional[float] = None
    probabilities: Optional[Tuple[float, ...]] = None
    synthesis: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "tree": self.tree,
            "formula": self.formula,
            "ok": self.ok,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.holds is not None:
            data["holds"] = self.holds
        if self.sets is not None:
            data["sets"] = [list(s) for s in self.sets]
        if self.vector_count is not None:
            data["vector_count"] = self.vector_count
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        if self.independence is not None:
            data["independence"] = self.independence
        if self.probability is not None:
            data["probability"] = self.probability
        if self.condition_probability is not None:
            data["condition_probability"] = self.condition_probability
        if self.probabilities is not None:
            data["probabilities"] = list(self.probabilities)
        if self.synthesis is not None:
            data["synthesis"] = self.synthesis
        if self.error is not None:
            data["error"] = self.error
        if self.error_kind is not None:
            data["error_kind"] = self.error_kind
        return data


@dataclass(frozen=True)
class BatchReport:
    """Everything :meth:`BatchAnalyzer.run` learned about a battery.

    Attributes:
        results: Per-query answers, in submission order.
        stats: Sharing/caching metadata: the ``queries`` sub-dict counts
            parse-cache and structural dedup effects; one sub-dict per
            scenario reports the Algorithm 1 translation cache and the
            BDD manager's operation caches (hits/misses *for this batch*).
        elapsed_ms: Wall-clock for the whole batch (parse + translate +
            evaluate).
    """

    results: Tuple[QueryResult, ...]
    stats: Dict[str, Any] = field(default_factory=dict)
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every query succeeded."""
        return all(result.ok for result in self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, key: Union[int, str]) -> QueryResult:
        if isinstance(key, int):
            return self.results[key]
        for result in self.results:
            if result.id == key:
                return result
        raise KeyError(key)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "stats": self.stats,
            "results": [result.to_dict() for result in self.results],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def sets_view(sets: Sequence[frozenset]) -> Tuple[Tuple[str, ...], ...]:
    """Deterministic tuple-of-tuples rendering of a family of event sets,
    smallest first (each set sorted once, then ordered by its rows)."""
    rows = [tuple(sorted(s)) for s in sets]
    return tuple(sorted(rows, key=lambda row: (len(row), row)))
