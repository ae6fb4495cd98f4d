"""One analysis-options object for every entry path.

:class:`AnalysisOptions` is the one place where an analysis setting is
declared, defaulted and validated.  The Python API
(``BatchAnalyzer(trees, options)`` or ``BatchAnalyzer(trees,
**fields)``), ``bfl batch`` (query-file keys and flags), ``bfl serve``
(flags, ``ServerConfig.analysis``) and the HTTP battery fields all build
one, so a query gets the same answer — and an invalid value the same
error — whichever way it came in.  ``docs/operations.md`` tabulates the
fields against every surface; ``benchmarks/docs_gate.py`` keeps that
table equal to :func:`dataclasses.fields` of this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..errors import QuerySpecError
from ..ft.tree import FaultTree
from ..logic.scope import MinimalityScope

__all__ = ["AnalysisOptions", "check_int", "check_number", "check_probability"]

#: Fields a query file cannot set (API only).
_API_ONLY = frozenset({"monotone_fast_path", "gc_trigger", "reorder_trigger"})
#: The fields each session's kernel is built under.
_KERNEL_FIELDS = ("scope", "monotone_fast_path", "auto_gc", "auto_reorder",
                  "gc_trigger", "reorder_trigger")


def check_int(name: str, value: Any, minimum: int) -> None:
    """Raise :class:`QuerySpecError` unless ``value`` is an int (not a
    bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise QuerySpecError(
            f"{name!r} must be an integer >= {minimum}, got {value!r}"
        )


def check_number(
    name: str, value: Any, requirement: str, valid: Callable[[Any], bool]
) -> None:
    """Raise :class:`QuerySpecError` unless ``value`` is an int or float
    (not a bool or string) for which ``valid`` holds; ``requirement``
    words the rule for the message."""
    numeric = not isinstance(value, bool) and isinstance(value, (int, float))
    if not numeric or not valid(value):
        raise QuerySpecError(f"{name!r} must be {requirement}, got {value!r}")


def check_probability(label: str, value: Any) -> None:
    """Raise :class:`QuerySpecError` unless ``value`` is a number in
    [0, 1]: ``"uniform": true`` or a quoted ``"0.02"`` is a typo, not a
    probability."""
    numeric = not isinstance(value, bool) and isinstance(value, (int, float))
    if not numeric or not 0 <= value <= 1:
        raise QuerySpecError(
            f"{label} must be a probability in [0, 1], got {value!r}"
        )


@dataclass(frozen=True)
class AnalysisOptions:
    """Every analysis setting of a battery, validated on construction.

    Attributes:
        scope: MCS/MPS minimality scope (a :class:`MinimalityScope` or
            its value, ``"support"`` or ``"full"``) for every scenario.
        monotone_fast_path: Passed through to each translator.
        auto_gc: Arm automatic BDD garbage collection on every
            scenario's manager: dead intermediate BDDs are reclaimed at
            query boundaries, holding peak live nodes near the working
            set (``benchmarks/bench_reorder_gc.py`` pins this to < 2x).
            Query-file key ``gc``.
        auto_reorder: Arm automatic in-place Rudell sifting on every
            scenario's manager.
        gc_trigger: Optional live-node count arming the first collection.
        reorder_trigger: Optional live-node count arming the first sift.
        probabilities: Per-event failure probabilities for PFL queries.
            Scalar entries (``{event: p}``) apply to every scenario that
            has the event; mapping entries (``{scenario: {event: p}}``)
            apply to that scenario and win over flat ones.  Gaps fall
            back to the trees' own ``BasicEvent.probability``.
        uniform: Probability for every basic event of every scenario
            (explicit ``probabilities`` entries win).
        workers: Worker processes.  ``1`` answers in-process; ``N > 1``
            shards the battery over a process pool of private kernels
            (:mod:`repro.service.parallel`) and merges the results back
            in battery order.
        deadline_ms: Wall-clock budget for a whole battery; once spent,
            every unanswered query becomes an ``error_kind="deadline"``
            row and the report still comes back complete and in order.
        query_timeout_ms: Default per-query budget for queries without
            their own ``QuerySpec.timeout_ms``; a timed-out query is an
            ``error_kind="deadline"`` row and the battery continues.
        shard_retries: Parallel mode: resubmissions of a crashed or hung
            shard before its queries become ``error_kind="worker-crash"``
            rows.
        retry_backoff_ms: Parallel mode: delay before the first shard
            retry, doubled per attempt.
        watchdog_ms: Parallel mode: a shard without a result after this
            long counts as crashed (``None``: no watchdog).

    Raises:
        QuerySpecError: On any invalid value.  Numbers must be ints or
            floats (bools and strings are rejected), probabilities lie
            in [0, 1], durations are > 0 (``retry_backoff_ms`` >= 0),
            ``workers >= 1`` and ``shard_retries >= 0``.
    """

    scope: MinimalityScope = MinimalityScope.SUPPORT
    monotone_fast_path: bool = False
    auto_gc: bool = False
    auto_reorder: bool = False
    gc_trigger: Optional[int] = None
    reorder_trigger: Optional[int] = None
    probabilities: Mapping[str, Any] = field(default_factory=dict)
    uniform: Optional[float] = None
    workers: int = 1
    deadline_ms: Optional[float] = None
    query_timeout_ms: Optional[float] = None
    shard_retries: int = 2
    retry_backoff_ms: float = 250.0
    watchdog_ms: Optional[float] = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "scope", MinimalityScope(self.scope))
        except ValueError:
            raise QuerySpecError(
                f"unknown scope {self.scope!r} (expected "
                + " or ".join(s.value for s in MinimalityScope)
                + ")"
            ) from None
        for name in ("monotone_fast_path", "auto_gc", "auto_reorder"):
            if not isinstance(getattr(self, name), bool):
                raise QuerySpecError(
                    f"{name!r} must be true or false, got "
                    f"{getattr(self, name)!r}"
                )
        for name in ("gc_trigger", "reorder_trigger"):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name), 1)
        probabilities = {} if self.probabilities is None else self.probabilities
        if not isinstance(probabilities, Mapping):
            raise QuerySpecError(
                "'probabilities' must map event (or scenario) names to "
                f"probabilities, got {probabilities!r}"
            )
        for key, value in probabilities.items():
            scoped = value if isinstance(value, Mapping) else {None: value}
            for event, p in scoped.items():
                where = f"{key!r}" if event is None else f"{key!r}.{event!r}"
                check_probability(f"probability for {where}", p)
        # A private copy: the frozen object must not change under the
        # caller's later edits to the map it passed in.
        object.__setattr__(self, "probabilities", {
            key: dict(value) if isinstance(value, Mapping) else value
            for key, value in probabilities.items()
        })
        if self.uniform is not None:
            check_probability("'uniform'", self.uniform)
        check_int("workers", self.workers, 1)
        for name in ("deadline_ms", "query_timeout_ms", "watchdog_ms"):
            if getattr(self, name) is not None:
                check_number(
                    name,
                    getattr(self, name),
                    "a positive duration in milliseconds",
                    lambda v: v > 0,
                )
        check_int("shard_retries", self.shard_retries, 0)
        check_number(
            "retry_backoff_ms",
            self.retry_backoff_ms,
            "a non-negative duration in milliseconds",
            lambda v: v >= 0,
        )

    @staticmethod
    def file_key(name: str) -> Optional[str]:
        """The query-file key of field ``name`` (None: API only).
        ``gc`` -> ``auto_gc`` is the only alias."""
        if name in _API_ONLY:
            return None
        return "gc" if name == "auto_gc" else name

    @classmethod
    def file_keys(cls) -> Tuple[str, ...]:
        """Every query-file key that sets a field, in field order."""
        keys = (cls.file_key(spec.name) for spec in fields(cls))
        return tuple(key for key in keys if key is not None)

    @classmethod
    def from_mapping(
        cls,
        data: Mapping[str, Any],
        flags: Optional[Mapping[str, Any]] = None,
        base: Optional["AnalysisOptions"] = None,
    ) -> "AnalysisOptions":
        """``base`` (default: the class defaults) updated from query-file
        keys or HTTP fields (``data``) and from command-line ``flags``
        (field name -> value).  A given flag (not None) wins over the
        file's key, so saved batteries stay self-contained while an
        ad-hoc run is one flag away; a ``null`` key counts as absent."""
        flags = flags or {}
        values: Dict[str, Any] = {}
        for spec in fields(cls):
            value = flags.get(spec.name)
            key = cls.file_key(spec.name)
            if value is None and key is not None:
                value = data.get(key)
            if value is not None:
                values[spec.name] = value
        return replace(base if base is not None else cls(), **values)

    def overrides_for(self, name: str, tree: FaultTree) -> Dict[str, float]:
        """The probability overrides of scenario ``name``: the uniform
        floor, then the flat entries for events ``tree`` has (events it
        lacks are simply not for it), then the scenario's own map, which
        stays strict (an unknown event in it surfaces as a per-query
        ``MissingProbabilityError``)."""
        overrides: Dict[str, float] = {}
        if self.uniform is not None:
            overrides = dict.fromkeys(tree.basic_events, float(self.uniform))
        for key, value in self.probabilities.items():
            if not isinstance(value, Mapping) and key in tree.basic_events:
                overrides[key] = value
        scoped = self.probabilities.get(name)
        if isinstance(scoped, Mapping):
            overrides.update(scoped)
        return overrides

    def checker_kwargs(self) -> Dict[str, Any]:
        """The per-session kernel settings, as
        :class:`~repro.checker.engine.ModelChecker` keyword arguments."""
        return {name: getattr(self, name) for name in _KERNEL_FIELDS}
