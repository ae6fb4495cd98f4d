"""Shared exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
downstream users can catch one base class.  Subpackages raise the most
specific subclass that applies; the hierarchy mirrors the package layout
(BDD engine, fault-tree model, BFL logic, model checker).
"""

from __future__ import annotations

import sys


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class BDDError(ReproError):
    """Base class for errors raised by the ROBDD engine."""


class VariableError(BDDError):
    """An unknown, duplicate, or badly ordered BDD variable was used."""


class ManagerMismatchError(BDDError):
    """Two BDD nodes from different managers were combined."""


class MissingWeightError(BDDError):
    """A weighted-evaluation pass reached a variable with no weight."""


class SnapshotError(BDDError):
    """A kernel snapshot is malformed or does not fit its target."""


class ExecutionError(ReproError):
    """Base class for runtime-governance and fault-tolerance errors.

    These mark *execution* failures — budgets, deadlines, dead workers,
    corrupt caches — rather than modelling errors.  Every subclass
    carries a stable machine-readable :attr:`kind` string so batch
    reports can classify failures structurally (``error_kind``) instead
    of forcing callers to parse free-text messages.
    """

    #: Stable machine-readable discriminator, mirrored into
    #: ``QueryResult.error_kind`` by the batch service.
    kind = "execution"


class ResourceLimitError(ExecutionError):
    """A governed operation exceeded its node or apply-step budget."""

    kind = "resource-limit"


def recursion_limit_message() -> str:
    """What a BDD operation deeper than Python's stack reports (a batch
    ``resource-limit`` row, or the ``bfl`` CLI's error line)."""
    return (
        "a BDD operation recursed past Python's recursion limit "
        f"({sys.getrecursionlimit()})"
    )


class QueryDeadlineError(ExecutionError):
    """A governed operation exceeded its wall-clock deadline."""

    kind = "deadline"


class WorkerCrashError(ExecutionError):
    """A parallel worker process died (crash or watchdog timeout).

    Attributes:
        traceback_text: Worker-side traceback when one was captured
            (None for hard crashes, which leave no Python frame behind).
    """

    kind = "worker-crash"

    def __init__(self, message: str, traceback_text: "str | None" = None) -> None:
        super().__init__(message)
        self.traceback_text = traceback_text


class RateLimitError(ExecutionError):
    """The analysis server's token bucket rejected a request.

    Attributes:
        retry_after_ms: Suggested wait before retrying (time until the
            bucket refills one token).
    """

    kind = "rate-limited"

    def __init__(self, message: str, retry_after_ms: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ServerBusyError(ExecutionError):
    """The analysis server's admission queue is full (or draining)."""

    kind = "server-busy"


class SnapshotIntegrityError(ExecutionError, SnapshotError):
    """A snapshot payload failed its sha256 content checksum (corrupt
    or truncated bytes).  Also a :class:`SnapshotError`, so existing
    ``except SnapshotError`` handlers keep working."""

    kind = "snapshot-integrity"


def error_kind(exc: BaseException) -> str:
    """The structured ``error_kind`` string for any exception the batch
    service reports: the :class:`ExecutionError` ``kind`` when there is
    one, else the exception class name (stable and greppable)."""
    if isinstance(exc, ExecutionError):
        return exc.kind
    return type(exc).__name__


class QuerySpecError(ReproError):
    """A query specification is malformed.

    Raised by the service layer (``QuerySpec`` validation, battery
    normalisation, governance-knob checks) and by the query-kind
    registry's per-kind validators.  Lives here so the registry — which
    the service layer imports — can raise it without a circular import;
    :mod:`repro.service.queries` re-exports it for compatibility.
    """


class FaultTreeError(ReproError):
    """Base class for errors in fault-tree construction or analysis."""


class WellFormednessError(FaultTreeError):
    """The fault tree violates Def. 1 (cycle, unreachable node, bad root)."""


class UnknownElementError(FaultTreeError, KeyError):
    """A fault-tree element name does not exist in the tree."""


class GateArityError(FaultTreeError):
    """A gate has an illegal number of children (e.g. VOT(k/N) with N kids)."""


class GalileoFormatError(FaultTreeError):
    """A Galileo-format fault-tree file could not be parsed."""


class LogicError(ReproError):
    """Base class for errors in BFL formula construction or evaluation."""


class BFLSyntaxError(LogicError):
    """The BFL DSL parser rejected the input text."""

    def __init__(self, message: str, line: int = 1, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class LayerError(LogicError):
    """A layer-2 construct (quantifier/IDP) was nested inside a formula."""


class StatusVectorError(LogicError):
    """A status vector does not match the tree's basic events."""


class CheckerError(ReproError):
    """Base class for model-checking errors."""


class NoCounterexampleError(CheckerError):
    """Algorithm 4 cannot produce a counterexample (formula unsatisfiable)."""


class SynthesisError(CheckerError):
    """No satisfying fault tree could be synthesised (Sec. V-E)."""
