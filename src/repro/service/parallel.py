"""Sharded multi-process batch execution.

The batch layer's workload is embarrassingly parallel: queries of a
battery are independent (each is answered purely from its scenario's
BDDs), and fault-tree BDD work parallelises naturally across trees and
scenarios.  This module turns :class:`~repro.service.batch.BatchAnalyzer`
into a multi-process engine in three deterministic steps:

1. **Shard planning** (:func:`plan_shards`) — queries are grouped by
   scenario (locality: one worker translates a tree once and amortises
   it over every query it owns), the groups are split until there is
   enough parallel slack, and the resulting chunks are packed into
   ``shard_count`` balanced shards by longest-processing-time-first
   placement over a cost model seeded from formula size and tree node
   counts (:func:`estimate_cost`).  The plan is a pure function of the
   battery — no randomness, no timing feedback — so reruns shard
   identically.

2. **Worker pool with bounded retry** (:func:`run_parallel`) — a
   :class:`concurrent.futures.ProcessPoolExecutor` whose initializer
   builds one private ``BatchAnalyzer`` (and therefore one private
   :class:`~repro.bdd.manager.BDDManager` per scenario) in every worker
   process; nothing is shared, nothing needs locking.  Workers can be
   warm-started from portable kernel snapshots
   (``BDDManager.save_snapshot``) shipped in the worker payload, so they
   skip per-scenario ``Psi_FT`` translation entirely.  A shard whose
   worker dies (crash, or a hang caught by the per-shard watchdog) is
   *resubmitted* to a freshly spawned pool — up to
   ``AnalysisOptions.shard_retries`` times, with exponential backoff
   — because one dead process must not permanently cost its queries.
   Worker-side exceptions travel back as picklable
   :class:`ShardFailure` records carrying the worker's own traceback,
   so crashes stay diagnosable from the merged report.

3. **Deterministic merge** (:func:`merge_reports`) — per-shard reports
   are stitched back in original battery order (query-for-query
   identical to a sequential run, timing aside), per-query errors such
   as ``ZeroProbabilityEvidenceError`` stay attached to their query, a
   shard that exhausted its retries surfaces as per-query ``worker
   shard failed`` errors with a structured ``error_kind`` rather than
   poisoning the batch, and stats are aggregated (counters summed,
   peaks maxed, a ``parallel`` block describing the plan, per-shard
   attempts and outcomes).

Fault injection for all of the above lives in
:mod:`repro.testing.chaos`: with the ``REPRO_CHAOS`` environment
variable set, workers consult the (deterministic, seedable) chaos plan
at shard start — the hook that lets the chaos gate kill workers
mid-shard and delay shards without any test-only branches elsewhere.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..engine import REGISTRY
from ..errors import WorkerCrashError, error_kind
from ..ft.tree import FaultTree
from ..logic.parser import format_statement
from .queries import BatchReport, QueryResult, QuerySpec

#: Ceiling on the exponential shard-retry backoff.
_MAX_BACKOFF_MS = 5000.0

# ----------------------------------------------------------------------
# Cost model and shard planning
# ----------------------------------------------------------------------


#: Cost discount for queries against a copy-on-write variant scenario:
#: the fork shares the warm base kernel and splices one compose result,
#: so the per-query tree cost is a fraction of a cold build's.
_VARIANT_DISCOUNT = 0.25


def estimate_cost(
    spec: QuerySpec,
    tree: Optional[FaultTree],
    warm_variant: bool = False,
) -> float:
    """Relative cost estimate for one query (shard-balancing heuristic).

    Seeded from the two observables that dominate real batteries: the
    *tree size* (every BDD the query touches is built over the tree's
    events and gates) and the *formula size* (longer formulae mean more
    Algorithm 1 recursion and more BDD products), scaled by the query
    kind's registry weight (MCS/MPS and the satisfaction sets built on
    them run the minimal-solutions recursion; checks and
    probability queries mostly walk existing BDDs).  A kind may further
    scale its estimate with a ``cost_factor`` hook — a ``synthesize``
    candidate sweep grows linearly with its set count, so the planner
    spreads wide sweeps across workers.  ``warm_variant`` marks queries
    against a copy-on-write variant of a warm base tree, whose
    translation is nearly free — the tree term is discounted so the
    packer does not scatter cheap variant sweeps across workers that
    then each rebuild the base.  Only relative magnitudes matter — the
    planner packs shards, it does not predict milliseconds.
    """
    if tree is None:  # unknown scenario: errors out cheaply at parse time
        return 1.0
    tree_weight = 1 + len(tree.basic_events) + len(tree.gate_names)
    if warm_variant:
        tree_weight = max(1.0, tree_weight * _VARIANT_DISCOUNT)
    formula = spec.formula
    if formula is None:  # mcs/mps specs: the whole cost is the tree's
        text = "MCS()"
    elif isinstance(formula, str):
        text = formula
    else:
        text = format_statement(formula)
    formula_weight = 1.0 + len(text) / 16.0
    if "MCS(" in text or "MPS(" in text:
        # Textual minimisation operators run the same machinery the
        # mcs/mps kinds do, whatever the spec's kind says.
        formula_weight *= 2.0
    cost = REGISTRY.weight(spec.kind, 1.0) * tree_weight * formula_weight
    if spec.kind in REGISTRY:
        factor = REGISTRY.get(spec.kind).cost_factor
        if factor is not None:
            cost *= factor(spec)
    return cost


@dataclass(frozen=True)
class Shard:
    """One worker's slice of a battery.

    Attributes:
        indices: Original battery positions, ascending (the merge key).
        specs: The queries at those positions, same order.
        cost: Summed :func:`estimate_cost` of the members.
        scenarios: Distinct scenario names touched, first-seen order.
    """

    indices: Tuple[int, ...]
    specs: Tuple[QuerySpec, ...]
    cost: float
    scenarios: Tuple[str, ...]


def _split_chunk(
    chunk: List[Tuple[int, QuerySpec, float]],
) -> List[List[Tuple[int, QuerySpec, float]]]:
    """Split one chunk into two balanced halves (greedy LPT over its
    queries, deterministic tie-breaks), original order restored inside
    each half."""
    halves: List[List[Tuple[int, QuerySpec, float]]] = [[], []]
    loads = [0.0, 0.0]
    for entry in sorted(chunk, key=lambda e: (-e[2], e[0])):
        side = 0 if loads[0] <= loads[1] else 1
        halves[side].append(entry)
        loads[side] += entry[2]
    return [sorted(half, key=lambda e: e[0]) for half in halves if half]


def plan_shards(
    specs: Sequence[QuerySpec],
    trees: Mapping[str, FaultTree],
    shard_count: int,
    variant_bases: Optional[Mapping[str, str]] = None,
) -> List[Shard]:
    """Partition a battery into at most ``shard_count`` balanced shards.

    Scenario-grouped chunks are split (largest first) until there are
    about two chunks per shard — enough slack for the packer to balance
    without scattering a scenario across every worker — then packed
    longest-first onto the least-loaded shard.  Every tie is broken by
    battery position, so the plan is deterministic.

    Args:
        specs: The normalised battery (original order).
        trees: Scenario name -> tree, for the cost model; queries naming
            an unknown scenario (which error out at parse time) get a
            nominal cost.
        shard_count: Upper bound on shards (empty shards are dropped).
        variant_bases: Variant scenario -> base scenario.  Variant
            queries are grouped into their *base's* chunk (a worker that
            owns the base forks its variants from the warm kernel) and
            their cost is discounted accordingly.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    bases = dict(variant_bases or {})
    entries = [
        (
            index,
            spec,
            estimate_cost(
                spec, trees.get(spec.tree), warm_variant=spec.tree in bases
            ),
        )
        for index, spec in enumerate(specs)
    ]
    groups: Dict[str, List[Tuple[int, QuerySpec, float]]] = {}
    for entry in entries:
        groups.setdefault(
            bases.get(entry[1].tree, entry[1].tree), []
        ).append(entry)
    chunks = list(groups.values())

    target = min(2 * shard_count, len(entries))
    while len(chunks) < target:
        # Largest splittable chunk first; position tie-break.
        splittable = [c for c in chunks if len(c) > 1]
        if not splittable:
            break
        victim = max(
            splittable, key=lambda c: (sum(e[2] for e in c), -c[0][0])
        )
        chunks.remove(victim)
        chunks.extend(_split_chunk(victim))

    bins: List[List[Tuple[int, QuerySpec, float]]] = [
        [] for _ in range(shard_count)
    ]
    loads = [0.0] * shard_count
    for chunk in sorted(
        chunks, key=lambda c: (-sum(e[2] for e in c), c[0][0])
    ):
        side = min(range(shard_count), key=lambda b: (loads[b], b))
        bins[side].extend(chunk)
        loads[side] += sum(e[2] for e in chunk)

    shards: List[Shard] = []
    for members in bins:
        if not members:
            continue
        members.sort(key=lambda e: e[0])
        scenarios: List[str] = []
        for _, spec, _ in members:
            if spec.tree not in scenarios:
                scenarios.append(spec.tree)
        shards.append(
            Shard(
                indices=tuple(e[0] for e in members),
                specs=tuple(e[1] for e in members),
                cost=sum(e[2] for e in members),
                scenarios=tuple(scenarios),
            )
        )
    # Stable presentation order: by first battery position.
    shards.sort(key=lambda s: s.indices[0])
    return shards


# ----------------------------------------------------------------------
# Worker pool with bounded retry
# ----------------------------------------------------------------------

#: Per-process analyzer, built once by the pool initializer.  Module
#: global on purpose: ``ProcessPoolExecutor`` initializers cannot return
#: state, and each worker process owns exactly one analyzer (and thus
#: one BDD manager per scenario).
_WORKER_ANALYZER = None


@dataclass(frozen=True)
class ShardFailure:
    """Picklable record of one shard attempt that produced no report.

    Attributes:
        message: Human-readable failure description (becomes the
            per-query ``worker shard failed: ...`` error text).
        kind: Structured ``error_kind`` discriminator — usually
            ``"worker-crash"``; a worker-side exception keeps its own
            kind (e.g. ``"resource-limit"``).
        traceback_text: The worker-side traceback when a Python frame
            was there to capture one (None for hard crashes and
            watchdog expiries).
    """

    message: str
    kind: str = WorkerCrashError.kind
    traceback_text: Optional[str] = None


def _worker_init(payload: Dict[str, Any]) -> None:
    """Pool initializer: build this process's private analyzer."""
    global _WORKER_ANALYZER
    from .batch import BatchAnalyzer

    _WORKER_ANALYZER = BatchAnalyzer(**payload)


def _worker_run(
    specs: Sequence[QuerySpec],
) -> Union[BatchReport, ShardFailure]:
    """Answer one shard inside the worker's private analyzer.

    Never raises: an exception escaping the batch pipeline (which
    already converts per-query ``ReproError`` failures into result
    rows) is a worker-side defect, and re-raising it would hand the
    parent a pickled exception *without* the worker's stack.  It is
    captured here — traceback and all — as a :class:`ShardFailure` the
    merge can report structurally.
    """
    if os.environ.get("REPRO_CHAOS"):
        # Fault injection (tests / chaos gate only — one env check in
        # production).  May sleep, or kill this process outright.
        from ..testing.chaos import on_shard_start

        on_shard_start([spec.id for spec in specs])
    try:
        return _WORKER_ANALYZER._run_specs(list(specs))
    except Exception as exc:
        return ShardFailure(
            message=f"{type(exc).__name__}: {exc}",
            kind=error_kind(exc),
            traceback_text=traceback.format_exc(),
        )


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly end a pool that still owns hung workers.

    ``shutdown(wait=True)`` would block on the hung process, so the
    workers are terminated first (private attribute, guarded — worst
    case the interpreter falls back to a blocking shutdown)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_parallel(analyzer, specs: Sequence[QuerySpec]) -> BatchReport:
    """Execute a normalised battery across ``options.workers`` processes.

    Called by :meth:`BatchAnalyzer.run` when ``workers > 1``; falls back
    to the in-process pipeline when the plan degenerates to one shard.
    The parent analyzer's sessions are never touched — each worker
    reconstructs its own from the (picklable) trees, configuration and
    any kernel snapshots the parent has to offer.

    Failure handling is a bounded-retry state machine.  Each round
    submits every still-unanswered shard to a *fresh* pool (a crashed
    worker breaks its whole ``ProcessPoolExecutor``, so pools are
    per-round disposables):

    * a shard whose worker crashed (``BrokenProcessPool``) or whose
      result did not arrive within ``options.watchdog_ms`` is marked
      failed and re-queued;
    * a shard that returned a :class:`ShardFailure` (worker-side
      exception, traceback attached) is likewise re-queued;
    * after ``options.shard_retries`` re-submissions — with
      exponentially growing backoff in between — whatever is still
      failing is reported as structured per-query errors, and every
      other shard's results stand.
    """
    start = time.perf_counter()
    options = analyzer.options
    trees = analyzer.trees
    shard_count = max(1, min(options.workers, len(specs)))
    shards = plan_shards(
        specs, trees, shard_count, variant_bases=analyzer.variant_bases
    )
    if len(shards) <= 1:
        return analyzer._run_specs(list(specs))

    payload = analyzer._worker_config()
    retries = options.shard_retries
    backoff_ms = options.retry_backoff_ms
    watchdog_ms = options.watchdog_ms
    reports: List[Optional[BatchReport]] = [None] * len(shards)
    failures: List[Optional[ShardFailure]] = [None] * len(shards)
    attempts = [0] * len(shards)
    pending = list(range(len(shards)))
    for round_index in range(retries + 1):
        if round_index and backoff_ms:
            time.sleep(
                min(backoff_ms * 2 ** (round_index - 1), _MAX_BACKOFF_MS)
                / 1000.0
            )
        pool = ProcessPoolExecutor(
            max_workers=len(pending),
            initializer=_worker_init,
            initargs=(payload,),
        )
        hung = False
        try:
            submitted_at = time.monotonic()
            futures = {
                position: pool.submit(_worker_run, shards[position].specs)
                for position in pending
            }
            for position in pending:
                attempts[position] += 1
            still_failed: List[int] = []
            for position, future in futures.items():
                timeout = None
                if watchdog_ms is not None:
                    # Shards run concurrently, so each one's watchdog
                    # counts from pool submission, not from the end of
                    # its predecessor's wait.
                    timeout = max(
                        0.0,
                        submitted_at
                        + watchdog_ms / 1000.0
                        - time.monotonic(),
                    )
                try:
                    outcome = future.result(timeout=timeout)
                except FutureTimeoutError:
                    hung = True
                    failures[position] = ShardFailure(
                        message=(
                            "hung worker: no shard result within the "
                            f"{watchdog_ms:g} ms watchdog"
                        ),
                    )
                    still_failed.append(position)
                    continue
                except Exception as exc:
                    # Worker process died before returning anything
                    # (BrokenProcessPool and friends): no worker-side
                    # frame exists, so there is no traceback to ship.
                    failures[position] = ShardFailure(
                        message=f"{type(exc).__name__}: {exc}",
                    )
                    still_failed.append(position)
                    continue
                if isinstance(outcome, ShardFailure):
                    failures[position] = outcome
                    still_failed.append(position)
                else:
                    reports[position] = outcome
                    failures[position] = None
        finally:
            if hung:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=True)
        pending = still_failed
        if not pending:
            break
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return merge_reports(
        specs,
        shards,
        reports,
        failures,
        options.workers,
        elapsed_ms,
        attempts=attempts,
    )


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------

#: Scenario-stat leaves that describe a *state size* rather than an event
#: counter: across shards these are maxed, not summed (each worker has
#: its own manager; adding their table sizes would describe no machine).
_MAX_STAT_KEYS = frozenset(
    {
        "bdd_nodes",
        "bdd_peak_nodes",
        "bdd_unique_table",
        "live_nodes",
        "peak_live_nodes",
        "dead_nodes",
        "free_list",
        "prob_cache",
        # Open-addressed table health (per-manager sizes/watermarks):
        # adding capacities across shards would describe no machine.
        "capacity",
        "entries",
        "max_probe",
    }
)


def _merge_stat_dict(into: Dict[str, Any], new: Mapping[str, Any]) -> None:
    """Accumulate one shard's stat dict into ``into`` (recursive).

    Numbers are summed (they are per-batch counters), except the
    state-size keys in :data:`_MAX_STAT_KEYS`, which are maxed.
    Non-numeric leaves (e.g. the per-scenario variable ``order`` list)
    keep the first shard's value.
    """
    for key, value in new.items():
        if key not in into:
            if isinstance(value, Mapping):
                into[key] = {}
                _merge_stat_dict(into[key], value)
            else:
                into[key] = value
        elif isinstance(value, Mapping) and isinstance(into[key], dict):
            _merge_stat_dict(into[key], value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if key in _MAX_STAT_KEYS:
                into[key] = max(into[key], value)
            else:
                into[key] = round(into[key] + value, 3)
        # else: keep the first shard's value


def merge_reports(
    specs: Sequence[QuerySpec],
    shards: Sequence[Shard],
    reports: Sequence[Optional[BatchReport]],
    errors: Sequence[Optional[Union[str, ShardFailure]]],
    workers: int,
    elapsed_ms: float,
    attempts: Optional[Sequence[int]] = None,
) -> BatchReport:
    """Stitch per-shard reports into one battery-ordered report.

    Per-query ordering follows the original battery exactly; a failed
    shard contributes one ``ok=False`` result per member query (errors
    in place, never a lost query) carrying both the compatible ``worker
    shard failed: ...`` message and the structured ``error_kind``.
    Stats are aggregated with :func:`_merge_stat_dict` plus a
    ``parallel`` block recording the plan and per-shard outcomes
    (including retry attempts and any captured worker traceback).

    ``errors`` entries may be plain strings (legacy callers) or
    :class:`ShardFailure` records; ``attempts`` optionally records how
    many times each shard was submitted (1 = first try succeeded).
    """
    merged: List[Optional[QueryResult]] = [None] * len(specs)
    shard_rows: List[Dict[str, Any]] = []
    stats: Dict[str, Any] = {
        "queries": {},
        "phases": {},
        "scenarios": {},
    }
    for position, (shard, report, error) in enumerate(
        zip(shards, reports, errors)
    ):
        row: Dict[str, Any] = {
            "shard": position,
            "queries": len(shard.indices),
            "cost": round(shard.cost, 3),
            "scenarios": list(shard.scenarios),
        }
        if attempts is not None:
            row["attempts"] = attempts[position]
            row["retried"] = attempts[position] > 1
        if error is not None:
            if isinstance(error, ShardFailure):
                message = error.message
                kind = error.kind
                if error.traceback_text:
                    row["traceback"] = error.traceback_text
            else:
                message = str(error)
                kind = WorkerCrashError.kind
            row["error"] = message
            row["error_kind"] = kind
            # The failed shard's queries still count: without this the
            # merged totals would claim a smaller, error-free battery.
            _merge_stat_dict(
                stats["queries"],
                {
                    "total": len(shard.indices),
                    "errors": len(shard.indices),
                },
            )
            for index in shard.indices:
                spec = specs[index]
                merged[index] = QueryResult(
                    id=spec.id,
                    kind=spec.kind,
                    tree=spec.tree,
                    formula=(
                        spec.formula
                        if isinstance(spec.formula, str)
                        else None
                    ),
                    ok=False,
                    elapsed_ms=0.0,
                    error=f"worker shard failed: {message}",
                    error_kind=kind,
                )
        else:
            row["elapsed_ms"] = round(report.elapsed_ms, 3)
            for index, result in zip(shard.indices, report.results):
                merged[index] = result
            _merge_stat_dict(stats["queries"], report.stats.get("queries", {}))
            _merge_stat_dict(stats["phases"], report.stats.get("phases", {}))
            _merge_stat_dict(
                stats["scenarios"], report.stats.get("scenarios", {})
            )
            # Structured degradation warnings (e.g. a corrupt snapshot
            # rebuilt from the tree) must survive the merge.
            for warning in report.stats.get("warnings", ()):
                stats.setdefault("warnings", []).append(warning)
        shard_rows.append(row)
    stats["parallel"] = {"workers": workers, "shards": shard_rows}
    return BatchReport(
        results=tuple(merged), stats=stats, elapsed_ms=elapsed_ms
    )
