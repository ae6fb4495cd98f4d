"""The batch analyzer: answer many BFL queries against shared BDD state.

Where :class:`~repro.checker.engine.ModelChecker` answers one question at
a time, :class:`BatchAnalyzer` is the query-serving engine for batteries:

1. **Parse phase** — every query's DSL text is parsed up front, through a
   per-scenario text cache (identical texts parse once).
2. **Translate phase** — the *distinct* statements of each scenario are
   pushed through Algorithm 1 once.  The translation cache is keyed on
   formula *structure* (the AST nodes are frozen dataclasses), so two
   queries sharing a subformula — ``MCS(TLE) & H1`` and ``MCS(TLE) & H2``
   — build the expensive ``MCS(TLE)`` BDD a single time, and the cache
   persists across :meth:`BatchAnalyzer.run` calls.
3. **Evaluate phase** — each query is answered against the now-warm
   translator; per-query wall time therefore measures the *marginal*
   cost under sharing.

One :class:`AnalysisSession` (tree + :class:`ModelChecker` + caches) is
kept per scenario; all queries of a scenario run inside a single
:class:`~repro.bdd.manager.BDDManager`, whose apply/ITE memo tables the
whole battery amortises.  ``report.stats`` quantifies the effect with
cache hit/miss deltas for the batch.
"""

from __future__ import annotations

import hashlib
import logging
import os
import sys
import time
import weakref
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..bdd.manager import BDDManager, OperationCacheStats
from ..bdd.ordering import DEFAULT_ORDER
from ..checker.engine import ModelChecker
from ..errors import (
    QueryDeadlineError,
    ResourceLimitError,
    ReproError,
    SnapshotError,
    error_kind,
)
from ..runtime.limits import Governor
from ..ft.galileo import dumps as galileo_dumps
from ..ft.tree import FaultTree
from ..engine import execute_kind, statements_for
from ..logic.ast_nodes import (
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
from .options import AnalysisOptions
from .queries import (
    DEFAULT_SCENARIO,
    BatchReport,
    QueryResult,
    QuerySpec,
    QuerySpecError,
    specs_from_any,
)

logger = logging.getLogger(__name__)


#: FaultTree -> its fingerprint.  Trees are immutable, so the Galileo
#: text and its digest are computed once per tree object.
_FINGERPRINTS: "weakref.WeakKeyDictionary[FaultTree, str]" = (
    weakref.WeakKeyDictionary()
)


def tree_fingerprint(tree: FaultTree) -> str:
    """Stable structural identity of a tree (Galileo text digest).

    The tree half of :func:`kernel_key`, which guards kernel-snapshot
    warm starts: a snapshot records the key of the tree and order it was
    built from, and adopting it into a scenario with a different key
    raises instead of silently answering queries from stale BDDs.
    Memoised per tree object.
    """
    fingerprint = _FINGERPRINTS.get(tree)
    if fingerprint is None:
        fingerprint = hashlib.sha256(
            galileo_dumps(tree).encode("utf-8")
        ).hexdigest()
        _FINGERPRINTS[tree] = fingerprint
    return fingerprint


def kernel_key(tree: FaultTree) -> str:
    """Content address of a session kernel: the tree's structure plus
    the variable order sessions are built in
    (:data:`~repro.bdd.ordering.DEFAULT_ORDER`).

    A sha256 hex digest over :func:`tree_fingerprint` and the order
    name; only this short outer hash is recomputed per call, so the key
    follows the current :data:`DEFAULT_ORDER`.  The session pool, the
    snapshot store's entry names and the
    ``BatchAnalyzer(snapshots=...)`` check all key on it, so entries
    keyed by the bare tree fingerprint — written when kernels were built
    in declaration order — are never matched, and a future change of
    the default order misses every older entry the same way.
    """
    return hashlib.sha256(
        f"{tree_fingerprint(tree)}:{DEFAULT_ORDER}".encode("ascii")
    ).hexdigest()


class AnalysisSession:
    """Persistent per-scenario state: one tree, one checker, one manager.

    Attributes:
        name: Scenario name.
        checker: The wrapped :class:`ModelChecker` (its translator and
            BDD manager live as long as the session).
    """

    def __init__(
        self,
        name: str,
        tree: FaultTree,
        options: Optional[AnalysisOptions] = None,
        probabilities: Optional[Mapping[str, float]] = None,
        snapshot: Optional[Mapping[str, Any]] = None,
        manager: Optional[BDDManager] = None,
    ) -> None:
        self.name = name
        #: The analysis settings this session's kernel was built under
        #: (only the kernel fields matter here; ``probabilities`` below
        #: are the scenario's already-resolved overrides).
        self.options = options if options is not None else AnalysisOptions()
        # Warm start: rebuild the kernel from a portable snapshot and
        # drop its element roots straight into the tree-translation
        # cache, so the session never re-runs Psi_FT for the tree.
        # Alternatively a caller may pass an existing ``manager`` to
        # share a live kernel (the copy-on-write fork_variant path).
        if snapshot is not None and manager is not None:
            raise SnapshotError(
                "pass either a snapshot or a live manager, not both"
            )
        adopted = None
        if snapshot is not None:
            manager, adopted = BDDManager.load_snapshot(snapshot)
        #: Name of the session this one was forked from (None for base
        #: sessions) and the edit script that produced it.
        self.variant_of: Optional[str] = None
        self.edits: Tuple[Any, ...] = ()
        self.checker = ModelChecker(
            tree, manager=manager, **self.options.checker_kwargs()
        )
        if adopted:
            self.checker.translator.tree_translator.adopt(adopted)
        #: :meth:`kernel_state` when the kernel last matched its store
        #: entry: right after a snapshot warm start, or when the session
        #: pool last wrote it (None: never, e.g. a cold build).
        self.stored_state: Optional[Tuple[int, int, int]] = (
            self.kernel_state() if snapshot is not None else None
        )
        self._parse_cache: Dict[str, Statement] = {}
        self.parse_hits = 0
        self.parse_misses = 0
        #: Statements already pushed through the translate phase (this is
        #: the *cross-batch* record; within-batch dedup happens in run()).
        self.warmed: set = set()
        #: Per-event probability overrides for PFL queries (the tree's
        #: own BasicEvent.probability attributes fill the gaps).
        self._prob_overrides: Dict[str, float] = dict(probabilities or {})
        self._prob_checker = None

    def prob_checker(self):
        """The scenario's :class:`~repro.prob.ProbabilityChecker`,
        created lazily on the *shared* translator so probabilistic and
        qualitative queries reuse one BDD manager (and its probability
        cache).  Lazy because resolving event probabilities raises when
        they are missing — a purely qualitative battery should never pay
        (or trip over) that.
        """
        if self._prob_checker is None:
            from ..prob.queries import ProbabilityChecker

            self._prob_checker = ProbabilityChecker(
                overrides=self._prob_overrides,
                translator=self.checker.translator,
            )
        return self._prob_checker

    @property
    def tree(self) -> FaultTree:
        return self.checker.tree

    def parse(self, formula: Union[str, Statement]) -> Statement:
        """DSL text -> AST, memoised on the exact text."""
        if not isinstance(formula, str):
            return formula
        text = formula.strip()
        cached = self._parse_cache.get(text)
        if cached is not None:
            self.parse_hits += 1
            return cached
        self.parse_misses += 1
        statement, _ = parse_request(text)
        self._parse_cache[text] = statement
        return statement

    def prewarm(self, statement: Statement) -> None:
        """Run Algorithm 1 for ``statement`` so evaluation only walks BDDs.

        Layer-2 queries translate their operand(s); IDP/SUP additionally
        need supports, which the evaluate phase derives from the same
        cached BDDs.
        """
        translator = self.checker.translator
        if isinstance(statement, Formula):
            translator.bdd(statement)
        elif isinstance(statement, (Exists, Forall)):
            translator.bdd(statement.operand)
        elif isinstance(statement, IDP):
            translator.bdd(statement.left)
            translator.bdd(statement.right)
        elif isinstance(statement, SUP):
            translator.bdd(Atom(statement.element))
            translator.bdd(Atom(self.tree.top))
        elif isinstance(statement, ProbabilityQuery):
            translator.bdd(statement.formula)
            if statement.condition is not None:
                translator.bdd(statement.condition)
        elif isinstance(statement, Synthesize):
            # Region computation projects the target formula's BDD; the
            # candidate bookkeeping itself is cheap.
            translator.bdd(statement.formula)
        self.warmed.add(statement)

    def fork_variant(
        self,
        name: str,
        edits: Sequence[Any],
        probabilities: Optional[Mapping[str, float]] = None,
        tree: Optional[FaultTree] = None,
    ) -> "AnalysisSession":
        """Copy-on-write what-if session: same kernel, edited tree.

        The child session shares this session's ``BDDManager`` — node
        store, unique table and every operation memo stay warm — while
        owning its own translators, formula caches and probability
        overrides, so both sessions answer queries independently.  The
        child adopts every element BDD the edit script leaves
        structurally unchanged
        (:func:`repro.ft.edits.changed_elements_from_edits`),
        and when the script is confined to one subtree
        (:func:`repro.ft.edits.splice_site`) its top-level BDD is seeded
        by compose-splicing the re-lowered subtree into this session's
        cached abstract root — one memoised
        :meth:`~repro.bdd.manager.BDDManager.compose` per variant.  All
        adopted/spliced BDDs are pinned by the child's caches, so the
        shared kernel's GC and in-place sifting checkpoints remain safe.

        Args:
            name: Scenario name for the child session.
            edits: Edit script (:class:`repro.ft.edits.Edit` objects or
                their JSON-style mappings), applied to this session's
                tree in order.
            probabilities: Probability overrides for the child.  When
                given they *replace* inheritance; when omitted the child
                inherits this session's overrides minus any event a
                ``weight-change`` edit retargets (so the edit's value,
                now carried by the tree, takes effect) and minus events
                the script removed from the tree.
            tree: The already-materialised result of applying ``edits``
                to this session's tree, when the caller holds one (e.g.
                :class:`BatchAnalyzer` materialises variant trees at
                registration for validation and cost modelling).  Skips
                the redundant re-application; it must be equal to
                ``apply_edits(self.tree, edits)``.
        """
        from ..ft.edits import (
            EventAdd,
            GateSwap,
            WeightChange,
            apply_edits,
            changed_elements_from_edits,
            edits_from_any,
            splice_site,
        )

        edit_list = edits_from_any(edits)
        base_tree = self.tree
        new_tree = tree if tree is not None else apply_edits(
            base_tree, edit_list
        )
        if probabilities is not None:
            overrides = dict(probabilities)
        else:
            weight_targets = {
                edit.event
                for edit in edit_list
                if isinstance(edit, WeightChange)
            }
            if not weight_targets and all(
                isinstance(edit, (GateSwap, EventAdd))
                for edit in edit_list
            ):
                # No retargeted weights and no edit type that can
                # remove an event: inherit as-is.
                overrides = dict(self._prob_overrides)
            else:
                surviving = new_tree.basic_events
                overrides = {
                    event: value
                    for event, value in self._prob_overrides.items()
                    if event not in weight_targets and event in surviving
                }
        child = AnalysisSession(
            name,
            new_tree,
            self.options,
            probabilities=overrides,
            manager=self.checker.manager,
        )
        child.variant_of = self.name
        child.edits = tuple(edit_list)
        dirty = changed_elements_from_edits(base_tree, new_tree, edit_list)
        parent_tt = self.checker.translator.tree_translator
        child_tt = child.checker.translator.tree_translator
        child_tt.adopt_from(parent_tt, skip=dirty)
        site = splice_site(base_tree, new_tree, dirty=dirty)
        if site is not None and site != new_tree.top:
            # Re-lower only the edited subtree (its unchanged children
            # were just adopted), then splice it into the parent's
            # memoised abstract root.
            subtree = child_tt.element(site)
            child_tt.adopt({new_tree.top: parent_tt.splice(site, subtree)})
        return child

    def kernel_snapshot(self) -> Dict[str, Any]:
        """Portable kernel snapshot of this session's manager, rooted at
        every element BDD translated so far (the reusable, per-tree part
        of the session — formula combinations are cheap to redo and are
        keyed on ASTs a snapshot cannot name)."""
        translator = self.checker.translator
        return self.checker.manager.save_snapshot(
            roots=translator.tree_translator.export_cache()
        )

    def kernel_state(self) -> Tuple[int, int, int]:
        """What :meth:`kernel_snapshot` depends on, as counters: the
        element memo's generation (its roots), and the manager's swap
        count and variable count (its order).  Equal states give equal
        snapshots."""
        manager = self.checker.manager
        return (
            self.checker.translator.tree_translator.generation,
            manager._swaps,
            len(manager.variables),
        )

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative cache counters (used for per-batch deltas)."""
        translator = self.checker.translator
        return {
            "formula_hits": translator.stats.formula_hits,
            "formula_misses": translator.stats.formula_misses,
            "element_requests": translator.stats.element_requests,
            "op": self.checker.manager.op_stats.copy(),
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
        }


class BatchAnalyzer:
    """Serve batteries of BFL queries over one or more fault trees.

    Args:
        trees: A single tree (registered under the scenario name
            ``"default"``) or a mapping of scenario name -> tree.
        options: The battery's :class:`~repro.service.options.AnalysisOptions`
            (scope, kernel GC/reordering, PFL weights, workers,
            deadlines, shard retries — every field is documented
            there).  Omit it to build one from ``fields``.
        snapshots: Optional scenario-name -> kernel-snapshot mapping (as
            produced by :meth:`kernel_snapshots` or read from a
            :class:`~repro.service.store.SnapshotStore`) to warm-start
            sessions from; each entry's ``tree`` value must be the
            scenario's :func:`kernel_key` (the tree's structure *and*
            the variable order).
        variants: Optional variant-name -> definition mapping, the
            programmatic face of the query-file ``variants:`` key.  Each
            definition is ``{"base": scenario, "edits": [...],
            "probabilities": {...}}`` (``base`` defaults to
            ``"default"``; ``probabilities`` is optional) where
            ``edits`` is a :mod:`repro.ft.edits` edit script.  A variant
            behaves like any other scenario in queries and reports, but
            its session is built by copy-on-write forking
            (:meth:`AnalysisSession.fork_variant`) of the warm base
            session — sharing the base kernel instead of rebuilding —
            which is what makes wide what-if sweeps cheap.
        **fields: :class:`~repro.service.options.AnalysisOptions` fields
            (``BatchAnalyzer(tree, uniform=0.1, workers=4)``); passing
            both ``options`` and fields is a ``TypeError``.

    Example:
        >>> from repro.ft import figure1_tree
        >>> analyzer = BatchAnalyzer(figure1_tree())
        >>> report = analyzer.run(["exists CP/R", {"kind": "mcs"}])
        >>> [r.ok for r in report.results]
        [True, True]
    """

    def __init__(
        self,
        trees: Union[FaultTree, Mapping[str, FaultTree]],
        options: Optional[AnalysisOptions] = None,
        *,
        snapshots: Optional[Mapping[str, Mapping[str, Any]]] = None,
        variants: Optional[Mapping[str, Mapping[str, Any]]] = None,
        **fields: Any,
    ) -> None:
        if options is None:
            options = AnalysisOptions(**fields)
        elif fields:
            raise TypeError(
                "BatchAnalyzer takes either options or option fields, "
                "not both"
            )
        elif not isinstance(options, AnalysisOptions):
            raise TypeError(
                f"options must be an AnalysisOptions, got {options!r}"
            )
        self.options = options
        #: perf_counter() instant the current battery must finish by
        #: (armed per run(); None = no battery deadline).
        self._battery_deadline_at: Optional[float] = None
        #: Structured warnings accumulated while building sessions
        #: (e.g. a corrupt snapshot that degraded to a cold build);
        #: surfaced under ``report.stats["warnings"]``.
        self._warnings: List[Dict[str, str]] = []
        self._snapshots: Dict[str, Mapping[str, Any]] = dict(snapshots or {})
        #: Registered scenario trees.  Sessions are built *lazily* from
        #: these on first use (``session()``): a parent running in
        #: parallel mode and every worker process then only ever pay
        #: for the scenarios their queries actually touch.
        self._trees: Dict[str, FaultTree] = {}
        self._sessions: Dict[str, AnalysisSession] = {}
        if isinstance(trees, FaultTree):
            self._register(DEFAULT_SCENARIO, trees)
        else:
            for name, tree in trees.items():
                self._register(name, tree)
        if not self._trees:
            raise QuerySpecError("BatchAnalyzer needs at least one tree")
        #: Variant-name -> {"base", "edits", "probabilities"}.  The
        #: derived trees join self._trees (queries, cost model and
        #: probability validation treat variants as ordinary scenarios);
        #: sessions are forked from the base session on first use.
        self._variants: Dict[str, Dict[str, Any]] = {}
        for variant_name, definition in (variants or {}).items():
            self._register_variant(variant_name, definition)
        # Scenario-scoped probability maps must name a registered
        # scenario — a typo would otherwise silently run the battery
        # against the uniform floor / tree-attached probabilities.
        probabilities = options.probabilities
        unknown = [
            key
            for key, value in probabilities.items()
            if isinstance(value, Mapping) and key not in self._trees
        ]
        if unknown:
            raise QuerySpecError(
                "probability map(s) for unknown scenario(s): "
                + ", ".join(sorted(unknown))
                + " (registered: "
                + ", ".join(sorted(self._trees))
                + ")"
            )
        # Likewise a flat entry no scenario's tree can use is a typo,
        # not a probability — per-scenario filtering would otherwise
        # drop it silently.  The event scan ends once every flat entry is
        # placed, so a battery without flat entries skips it.
        stray = {
            key
            for key, value in probabilities.items()
            if not isinstance(value, Mapping)
        }
        for tree in self._trees.values():
            if not stray:
                break
            stray.difference_update(tree.basic_events)
        if stray:
            raise QuerySpecError(
                "probabilities for event(s) unknown to every scenario: "
                + ", ".join(sorted(stray))
            )

    # ------------------------------------------------------------------
    # Scenarios
    # ------------------------------------------------------------------

    def _register_variant(
        self, name: str, definition: Mapping[str, Any]
    ) -> None:
        """Validate and record one variant definition; its tree is
        materialised now (cheap — pure tree surgery, no BDD work) so
        queries, probability validation and the shard planner's cost
        model can treat the variant as an ordinary scenario."""
        from ..ft.edits import apply_edits, edits_from_any

        if not isinstance(definition, Mapping):
            raise QuerySpecError(
                f"variant {name!r}: definition must be a mapping with "
                "an 'edits' key"
            )
        unknown = set(definition) - {"base", "edits", "probabilities"}
        if unknown:
            raise QuerySpecError(
                f"variant {name!r}: unknown field(s) "
                + ", ".join(sorted(unknown))
            )
        base = str(definition.get("base", DEFAULT_SCENARIO))
        if base in self._variants:
            raise QuerySpecError(
                f"variant {name!r}: base {base!r} is itself a variant "
                "(variants must fork from a registered tree scenario)"
            )
        if base not in self._trees:
            raise QuerySpecError(
                f"variant {name!r}: unknown base scenario {base!r} "
                f"(registered: {', '.join(sorted(self._trees)) or 'none'})"
            )
        if name in self._trees:
            raise QuerySpecError(
                f"variant name {name!r} is already a scenario"
            )
        if "edits" not in definition:
            raise QuerySpecError(f"variant {name!r}: missing 'edits'")
        try:
            edits = edits_from_any(definition["edits"])
            tree = apply_edits(self._trees[base], edits)
        except ReproError as exc:
            raise QuerySpecError(f"variant {name!r}: {exc}") from exc
        probabilities = definition.get("probabilities")
        if probabilities is not None and not isinstance(
            probabilities, Mapping
        ):
            raise QuerySpecError(
                f"variant {name!r}: 'probabilities' must be a mapping"
            )
        self._trees[name] = tree
        self._sessions.pop(name, None)
        self._variants[name] = {
            "base": base,
            "edits": tuple(edits),
            "probabilities": dict(probabilities or {}),
        }

    @property
    def variant_bases(self) -> Dict[str, str]:
        """Variant name -> base scenario name (for the shard planner:
        variants are grouped — and their cost discounted — with their
        base, whose warm kernel they fork)."""
        return {
            name: definition["base"]
            for name, definition in self._variants.items()
        }

    def _register(self, name: str, tree: FaultTree) -> None:
        """Record a scenario tree; the session is built lazily.

        A kernel snapshot registered for ``name`` is validated *now* —
        shape and tree fingerprint — so a stale or foreign snapshot
        raises :class:`~repro.errors.SnapshotError` at construction
        time instead of answering queries from the wrong BDDs later.
        """
        self._validated_kernel(name, tree)
        self._trees[name] = tree
        self._sessions.pop(name, None)

    def _validated_kernel(
        self, name: str, tree: FaultTree
    ) -> Optional[Mapping[str, Any]]:
        """The kernel snapshot registered for ``name`` (or None), after
        shape and fingerprint validation.  The fingerprint is mandatory:
        an entry that cannot prove which tree it was built from must not
        warm-start anything."""
        snapshot = self._snapshots.get(name)
        if snapshot is None:
            return None
        if (
            not isinstance(snapshot, Mapping)
            or "kernel" not in snapshot
            or "tree" not in snapshot
        ):
            raise SnapshotError(
                f"scenario {name!r}: snapshot entries need 'kernel' and "
                "'tree' (fingerprint) keys"
            )
        if snapshot["tree"] != kernel_key(tree):
            raise SnapshotError(
                f"scenario {name!r}: snapshot was taken from a "
                "different tree or under another variable order "
                "(fingerprint mismatch)"
            )
        return snapshot["kernel"]

    def _build_session(self, name: str) -> AnalysisSession:
        # The warm-start / degrade-to-cold protocol lives in
        # repro.service.pool.build_session so the analysis server's
        # session pool and one-shot batteries share it by construction.
        from .pool import build_session

        tree = self._trees[name]
        snapshot = self._validated_kernel(name, tree)
        session, warm = build_session(
            name,
            tree,
            self.options,
            probabilities=self.options.overrides_for(name, tree),
            snapshot=snapshot,
            warnings=self._warnings,
        )
        if snapshot is not None and not warm:
            # A corrupt cache entry must not be retried on the next
            # (lazy) build of this scenario.
            self._snapshots.pop(name, None)
        self._sessions[name] = session
        return session

    @property
    def scenarios(self) -> Tuple[str, ...]:
        """Registered scenario names."""
        return tuple(self._trees)

    @property
    def sessions(self) -> Dict[str, AnalysisSession]:
        """Scenario name -> *built* session (lazily-registered
        scenarios whose sessions were never needed are absent)."""
        return dict(self._sessions)

    def adopt_session(
        self, name: str, session: AnalysisSession
    ) -> AnalysisSession:
        """Install an externally held live session for scenario ``name``.

        This is the server's hot path: a pooled
        :class:`AnalysisSession` (warm kernel, warm caches) is adopted
        into a per-request analyzer so the battery runs against it
        instead of building a fresh session — and therefore answers
        exactly as a long-running sequential analyzer would.  The
        session's tree must match the registered scenario tree
        (fingerprint check), and variants cannot be adopted (they are
        always re-forked from their base's kernel).
        """
        if name in self._variants:
            raise QuerySpecError(
                f"scenario {name!r} is a variant — variant sessions are "
                "forked from their base, not adopted"
            )
        if name not in self._trees:
            raise QuerySpecError(
                f"unknown scenario {name!r} "
                f"(registered: {', '.join(sorted(self._trees)) or 'none'})"
            )
        # The server passes sessions built from the registered tree.
        if session.tree is not self._trees[name] and tree_fingerprint(
            session.tree
        ) != tree_fingerprint(self._trees[name]):
            raise SnapshotError(
                f"scenario {name!r}: adopted session was built from a "
                "different tree (fingerprint mismatch)"
            )
        self._sessions[name] = session
        return session

    @property
    def trees(self) -> Dict[str, FaultTree]:
        """Scenario name -> registered tree (no session is built)."""
        return dict(self._trees)

    def session(self, name: str = DEFAULT_SCENARIO) -> AnalysisSession:
        """The persistent session behind scenario ``name`` (built on
        first use; variant sessions are forked from their base's warm
        kernel rather than built from scratch)."""
        session = self._sessions.get(name)
        if session is not None:
            return session
        variant = self._variants.get(name)
        if variant is not None:
            base_session = self.session(variant["base"])
            # Resolve overrides exactly as a fresh build would (uniform
            # floor, flat entries, scenario-scoped map), then let the
            # variant definition's own probabilities win — so a variant
            # session answers PFL queries identically to a rebuilt one.
            overrides = self.options.overrides_for(name, self._trees[name])
            overrides.update(variant["probabilities"])
            session = base_session.fork_variant(
                name,
                variant["edits"],
                probabilities=overrides,
                tree=self._trees[name],
            )
            self._sessions[name] = session
            return session
        if name not in self._trees:
            raise QuerySpecError(
                f"unknown scenario {name!r} "
                f"(registered: {', '.join(sorted(self._trees)) or 'none'})"
            )
        return self._build_session(name)

    # ------------------------------------------------------------------
    # The batch pipeline
    # ------------------------------------------------------------------

    def run(
        self,
        queries: Iterable[Union[QuerySpec, str, Statement, Mapping[str, Any]]],
    ) -> BatchReport:
        """Answer a battery of queries.

        With ``workers == 1`` this is the in-process three-phase
        pipeline of the module docstring; with ``workers > 1`` the
        battery is sharded over a process pool (results merged back in
        battery order — see :mod:`repro.service.parallel`).
        """
        specs = specs_from_any(queries)
        if self.options.workers > 1 and len(specs) > 1:
            from .parallel import run_parallel

            return run_parallel(self, specs)
        return self._run_specs(specs)

    def prewarm_trees(self, names: Optional[Sequence[str]] = None) -> None:
        """Translate every scenario's tree (or just the ``names`` ones)
        up front (``Psi_FT`` of the top event caches every element on
        the way), so :meth:`kernel_snapshots` — and the worker payloads
        built from the sessions — carry the full per-tree BDDs."""
        for name in self._trees if names is None else names:
            session = self.session(name)
            session.checker.translator.tree_translator.element(
                session.tree.top
            )

    def kernel_snapshots(self) -> Dict[str, Dict[str, Any]]:
        """Per-scenario kernel snapshots (plus tree fingerprints), in
        the shape the ``snapshots=`` constructor argument and
        :meth:`SnapshotStore.get <repro.service.store.SnapshotStore.get>`
        share.  Variant scenarios are omitted: their sessions share the
        base kernel and are re-forked from it in a few compose calls, so
        persisting a second copy of the node store would only bloat the
        store."""
        return {
            name: {
                "tree": kernel_key(self._trees[name]),
                "kernel": self.session(name).kernel_snapshot(),
            }
            for name in self._trees
            if name not in self._variants
        }

    def _worker_config(self) -> Dict[str, Any]:
        """Picklable constructor arguments for a worker-process clone.

        Sessions the parent has already warmed (explicit
        :meth:`prewarm_trees`, a snapshot warm start, or simply an
        earlier sequential batch) ship their element BDDs as kernel
        snapshots, so workers skip tree translation; scenarios whose
        sessions were never built forward the parent's own (already
        validated) snapshot entry, if any.
        """
        snapshots: Dict[str, Dict[str, Any]] = {}
        for name in self._trees:
            if name in self._variants:
                # Variant sessions share their base's kernel; workers
                # re-fork them from the base snapshot in-process, which
                # is cheaper than shipping a second copy of the store.
                continue
            session = self._sessions.get(name)
            if (
                session is not None
                and session.checker.translator.tree_translator.cached_elements
            ):
                snapshots[name] = {
                    "tree": kernel_key(session.tree),
                    "kernel": session.kernel_snapshot(),
                }
            elif name in self._snapshots:
                snapshots[name] = dict(self._snapshots[name])
        variants = {
            name: {
                "base": definition["base"],
                "edits": [edit.to_dict() for edit in definition["edits"]],
                "probabilities": dict(definition["probabilities"]),
            }
            for name, definition in self._variants.items()
        }
        return {
            "trees": {
                name: tree
                for name, tree in self._trees.items()
                if name not in self._variants
            },
            # Per-query governance travels to the workers; the battery
            # deadline does too — each shard runs under it in parallel,
            # and the parent's shard watchdog backs it up.
            "options": replace(self.options, workers=1),
            "snapshots": snapshots,
            "variants": variants,
        }

    @staticmethod
    def _zero_counters() -> Dict[str, Any]:
        """Baseline counters for a session first built *during* a batch
        (everything it has done, it has done for this batch)."""
        return {
            "formula_hits": 0,
            "formula_misses": 0,
            "element_requests": 0,
            "op": OperationCacheStats(),
            "parse_hits": 0,
            "parse_misses": 0,
        }

    def _battery_remaining_ms(self) -> Optional[float]:
        """Milliseconds left of the battery deadline (None = undated)."""
        if self._battery_deadline_at is None:
            return None
        return (self._battery_deadline_at - time.perf_counter()) * 1000.0

    def _query_budget_ms(self, spec: QuerySpec) -> Optional[float]:
        """Effective wall-clock budget for one query: its own
        ``timeout_ms`` (falling back to the analyzer default), clamped
        by whatever is left of the battery deadline."""
        timeout = (
            spec.timeout_ms
            if spec.timeout_ms is not None
            else self.options.query_timeout_ms
        )
        remaining = self._battery_remaining_ms()
        if timeout is None:
            return remaining
        if remaining is None:
            return timeout
        return min(timeout, remaining)

    def _error_result(
        self, spec: QuerySpec, message: str, kind: Optional[str]
    ) -> QueryResult:
        """A structured failure row for a query that never evaluated."""
        return QueryResult(
            id=spec.id,
            kind=spec.kind,
            tree=spec.tree,
            formula=(
                spec.formula if isinstance(spec.formula, str) else None
            ),
            ok=False,
            elapsed_ms=0.0,
            error=message,
            error_kind=kind,
        )

    def _run_specs(self, specs: List[QuerySpec]) -> BatchReport:
        """The in-process three-phase pipeline over normalised specs."""
        batch_start = time.perf_counter()
        deadline_ms = self.options.deadline_ms
        if deadline_ms is not None:
            self._battery_deadline_at = batch_start + deadline_ms / 1000.0
        else:
            self._battery_deadline_at = None
        held = dict(self._sessions)
        before = {name: session.snapshot() for name, session in held.items()}

        # Phase 1: parse everything up front.  Per-query errors are
        # (message, error_kind) pairs from here on.
        parse_start = time.perf_counter()
        parsed: List[
            Tuple[QuerySpec, Optional[Statement], Optional[Tuple[str, str]]]
        ] = []
        to_warm: Dict[str, List[Statement]] = {}
        seen: Dict[str, set] = {}
        #: (scenario, statement) -> tightest per-query budget among the
        #: queries that need it, so shared translation is governed by
        #: the most impatient dependent (plus the battery deadline).
        warm_timeout: Dict[Tuple[str, Statement], Optional[float]] = {}
        statement_count = 0
        for spec in specs:
            try:
                session = self.session(spec.tree)
                statements = statements_for(spec, session)
            except ReproError as error:
                parsed.append(
                    (spec, None, (str(error), error_kind(error)))
                )
                continue
            parsed.append((spec, statements[0] if statements else None, None))
            statement_count += len(statements)
            bucket = seen.setdefault(spec.tree, set())
            timeout = (
                spec.timeout_ms
                if spec.timeout_ms is not None
                else self.options.query_timeout_ms
            )
            for statement in statements:
                key = (spec.tree, statement)
                if statement not in bucket:
                    bucket.add(statement)
                    to_warm.setdefault(spec.tree, []).append(statement)
                    warm_timeout[key] = timeout
                elif timeout is not None:
                    prior = warm_timeout.get(key)
                    if prior is None or timeout < prior:
                        warm_timeout[key] = timeout
        parse_ms = (time.perf_counter() - parse_start) * 1000.0

        # Phase 2: shared translation, one Algorithm 1 run per distinct
        # statement per scenario — governed, so a pathological formula
        # cannot blow past the deadline while *building* its BDD.
        translate_start = time.perf_counter()
        translate_errors: Dict[Tuple[str, Statement], Tuple[str, str]] = {}
        for name, statements in to_warm.items():
            for statement in statements:
                # Looked up per statement: a deep-recursion abort may
                # have dropped the scenario's kernel for a rebuild.
                session = self.session(name)
                manager = session.checker.manager
                timeout = warm_timeout.get((name, statement))
                remaining = self._battery_remaining_ms()
                budget = timeout
                if remaining is not None and (
                    budget is None or remaining < budget
                ):
                    budget = remaining
                if budget is not None and budget <= 0:
                    translate_errors[(name, statement)] = (
                        "battery deadline exceeded before translation",
                        QueryDeadlineError.kind,
                    )
                    continue
                if budget is not None:
                    manager.governor = Governor(
                        deadline_ms=budget, label=f"translate[{name}]"
                    ).start()
                try:
                    session.prewarm(statement)
                except ReproError as error:
                    translate_errors[(name, statement)] = (
                        str(error), error_kind(error)
                    )
                except RecursionError:
                    translate_errors[(name, statement)] = (
                        self._abort_deep_recursion(name)
                    )
                finally:
                    manager.governor = None
        translate_ms = (time.perf_counter() - translate_start) * 1000.0

        # Phase 3: evaluate each query against the warm caches.
        results: List[QueryResult] = []
        for spec, statement, error in parsed:
            if error is None and statement is not None:
                error = translate_errors.get((spec.tree, statement))
            if error is not None:
                message, kind = error
                results.append(self._error_result(spec, message, kind))
                continue
            remaining = self._battery_remaining_ms()
            if remaining is not None and remaining <= 0:
                # Budget spent: the battery still completes — every
                # unanswered query gets a structured deadline row.
                results.append(
                    self._error_result(
                        spec,
                        f"battery deadline of {deadline_ms:g} ms "
                        "exceeded before this query evaluated",
                        QueryDeadlineError.kind,
                    )
                )
                continue
            results.append(self._evaluate(spec, statement))
            # Query boundaries are safe points: results are plain Python
            # data by now, so dead intermediate BDDs may be reclaimed and
            # the order resifted before the next query.
            self.session(spec.tree).checker.manager.checkpoint()

        unique = sum(len(bucket) for bucket in seen.values())
        elapsed_ms = (time.perf_counter() - batch_start) * 1000.0
        stats: Dict[str, Any] = {
            "queries": {
                "total": len(specs),
                "errors": sum(1 for r in results if not r.ok),
                "statements": statement_count,
                "unique_statements": unique,
                "structural_dedup": statement_count - unique,
            },
            "phases": {
                "parse_ms": round(parse_ms, 3),
                "translate_ms": round(translate_ms, 3),
            },
            "scenarios": {
                name: self._scenario_stats(
                    self.session(name),
                    before[name]
                    if self._sessions.get(name) is held.get(name)
                    else self._zero_counters(),
                )
                for name in sorted(seen)
            },
        }
        if self._warnings:
            # Structured degradation notes (snapshot integrity
            # fallbacks), drained per battery.
            stats["warnings"] = list(self._warnings)
            self._warnings = []
        return BatchReport(
            results=tuple(results), stats=stats, elapsed_ms=elapsed_ms
        )

    # Convenience wrappers -------------------------------------------------

    def check_many(
        self,
        formulas: Iterable[Union[str, Statement]],
        tree: str = DEFAULT_SCENARIO,
    ) -> List[Optional[bool]]:
        """Truth values for a battery of layer-2 checks (None on error)."""
        report = self.run(
            QuerySpec(id=f"q{i}", formula=formula, tree=tree)
            for i, formula in enumerate(formulas, start=1)
        )
        return [result.holds for result in report.results]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _abort_deep_recursion(self, name: str) -> Tuple[str, str]:
        """The (message, error_kind) row for a kernel recursion deeper
        than Python's recursion limit (one AND gate over 1,500 events).
        Runs the manager's abort protocol; a kernel that then fails
        ``check_invariants`` is dropped with every session on it, so the
        scenario is rebuilt on next use and never pooled.  Under
        ``python -O`` that check is made of stripped asserts and cannot
        vouch for the kernel, so the kernel is always dropped."""
        manager = self._sessions[name].checker.manager
        manager._governed_abort()
        try:
            if not __debug__:
                raise AssertionError("kernel invariants are unchecked")
            manager.check_invariants()
        except AssertionError:
            for other, session in list(self._sessions.items()):
                if session.checker.manager is manager:
                    del self._sessions[other]
        return (
            f"scenario {name!r}: a BDD operation recursed past Python's "
            f"recursion limit ({sys.getrecursionlimit()})",
            ResourceLimitError.kind,
        )

    def _evaluate(
        self, spec: QuerySpec, statement: Optional[Statement]
    ) -> QueryResult:
        session = self.session(spec.tree)
        checker = session.checker
        start = time.perf_counter()
        fields: Dict[str, Any] = {}
        formula_text = (
            format_statement(statement) if statement is not None else None
        )
        error: Optional[str] = None
        kind: Optional[str] = None
        # Per-query governance: the spec's own timeout (or the analyzer
        # default), clamped by the battery deadline.  The governor is
        # removed in the finally below, so a trip never leaks into the
        # next query; its abort protocol leaves the kernel consistent.
        budget = self._query_budget_ms(spec)
        manager = checker.manager
        if budget is not None:
            manager.governor = Governor(
                deadline_ms=max(budget, 1e-3), label=f"query {spec.id}"
            ).start()
        if os.environ.get("REPRO_CHAOS"):
            from ..testing.chaos import governor_for

            tripper = governor_for(spec.id)
            if tripper is not None:
                manager.governor = tripper
        try:
            # One governed safe point at query start: catches a battery
            # deadline that expired between queries (and gives
            # budget-style governors a guaranteed tick even for queries
            # whose evaluation is served entirely from caches).
            if manager.governor is not None:
                manager._governed_point(manager.node_count())
            # One registry dispatch for every kind: promotion first (a
            # `check` whose formula parsed to P(...) / SYNTHESIZE(...)
            # is served by the specialised kind, so query files stay
            # kind-free), then the kind's execute hook.
            fields = execute_kind(session, spec, statement)
        except ReproError as exc:
            error = str(exc)
            kind = error_kind(exc)
        except RecursionError:
            error, kind = self._abort_deep_recursion(spec.tree)
        finally:
            manager.governor = None
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        return QueryResult(
            id=spec.id,
            kind=spec.kind,
            tree=spec.tree,
            formula=formula_text,
            ok=error is None,
            elapsed_ms=elapsed_ms,
            error=error,
            error_kind=kind,
            **fields,
        )

    def _scenario_stats(
        self, session: AnalysisSession, before: Dict[str, Any]
    ) -> Dict[str, Any]:
        after = session.snapshot()
        op_delta = after["op"].delta(before["op"])
        op_delta["hits"] = after["op"].hits - before["op"].hits
        op_delta["misses"] = after["op"].misses - before["op"].misses
        manager = session.checker.manager
        kernel = manager.cache_stats()
        return {
            "translation": {
                "formula_hits": after["formula_hits"] - before["formula_hits"],
                "formula_misses": (
                    after["formula_misses"] - before["formula_misses"]
                ),
                "element_requests": (
                    after["element_requests"] - before["element_requests"]
                ),
            },
            "parse": {
                "hits": after["parse_hits"] - before["parse_hits"],
                "misses": after["parse_misses"] - before["parse_misses"],
            },
            "bdd": op_delta,
            "bdd_nodes": manager.node_count(),
            "bdd_peak_nodes": manager.peak_node_count(),
            # live unique-table entries (the terminal is stored outside it)
            "bdd_unique_table": kernel["unique_table_size"],
            # Open-addressed table health, surfaced in `bfl batch`
            # reports: capacity/probing behaviour of the unique table and
            # the lossy computed tables.  Collision/resize counters are
            # monotone for the manager's lifetime.
            "tables": {
                "unique": {
                    "capacity": kernel["unique_capacity"],
                    "entries": kernel["unique_table_size"],
                    "collisions": kernel["ut_collisions"],
                    "resizes": kernel["ut_resizes"],
                    "max_probe": kernel["ut_max_probe"],
                },
                "caches": {
                    "capacity": kernel["cache_capacity"],
                    "evictions": kernel["cache_evictions"],
                    "resizes": kernel["cache_resizes"],
                },
            },
            # Kernel memory management (garbage collection + in-place
            # reordering), surfaced in `bfl batch` reports.
            "memory": {
                "live_nodes": kernel["live_nodes"],
                "peak_live_nodes": kernel["peak_live_nodes"],
                "free_list": kernel["free_list"],
                "gc_runs": kernel["gc_runs"],
                "reclaimed": kernel["reclaimed"],
                # The weighted-evaluation cache shares the GC/reorder
                # lifecycle (dropped whenever indices can be reused).
                "prob_cache": kernel["prob_cache_size"],
            },
            "reorder": {
                "swaps": kernel["swaps"],
                "sift_runs": kernel["sift_runs"],
                "auto_reorders": kernel["auto_reorders"],
                "order": list(manager.variables),
            },
        }
