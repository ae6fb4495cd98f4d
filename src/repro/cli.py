"""``bfl`` — command-line front end for the library.

Sub-commands::

    bfl check   --tree T.dft "forall (IS => MoT)"       model check
    bfl allsat  --tree T.dft "MCS(IWoS) & H4"           satisfaction set
    bfl mcs     --tree T.dft [--element MoT]            minimal cut sets
    bfl mps     --tree T.dft [--element MoT]            minimal path sets
    bfl cex     --tree T.dft "MCS(e1)" --bits 0,1,0     counterexample
    bfl synth   --tree T.dft "TLE" [--candidates a,b]   repair regions
    bfl show    --tree T.dft [--failed IW,H3]           ASCII rendering
    bfl dot     --tree T.dft [--failed IW,H3]           Graphviz export
    bfl batch   queries.json [--output report.json]     batch service run
    bfl batch   --list-kinds                            query-kind registry
    bfl serve   --port 8346 --store kernels/            analysis daemon
    bfl covid-report                                    Sec. VII analysis

``--tree covid`` (the default) loads the built-in COVID-19 tree of Fig. 2;
any other value is read as a Galileo file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from . import __version__
from .casestudy.covid import build_covid_tree
from .casestudy.report import render_report
from .checker.engine import ModelChecker
from .errors import ReproError
from .ft.galileo import load
from .ft.tree import FaultTree
from .logic.parser import parse_request
from .logic.scope import MinimalityScope
from .service.server import ServerConfig
from .viz.ascii_tree import render_tree
from .viz.dot import tree_to_dot
from .viz.propagation import counterexample_view


def _load_tree(spec: str) -> FaultTree:
    if spec == "covid":
        return build_covid_tree()
    return load(spec)


def _split_names(text: Optional[str]) -> Optional[List[str]]:
    if text is None:
        return None
    return [name for name in (part.strip() for part in text.split(",")) if name]


def _parse_bits(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    return [int(part.strip()) for part in text.split(",")]


def _add_tree_option(
    parser: argparse.ArgumentParser, with_scope: bool = True
) -> None:
    parser.add_argument(
        "--tree",
        default="covid",
        help="Galileo file, or 'covid' for the built-in Fig. 2 tree",
    )
    if with_scope:
        # bfl batch/serve take --scope from _ANALYSIS_FLAGS instead.
        parser.add_argument(
            "--scope",
            choices=[scope.value for scope in MinimalityScope],
            default=MinimalityScope.SUPPORT.value,
            help="MCS/MPS minimality scope (see DESIGN.md)",
        )


#: The analysis flags of ``bfl batch`` and ``bfl serve``: (AnalysisOptions
#: field, flag, commands that take it, argparse keywords).  Each flag
#: stores into its field name and defaults to None, so a flag that was
#: not given leaves the query-file key (or the command's default) in
#: place — see :func:`_analysis_options` and docs/operations.md.
_ANALYSIS_FLAGS = (
    ("scope", "--scope", ("batch", "serve"), {
        "choices": [scope.value for scope in MinimalityScope],
        "help": "MCS/MPS minimality scope (default support; DESIGN.md)",
    }),
    ("auto_gc", "--gc", ("batch",), {
        "action": "store_true",
        "help": "arm automatic BDD garbage collection between queries "
        "(counters under stats.scenarios.<name>.memory)",
    }),
    ("auto_gc", "--no-gc", ("serve",), {
        "action": "store_false",
        "help": "disable automatic BDD garbage collection (on by default "
        "for the daemon: long-lived sessions accumulate dead nodes)",
    }),
    ("auto_reorder", "--auto-reorder", ("batch", "serve"), {
        "action": "store_true",
        "help": "arm automatic in-place variable reordering (Rudell "
        "sifting) when live BDD nodes grow past the kernel trigger",
    }),
    ("uniform", "--uniform", ("batch", "serve"), {
        "type": float,
        "help": "uniform failure probability for PFL queries",
    }),
    ("probabilities", "--probabilities", ("serve",), {
        "help": "per-event probabilities, e.g. 'IW=0.1,H1=0.02'",
    }),
    ("workers", "--workers", ("batch",), {
        "type": int,
        "help": "answer the battery over N worker processes (balanced "
        "shards, deterministic merge)",
    }),
    ("deadline_ms", "--deadline", ("batch", "serve"), {
        "type": float,
        "metavar": "MS",
        "help": "whole-battery wall-clock budget; queries that cannot "
        "start before it expires fail with error_kind=deadline",
    }),
    ("query_timeout_ms", "--query-timeout", ("batch", "serve"), {
        "type": float,
        "metavar": "MS",
        "help": "default per-query budget (a query's own timeout_ms "
        "wins); an expired query fails with error_kind=deadline",
    }),
    ("shard_retries", "--shard-retries", ("batch",), {
        "type": int,
        "metavar": "N",
        "help": "with --workers: resubmit a crashed or hung shard up to "
        "N times (default 2)",
    }),
    ("retry_backoff_ms", "--retry-backoff", ("batch",), {
        "type": float,
        "metavar": "MS",
        "help": "base delay before a shard retry, doubled each round "
        "(default 250)",
    }),
    ("watchdog_ms", "--watchdog", ("batch",), {
        "type": float,
        "metavar": "MS",
        "help": "with --workers: a shard with no result after MS is hung; "
        "kill its pool and retry it (off by default)",
    }),
)


#: The query-file keys of ``bfl batch`` that are not analysis options
#: (those are ``AnalysisOptions.file_keys()``); any other key exits 2.
_BATCH_FILE_KEYS = ("queries", "store", "tree", "trees", "variants")


def _add_analysis_flags(
    parser: argparse.ArgumentParser, command: str
) -> None:
    for field, flag, commands, kwargs in _ANALYSIS_FLAGS:
        if command in commands:
            parser.add_argument(flag, dest=field, default=None, **kwargs)


def _analysis_options(args: argparse.Namespace, data: dict, base=None):
    """The :class:`~repro.service.options.AnalysisOptions` of a
    ``bfl batch``/``bfl serve`` run: ``base`` (default: the API
    defaults), then the query file's keys, then the flags given."""
    from .service import AnalysisOptions

    flags = {
        field: getattr(args, field, None) for field, *_ in _ANALYSIS_FLAGS
    }
    if flags["probabilities"] is not None:
        flags["probabilities"] = _parse_probability(flags["probabilities"])
    return AnalysisOptions.from_mapping(data, flags, base)


def _store_kernels(store, analyzer, names: Sequence[str]) -> None:
    """Translate the ``names`` scenarios' trees and put their kernels
    into ``store`` under their kernel keys."""
    from .service import kernel_key

    analyzer.prewarm_trees(names)
    for name in names:
        store.put(
            kernel_key(analyzer.trees[name]),
            analyzer.session(name).kernel_snapshot(),
        )


def _add_vector_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--failed", help="comma-separated failed basic events"
    )
    parser.add_argument(
        "--bits", help="comma-separated 0/1 bits in declaration order"
    )


def _checker(args: argparse.Namespace) -> ModelChecker:
    return ModelChecker(
        _load_tree(args.tree), scope=MinimalityScope(args.scope)
    )


def _cmd_check(args: argparse.Namespace) -> int:
    checker = _checker(args)
    statement, satset = parse_request(args.formula)
    if satset:
        print(checker.satisfaction_set(statement).describe(view=args.view))
        return 0
    failed = _split_names(args.failed)
    bits = _parse_bits(args.bits)
    if failed is None and bits is None:
        result = checker.check(statement)
    else:
        result = checker.check(statement, failed=failed, bits=bits)
    print("holds" if result else "does NOT hold")
    return 0 if result else 1


def _cmd_allsat(args: argparse.Namespace) -> int:
    checker = _checker(args)
    statement, _ = parse_request(args.formula)
    print(checker.satisfaction_set(statement).describe(view=args.view))
    return 0


def _cmd_minimal_sets(args: argparse.Namespace, path_sets: bool) -> int:
    checker = _checker(args)
    if path_sets:
        sets = checker.minimal_path_sets(args.element)
        kind = "minimal path sets"
    else:
        sets = checker.minimal_cut_sets(args.element)
        kind = "minimal cut sets"
    target = args.element or checker.tree.top
    print(f"{len(sets)} {kind} for {target}:")
    for item in sets:
        print("  {" + ", ".join(sorted(item)) + "}")
    return 0


def _cmd_cex(args: argparse.Namespace) -> int:
    checker = _checker(args)
    statement, _ = parse_request(args.formula)
    cex = checker.counterexample(
        statement,
        failed=_split_names(args.failed),
        bits=_parse_bits(args.bits),
        method=args.method,
    )
    print(counterexample_view(checker.tree, cex))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    vector = None
    failed = _split_names(args.failed)
    if failed is not None:
        vector = tree.vector_from_failed(failed)
    print(render_tree(tree, vector, show_descriptions=args.descriptions))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    vector = None
    failed = _split_names(args.failed)
    if failed is not None:
        vector = tree.vector_from_failed(failed)
    print(tree_to_dot(tree, vector, show_descriptions=args.descriptions))
    return 0


def _cmd_covid_report(_: argparse.Namespace) -> int:
    print(render_report())
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    """Must-1 / must-0 / don't-care repair regions for a property.

    The query routes through the query-kind registry exactly like a
    batch ``kind: "synthesize"`` entry, so the CLI, the batch service
    and ``ModelChecker.execute`` cannot drift apart.
    """
    import json

    checker = _checker(args)
    spec = {"id": "synth", "kind": "synthesize", "formula": args.formula}
    candidates = _split_names(args.candidates)
    if candidates:
        spec["candidates"] = candidates
    result = checker.execute(spec)
    if not result.ok:
        print(f"error: {result.error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0 if result.holds else 1
    regions = result.synthesis
    print(f"target: {result.formula}")
    if not regions["satisfiable"]:
        print("the property is unsatisfiable: no repair region exists")
        return 1
    def _fmt(names):
        return ", ".join(names) if names else "(none)"
    print(f"candidates: {_fmt(regions['candidates'])}")
    print(f"must fail (must-1): {_fmt(regions['must_1'])}")
    print(f"must be operational (must-0): {_fmt(regions['must_0'])}")
    print(f"don't care: {_fmt(regions['dont_care'])}")
    print(f"satisfying candidate configurations: {regions['choices']}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a query file through the batch service and emit a JSON report.

    Query-file format (JSON)::

        {
          "tree": "covid",                  // default scenario (optional)
          "trees": {"fig1": "fig1.dft"},    // extra named scenarios
          "scope": "support",
          "gc": true,                       // automatic BDD garbage collection
          "auto_reorder": false,            // automatic in-place sifting
          "workers": 4,                     // multi-process shard execution
          "store": "kernels/",              // kernel snapshot store directory
          "deadline_ms": 60000,             // whole-battery wall-clock budget
          "query_timeout_ms": 5000,         // default per-query budget
          "shard_retries": 2,               // crashed/hung shard resubmits
          "retry_backoff_ms": 250,          // base retry delay (doubles)
          "watchdog_ms": 30000,             // hung-worker detection
          "uniform": 0.1,                   // failure probability floor
          "probabilities": {"H1": 0.02},    // per-event (or per-scenario) map
          "variants": {                     // copy-on-write what-if scenarios
            "no-masks": {"base": "default", "edits": [
              {"op": "gate-swap", "gate": "MoT", "type": "and"},
              {"op": "weight-change", "event": "H1", "probability": 0.5}
            ]}
          },
          "queries": [
            {"id": "p1", "formula": "forall (IS => MoT)", "timeout_ms": 500},
            {"formula": "[[ MCS(MoT) & IS ]]"},
            {"kind": "mcs", "element": "MoT"},
            {"kind": "check", "formula": "MCS(TLE)", "failed": ["H1", "VW"]},
            {"kind": "mps", "tree": "fig1"},
            {"formula": "P(MoT | H1 & VW) >= 0.3"},
            {"kind": "probability", "formula": "MCS(IWoS) & H4"}
          ]
        }

    ``--workers N`` (or the file's ``workers`` key; the flag wins) fans
    the battery out over N worker processes.  ``--store DIR`` (or the
    file's ``store`` key) is the content-addressed kernel-snapshot
    directory that ``bfl serve --store`` uses too, one
    ``<kernel-key>.snap`` entry per tree (and variable order).  Per
    scenario, a store hit warm-starts the session; a miss is translated
    up front and put into the store before the battery runs.  Either
    way this run's workers warm-start, and the next run (or a server on
    the same directory) skips tree translation.

    ``variants`` declares copy-on-write what-if scenarios: each entry
    names a base scenario (default ``"default"``) plus an edit script
    (``gate-swap`` / ``subtree-replace`` / ``event-add`` /
    ``event-remove`` / ``weight-change``, see :mod:`repro.ft.edits`)
    and optional probability overrides.  Queries target a variant by
    scenario name exactly like a tree from ``trees``; its session is
    forked from the warm base kernel instead of being rebuilt.
    ``--variants PATH`` merges another JSON file of such definitions on
    top of the query file's key (the file wins on name clashes).

    Exit code 0 when every query succeeded, 1 when any individual query
    errored (the report still lists all of them), 2 on a malformed file
    — including any key not listed above, so a typo such as
    ``"deadline"`` for ``"deadline_ms"`` cannot silently run under the
    defaults.
    """
    import json

    from .errors import SnapshotIntegrityError
    from .service import (
        AnalysisOptions,
        BatchAnalyzer,
        SnapshotStore,
        kernel_key,
    )
    from .service.queries import QuerySpecError

    if args.list_kinds:
        _print_kinds()
        return 0
    if args.queries is None:
        raise QuerySpecError(
            "bfl batch needs a query file (or --list-kinds)"
        )
    try:
        with open(args.queries, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise QuerySpecError(f"cannot read query file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise QuerySpecError(
            f"query file {args.queries!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict) or "queries" not in data:
        raise QuerySpecError(
            "query file must be a JSON object with a 'queries' list"
        )
    if "snapshot" in data:
        raise QuerySpecError(
            "the query-file key 'snapshot' is gone: use 'store' (a "
            "kernel-snapshot directory, shared with bfl serve --store)"
        )
    allowed = _BATCH_FILE_KEYS + AnalysisOptions.file_keys()
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise QuerySpecError(
            "unknown query-file key(s) "
            + ", ".join(repr(key) for key in unknown)
            + " (allowed: "
            + ", ".join(sorted(allowed))
            + ")"
        )

    extra_trees = data.get("trees", {})
    if not isinstance(extra_trees, dict):
        raise QuerySpecError(
            "'trees' must map scenario names to tree specs"
        )
    scenarios = {"default": _load_tree(data.get("tree", args.tree))}
    for name, spec in extra_trees.items():
        scenarios[name] = _load_tree(spec)
    options = _analysis_options(args, data)

    store_path = args.store or data.get("store")
    if store_path is not None and not isinstance(store_path, str):
        raise QuerySpecError(
            f"'store' must be a directory path, got {store_path!r}"
        )
    store = SnapshotStore(store_path) if store_path else None
    snapshots = {}
    if store is not None:
        for name, tree in scenarios.items():
            entry = store.get(kernel_key(tree))
            if entry is not None:
                snapshots[name] = entry

    variants = data.get("variants", {})
    if not isinstance(variants, dict):
        raise QuerySpecError(
            "'variants' must map variant names to definitions"
        )
    if args.variants:
        try:
            with open(args.variants, "r", encoding="utf-8") as handle:
                extra_variants = json.load(handle)
        except OSError as exc:
            raise QuerySpecError(
                f"cannot read variants file: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise QuerySpecError(
                f"variants file {args.variants!r} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(extra_variants, dict):
            raise QuerySpecError(
                "variants file must be a JSON object mapping variant "
                "names to definitions"
            )
        variants = {**variants, **extra_variants}

    analyzer = BatchAnalyzer(
        scenarios, options, snapshots=snapshots, variants=variants
    )
    if store is not None:
        # Store misses: translate the trees now so this run's workers
        # warm-start too, then persist them for the next run.
        _store_kernels(
            store, analyzer, [name for name in scenarios if name not in snapshots]
        )
    report = analyzer.run(data["queries"])
    if store is not None:
        # A hit that failed its integrity check was rebuilt cold; put
        # the rebuilt kernel back so the next run warm-starts again.
        _store_kernels(
            store,
            analyzer,
            sorted(
                {
                    warning["scenario"]
                    for warning in report.stats.get("warnings", ())
                    if warning["kind"] == SnapshotIntegrityError.kind
                }
            ),
        )
    rendered = report.to_json(indent=2 if args.pretty else None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    else:
        print(rendered)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived analysis daemon (see docs/server.md).

    Scenarios are fixed at startup: ``--tree`` registers the
    ``default`` scenario and each ``--scenario NAME=TREE`` adds a named
    one.  Batteries arrive as JSON over HTTP (``POST /battery``, the
    ``bfl batch`` query-file format), sessions stay hot in an LRU pool,
    and ``--store DIR`` persists kernel snapshots so evicted or cold
    scenarios — and the next server process — warm-start instead of
    rebuilding.  SIGTERM/SIGINT drain gracefully.
    """
    from .service import AnalysisServer
    from .service.queries import QuerySpecError
    from .service.server import SERVE_DEFAULTS

    trees = {"default": _load_tree(args.tree)}
    for item in args.scenario or []:
        name, sep, spec = item.partition("=")
        name = name.strip()
        if not sep or not name or not spec.strip():
            raise QuerySpecError(
                f"--scenario expects NAME=TREE, got {item!r}"
            )
        trees[name] = _load_tree(spec.strip())
    config = ServerConfig(
        host=args.host,
        port=args.port,
        pool_size=args.pool_size,
        store_path=args.store,
        max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        analysis=_analysis_options(args, {}, SERVE_DEFAULTS),
    )
    server = AnalysisServer(trees, config)

    def _ready(bound: "AnalysisServer") -> None:
        print(
            f"bfl serve: listening on http://{config.host}:{bound.port} "
            f"({len(trees)} scenario(s), pool={config.pool_size}, "
            f"store={args.store or 'off'})",
            flush=True,
        )

    server.run(ready=_ready)
    print("bfl serve: drained, exiting", flush=True)
    return 0


def _print_kinds() -> None:
    """``bfl batch --list-kinds``: the query-kind registry, one row per
    kind with its required spec fields (the single source of truth the
    batch service validates against)."""
    from .engine import REGISTRY

    width = max(len(kind.name) for kind in REGISTRY)
    for kind in REGISTRY:
        required = ", ".join(kind.required_fields()) or "-"
        optional = ", ".join(kind.accepts)
        line = f"{kind.name:<{width}}  requires: {required}"
        if optional:
            line += f"  accepts: {optional}"
        print(line)
        print(f"{'':<{width}}  {kind.summary}  [{kind.cli}]")


def _parse_probability(text: Optional[str]) -> dict:
    """``'IW=0.1,H1=0.02'`` -> ``{"IW": 0.1, "H1": 0.02}``; a value that
    is no number fails with the analysis-options message."""
    from .service.options import check_probability

    if not text:
        return {}
    overrides = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        try:
            overrides[name] = float(value)
        except ValueError:
            check_probability(f"probability for {name!r}", value.strip())
    return overrides


def _cli_overrides(args: argparse.Namespace, tree: FaultTree) -> dict:
    """``--probabilities`` over a ``--uniform`` floor (bfl prob/importance)."""
    overrides = _parse_probability(args.probabilities)
    if args.uniform is None:
        return overrides
    return {name: overrides.get(name, args.uniform) for name in tree.basic_events}


def _cmd_importance(args: argparse.Namespace) -> int:
    from .prob import importance_table, render_importance_table

    tree = _load_tree(args.tree)
    overrides = _cli_overrides(args, tree)
    rows = importance_table(tree, element=args.element, overrides=overrides)
    print(render_importance_table(rows))
    return 0


def _cmd_probability(args: argparse.Namespace) -> int:
    from .logic.ast_nodes import Formula, ProbabilityQuery
    from .logic.parser import parse
    from .prob import ProbabilityChecker

    tree = _load_tree(args.tree)
    checker = ProbabilityChecker(tree, overrides=_cli_overrides(args, tree))
    statement = parse(args.query.strip())
    if isinstance(statement, ProbabilityQuery):
        outcome = checker.evaluate(statement)
        if outcome.condition_probability is not None:
            print(f"P(evidence) = {outcome.condition_probability:.6g}")
        if outcome.holds is None:
            print(f"P = {outcome.value:.6g}")
            return 0
        print(
            f"P = {outcome.value:.6g}; query "
            f"{'holds' if outcome.holds else 'does NOT hold'}"
        )
        return 0 if outcome.holds else 1
    if not isinstance(statement, Formula):
        print(
            "error: bfl prob expects a layer-1 formula or a P(...) query",
            file=sys.stderr,
        )
        return 2
    value = checker.probability(statement)
    print(f"P = {value:.6g}")
    return 0


def _cmd_modules(args: argparse.Namespace) -> int:
    from .ft.modules import modularization_report

    tree = _load_tree(args.tree)
    for line in modularization_report(tree):
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="bfl",
        description="BFL: a logic to reason about fault trees (DSN 2022 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="model check a formula/query")
    _add_tree_option(p_check)
    _add_vector_options(p_check)
    p_check.add_argument("formula", help="BFL DSL text (or [[ ... ]])")
    p_check.add_argument(
        "--view", choices=["failed", "operational", "vectors"], default="failed"
    )
    p_check.set_defaults(handler=_cmd_check)

    p_allsat = sub.add_parser("allsat", help="all satisfying vectors")
    _add_tree_option(p_allsat)
    p_allsat.add_argument("formula")
    p_allsat.add_argument(
        "--view", choices=["failed", "operational", "vectors"], default="failed"
    )
    p_allsat.set_defaults(handler=_cmd_allsat)

    p_mcs = sub.add_parser("mcs", help="minimal cut sets")
    _add_tree_option(p_mcs)
    p_mcs.add_argument("--element")
    p_mcs.set_defaults(handler=lambda args: _cmd_minimal_sets(args, False))

    p_mps = sub.add_parser("mps", help="minimal path sets")
    _add_tree_option(p_mps)
    p_mps.add_argument("--element")
    p_mps.set_defaults(handler=lambda args: _cmd_minimal_sets(args, True))

    p_cex = sub.add_parser("cex", help="counterexample (Algorithm 4)")
    _add_tree_option(p_cex)
    _add_vector_options(p_cex)
    p_cex.add_argument("formula")
    p_cex.add_argument(
        "--method", choices=["algorithm4", "closest"], default="algorithm4"
    )
    p_cex.set_defaults(handler=_cmd_cex)

    p_synth = sub.add_parser(
        "synth",
        help="must-1/must-0/don't-care repair regions for a property",
    )
    _add_tree_option(p_synth)
    p_synth.add_argument(
        "formula", help="layer-1 target property, or SYNTHESIZE(...) text"
    )
    p_synth.add_argument(
        "--candidates",
        help="comma-separated candidate basic events (default: all; may "
        "also be embedded in the SYNTHESIZE(phi; e1, e2) text)",
    )
    p_synth.add_argument(
        "--json", action="store_true", help="emit the JSON result row"
    )
    p_synth.set_defaults(handler=_cmd_synth)

    p_show = sub.add_parser("show", help="render the tree as ASCII art")
    _add_tree_option(p_show)
    p_show.add_argument("--failed")
    p_show.add_argument("--descriptions", action="store_true")
    p_show.set_defaults(handler=_cmd_show)

    p_dot = sub.add_parser("dot", help="export the tree to Graphviz DOT")
    _add_tree_option(p_dot)
    p_dot.add_argument("--failed")
    p_dot.add_argument("--descriptions", action="store_true")
    p_dot.set_defaults(handler=_cmd_dot)

    p_batch = sub.add_parser(
        "batch",
        help="answer a JSON battery of queries via the service layer",
        description="Flags win over the query file's keys; "
        "docs/operations.md tabulates every analysis option.",
    )
    _add_tree_option(p_batch, with_scope=False)
    p_batch.add_argument(
        "queries", nargs="?", help="JSON query file (see docs)"
    )
    p_batch.add_argument(
        "--list-kinds",
        action="store_true",
        help="print every registered query kind with its required spec "
        "fields and exit",
    )
    p_batch.add_argument(
        "--output", help="write the JSON report here instead of stdout"
    )
    p_batch.add_argument(
        "--pretty", action="store_true", help="indent the JSON report"
    )
    p_batch.add_argument(
        "--store",
        metavar="DIR",
        help="content-addressed kernel-snapshot directory, the same "
        "layout as bfl serve --store: scenarios found there warm-start, "
        "the rest are translated and stored before the run, so repeat "
        "runs (and this run's workers) skip fault-tree translation "
        "(overrides the query file's 'store' key)",
    )
    p_batch.add_argument(
        "--variants",
        metavar="FILE",
        help="JSON file of copy-on-write what-if scenarios (variant "
        "name -> {base, edits, probabilities}), merged over the query "
        "file's 'variants' key; variant sessions fork the warm base "
        "kernel instead of rebuilding per scenario",
    )
    _add_analysis_flags(p_batch, "batch")
    p_batch.set_defaults(handler=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived analysis daemon (JSON battery API "
        "over HTTP, warm session pool + snapshot store)",
        description="Analysis flags set the server defaults; a request's "
        "own probabilities, uniform, deadline_ms and query_timeout_ms "
        "win.  docs/operations.md tabulates every analysis option.",
    )
    _add_tree_option(p_serve, with_scope=False)
    p_serve.add_argument(
        "--scenario",
        action="append",
        metavar="NAME=TREE",
        help="register an extra named scenario (Galileo file or "
        "'covid'); repeatable.  --tree provides the 'default' scenario",
    )
    # The server defaults are ServerConfig's own, stated once there.
    serve_defaults = ServerConfig()
    p_serve.add_argument(
        "--host", default=serve_defaults.host, help="bind address"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=serve_defaults.port,
        help="bind port (0 picks an ephemeral port, printed at startup; "
        "default %(default)s)",
    )
    p_serve.add_argument(
        "--store",
        metavar="DIR",
        help="content-addressed kernel-snapshot directory (the warm "
        "cache tier): evicted and cold scenarios warm-start from it, "
        "and a drain persists every pooled session into it",
    )
    p_serve.add_argument(
        "--pool-size",
        type=int,
        default=serve_defaults.pool_size,
        help="live-session LRU capacity (default %(default)s)",
    )
    p_serve.add_argument(
        "--max-concurrency",
        type=int,
        default=serve_defaults.max_concurrency,
        help="batteries evaluating at once (default %(default)s)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=serve_defaults.queue_limit,
        help="batteries allowed to wait for a slot before requests "
        "are rejected 503 server-busy (default %(default)s)",
    )
    p_serve.add_argument(
        "--rate-limit",
        type=float,
        metavar="RPS",
        help="token-bucket rate limit in requests/sec (off by "
        "default; /healthz is exempt)",
    )
    p_serve.add_argument(
        "--rate-burst",
        type=float,
        metavar="N",
        help="token-bucket burst capacity (default: the rate)",
    )
    _add_analysis_flags(p_serve, "serve")
    p_serve.set_defaults(handler=_cmd_serve)

    p_report = sub.add_parser(
        "covid-report", help="regenerate the Sec. VII case-study analysis"
    )
    p_report.set_defaults(handler=_cmd_covid_report)

    p_importance = sub.add_parser(
        "importance", help="probabilistic importance measures"
    )
    _add_tree_option(p_importance)
    p_importance.add_argument("--element")
    p_importance.add_argument(
        "--probabilities", help="overrides, e.g. 'IW=0.1,H1=0.02'"
    )
    p_importance.add_argument(
        "--uniform", type=float, help="uniform probability for all events"
    )
    p_importance.set_defaults(handler=_cmd_importance)

    p_prob = sub.add_parser(
        "prob", help="P(formula) or a PBFL query 'P(phi) >= c'"
    )
    _add_tree_option(p_prob)
    p_prob.add_argument("query")
    p_prob.add_argument(
        "--probabilities", help="overrides, e.g. 'IW=0.1,H1=0.02'"
    )
    p_prob.add_argument(
        "--uniform", type=float, help="uniform probability for all events"
    )
    p_prob.set_defaults(handler=_cmd_probability)

    p_modules = sub.add_parser(
        "modules", help="independent-subtree (module) detection"
    )
    _add_tree_option(p_modules)
    p_modules.set_defaults(handler=_cmd_modules)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
