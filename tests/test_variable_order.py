"""The structure-first variable order on every entry path.

Covers:

* the ordering heuristics themselves — linear on sharing DAGs, no
  recursion limit on deep chains, and equal to the textbook recursive
  definitions on random trees (hypothesis);
* the default (``dfs``) resolved in one place for ``ModelChecker``,
  ``FormulaTranslator``, ``tree_to_bdd`` and every batch/server session,
  with every heuristic and explicit lists still reachable on the API;
* the kernel key that keeps a snapshot built under one order from ever
  warm-starting a session of another — declaration-order entries keyed
  by the bare tree fingerprint, and (in both directions) entries written
  under another default order;
* the order-differential matrix: under the default order every entry
  path answers byte for byte alike; across orders every field agrees
  except probabilities (within :data:`repro.prob.PROBABILITY_RTOL`) and
  the counterexample vector Algorithm 4 picks (checked for ``b' |= chi``
  and its Def. 7 flag instead).
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bdd.ordering
import repro.service.batch
from repro import ModelChecker
from repro.bdd import HEURISTICS, BDDManager, dfs_order, resolve_order, weight_order
from repro.casestudy import build_covid_tree
from repro.checker.counterexample import verify_def7
from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.errors import SnapshotError
from repro.ft import FaultTreeBuilder, RandomTreeConfig, random_tree, tree_to_bdd
from repro.prob import probabilities_agree
from repro.service import (
    AnalysisOptions,
    BatchAnalyzer,
    ServerConfig,
    SnapshotStore,
    kernel_key,
    tree_fingerprint,
)
from repro.service.server import SERVE_DEFAULTS

from test_service_server import normalised, running

UNIFORM = 0.1
ORDERS = ("declaration", "dfs")


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------


def ladder(levels: int):
    """Each level's AND and OR gate both read the previous level's two
    gates: 2**levels paths from the top to each event."""
    builder = FaultTreeBuilder().basic_events("X", "Y")
    previous = ("X", "Y")
    for level in range(levels):
        builder.and_gate(f"A{level}", *previous)
        builder.or_gate(f"O{level}", *previous)
        previous = (f"A{level}", f"O{level}")
    builder.or_gate("TOP", *previous)
    return builder.build("TOP")


def chain(depth: int):
    """``depth`` nested OR gates, each over the previous one and Y."""
    builder = FaultTreeBuilder().basic_events("X", "Y")
    previous = "X"
    for level in range(depth):
        builder.or_gate(f"G{level}", previous, "Y")
        previous = f"G{level}"
    return builder.build(previous)


def bank_tree(banks: int = 2, pairs: int = 10, threshold: int = 5):
    """Redundant banks: a bank fails when ``threshold`` of its
    primary/backup pairs have both failed.  Each bank declares all its
    primaries before its backups, the order in which declaration-order
    kernels blow up."""
    builder = FaultTreeBuilder()
    for b in range(banks):
        builder.basic_events(*(f"P{b}_{i}" for i in range(pairs)))
        builder.basic_events(*(f"B{b}_{i}" for i in range(pairs)))
        for i in range(pairs):
            builder.and_gate(f"PAIR{b}_{i}", f"P{b}_{i}", f"B{b}_{i}")
        builder.vot_gate(
            f"BANK{b}", threshold, *(f"PAIR{b}_{i}" for i in range(pairs))
        )
    builder.or_gate("SYSTEM", *(f"BANK{b}" for b in range(banks)))
    return builder.build("SYSTEM")


_RANDOM = RandomTreeConfig(n_basic_events=9, max_children=3, p_share=0.3, max_depth=4)

TREES = {
    "covid": build_covid_tree,
    "banks": bank_tree,
    **{
        f"random-{seed}": (lambda seed=seed: random_tree(seed, _RANDOM))
        for seed in range(5)
    },
}


# ----------------------------------------------------------------------
# Heuristics: the textbook recursive definitions as oracles
# ----------------------------------------------------------------------


def recursive_dfs_order(tree, basic_events):
    order, seen = [], set()

    def visit(name):
        if tree.is_basic(name):
            if name not in seen:
                seen.add(name)
                order.append(name)
            return
        for child in tree.children(name):
            visit(child)

    visit(tree.top)
    return order + [name for name in basic_events if name not in seen]


def recursive_weight_order(tree, basic_events):
    weights = {}

    def visit(name, depth):
        if tree.is_basic(name):
            weights[name] = weights.get(name, 0.0) + 2.0 ** (-depth)
            return
        for child in tree.children(name):
            visit(child, depth + 1)

    visit(tree.top, 0)
    position = {
        name: i for i, name in enumerate(recursive_dfs_order(tree, basic_events))
    }
    return sorted(
        basic_events, key=lambda name: (-weights.get(name, 0.0), position[name])
    )


class TestHeuristics:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        events=st.integers(1, 12),
        share=st.sampled_from([0.0, 0.2, 0.5]),
    )
    def test_equal_to_the_recursive_definitions(self, seed, events, share):
        tree = random_tree(
            seed,
            RandomTreeConfig(
                n_basic_events=events, max_children=4, p_share=share, max_depth=5
            ),
        )
        events = tree.basic_events
        assert dfs_order(tree, events) == recursive_dfs_order(tree, events)
        assert weight_order(tree, events) == recursive_weight_order(tree, events)

    def test_ladder_is_linear(self):
        tree = ladder(40)
        for heuristic in (dfs_order, weight_order):
            start = time.perf_counter()
            order = heuristic(tree, tree.basic_events)
            assert time.perf_counter() - start < 0.1, heuristic.__name__
            assert sorted(order) == ["X", "Y"]
        # 2**40 paths reach each event; both weights are still exact.
        assert weight_order(tree, tree.basic_events) == ["X", "Y"]

    def test_deep_chain_has_no_recursion_limit(self):
        tree = chain(5000)
        assert dfs_order(tree, tree.basic_events) == ["X", "Y"]
        # Y sits at depth 1 below the top; X only at the bottom.
        assert weight_order(tree, tree.basic_events) == ["Y", "X"]
        assert ModelChecker(tree).check(f"exists {tree.top}")


# ----------------------------------------------------------------------
# One default, resolved in one place
# ----------------------------------------------------------------------


class TestResolvedOrder:
    def test_default_is_dfs_everywhere(self):
        tree = bank_tree()
        dfs = dfs_order(tree, tree.basic_events)
        assert dfs != list(tree.basic_events)
        assert resolve_order(tree) == dfs
        assert ModelChecker(tree).manager.variables == tuple(dfs)
        manager = tree_to_bdd(tree).manager
        assert manager.variables == tuple(dfs)
        session = BatchAnalyzer(tree).session()
        assert session.checker.manager.variables == tuple(dfs)

    @pytest.mark.parametrize("name", sorted(HEURISTICS))
    def test_every_heuristic_is_reachable_on_the_api(self, name):
        tree = bank_tree()
        expected = HEURISTICS[name](tree, tree.basic_events)
        checker = ModelChecker(tree, order=name)
        assert checker.manager.variables == tuple(expected)
        assert tree_to_bdd(tree, order=name).manager.variables == tuple(expected)

    def test_explicit_list(self):
        tree = build_covid_tree()
        order = list(reversed(tree.basic_events))
        assert ModelChecker(tree, order=order).manager.variables == tuple(order)

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown variable order"):
            ModelChecker(build_covid_tree(), order="sifted")

    def test_bank_kernel_collapses_under_dfs(self):
        tree = bank_tree()
        sizes = {
            name: tree_to_bdd(tree, order=name).count_nodes()
            for name in ORDERS
        }
        assert sizes["dfs"] * 10 < sizes["declaration"]


# ----------------------------------------------------------------------
# The order is part of the kernel's identity
# ----------------------------------------------------------------------


@pytest.fixture
def default_order(monkeypatch):
    """Switch the sessions' default order, as a later release might:
    ``resolve_order`` and ``kernel_key`` both follow it."""

    def switch(name):
        monkeypatch.setattr(repro.bdd.ordering, "DEFAULT_ORDER", name)
        monkeypatch.setattr(repro.service.batch, "DEFAULT_ORDER", name)

    return switch


def _declaration_kernel(tree):
    """A session kernel built in declaration order, as earlier releases
    built every kernel."""
    elements = ModelChecker(tree, order="declaration").translator.tree_translator
    elements.element(tree.top)
    return elements.manager.save_snapshot(roots=elements.export_cache())


class TestKernelKey:
    def test_key_covers_tree_and_order(self, default_order):
        covid = build_covid_tree()
        key = kernel_key(covid)
        assert key != tree_fingerprint(covid)
        assert key == kernel_key(build_covid_tree())
        assert key != kernel_key(bank_tree())
        default_order("declaration")
        assert kernel_key(covid) not in (key, tree_fingerprint(covid))

    def test_snapshot_from_another_order_is_refused(self, default_order):
        covid = build_covid_tree()
        default_order("declaration")
        source = BatchAnalyzer(covid)
        source.prewarm_trees()
        snapshots = source.kernel_snapshots()
        warm = BatchAnalyzer(covid, snapshots=snapshots)
        assert warm.run(["exists IWoS"]).ok
        default_order("dfs")
        with pytest.raises(SnapshotError, match="another variable order"):
            BatchAnalyzer(covid, snapshots=snapshots)

    def test_snapshot_keyed_by_the_bare_tree_is_refused(self):
        covid = build_covid_tree()
        snapshots = {
            "default": {
                "tree": tree_fingerprint(covid),
                "kernel": _declaration_kernel(covid),
            }
        }
        with pytest.raises(SnapshotError, match="another variable order"):
            BatchAnalyzer(covid, snapshots=snapshots)


def _stored(store_dir, tree):
    """Order name -> whether the store holds a kernel under that
    default's key, checking each entry's variables are in its order."""
    store = SnapshotStore(store_dir)
    held = {}
    for name in ORDERS:
        key = kernel_key_under(tree, name)
        entry = store.get(key)
        held[name] = entry is not None
        if entry is not None:
            manager, _ = BDDManager.load_snapshot(entry["kernel"])
            assert manager.variables == tuple(
                HEURISTICS[name](tree, tree.basic_events)
            )
    return held


def kernel_key_under(tree, name):
    """``kernel_key(tree)`` as a build whose default order is ``name``
    computes it."""
    saved = repro.service.batch.DEFAULT_ORDER
    repro.service.batch.DEFAULT_ORDER = name
    try:
        return kernel_key(tree)
    finally:
        repro.service.batch.DEFAULT_ORDER = saved


class TestStoreAcrossOrders:
    def _query_file(self, tmp_path):
        path = tmp_path / "battery.json"
        path.write_text(json.dumps({
            "uniform": UNIFORM,
            "queries": [{"kind": "mcs"}, {"kind": "probability", "formula": "IWoS"}],
        }))
        return str(path)

    def _counting_gets(self, monkeypatch):
        hits = []
        get = SnapshotStore.get

        def counting_get(self, key):
            entry = get(self, key)
            hits.append(entry is not None)
            return entry

        monkeypatch.setattr(SnapshotStore, "get", counting_get)
        return hits

    @pytest.mark.parametrize("first, second", [ORDERS, ORDERS[::-1]])
    def test_batch_store_never_adopts_another_order(
        self, tmp_path, capsys, monkeypatch, default_order, first, second
    ):
        covid = build_covid_tree()
        store_dir = str(tmp_path / "kernels")
        queries = self._query_file(tmp_path)
        default_order(first)
        assert cli_main(["batch", queries, "--store", store_dir]) == 0
        cold = json.loads(capsys.readouterr().out)["results"]
        assert _stored(store_dir, covid) == {
            name: name == first for name in ORDERS
        }
        hits = self._counting_gets(monkeypatch)
        # A build defaulting to `second` misses, builds cold and puts
        # its own entry back.
        default_order(second)
        assert cli_main(["batch", queries, "--store", store_dir]) == 0
        other = json.loads(capsys.readouterr().out)
        assert "warnings" not in other["stats"]
        assert hits == [False]
        assert _stored(store_dir, covid) == dict.fromkeys(ORDERS, True)
        _same_answer(normalised(cold), normalised(other["results"]))

    def test_batch_store_ignores_entries_keyed_by_the_bare_tree(
        self, tmp_path, capsys, monkeypatch
    ):
        """Entries written before the order joined the key hold
        declaration-order kernels filed under the tree fingerprint; no
        run reads them."""
        covid = build_covid_tree()
        store = SnapshotStore(tmp_path / "kernels")
        store.put(tree_fingerprint(covid), _declaration_kernel(covid))
        queries = self._query_file(tmp_path)
        hits = self._counting_gets(monkeypatch)
        assert cli_main(["batch", queries, "--store", str(store.path)]) == 0
        capsys.readouterr()
        assert hits == [False]
        assert sorted(SnapshotStore(store.path).fingerprints()) == sorted(
            [tree_fingerprint(covid), kernel_key(covid)]
        )

    @pytest.mark.parametrize("first, second", [ORDERS, ORDERS[::-1]])
    def test_serve_store_never_adopts_another_order(
        self, tmp_path, default_order, first, second
    ):
        covid = build_covid_tree()
        store_path = str(tmp_path / "kernels")
        battery = {"queries": [{"kind": "mcs"}, "exists IWoS"]}
        config = ServerConfig(port=0, store_path=store_path)

        default_order(first)
        with running(covid, config) as server:
            _, cold, _ = server.post("/battery", battery)
            scenario = server.get("/scenarios")[1]["scenarios"][0]
            assert scenario["fingerprint"] == kernel_key_under(covid, first)
        assert _stored(store_path, covid) == {
            name: name == first for name in ORDERS
        }
        default_order(second)
        with running(covid, config) as server:
            assert server.get("/scenarios")[1]["scenarios"][0]["stored"] is False
            _, other, _ = server.post("/battery", battery)
            assert server.server._counters["rewarms"] == 0
        assert normalised(other["results"]) == normalised(cold["results"])
        assert _stored(store_path, covid) == dict.fromkeys(ORDERS, True)
        default_order(first)
        with running(covid, config) as server:
            server.post("/battery", battery)
            assert server.server._counters["rewarms"] == 1

    def test_serve_store_ignores_entries_keyed_by_the_bare_tree(self, tmp_path):
        covid = build_covid_tree()
        store = SnapshotStore(tmp_path / "kernels")
        store.put(tree_fingerprint(covid), _declaration_kernel(covid))
        config = ServerConfig(port=0, store_path=str(store.path))
        with running(covid, config) as server:
            assert server.get("/scenarios")[1]["scenarios"][0]["stored"] is False
            status, _, _ = server.post("/battery", {"queries": ["exists IWoS"]})
            assert status == 200
            assert server.server._counters["rewarms"] == 0


def _primed_layout_kernel(tree):
    """A session kernel in the layout of builds whose MCS construction
    needed primes: every event followed by its ``__prime`` twin, in the
    default order, filed under the same kernel key."""
    order = [
        name
        for event in resolve_order(tree)
        for name in (event, event + "__prime")
    ]
    checker = ModelChecker(tree, manager=BDDManager(order))
    elements = checker.translator.tree_translator
    elements.element(tree.top)
    return elements.manager.save_snapshot(roots=elements.export_cache())


class TestPrimedLayoutEntry:
    def test_batch_store_warm_starts_from_it(self, tmp_path, capsys, monkeypatch):
        """A stored kernel with interleaved primed levels still warm-starts
        through ``bfl batch --store`` and answers every kind exactly as a
        cold run does; its primes are unused levels."""
        from test_service_server import ALL_KINDS

        covid = build_covid_tree()
        store = SnapshotStore(tmp_path / "kernels")
        store.put(kernel_key(covid), _primed_layout_kernel(covid))
        queries = ALL_KINDS + [
            {"id": "mcs-xor", "formula": "MCS(MoT <=> !IS) & H1"},
            {"id": "mps-ev", "kind": "satisfaction-set",
             "formula": "MPS(IWoS[IW := 1] & !VW)"},
        ]
        path = tmp_path / "battery.json"
        path.write_text(json.dumps({"uniform": UNIFORM, "queries": queries}))
        assert cli_main(["batch", str(path)]) in (0, 1)
        cold = json.loads(capsys.readouterr().out)["results"]
        gets = []
        get = SnapshotStore.get

        def counting_get(self, key):
            entry = get(self, key)
            gets.append(entry is not None)
            return entry

        monkeypatch.setattr(SnapshotStore, "get", counting_get)
        assert cli_main(
            ["batch", str(path), "--store", str(store.path)]
        ) in (0, 1)
        warm = json.loads(capsys.readouterr().out)
        assert gets == [True]
        assert "warnings" not in warm["stats"]
        # The stored kernel (primes and all) is the one that answered.
        order = warm["stats"]["scenarios"]["default"]["reorder"]["order"]
        assert len(order) == 2 * len(covid.basic_events)
        assert normalised(warm["results"]) == normalised(cold)


# ----------------------------------------------------------------------
# Surfaces: unknown query-file keys; serve defaults
# ----------------------------------------------------------------------


class TestSurfaces:
    @pytest.mark.parametrize("key", ["deadline", "gc_trigger", "ordr", "order"])
    def test_unknown_query_file_key_exits_2(self, key, tmp_path, capsys):
        path = tmp_path / "battery.json"
        path.write_text(json.dumps({key: 5, "queries": ["exists IWoS"]}))
        assert cli_main(["batch", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = captured.err
        assert error.startswith(f"error: unknown query-file key(s) {key!r}")
        for allowed in ("deadline_ms", "gc", "queries", "store"):
            assert repr(allowed) not in error and allowed in error

    def test_serve_parser_defaults_are_server_config(self):
        serve = next(
            action
            for action in build_parser()._subparsers._group_actions  # noqa: SLF001
        ).choices["serve"]
        defaults = ServerConfig()
        for field in ("host", "port", "pool_size", "max_concurrency", "queue_limit"):
            assert serve.get_default(field) == getattr(defaults, field), field


# ----------------------------------------------------------------------
# The order-differential matrix
# ----------------------------------------------------------------------


def battery(tree):
    """All nine kinds.  MPS targets the first gate below the top: the
    bank tree's top has 13440**2 path sets (one per bank, combined)."""
    events = list(tree.basic_events)
    top = tree.top
    minimal = f"MCS({top}) & {events[0]}"
    return [
        {"id": "check", "kind": "check", "formula": f"exists ({minimal})"},
        {"id": "satset", "kind": "satisfaction-set", "formula": minimal},
        {"id": "mcs", "kind": "mcs"},
        {"id": "mps", "kind": "mps", "element": tree.children(top)[0]},
        {
            "id": "cex",
            "kind": "counterexample",
            "formula": f"MCS({top})",
            "failed": [],
        },
        {
            "id": "idp",
            "kind": "independence",
            "formula": events[0],
            "other": events[-1],
        },
        {"id": "prob", "kind": "probability", "formula": top},
        {
            "id": "sweep",
            "kind": "probability-sweep",
            "formula": top,
            "profiles": [{}, {events[0]: 0.9}],
        },
        {
            "id": "synth",
            "kind": "synthesize",
            "formula": f"{top} & !{events[0]}",
            "candidates": events[:3],
        },
    ]


def _rows(results):
    return json.dumps(normalised(results), sort_keys=True)


def _same_answer(left, right, path="row"):
    """Field-by-field equality, probabilities within the contract."""
    if isinstance(left, float) and isinstance(right, float):
        assert probabilities_agree(left, right), (path, left, right)
    elif isinstance(left, dict) and isinstance(right, dict):
        assert sorted(left) == sorted(right), path
        for key in left:
            _same_answer(left[key], right[key], f"{path}.{key}")
    elif isinstance(left, list) and isinstance(right, list):
        assert len(left) == len(right), path
        for i, (a, b) in enumerate(zip(left, right)):
            _same_answer(a, b, f"{path}[{i}]")
    else:
        assert left == right, (path, left, right)


def _checker_rows(tree, options, order=None):
    overrides = options.overrides_for("default", tree)
    checker = ModelChecker(tree, order=order, **options.checker_kwargs())
    return [
        checker.execute(spec, probabilities=overrides).to_dict()
        for spec in battery(tree)
    ]


def _paths(tree, store_path):
    """Result rows per entry path, every one built in the default order."""
    queries = battery(tree)
    options = AnalysisOptions(uniform=UNIFORM)
    rows = {
        "checker": _checker_rows(tree, options),
        "batch": BatchAnalyzer(tree, options).run(queries).to_dict()["results"],
        "workers": BatchAnalyzer(tree, dataclasses.replace(options, workers=2))
        .run(queries)
        .to_dict()["results"],
    }
    config = ServerConfig(
        port=0,
        store_path=store_path,
        analysis=dataclasses.replace(SERVE_DEFAULTS, uniform=UNIFORM),
    )
    for tier in ("serve-cold", "serve-rewarm"):
        with running(tree, config) as server:
            status, data, _ = server.post("/battery", {"queries": queries})
            assert status == 200, data
            assert server.server._counters["rewarms"] == (tier == "serve-rewarm")
        rows[tier] = data["results"]
    return rows


@pytest.mark.parametrize("name", sorted(TREES))
def test_order_differential(name, tmp_path):
    tree = TREES[name]()
    rows = _paths(tree, str(tmp_path / "kernels"))
    reference = _rows(rows["checker"])
    assert all(row["ok"] for row in rows["checker"]), rows["checker"]
    for path, results in rows.items():
        assert _rows(results) == reference, path

    declaration = _checker_rows(
        tree, AnalysisOptions(uniform=UNIFORM), order="declaration"
    )
    checker = ModelChecker(tree)
    for left, right in zip(normalised(rows["checker"]), normalised(declaration)):
        if left["kind"] == "counterexample":
            # Algorithm 4 walks in variable order, so each order may
            # pick another b'; each must satisfy chi with a truthful
            # Def. 7 flag.
            formula = checker._formula(left["formula"])  # noqa: SLF001
            for row in (left, right):
                cex = row["counterexample"]
                assert checker.check(formula, vector=cex["vector"])
                compliant = not verify_def7(
                    checker.translator, formula, cex["original"], cex["vector"]
                )
                assert cex["def7_compliant"] is compliant
            left = {**left, "counterexample": None}
            right = {**right, "counterexample": None}
        _same_answer(left, right, left["id"])
