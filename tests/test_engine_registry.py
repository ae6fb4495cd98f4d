"""The query-kind registry (PR 9): one descriptor per kind, one dispatch.

Covers the PR-9 surface:

* registry completeness and order — ``repro.service.KINDS`` and every
  validation message derive from the registry, planner weights pin the
  historical table exactly;
* planner determinism — ``estimate_cost`` is byte-identical to the old
  hard-coded cost function for every legacy kind, and ``plan_shards``
  yields the same plan on repeated runs;
* dispatch parity — for EVERY registered kind the same query answered
  through ``ModelChecker.execute``, a sequential ``BatchAnalyzer``, a
  2-worker sharded run, and the ``bfl batch`` CLI is identical;
* the ``synthesize`` kind end to end — kind-free ``SYNTHESIZE(...)``
  promotion, explicit candidates, candidate-sweep mode, validation;
* ``bfl batch --list-kinds`` and the docs kind table, both pinned to
  the registry so none of the three can drift;
* registry-dispatched failures still map through ``errors.error_kind``,
  including a chaos-killed shard mid-synthesize-sweep.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.casestudy import build_covid_tree
from repro.cli import main
from repro.checker import ModelChecker
from repro.engine import REGISTRY, QueryKind, QueryKindRegistry
from repro.errors import QuerySpecError, error_kind
from repro.logic.parser import format_statement
from repro.service import BatchAnalyzer, QuerySpec, specs_from_any
from repro.service.queries import KINDS
from repro.service.parallel import estimate_cost, plan_shards

DOCS_DSL = Path(__file__).resolve().parent.parent / "docs" / "dsl.md"

#: The planner's per-kind weights before the registry existed
#: (``service/parallel.py`` ``_KIND_WEIGHT``).  Pinned: the refactor
#: must not move a single shard boundary for existing batteries.
LEGACY_WEIGHTS = {
    "check": 1.0,
    "probability": 1.0,
    "probability-sweep": 1.0,
    "independence": 1.5,
    "counterexample": 2.0,
    "satisfaction-set": 3.0,
    "mcs": 4.0,
    "mps": 4.0,
}


def legacy_estimate_cost(spec, tree):
    """Verbatim re-derivation of the pre-registry cost function."""
    if tree is None:
        return 1.0
    tree_weight = 1 + len(tree.basic_events) + len(tree.gate_names)
    formula = spec.formula
    if formula is None:
        text = "MCS()"
    elif isinstance(formula, str):
        text = formula
    else:
        text = format_statement(formula)
    formula_weight = 1.0 + len(text) / 16.0
    if "MCS(" in text or "MPS(" in text:
        formula_weight *= 2.0
    return LEGACY_WEIGHTS.get(spec.kind, 1.0) * tree_weight * formula_weight


# ----------------------------------------------------------------------
# Registry shape
# ----------------------------------------------------------------------


class TestRegistryShape:
    def test_every_legacy_kind_plus_synthesize(self):
        assert REGISTRY.names() == (
            "check",
            "satisfaction-set",
            "mcs",
            "mps",
            "counterexample",
            "independence",
            "probability",
            "probability-sweep",
            "synthesize",
        )

    def test_service_kinds_is_the_registry(self):
        assert KINDS == REGISTRY.names()

    def test_weights_pin_the_legacy_table(self):
        for name, weight in LEGACY_WEIGHTS.items():
            assert REGISTRY.weight(name) == weight
        assert REGISTRY.weight("synthesize") == 2.0
        assert REGISTRY.weight("no-such-kind", 7.5) == 7.5

    def test_owned_optional_fields(self):
        assert REGISTRY.owners_of("profiles") == ("probability-sweep",)
        assert REGISTRY.owners_of("candidates") == ("synthesize",)
        assert REGISTRY.owners_of("candidate_sets") == ("synthesize",)
        assert set(REGISTRY.owned_fields()) == {
            "profiles",
            "candidates",
            "candidate_sets",
        }

    def test_unknown_kind_error_lists_the_registry(self):
        with pytest.raises(QuerySpecError) as err:
            QuerySpec(id="q", kind="sideways")
        message = str(err.value)
        assert "unknown kind 'sideways'" in message
        for name in REGISTRY.names():
            assert name in message

    def test_required_field_messages_come_from_the_registry(self):
        with pytest.raises(QuerySpecError, match="needs a formula"):
            QuerySpec(id="q", kind="check")
        with pytest.raises(QuerySpecError, match="second formula"):
            QuerySpec(id="q", kind="independence", formula="A")

    def test_ownership_violations_name_the_owning_kinds(self):
        with pytest.raises(
            QuerySpecError, match="only applies to probability-sweep"
        ):
            QuerySpec(id="q", kind="check", formula="A", profiles=({},))
        with pytest.raises(QuerySpecError, match="only applies to synthesize"):
            QuerySpec(id="q", kind="mcs", candidates=("A",))

    def test_duplicate_registration_rejected(self):
        registry = QueryKindRegistry()
        kind = QueryKind(name="k", summary="s", execute=lambda *a: {})
        registry.register(kind)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(kind)

    def test_execute_hook_is_mandatory(self):
        with pytest.raises(ValueError, match="no execute hook"):
            QueryKindRegistry().register(QueryKind(name="k", summary="s"))


# ----------------------------------------------------------------------
# Planner: registry weights are byte-identical to the old table
# ----------------------------------------------------------------------


def _planner_battery():
    return specs_from_any(
        [
            {"id": "q1", "formula": "forall (IS => MoT)"},
            {"id": "q2", "formula": "[[ MCS(MoT) & IS ]]"},
            {"id": "q3", "kind": "mcs"},
            {"id": "q4", "kind": "mps", "element": "MoT"},
            {"id": "q5", "kind": "counterexample", "formula": "MCS(IWoS)",
             "failed": ["IW"]},
            {"id": "q6", "kind": "independence", "formula": "CIO",
             "other": "CIS"},
            {"id": "q7", "kind": "probability", "formula": "P(IWoS) >= 0.1"},
            {"id": "q8", "kind": "probability-sweep", "formula": "IWoS",
             "profiles": [{}, {"H1": 0.9}]},
        ]
    )


class TestPlanner:
    def test_legacy_costs_are_byte_identical(self):
        tree = build_covid_tree()
        for spec in _planner_battery():
            assert estimate_cost(spec, tree) == legacy_estimate_cost(
                spec, tree
            )
            assert estimate_cost(spec, None) == 1.0

    def test_plans_are_deterministic(self):
        tree = build_covid_tree()
        specs = _planner_battery()
        trees = {"default": tree}
        first = plan_shards(specs, trees, 3)
        second = plan_shards(specs, trees, 3)
        assert [s.indices for s in first] == [s.indices for s in second]
        assert [s.cost for s in first] == [s.cost for s in second]

    def test_synthesize_cost_scales_with_sweep_width(self):
        tree = build_covid_tree()
        narrow = QuerySpec(id="s", kind="synthesize", formula="IWoS")
        wide = QuerySpec(
            id="s",
            kind="synthesize",
            formula="IWoS",
            candidate_sets=tuple((("H1",),) * 8),
        )
        assert estimate_cost(wide, tree) == pytest.approx(
            8 * estimate_cost(narrow, tree)
        )


# ----------------------------------------------------------------------
# Dispatch parity: every kind, every entry path, identical answers
# ----------------------------------------------------------------------

#: One representative query per registered kind.  The exhaustiveness
#: assertion below forces this table to grow with the registry.
PARITY_QUERIES = {
    "check": {"id": "q-check", "kind": "check",
              "formula": "MCS(IWoS)", "failed": ["H1", "VW"]},
    "satisfaction-set": {"id": "q-allsat", "kind": "satisfaction-set",
                         "formula": "MCS(MoT) & IS"},
    "mcs": {"id": "q-mcs", "kind": "mcs", "element": "MoT"},
    "mps": {"id": "q-mps", "kind": "mps"},
    "counterexample": {"id": "q-cex", "kind": "counterexample",
                       "formula": "MCS(IWoS)", "failed": ["IW", "H3", "IT"]},
    "independence": {"id": "q-idp", "kind": "independence",
                     "formula": "CIO", "other": "CIS"},
    "probability": {"id": "q-prob", "kind": "probability",
                    "formula": "P(IWoS | H1) >= 0.1"},
    "probability-sweep": {"id": "q-sweep", "kind": "probability-sweep",
                          "formula": "IWoS",
                          "profiles": [{}, {"H1": 0.9, "VW": 0.4}]},
    "synthesize": {"id": "q-synth", "kind": "synthesize",
                   "formula": "IWoS /\\ !IS",
                   "candidates": ["H1", "H2", "IS"]},
}


def _strip(row):
    row = dict(row)
    row.pop("elapsed_ms", None)
    return row


class TestDispatchParity:
    def test_parity_table_covers_every_kind(self):
        assert set(PARITY_QUERIES) == set(REGISTRY.names())

    def test_all_entry_paths_agree(self, tmp_path):
        tree = build_covid_tree()
        probabilities = {name: 0.1 for name in tree.basic_events}
        valid = [PARITY_QUERIES[name] for name in REGISTRY.names()]
        # Error rows too: a parse error, and an element the tree lacks.
        battery = valid + [
            {"id": "q-syntax", "formula": "exists ((("},
            {"id": "q-unknown", "formula": "exists NOPE"},
        ]

        checker = ModelChecker(tree)
        facade = [
            _strip(checker.execute(q, probabilities=probabilities).to_dict())
            for q in battery
        ]

        sequential = BatchAnalyzer(tree, probabilities=probabilities).run(
            battery
        )
        assert all(r.ok for r in sequential.results[: len(valid)]), [
            r.error for r in sequential.results
        ]
        assert [r.error_kind for r in sequential.results[len(valid):]] == [
            "BFLSyntaxError", "LogicError"
        ]
        seq_rows = [_strip(r.to_dict()) for r in sequential.results]

        sharded = BatchAnalyzer(
            tree, probabilities=probabilities, workers=2
        ).run(battery)
        par_rows = [_strip(r.to_dict()) for r in sharded.results]

        query_file = tmp_path / "parity.json"
        query_file.write_text(
            json.dumps(
                {"probabilities": probabilities, "queries": battery}
            ),
            encoding="utf-8",
        )
        out = tmp_path / "report.json"
        # Exit 1: the battery holds failing queries.
        assert main(["batch", str(query_file), "--output", str(out)]) == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        cli_rows = [_strip(row) for row in report["results"]]

        assert facade == seq_rows
        assert par_rows == seq_rows
        assert cli_rows == seq_rows


# ----------------------------------------------------------------------
# The synthesize kind through the batch service
# ----------------------------------------------------------------------


class TestSynthesizeKind:
    def test_kind_free_synthesize_text_promotes(self):
        report = BatchAnalyzer(build_covid_tree()).run(
            [{"id": "s", "formula": "SYNTHESIZE(IWoS /\\ !IS; H1, H2, IS)"}]
        )
        result = report.results[0]
        assert result.ok
        assert result.kind == "check"  # the spec's kind is preserved
        assert result.holds is True
        assert result.synthesis["must_1"] == ["H1"]
        assert result.synthesis["must_0"] == ["IS"]
        assert result.synthesis["dont_care"] == ["H2"]
        assert result.synthesis["choices"] == 2

    def test_explicit_kind_matches_facade(self):
        tree = build_covid_tree()
        report = BatchAnalyzer(tree).run(
            [{"id": "s", "kind": "synthesize", "formula": "IWoS /\\ !IS",
              "candidates": ["H1", "H2", "IS"]}]
        )
        regions = ModelChecker(tree).synthesize(
            "IWoS /\\ !IS", candidates=["H1", "H2", "IS"]
        )
        assert report.results[0].synthesis == regions.to_dict()

    def test_candidate_sweep_mode(self):
        report = BatchAnalyzer(build_covid_tree()).run(
            [{"id": "s", "kind": "synthesize", "formula": "IWoS",
              "candidate_sets": [["H1", "H2"], ["MV", "PP", "UT"], []]}]
        )
        result = report.results[0]
        assert result.ok
        sweep = result.synthesis["sweep"]
        assert len(sweep) == 3
        assert sweep[0]["candidates"] == ["H1", "H2"]
        # the empty set means "all basic events"
        tree = build_covid_tree()
        assert set(sweep[2]["candidates"]) == set(tree.basic_events)

    def test_candidates_and_sets_are_mutually_exclusive(self):
        with pytest.raises(QuerySpecError, match="at most one of"):
            QuerySpec(
                id="s",
                kind="synthesize",
                formula="IWoS",
                candidates=("H1",),
                candidate_sets=(("H2",),),
            )

    def test_text_candidates_clash_with_field(self):
        report = BatchAnalyzer(build_covid_tree()).run(
            [{"id": "s", "kind": "synthesize",
              "formula": "SYNTHESIZE(IWoS; H1)", "candidates": ["H2"]}]
        )
        result = report.results[0]
        assert not result.ok
        assert "not both" in result.error


# ----------------------------------------------------------------------
# CLI metadata and docs stay pinned to the registry
# ----------------------------------------------------------------------


class TestKindMetadata:
    def test_list_kinds_cli(self, capsys):
        assert main(["batch", "--list-kinds"]) == 0
        out = capsys.readouterr().out
        for kind in REGISTRY:
            assert kind.name in out
            for field_name in kind.required_fields():
                assert field_name in out
            for field_name in kind.accepts:
                assert field_name in out

    def test_docs_kind_table_matches_registry(self):
        text = DOCS_DSL.read_text(encoding="utf-8")
        match = re.search(
            r"<!-- kinds:begin -->\n(.*?)<!-- kinds:end -->",
            text,
            re.DOTALL,
        )
        assert match, "docs/dsl.md lost its kind-table markers"
        rows = [
            line
            for line in match.group(1).splitlines()
            if line.startswith("| `")
        ]
        documented = []
        for row in rows:
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            name = cells[0].strip("`")
            requires = tuple(re.findall(r"`([^`]+)`", cells[1]))
            accepts = tuple(re.findall(r"`([^`]+)`", cells[2]))
            cli = cells[3].strip("`")
            documented.append((name, requires, accepts, cli))
        registered = [
            (
                kind.name,
                kind.required_fields(),
                kind.accepts,
                kind.cli,
            )
            for kind in REGISTRY
        ]
        assert documented == registered


# ----------------------------------------------------------------------
# Failures keep their structured taxonomy through the registry
# ----------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_synthesis_errors_map_through_error_kind(self):
        report = BatchAnalyzer(build_covid_tree()).run(
            [{"id": "s", "kind": "synthesize", "formula": "IWoS",
              "candidates": ["NOPE"]}]
        )
        result = report.results[0]
        assert not result.ok
        assert result.error_kind == "SynthesisError"
        assert "unknown" in result.error

    def test_chaos_killed_shard_mid_synthesize_sweep(self, monkeypatch):
        """A worker killed during a synthesize sweep, with retries
        exhausted, becomes a structured ``worker-crash`` row — the other
        shard's queries still succeed."""
        tree = build_covid_tree()
        events = sorted(tree.basic_events)
        sweep = {
            "id": "q1",
            "kind": "synthesize",
            "formula": "IWoS",
            "candidate_sets": [[name] for name in events],
        }
        check = {"id": "q2", "formula": "forall (IS => MoT)"}
        monkeypatch.setenv(
            "REPRO_CHAOS", json.dumps({"kill_queries": ["q1"]})
        )
        analyzer = BatchAnalyzer(
            tree, workers=2, shard_retries=0, retry_backoff_ms=1.0
        )
        report = analyzer.run([sweep, check])
        monkeypatch.delenv("REPRO_CHAOS")

        by_id = {result.id: result for result in report.results}
        assert not report.ok
        assert not by_id["q1"].ok
        assert by_id["q1"].error_kind == "worker-crash"
        # Every casualty (the kill can take the whole pool down with it)
        # is reported through the same structured taxonomy.
        for result in report.results:
            if not result.ok:
                assert result.error_kind == "worker-crash"
                assert "worker shard failed" in result.error
        rows = report.stats["parallel"]["shards"]
        assert any(row.get("error_kind") == "worker-crash" for row in rows)

    def test_chaos_killed_synthesize_shard_recovers_with_retries(
        self, monkeypatch, tmp_path
    ):
        """With retries available the kill (latched to fire once) is
        recovered and the sweep's answer matches a fault-free run."""
        tree = build_covid_tree()
        sweep = {
            "id": "q1",
            "kind": "synthesize",
            "formula": "IWoS /\\ !IS",
            "candidate_sets": [["H1", "H2", "IS"], ["MV", "PP"]],
        }
        check = {"id": "q2", "formula": "[[ MCS(MoT) & IS ]]"}
        baseline = BatchAnalyzer(tree).run([sweep, check])
        assert baseline.ok

        marker = tmp_path / "killed"
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps(
                {"kill_queries": ["q1"], "kill_marker": str(marker)}
            ),
        )
        analyzer = BatchAnalyzer(
            tree, workers=2, shard_retries=2, retry_backoff_ms=1.0
        )
        report = analyzer.run([sweep, check])
        monkeypatch.delenv("REPRO_CHAOS")

        assert marker.exists(), "the chaos kill never fired"
        assert report.ok
        assert any(
            row.get("retried")
            for row in report.stats["parallel"]["shards"]
        )
        for expected, actual in zip(baseline.results, report.results):
            assert _strip(expected.to_dict()) == _strip(actual.to_dict())
