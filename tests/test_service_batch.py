"""The batch analysis service: parity with ModelChecker, cache behaviour,
and the ``bfl batch`` CLI round-trip."""

from __future__ import annotations

import json

import pytest

from repro.casestudy import build_covid_tree
from repro.checker import ModelChecker
from repro.cli import main
from repro.errors import SnapshotError
from repro.ft import example_vot_tree, figure1_tree
from repro.logic.parser import MAX_DEPTH, MAX_NESTING
from repro.service import BatchAnalyzer, QuerySpec
from repro.service.queries import QuerySpecError, specs_from_any

BATTERY = [
    "forall (IS => MoT)",
    "exists (MCS(IWoS) & H1)",
    "exists (MCS(IWoS) & H2)",
    "forall (MCS(SH) => (VW & H1))",
    "exists (MPS(MoT) & !UT)",
    "exists (MCS(IWoS) & VOT(>= 3; H1, H2, H3, H4, H5))",
]


@pytest.fixture()
def analyzer(covid):
    return BatchAnalyzer(covid)


class TestParityWithModelChecker:
    def test_layer2_checks_match_sequential_on_covid(self, analyzer, covid):
        report = analyzer.run(BATTERY)
        assert report.ok
        sequential = [ModelChecker(covid).check(f) for f in BATTERY]
        assert [r.holds for r in report.results] == sequential

    def test_layer1_checks_with_vectors(self, analyzer, covid):
        report = analyzer.run(
            [
                {"kind": "check", "formula": "MCS(IWoS)", "failed": ["H1", "VW"]},
                {"kind": "check", "formula": "IS => MoT", "bits": [0] * 13},
            ]
        )
        assert report.ok
        checker = ModelChecker(covid)
        assert report[0].holds is checker.check("MCS(IWoS)", failed=["H1", "VW"])
        assert report[1].holds is checker.check("IS => MoT", bits=[0] * 13)

    def test_mcs_mps_and_satisfaction_sets(self, analyzer, covid):
        report = analyzer.run(
            [
                {"id": "cuts", "kind": "mcs"},
                {"id": "paths", "kind": "mps"},
                {"id": "sat", "formula": "[[ MCS(MoT) & IS ]]"},
            ]
        )
        assert report.ok
        checker = ModelChecker(covid)
        assert [set(s) for s in report["cuts"].sets] == [
            set(s) for s in checker.minimal_cut_sets()
        ]
        assert [set(s) for s in report["paths"].sets] == [
            set(s) for s in checker.minimal_path_sets()
        ]
        assert report["sat"].kind == "satisfaction-set"
        assert [set(s) for s in report["sat"].sets] == [
            set(s) for s in checker.satisfaction_set("MCS(MoT) & IS").failed_sets()
        ]
        assert report["sat"].vector_count == len(
            checker.satisfaction_set("MCS(MoT) & IS")
        )

    def test_counterexample_and_independence(self, analyzer, covid):
        report = analyzer.run(
            [
                {
                    "id": "cex",
                    "kind": "counterexample",
                    "formula": "MCS(IWoS)",
                    "failed": ["IW", "H3", "IT"],
                },
                {
                    "id": "idp",
                    "kind": "independence",
                    "formula": "CIO",
                    "other": "CIS",
                },
            ]
        )
        assert report.ok
        checker = ModelChecker(covid)
        cex = checker.counterexample("MCS(IWoS)", failed=["IW", "H3", "IT"])
        assert report["cex"].counterexample["vector"] == cex.vector
        assert report["cex"].counterexample["def7_compliant"] == cex.def7_compliant
        idp = checker.independence("CIO", "CIS")
        assert report["idp"].holds is idp.independent
        assert report["idp"].independence["shared"] == sorted(idp.shared)

    def test_multi_scenario_routing(self, covid):
        analyzer = BatchAnalyzer({"covid": covid, "fig1": figure1_tree()})
        report = analyzer.run(
            [
                {"id": "a", "kind": "mcs", "tree": "fig1"},
                {"id": "b", "kind": "mcs", "tree": "covid"},
            ]
        )
        assert report.ok
        assert [set(s) for s in report["a"].sets] == [
            set(s) for s in ModelChecker(figure1_tree()).minimal_cut_sets()
        ]
        assert len(report["b"].sets) == 12  # the paper's 12 COVID MCSs


class TestSharingAndStats:
    def test_structural_dedup_counts_equal_asts(self, analyzer):
        report = analyzer.run(
            ["exists MCS(IWoS)", "exists  MCS( IWoS )", "exists MCS(IWoS)"]
        )
        stats = report.stats["queries"]
        assert stats["statements"] == 3
        assert stats["unique_statements"] == 1
        assert stats["structural_dedup"] == 2
        assert len({r.holds for r in report.results}) == 1

    def test_cache_statistics_are_monotone_across_batches(self, analyzer):
        first = analyzer.run(BATTERY)
        manager = analyzer.session().checker.manager
        after_first = manager.op_stats.snapshot()
        second = analyzer.run(BATTERY)
        after_second = manager.op_stats.snapshot()
        for key, value in after_first.items():
            assert after_second[key] >= value
        # The repeat battery is answered entirely from caches.
        scenario = second.stats["scenarios"]["default"]
        assert scenario["translation"]["formula_misses"] == 0
        assert scenario["translation"]["formula_hits"] > 0
        assert scenario["parse"]["misses"] == 0
        assert first.ok and second.ok
        assert [r.holds for r in first.results] == [
            r.holds for r in second.results
        ]

    def test_shared_subformulas_hit_translation_cache(self, analyzer):
        report = analyzer.run(
            ["exists (MCS(IWoS) & H1)", "exists (MCS(IWoS) & H2)"]
        )
        scenario = report.stats["scenarios"]["default"]
        # MCS(IWoS) and its operand are translated once, then hit.
        assert scenario["translation"]["formula_hits"] >= 1

    def test_per_query_timing_recorded(self, analyzer):
        report = analyzer.run(BATTERY)
        assert all(r.elapsed_ms >= 0.0 for r in report.results)
        assert report.elapsed_ms > 0.0
        assert report.stats["phases"]["translate_ms"] >= 0.0


class TestErrorHandling:
    def test_bad_syntax_is_isolated_to_its_query(self, analyzer):
        report = analyzer.run(["exists MCS(IWoS)", "bogus ( syntax"])
        assert not report.ok
        assert report[0].ok and report[1].ok is False
        assert report[1].error

    def test_unknown_scenario_reported_per_query(self, analyzer):
        report = analyzer.run([{"kind": "mcs", "tree": "nope"}])
        assert not report.ok
        assert "unknown scenario" in report[0].error

    def test_layer1_check_without_vector_errors(self, analyzer):
        report = analyzer.run(["IS & MoT"])
        assert not report.ok
        assert report[0].error

    def test_malformed_specs_raise(self):
        with pytest.raises(QuerySpecError):
            specs_from_any([{"kind": "frobnicate", "formula": "A"}])
        with pytest.raises(QuerySpecError):
            specs_from_any([{"formula": "A", "wat": 1}])
        with pytest.raises(QuerySpecError):
            QuerySpec(id="x", kind="mcs", failed=("A",), bits=(1,))

    def test_flat_probability_unknown_to_every_scenario_is_rejected(
        self, covid
    ):
        trees = {"covid": covid, "vot": example_vot_tree()}
        # A flat entry any one scenario uses is accepted ...
        BatchAnalyzer(trees, probabilities={"H1": 0.1, "a": 0.2})
        # ... and the ones no scenario uses are named, sorted.
        with pytest.raises(QuerySpecError) as raised:
            BatchAnalyzer(
                trees,
                probabilities={"ZZ": 0.1, "H1": 0.1, "AA": 0.2, "vot": {}},
            )
        assert str(raised.value) == (
            "probabilities for event(s) unknown to every scenario: AA, ZZ"
        )

    def test_check_many_returns_none_on_error(self, analyzer):
        values = analyzer.check_many(["exists MCS(IWoS)", "bogus ("])
        assert values[0] is True and values[1] is None

    def test_hostile_nesting_is_a_syntax_error_row(self, analyzer):
        report = analyzer.run(
            [
                {"kind": "check", "formula": "exists " + "(" * 300 + "IS" + ")" * 300},
                {"kind": "check", "formula": "exists (" + "!" * 2000 + "IS)"},
                "exists IS",
            ]
        )
        rows = report.to_dict()["results"]
        assert [row.get("error_kind") for row in rows[:2]] == [
            "BFLSyntaxError",
            "BFLSyntaxError",
        ]
        assert report[2].ok and report[2].holds is True

    def test_formulas_at_the_nesting_bound_answer(self, covid):
        deepest = [
            "exists " + "(" * MAX_NESTING + "IS" + ")" * MAX_NESTING,
            "exists (" + "!" * (MAX_DEPTH - 1) + "IS)",
            "exists (" + " & ".join(["IS"] * MAX_DEPTH) + ")",
            {"kind": "satisfaction-set", "formula": "MCS(" * (MAX_NESTING - 1) + "IS" + ")" * (MAX_NESTING - 1)},
            {"kind": "probability", "formula": " | ".join(["IS", "MoT"] * (MAX_DEPTH // 2))},
        ]
        report = BatchAnalyzer(covid, uniform=0.1).run(deepest)
        assert all(row.ok for row in report.results), report.to_dict()


class TestBatchCli:
    def _query_file(self, tmp_path, payload):
        path = tmp_path / "queries.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_round_trip(self, tmp_path, capsys, covid):
        path = self._query_file(
            tmp_path,
            {
                "tree": "covid",
                "queries": [
                    {"id": "p1", "formula": "forall (IS => MoT)"},
                    {"id": "cuts", "kind": "mcs"},
                    {"formula": "[[ MCS(MoT) & IS ]]"},
                ],
            },
        )
        assert main(["batch", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert len(report["results"]) == 3
        by_id = {r["id"]: r for r in report["results"]}
        assert by_id["p1"]["holds"] is False
        assert len(by_id["cuts"]["sets"]) == 12
        assert by_id["q3"]["sets"] == [["H1", "H5", "IS"]]
        assert report["stats"]["scenarios"]["default"]["bdd_nodes"] > 0

    def test_output_file_and_failing_query_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = self._query_file(
            tmp_path,
            {"queries": [{"id": "bad", "formula": "broken ("}]},
        )
        assert main(["batch", path, "--output", str(out), "--pretty"]) == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["ok"] is False
        assert report["results"][0]["error"]

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "queries.json"
        path.write_text(json.dumps({"nope": []}), encoding="utf-8")
        assert main(["batch", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_or_invalid_json_exits_2(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "missing.json")]) == 2
        assert "cannot read query file" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["batch", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_scope_trees_and_method_exit_2(self, tmp_path, capsys):
        cases = [
            {"scope": "bogus", "queries": []},
            {"trees": "not-a-mapping", "queries": []},
            {
                "queries": [
                    {
                        "kind": "counterexample",
                        "formula": "IWoS",
                        "failed": ["H1"],
                        "method": "typo",
                    }
                ]
            },
        ]
        for payload in cases:
            path = self._query_file(tmp_path, payload)
            assert main(["batch", path]) == 2
            assert "error:" in capsys.readouterr().err


class TestSpecValidation:
    def test_layer2_check_with_vector_is_per_query_error(self, analyzer):
        report = analyzer.run(
            [{"kind": "check", "formula": "forall (IS => MoT)", "failed": ["H1"]}]
        )
        assert not report.ok
        assert "layer-2" in report[0].error

    def test_unknown_view_and_method_rejected(self):
        with pytest.raises(QuerySpecError):
            QuerySpec(id="x", formula="A", view="Operational")
        with pytest.raises(QuerySpecError):
            QuerySpec(id="x", formula="A", method="typo")

    def test_operational_view_selected(self, analyzer):
        report = analyzer.run(
            [{"id": "s", "formula": "[[ MPS(IWoS) ]]", "view": "operational"}]
        )
        assert report.ok
        checker = ModelChecker(build_covid_tree())
        assert [set(s) for s in report["s"].sets] == [
            set(s)
            for s in checker.satisfaction_set("MPS(IWoS)").operational_sets()
        ]


class TestAdoptSession:
    def test_the_registered_tree_object_is_not_hashed(self, monkeypatch):
        tree = build_covid_tree()
        session = BatchAnalyzer({"covid": tree}).session("covid")
        analyzer = BatchAnalyzer({"covid": tree})
        hashed = []
        monkeypatch.setattr(
            "repro.service.batch.tree_fingerprint", hashed.append
        )
        assert analyzer.adopt_session("covid", session) is session
        assert hashed == []
        monkeypatch.undo()
        assert analyzer.run([{"id": "m", "kind": "mcs", "tree": "covid"}]).ok

    def test_an_equal_tree_object_adopts(self):
        session = BatchAnalyzer({"covid": build_covid_tree()}).session("covid")
        analyzer = BatchAnalyzer({"covid": build_covid_tree()})
        assert session.tree is not analyzer.trees["covid"]
        assert analyzer.adopt_session("covid", session) is session

    def test_a_different_tree_is_refused(self):
        session = BatchAnalyzer({"covid": figure1_tree()}).session("covid")
        analyzer = BatchAnalyzer({"covid": build_covid_tree()})
        with pytest.raises(SnapshotError, match="fingerprint mismatch"):
            analyzer.adopt_session("covid", session)
