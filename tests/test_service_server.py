"""The `bfl serve` daemon: HTTP surface, cache tiers, parity, lifecycle.

The server's core claim is *parity by construction*: every battery is
evaluated by a real :class:`BatchAnalyzer` that adopts pooled sessions,
so HTTP answers must be query-for-query identical to a sequential batch
run — cold, warm (live pool) and rewarm (snapshot store after a
restart) alike.  The tests here drive a real listener over real
sockets; only timings are normalised before comparison.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfl_strategies import small_trees
from repro.cli import main as cli_main
from repro.errors import QuerySpecError
from repro.ft import dumps, figure1_tree
from repro.service import (
    AnalysisServer,
    BatchAnalyzer,
    ServerConfig,
    SnapshotStore,
    TokenBucket,
    tree_fingerprint,
)
from repro.service.server import ROUTES
from repro.testing.chaos import corrupt_store_entry

UNIFORM = 0.01

#: One query per registered kind (tests/test_engine_registry.py pins
#: the registry to exactly these nine).
ALL_KINDS = [
    {"id": "k-check", "kind": "check", "formula": "forall (IS => MoT)"},
    {"id": "k-sat", "kind": "satisfaction-set", "formula": "MCS(MoT) & IS"},
    {"id": "k-mcs", "kind": "mcs"},
    {"id": "k-mps", "kind": "mps"},
    {
        "id": "k-cex",
        "kind": "counterexample",
        "formula": "MCS(IWoS)",
        "failed": ["IW", "H3", "IT"],
    },
    {
        "id": "k-idp",
        "kind": "independence",
        "formula": "CIO",
        "other": "CIS",
    },
    {"id": "k-prob", "kind": "probability", "formula": "IWoS"},
    {
        "id": "k-sweep",
        "kind": "probability-sweep",
        "formula": "IWoS",
        "profiles": [{}, {"H1": 0.9}],
    },
    {
        "id": "k-synth",
        "kind": "synthesize",
        "formula": "IWoS /\\ !IS",
        "candidates": ["H1", "H2", "IS"],
    },
]


def normalised(rows):
    """Result rows with per-query timings zeroed."""
    return [{**row, "elapsed_ms": 0.0} for row in rows]


class ServerHarness:
    """A real AnalysisServer on an ephemeral port, in a thread."""

    def __init__(self, trees, config=None, **kwargs):
        self.server = AnalysisServer(
            trees, config or ServerConfig(port=0), **kwargs
        )
        ready = threading.Event()
        self.thread = threading.Thread(
            target=self.server.run,
            kwargs={
                "ready": lambda _s: ready.set(),
                "install_signal_handlers": False,
            },
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(30), "server did not come up"

    def request(self, method, path, payload=None):
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.server.port, timeout=60
        )
        try:
            body = None if payload is None else json.dumps(payload)
            connection.request(method, path, body=body)
            response = connection.getresponse()
            data = json.loads(response.read())
            return response.status, data, dict(response.getheaders())
        finally:
            connection.close()

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, payload):
        return self.request("POST", path, payload)

    def stop(self):
        self.server.request_drain()
        self.thread.join(30)
        assert not self.thread.is_alive()


@contextmanager
def running(trees, config=None, **kwargs):
    harness = ServerHarness(trees, config, **kwargs)
    try:
        yield harness
    finally:
        harness.stop()


@pytest.fixture(scope="module")
def covid_server(covid):
    harness = ServerHarness(covid)
    yield harness
    harness.stop()


class TestHTTPSurface:
    def test_healthz(self, covid_server):
        status, data, _ = covid_server.get("/healthz")
        assert status == 200
        assert data["status"] == "ok"
        assert data["scenarios"] == 1

    def test_unknown_path_404_lists_endpoints(self, covid_server):
        status, data, _ = covid_server.get("/nope")
        assert status == 404
        assert data["error_kind"] == "not-found"
        assert data["endpoints"] == [
            f"{route.method} {route.path}" for route in ROUTES
        ]

    def test_wrong_method_405_with_allow(self, covid_server):
        status, data, headers = covid_server.get("/battery")
        assert status == 405
        assert data["error_kind"] == "method-not-allowed"
        assert headers["Allow"] == "POST"
        status, data, _ = covid_server.request("POST", "/stats", {})
        assert status == 405

    def test_malformed_json_400(self, covid_server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", covid_server.server.port, timeout=60
        )
        try:
            connection.request("POST", "/battery", body="{not json")
            response = connection.getresponse()
            data = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert data["error_kind"] == "bad-request"

    def test_server_state_fields_rejected(self, covid_server):
        status, data, _ = covid_server.post(
            "/battery", {"queries": ["exists IWoS"], "workers": 4}
        )
        assert status == 400
        assert "workers" in data["error"]
        assert "fixed at startup" in data["error"]

    def test_battery_without_queries_400(self, covid_server):
        status, data, _ = covid_server.post("/battery", {"uniform": 0.5})
        assert status == 400
        assert "queries" in data["error"]

    def test_bad_query_spec_400(self, covid_server):
        status, data, _ = covid_server.post(
            "/battery", {"queries": [{"kind": "no-such-kind"}]}
        )
        assert status == 400

    def test_scenarios_payload(self, covid_server, covid):
        status, data, _ = covid_server.get("/scenarios")
        assert status == 200
        (entry,) = data["scenarios"]
        assert entry["name"] == "default"
        assert entry["top"] == covid.top
        assert len(entry["fingerprint"]) == 64
        assert entry["stored"] is False  # no store configured

    def test_stats_payload_shape(self, covid_server):
        status, data, _ = covid_server.get("/stats")
        assert status == 200
        assert data["server"]["requests"]["total"] >= 1
        assert data["pool"]["capacity"] == 8
        assert data["store"] is None


class TestParity:
    def test_all_kinds_battery_matches_sequential_batch(
        self, covid_server, covid
    ):
        status, data, _ = covid_server.post(
            "/battery", {"queries": ALL_KINDS, "uniform": UNIFORM}
        )
        assert status == 200
        assert all(row["ok"] for row in data["results"])
        sequential = BatchAnalyzer(covid, uniform=UNIFORM).run(ALL_KINDS)
        assert normalised(data["results"]) == normalised(
            sequential.to_dict()["results"]
        )
        # A second, warm request answers identically (live pool hit).
        _, warm, _ = covid_server.post(
            "/battery", {"queries": ALL_KINDS, "uniform": UNIFORM}
        )
        assert normalised(warm["results"]) == normalised(data["results"])

    def test_query_endpoint_bare_and_wrapped(self, covid_server, covid):
        status, data, _ = covid_server.post("/query", "exists IWoS")
        assert status == 200
        assert data["result"]["ok"] is True
        assert data["result"]["holds"] is True
        status, data, _ = covid_server.post(
            "/query",
            {
                "query": {"kind": "probability", "formula": "IWoS"},
                "uniform": UNIFORM,
            },
        )
        assert status == 200
        expected = (
            BatchAnalyzer(covid, uniform=UNIFORM)
            .run([{"kind": "probability", "formula": "IWoS"}])
            .to_dict()["results"][0]
        )
        assert normalised([data["result"]]) == normalised([expected])

    def test_concurrent_batteries_share_one_session(self, covid):
        battery = {"queries": ALL_KINDS, "uniform": UNIFORM}
        with running(covid) as harness:
            results, errors = [], []

            def fire():
                try:
                    results.append(harness.post("/battery", battery))
                except Exception as exc:  # noqa: BLE001 — collected
                    errors.append(exc)

            threads = [threading.Thread(target=fire) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not errors
            assert len(results) == 4
            reference = normalised(results[0][1]["results"])
            for status, data, _ in results:
                assert status == 200
                assert normalised(data["results"]) == reference
            pool = harness.server.pool.stats()
            # All four batteries used the same weights, hence one key.
            assert pool["sessions"] == 1
            assert pool["hits"] >= 1


class TestCacheTiers:
    def test_rewarm_round_trip_matches_cold(self, covid, tmp_path):
        store_path = str(tmp_path / "kernels")
        battery = {"queries": ALL_KINDS, "uniform": UNIFORM}
        config = ServerConfig(port=0, store_path=store_path)

        with running(covid, config) as first:
            _, cold, _ = first.post("/battery", battery)
            fingerprint = first.get("/scenarios")[1]["scenarios"][0][
                "fingerprint"
            ]
        # Drain persisted the pooled session into the store.
        store = SnapshotStore(store_path)
        assert fingerprint in store

        with running(covid, ServerConfig(port=0, store_path=store_path)) as second:
            _, scenarios, _ = second.get("/scenarios")
            assert scenarios["scenarios"][0]["stored"] is True
            _, rewarm, _ = second.post("/battery", battery)
            assert second.server._counters["rewarms"] >= 1
            _, stats, _ = second.get("/stats")
            assert stats["store"]["hits"] >= 1
        assert normalised(rewarm["results"]) == normalised(cold["results"])
        assert all(row["ok"] for row in rewarm["results"])

    def test_corrupt_store_entry_degrades_to_cold_build(
        self, covid, tmp_path
    ):
        store_path = str(tmp_path / "kernels")
        battery = {"queries": [{"kind": "mcs"}, "exists IWoS"]}
        with running(covid, ServerConfig(port=0, store_path=store_path)) as first:
            _, cold, _ = first.post("/battery", battery)
            fingerprint = first.get("/scenarios")[1]["scenarios"][0][
                "fingerprint"
            ]

        store = SnapshotStore(store_path)
        corrupt_store_entry(store, fingerprint, seed=7)

        with running(covid, ServerConfig(port=0, store_path=store_path)) as second:
            _, report, _ = second.post("/battery", battery)
            # Same answers — the corrupt snapshot cost a rebuild, not
            # correctness — and the degradation is reported.
            assert normalised(report["results"]) == normalised(
                cold["results"]
            )
            warnings = report["stats"].get("warnings", [])
            assert any(
                w["kind"] == "snapshot-integrity" for w in warnings
            )

    def test_batch_store_warm_starts_server(self, covid, tmp_path, capsys):
        """A directory written by ``bfl batch --store`` is a valid
        ``bfl serve --store`` warm tier."""
        store_dir = tmp_path / "kernels"
        battery = {"queries": ALL_KINDS, "uniform": UNIFORM}
        queries = tmp_path / "battery.json"
        queries.write_text(json.dumps(battery))
        assert cli_main(["batch", str(queries), "--store", str(store_dir)]) == 0
        batch = json.loads(capsys.readouterr().out)
        with running(covid) as cold_server:
            _, cold, _ = cold_server.post("/battery", battery)
        config = ServerConfig(port=0, store_path=str(store_dir))
        with running(covid, config) as warm_server:
            _, rewarm, _ = warm_server.post("/battery", battery)
            assert warm_server.server._counters["rewarms"] == 1
            _, stats, _ = warm_server.get("/stats")
            assert stats["store"]["hits"] == 1
        assert "warnings" not in rewarm["stats"]
        expected = json.dumps(normalised(cold["results"]), sort_keys=True)
        for rows in (rewarm["results"], batch["results"]):
            assert json.dumps(normalised(rows), sort_keys=True) == expected

    def test_server_drain_warm_starts_batch_store(
        self, covid, tmp_path, capsys, monkeypatch
    ):
        """The reverse: a store persisted by the server's drain serves
        every scenario of ``bfl batch --store`` from a hit."""
        fig1 = figure1_tree()
        (tmp_path / "fig1.dft").write_text(dumps(fig1))
        store_dir = tmp_path / "kernels"
        queries = [
            {"id": "c-mcs", "kind": "mcs"},
            {"id": "c-check", "formula": "forall (IS => MoT)"},
            {"id": "f-mcs", "kind": "mcs", "tree": "fig1"},
            {"id": "f-prob", "kind": "probability", "formula": fig1.top,
             "tree": "fig1"},
        ]
        config = ServerConfig(port=0, store_path=str(store_dir))
        with running({"default": covid, "fig1": fig1}, config) as server:
            _, served, _ = server.post(
                "/battery", {"queries": queries, "uniform": UNIFORM}
            )
        assert len(SnapshotStore(store_dir).fingerprints()) == 2

        hits = []
        get = SnapshotStore.get

        def counting_get(self, fingerprint):
            entry = get(self, fingerprint)
            hits.append(entry is not None)
            return entry

        monkeypatch.setattr(SnapshotStore, "get", counting_get)
        battery = tmp_path / "battery.json"
        battery.write_text(
            json.dumps(
                {
                    "trees": {"fig1": str(tmp_path / "fig1.dft")},
                    "uniform": UNIFORM,
                    "queries": queries,
                }
            )
        )
        assert cli_main(["batch", str(battery), "--store", str(store_dir)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert hits == [True, True]
        assert "warnings" not in report["stats"]
        assert normalised(report["results"]) == normalised(served["results"])

    @settings(max_examples=5, deadline=None)
    @given(tree=small_trees(), data=st.data())
    def test_rewarm_differential_on_random_trees(
        self, tree, data, tmp_path_factory
    ):
        """Cold server, drained store, rewarmed server and a plain
        sequential BatchAnalyzer all agree on random trees."""
        store_path = str(
            tmp_path_factory.mktemp("rewarm-store") / "kernels"
        )
        battery = {
            "queries": [
                {"id": "q1", "kind": "mcs"},
                {"id": "q2", "kind": "mps"},
                {"id": "q3", "formula": f"exists {tree.top}"},
            ]
        }
        expected = normalised(
            BatchAnalyzer(tree).run(battery["queries"]).to_dict()["results"]
        )
        with running(tree, ServerConfig(port=0, store_path=store_path)) as first:
            _, cold, _ = first.post("/battery", battery)
        with running(tree, ServerConfig(port=0, store_path=store_path)) as second:
            _, rewarm, _ = second.post("/battery", battery)
            assert second.server._counters["rewarms"] >= 1
        assert normalised(cold["results"]) == expected
        assert normalised(rewarm["results"]) == expected


class TestGovernedRequests:
    def test_deadline_tripped_query_is_a_structured_row(self, covid):
        with running(covid) as harness:
            status, data, _ = harness.post(
                "/battery",
                {
                    "queries": [{"id": "doomed", "kind": "mcs"}],
                    "deadline_ms": 1e-6,
                },
            )
            # Query failure is NOT an HTTP failure.
            assert status == 200
            (row,) = data["results"]
            assert row["ok"] is False
            assert row["error_kind"] == "deadline"

    def test_chaos_budget_trip_through_server(self, covid, monkeypatch):
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps(
                {"budget_trip_queries": ["victim"], "trip_step_budget": 1}
            ),
        )
        with running(covid) as harness:
            status, data, _ = harness.post(
                "/battery",
                {
                    "queries": [
                        {"id": "victim", "kind": "mcs"},
                        {"id": "bystander", "formula": "exists IWoS"},
                    ]
                },
            )
        assert status == 200
        by_id = {row["id"]: row for row in data["results"]}
        assert by_id["victim"]["ok"] is False
        assert by_id["victim"]["error_kind"] == "resource-limit"
        assert by_id["bystander"]["ok"] is True

    @pytest.mark.parametrize(
        "fields",
        [
            {"deadline_ms": "100"},
            {"probabilities": {"IW": "x"}},
            {"uniform": True},
            {"query_timeout_ms": -1},
        ],
        ids=["string-deadline", "string-probability", "bool-uniform", "negative-timeout"],
    )
    @pytest.mark.parametrize("path", ["/battery", "/query"])
    def test_invalid_option_field_is_400(self, covid_server, fields, path):
        """Option fields go through AnalysisOptions: a bad value is a
        structured 400 before admission, never a 500 or a p = 1.0."""
        key = "queries" if path == "/battery" else "query"
        query = ["exists IWoS"] if path == "/battery" else "exists IWoS"
        status, data, _ = covid_server.post(path, {key: query, **fields})
        assert status == 400, data
        assert data["error_kind"] == "QuerySpecError"
        assert covid_server.server._counters["errors"] == 0

    def test_bad_request_option_is_400(self, covid):
        with running(covid) as harness:
            status, data, _ = harness.post(
                "/battery",
                {"queries": ["exists IWoS"], "probabilities": "nope"},
            )
            assert status == 400


class TestAdmission:
    def test_rate_limit_429_with_retry_hint(self, covid):
        config = ServerConfig(port=0, rate_limit=0.001, rate_burst=1)
        with running(covid, config) as harness:
            status, _, _ = harness.get("/scenarios")
            assert status == 200  # consumed the only token
            status, data, headers = harness.get("/scenarios")
            assert status == 429
            assert data["error_kind"] == "rate-limited"
            assert data["retry_after_ms"] > 0
            assert int(headers["Retry-After"]) >= 1
            # /healthz stays exempt for liveness probes.
            status, _, _ = harness.get("/healthz")
            assert status == 200
            counters = harness.server._counters
            assert counters["rejected_rate_limited"] >= 1

    def test_draining_server_rejects_new_work(self, covid):
        with running(covid) as harness:
            harness.server._draining = True
            try:
                status, data, _ = harness.get("/healthz")
                assert status == 503
                assert data["status"] == "draining"
                status, data, _ = harness.post(
                    "/battery", {"queries": ["exists IWoS"]}
                )
                assert status == 503
                assert data["error_kind"] == "server-busy"
                assert data["draining"] is True
            finally:
                harness.server._draining = False

    def test_queue_limit_zero_admits_when_a_slot_is_free(self, covid):
        config = ServerConfig(port=0, queue_limit=0)
        with running(covid, config) as harness:
            for _ in range(2):
                status, data, _ = harness.post(
                    "/battery", {"queries": ["exists IWoS"]}
                )
                assert status == 200, data
            assert harness.server._counters["rejected_busy"] == 0

    @pytest.mark.parametrize(
        "fields",
        [
            {"pool_size": 0},
            {"max_concurrency": 0},
            {"queue_limit": -1},
            {"rate_limit": 0},
            {"rate_burst": 0.5},
            {"port": 70000},
            {"max_concurrency": True},
        ],
    )
    def test_server_config_validates(self, fields):
        with pytest.raises(QuerySpecError):
            ServerConfig(**fields)

    def test_token_bucket_refills_at_rate(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=lambda: clock[0])
        ok, _ = bucket.try_acquire()
        assert ok
        ok, retry_after = bucket.try_acquire()
        assert not ok
        assert retry_after == pytest.approx(500.0)
        clock[0] += 0.5  # one token refilled
        ok, _ = bucket.try_acquire()
        assert ok

    def test_token_bucket_validates(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.pop("REPRO_CHAOS", None)
    return env


def _spawn_serve(store_dir):
    """``bfl serve --port 0 --store DIR`` as a child; returns
    ``(process, port)`` once it is listening."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--store",
            str(store_dir),
        ],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = process.stdout.readline()
    if "listening on http://127.0.0.1:" not in line:
        process.kill()
        raise AssertionError(line + process.communicate()[0])
    return process, int(line.split("http://127.0.0.1:", 1)[1].split()[0])


class TestCLIEndToEnd:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--pool-size", "0"],
            ["--rate-burst", "-1"],
            ["--max-concurrency", "0"],
            ["--queue-limit", "-1"],
            ["--rate-limit", "0"],
            ["--deadline", "0"],
        ],
    )
    def test_bad_serve_flag_exits_2_with_one_line(
        self, argv, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            AnalysisServer, "run", lambda *a, **k: pytest.fail("started")
        )
        assert cli_main(["serve", "--port", "0", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    def test_bfl_serve_subprocess_drains_on_sigterm(self, tmp_path):
        process, port = _spawn_serve(tmp_path / "kernels")
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=30
            )
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"
            finally:
                connection.close()
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "drained, exiting" in out

    def test_sigterm_with_open_keep_alive_connection(self, covid, tmp_path):
        """The drain cancels idle keep-alive handlers; each must finish
        closing its socket before the loop stops, or the handler is
        cancelled again inside ``wait_closed`` and logged."""
        store_dir = tmp_path / "kernels"
        process, port = _spawn_serve(store_dir)
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request(
                "POST",
                "/battery",
                body=json.dumps({"queries": [{"kind": "mcs"}]}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            # The socket stays open across the signal.
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=30)
        finally:
            connection.close()
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "Traceback" not in out
        assert "drained, exiting" in out
        assert [entry.name for entry in store_dir.iterdir()] == [
            f"{tree_fingerprint(covid)}.snap"
        ]


class TestDocsGate:
    """The docs drift gate, runnable from the suite as well as CI."""

    @pytest.fixture(autouse=True)
    def _benchmarks_on_path(self):
        benchmarks = str(
            Path(__file__).resolve().parent.parent / "benchmarks"
        )
        sys.path.insert(0, benchmarks)
        yield
        sys.path.remove(benchmarks)

    def test_all_docs_checks_pass(self):
        import docs_gate

        for check in docs_gate.CHECKS:
            assert check() == [], check.__name__

    def test_doc_flags_catch_a_retired_flag(self, tmp_path):
        import docs_gate

        doc = tmp_path / "README.md"
        doc.write_text(
            "```bash\n"
            "bfl batch queries.json --workers 4 --snapshot kernels.json\n"
            "bfl serve --store kernels/ --port 8346  # --not-a-flag\n"
            "```\n"
            "Run `bfl batch --store DIR` or `bfl synth --json`.\n"
        )
        problems = docs_gate.check_doc_flags([doc])
        assert len(problems) == 1
        assert "README.md:2" in problems[0] and "--snapshot" in problems[0]


    def test_options_table_catches_drift(self, tmp_path, monkeypatch):
        import docs_gate

        text = docs_gate.DOCS_OPERATIONS.read_text(encoding="utf-8")
        doc = tmp_path / "operations.md"
        monkeypatch.setattr(docs_gate, "DOCS_OPERATIONS", doc)
        doc.write_text(text.replace("| `--no-gc` |", "| `--gc` |"))
        (problem,) = docs_gate.check_options_table()
        assert "'auto_gc'" in problem
        doc.write_text(text.replace("| `watchdog_ms` |", "| `watchdog` |"))
        (problem,) = docs_gate.check_options_table()
        assert "AnalysisOptions has" in problem


class TestBatchPin:
    """Pin: the session-pool extraction must not change BatchAnalyzer.

    The covid battery (one query per registered kind) must produce
    byte-identical reports sequentially and sharded over two workers.
    """

    def test_sequential_and_two_workers_byte_identical(self, covid):
        sequential = BatchAnalyzer(covid, uniform=UNIFORM).run(ALL_KINDS)
        sharded = BatchAnalyzer(covid, uniform=UNIFORM, workers=2).run(
            ALL_KINDS
        )
        assert json.dumps(
            normalised(sequential.to_dict()["results"]), sort_keys=True
        ) == json.dumps(
            normalised(sharded.to_dict()["results"]), sort_keys=True
        )
