"""One AnalysisOptions object behind every entry path.

The same settings given as ``BatchAnalyzer`` keyword arguments,
``bfl batch`` query-file keys, ``bfl batch``/``bfl serve`` flags and an
HTTP battery body must build equal :class:`AnalysisOptions` and answer
byte-identically (timings aside); an invalid value must be rejected on
every surface that can carry it, with the same message.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.cli import main as cli_main
from repro.errors import QuerySpecError
from repro.ft import dumps, figure1_tree
from repro.logic.scope import MinimalityScope
from repro.service import (
    AnalysisOptions,
    AnalysisServer,
    BatchAnalyzer,
    ServerConfig,
)
from repro.service.server import SERVE_DEFAULTS

from test_service_server import ALL_KINDS, normalised, running

# ----------------------------------------------------------------------
# The object itself
# ----------------------------------------------------------------------


class TestAnalysisOptions:
    def test_defaults(self):
        options = AnalysisOptions()
        assert options.scope is MinimalityScope.SUPPORT
        assert options.workers == 1 and options.shard_retries == 2
        assert options.retry_backoff_ms == 250.0
        assert options.probabilities == {}
        assert SERVE_DEFAULTS == dataclasses.replace(options, auto_gc=True)
        assert ServerConfig().analysis == SERVE_DEFAULTS

    def test_frozen_copy_and_picklable(self):
        weights = {"H1": 0.1, "fig1": {"IW": 0.2}}
        options = AnalysisOptions(scope="full", probabilities=weights)
        assert options.scope is MinimalityScope.FULL
        weights["H1"] = 0.9
        weights["fig1"]["IW"] = 0.9
        assert options.probabilities == {"H1": 0.1, "fig1": {"IW": 0.2}}
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.workers = 4  # type: ignore[misc]
        assert pickle.loads(pickle.dumps(options)) == options

    def test_flag_wins_over_file_key(self):
        data = {"gc": True, "uniform": 0.2, "workers": 3, "deadline_ms": None}
        options = AnalysisOptions.from_mapping(
            data, {"uniform": 0.4, "workers": None}
        )
        assert options.auto_gc is True
        assert options.uniform == 0.4
        assert options.workers == 3
        assert options.deadline_ms is None

    def test_api_only_fields_have_no_file_key(self):
        data = {"gc_trigger": 5, "reorder_trigger": 7, "auto_gc": True}
        assert AnalysisOptions.from_mapping(data) == AnalysisOptions()

    def test_base_is_kept_where_nothing_is_given(self):
        options = AnalysisOptions.from_mapping(
            {"uniform": 0.1}, base=SERVE_DEFAULTS
        )
        assert options.auto_gc is True and options.uniform == 0.1

    def test_analyzer_takes_options_or_fields_not_both(self, fig1):
        options = AnalysisOptions(uniform=0.1)
        assert BatchAnalyzer(fig1, options).options is options
        assert BatchAnalyzer(fig1, uniform=0.1).options == options
        with pytest.raises(TypeError):
            BatchAnalyzer(fig1, options, uniform=0.1)
        with pytest.raises(TypeError):
            BatchAnalyzer(fig1, MinimalityScope.FULL)
        with pytest.raises(TypeError):
            BatchAnalyzer(fig1, no_such_option=1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"scope": "bogus"},
            {"auto_gc": 1},
            {"gc_trigger": 0},
            {"reorder_trigger": True},
            {"probabilities": ["H1"]},
            {"probabilities": {"H1": float("nan")}},
            {"probabilities": {"fig1": {"IW": -0.1}}},
            {"uniform": "0.1"},
            {"workers": 1.0},
            {"deadline_ms": True},
            {"query_timeout_ms": float("nan")},
            {"shard_retries": -1},
            {"retry_backoff_ms": "250"},
            {"watchdog_ms": -1},
        ],
    )
    def test_invalid_values_raise(self, fields):
        with pytest.raises(QuerySpecError):
            AnalysisOptions(**fields)


# ----------------------------------------------------------------------
# Every surface, one answer
# ----------------------------------------------------------------------

UNIFORM = 0.01
DEADLINE = 60000.0
TIMEOUT = 30000.0

SETUPS = {
    "covid": {
        "probabilities": {"H1": 0.02},
        "queries": ALL_KINDS,
    },
    "two-scenarios": {
        "probabilities": {"H1": 0.02, "fig1": {"IW": 0.3}},
        "queries": ALL_KINDS
        + [
            {"id": "f-mcs", "kind": "mcs", "tree": "fig1"},
            {"id": "f-p", "kind": "probability", "formula": "CP/R", "tree": "fig1"},
        ],
    },
}


@pytest.fixture
def recorded(monkeypatch):
    """Every AnalysisOptions a BatchAnalyzer is built with."""
    seen = []
    init = BatchAnalyzer.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self.options)

    monkeypatch.setattr(BatchAnalyzer, "__init__", recording_init)
    return seen


def _rows(results):
    return json.dumps(normalised(results), sort_keys=True)


def _trees(setup, covid):
    trees = {"default": covid}
    if setup == "two-scenarios":
        trees["fig1"] = figure1_tree()
    return trees


def _batch_file(tmp_path, setup, extra):
    data = {"queries": SETUPS[setup]["queries"], **extra}
    if setup == "two-scenarios":
        fig1_path = tmp_path / "fig1.dft"
        fig1_path.write_text(dumps(figure1_tree()))
        data["trees"] = {"fig1": str(fig1_path)}
    path = tmp_path / "battery.json"
    path.write_text(json.dumps(data))
    return str(path)


def _serve(argv):
    """Run ``bfl serve ARGV`` up to the point where the server would
    start; returns ``(exit code, the config it would run with)``."""
    captured = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            AnalysisServer,
            "run",
            lambda self, *a, **k: captured.setdefault("config", self.config),
        )
        code = cli_main(["serve", "--port", "0", *argv])
    return code, captured.get("config")


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_every_surface_builds_equal_options_and_answers(
    setup, covid, tmp_path, capsys, recorded
):
    probabilities = SETUPS[setup]["probabilities"]
    queries = SETUPS[setup]["queries"]
    trees = _trees(setup, covid)
    http_fields = {
        "uniform": UNIFORM,
        "probabilities": probabilities,
        "deadline_ms": DEADLINE,
        "query_timeout_ms": TIMEOUT,
    }
    rows = {}

    # API keyword arguments.
    rows["api"] = BatchAnalyzer(trees, auto_gc=True, **http_fields).run(
        queries
    ).to_dict()["results"]

    # Query-file keys.
    path = _batch_file(tmp_path, setup, {"gc": True, **http_fields})
    assert cli_main(["batch", path]) == 0
    rows["file"] = json.loads(capsys.readouterr().out)["results"]

    # bfl batch flags (no batch flag carries probabilities).
    path = _batch_file(tmp_path, setup, {"probabilities": probabilities})
    flags = [
        "--gc",
        "--uniform", str(UNIFORM),
        "--deadline", str(DEADLINE),
        "--query-timeout", str(TIMEOUT),
    ]
    assert cli_main(["batch", path, *flags]) == 0
    rows["batch-flags"] = json.loads(capsys.readouterr().out)["results"]

    # HTTP body fields over the server defaults (automatic GC on).
    with running(trees, ServerConfig(port=0)) as harness:
        status, data, _ = harness.post(
            "/battery", {"queries": queries, **http_fields}
        )
    assert status == 200, data
    rows["http"] = data["results"]

    # bfl serve flags (flat --probabilities only), then a bare battery.
    if all(not isinstance(v, dict) for v in probabilities.values()):
        code, config = _serve([
            "--uniform", str(UNIFORM),
            "--probabilities",
            ",".join(f"{k}={v}" for k, v in probabilities.items()),
            "--deadline", str(DEADLINE),
            "--query-timeout", str(TIMEOUT),
        ])
        assert code == 0
        capsys.readouterr()
        with running(trees, config) as harness:
            status, data, _ = harness.post("/battery", {"queries": queries})
        assert status == 200, data
        rows["serve-flags"] = data["results"]

    expected = AnalysisOptions(
        auto_gc=True,
        uniform=UNIFORM,
        probabilities=probabilities,
        deadline_ms=DEADLINE,
        query_timeout_ms=TIMEOUT,
    )
    assert recorded and all(options == expected for options in recorded)
    assert all(row["ok"] for row in rows["api"])
    reference = _rows(rows["api"])
    for surface, results in rows.items():
        assert _rows(results) == reference, surface


#: (field, value, bfl batch flag argv, bfl serve flag argv, HTTP field?)
#: — None where a surface cannot carry the value (argparse types the
#: flags; ``workers`` and friends are server state over HTTP).
INVALID = [
    ("deadline_ms", "100", None, None, True),
    ("deadline_ms", -5.5, ["--deadline", "-5.5"], ["--deadline", "-5.5"], True),
    ("query_timeout_ms", 0.0, ["--query-timeout", "0"], ["--query-timeout", "0"], True),
    ("uniform", True, None, None, True),
    ("uniform", 1.5, ["--uniform", "1.5"], ["--uniform", "1.5"], True),
    ("probabilities", {"IW": "x"}, None, ["--probabilities", "IW=x"], True),
    ("probabilities", "nope", None, None, True),
    ("workers", 0, ["--workers", "0"], None, False),
    ("shard_retries", -1, ["--shard-retries", "-1"], None, False),
    ("retry_backoff_ms", -2.5, ["--retry-backoff", "-2.5"], None, False),
    ("watchdog_ms", 0.0, ["--watchdog", "0"], None, False),
    ("auto_gc", "yes", None, None, False),
    ("scope", "bogus", None, None, False),
]


@pytest.mark.parametrize(
    "field, value, batch_flags, serve_flags, http",
    INVALID,
    ids=[f"{case[0]}={case[1]!r}" for case in INVALID],
)
def test_invalid_value_same_message_everywhere(
    field, value, batch_flags, serve_flags, http, covid, tmp_path, capsys
):
    with pytest.raises(QuerySpecError) as caught:
        BatchAnalyzer(covid, **{field: value})
    message = str(caught.value)

    key = AnalysisOptions.file_key(field)
    path = _batch_file(tmp_path, "covid", {key: value})
    assert cli_main(["batch", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"

    if batch_flags is not None:
        path = _batch_file(tmp_path, "covid", {})
        assert cli_main(["batch", path, *batch_flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    if serve_flags is not None:
        assert _serve(serve_flags) == (2, None)
        assert capsys.readouterr().err == f"error: {message}\n"

    if http:
        with running(covid) as harness:
            status, data, _ = harness.post(
                "/battery", {"queries": ["exists IWoS"], field: value}
            )
        assert status == 400
        assert data["error_kind"] == "QuerySpecError"
        assert data["error"] == message
