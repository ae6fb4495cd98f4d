"""Per-layer metrics of a traced run, from spans, reports and /stats.

Every ``*_ms`` figure is a per-call median of the wrapped function over
the measured window, normalised by the reference burst like the
end-to-end timings.  Counts are per battery.  A layer the workload never
calls reads 0 (cold-batch has no pool or store; warm-serve never loads a
snapshot).  ``server.overhead_ms_p50`` is the client latency outside
``BatchAnalyzer.run``: the HTTP server's share when served, and loads,
analyzer construction and ``to_json`` in cold-batch.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layertrace import layer_of, self_times

#: Span name -> per-call metric (median ms).
CALL_METRICS = (
    ("pool.release", "pool.release_ms"),
    ("store.get", "store.get_ms"),
    ("store.put", "store.put_ms"),
    ("batch.run", "batch.run_ms"),
    ("batch.adopt", "batch.adopt_ms"),
    ("batch.fingerprint", "batch.fingerprint_ms"),
    ("batch.stats", "batch.stats_ms"),
    ("batch.report", "batch.report_ms"),
    ("queries.specs", "queries.specs_ms"),
    ("logic.parse", "logic.parse_ms"),
    ("engine.execute", "engine.execute_ms"),
    ("ft.loads", "ft.loads_ms"),
    ("translate.prewarm", "translate.ms"),
    ("bdd.manager_init", "bdd.manager_init_ms"),
    ("bdd.checkpoint", "bdd.checkpoint_ms"),
    ("bdd.load_snapshot", "bdd.load_snapshot_ms"),
    ("bdd.save_snapshot", "bdd.save_snapshot_ms"),
    ("prob.evaluate", "prob.ms"),
)

#: Layers whose self time is reported (first dotted part of span names).
LAYERS = (
    "ft", "queries", "batch", "logic", "translate", "engine", "prob",
    "bdd", "pool", "store",
)

#: Report-counter metrics per battery, from ``stats.scenarios.*.bdd``.
BDD_COUNTS = (
    ("apply_misses", "bdd.apply_misses"),
    ("ite_misses", "bdd.ite_misses"),
    ("cache_evictions", "bdd.cache_evictions"),
    ("cache_resizes", "bdd.cache_resizes"),
    ("ut_resizes", "bdd.ut_resizes"),
)

_MEMO = ("apply", "ite", "restrict", "compose")


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit (BENCHMARK.json order)."""
    units = {
        "server.overhead_ms_p50": "ms",
        "server.rejected": "count",
        "pool.hit_ratio": "ratio",
        "pool.evictions": "count/battery",
        "store.entry_bytes": "bytes",
        "store.puts": "count/battery",
        "logic.parse_hit_ratio": "ratio",
        "engine.queries": "count/battery",
        "translate.formula_hit_ratio": "ratio",
        "bdd.cache_hit_ratio": "ratio",
        "bdd.peak_nodes": "count",
        "bdd.gc_runs": "count/battery",
        "prob.cache_hit_ratio": "ratio",
        "ref.burst_ms_p50": "ms",
        "ref.server_cpu_share": "ratio",
        "trace.overhead_pct": "%",
        "trace.unattributed_pct": "%",
    }
    for _, metric in CALL_METRICS:
        units[metric] = "ms"
    for _, metric in BDD_COUNTS:
        units[metric] = "count/battery"
    for layer in LAYERS:
        units[f"self.{layer}_ms"] = "ms/battery"
    return units


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def compute(
    requests: Sequence[Tuple[float, float, int]],
    spans: List[Any],
    reports: Sequence[Dict[str, Any]],
    scale: float,
    *,
    stats_before: Optional[Dict[str, Any]] = None,
    stats_after: Optional[Dict[str, Any]] = None,
) -> Dict[str, float]:
    """Per-layer metrics over the measured requests ``[(start, end, _)]``.

    ``spans`` is the tracer's full list (parent indices intact);
    ``reports`` are the battery reports answered in the window.
    """
    window_start = requests[0][0]
    window_end = requests[-1][1]
    batteries = len(requests)
    own = self_times(spans)
    inside = [
        i for i, span in enumerate(spans)
        if span is not None and window_start <= span[2] <= window_end
    ]
    calls: Dict[str, List[float]] = {}
    layer_self: Dict[str, float] = {}
    top_level = 0.0
    for i in inside:
        name, parent, start, end = spans[i]
        # to_json calls to_dict: count the outer report call only.
        nested_report = (
            name == "batch.report"
            and parent >= 0
            and spans[parent] is not None
            and spans[parent][0] == "batch.report"
        )
        if not nested_report:
            calls.setdefault(name, []).append(end - start)
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
        if parent < 0:
            top_level += end - start

    out: Dict[str, float] = {}
    for span_name, metric in CALL_METRICS:
        durations = calls.get(span_name)
        out[metric] = (
            statistics.median(durations) * 1000.0 * scale if durations else 0.0
        )
    for layer in LAYERS:
        out[f"self.{layer}_ms"] = (
            layer_self.get(layer, 0.0) * 1000.0 * scale / batteries
        )
    out["engine.queries"] = len(calls.get("engine.execute", ())) / batteries
    out["bdd.gc_runs"] = len(calls.get("bdd.collect", ())) / batteries

    client_total = sum(end - start for start, end, _ in requests)
    out["trace.unattributed_pct"] = (
        100.0 * (client_total - top_level) / client_total
    )

    # Overhead around the battery: client latency minus the time inside
    # BatchAnalyzer.run (HTTP, JSON, admission and pool work when served;
    # loads, analyzer construction and to_json in-process).
    run_spans = sorted(
        (spans[i][2], spans[i][3]) for i in inside if spans[i][0] == "batch.run"
    )
    overheads = []
    cursor = 0
    for start, end, _ in requests:
        inner = 0.0
        while cursor < len(run_spans) and run_spans[cursor][0] < start:
            cursor += 1
        while cursor < len(run_spans) and run_spans[cursor][0] <= end:
            inner += run_spans[cursor][1] - run_spans[cursor][0]
            cursor += 1
        overheads.append(end - start - inner)
    out["server.overhead_ms_p50"] = statistics.median(overheads) * 1000.0 * scale

    # Counters the reports carry, per battery.
    sums: Dict[str, float] = {}
    peak = 0
    for report in reports:
        for scenario in report["stats"]["scenarios"].values():
            bdd = scenario["bdd"]
            for key, value in bdd.items():
                sums[key] = sums.get(key, 0) + value
            for key in ("formula_hits", "formula_misses"):
                sums[key] = sums.get(key, 0) + scenario["translation"][key]
            for key in ("hits", "misses"):
                sums["parse_" + key] = (
                    sums.get("parse_" + key, 0) + scenario["parse"][key]
                )
            peak = max(peak, scenario["bdd_peak_nodes"])
    for key, metric in BDD_COUNTS:
        out[metric] = sums.get(key, 0) / batteries
    out["bdd.cache_hit_ratio"] = _ratio(
        sum(sums.get(f"{op}_hits", 0) for op in _MEMO),
        sum(sums.get(f"{op}_misses", 0) for op in _MEMO),
    )
    out["bdd.peak_nodes"] = float(peak)
    out["prob.cache_hit_ratio"] = _ratio(
        sums.get("prob_hits", 0), sums.get("prob_misses", 0)
    )
    out["translate.formula_hit_ratio"] = _ratio(
        sums.get("formula_hits", 0), sums.get("formula_misses", 0)
    )
    out["logic.parse_hit_ratio"] = _ratio(
        sums.get("parse_hits", 0), sums.get("parse_misses", 0)
    )

    # Pool, store and admission counters from GET /stats.
    out["pool.hit_ratio"] = 0.0
    out["pool.evictions"] = 0.0
    out["store.puts"] = 0.0
    out["store.entry_bytes"] = 0.0
    out["server.rejected"] = 0.0
    if stats_before is not None and stats_after is not None:
        pool0, pool1 = stats_before["pool"], stats_after["pool"]
        out["pool.hit_ratio"] = _ratio(
            pool1["hits"] - pool0["hits"], pool1["misses"] - pool0["misses"]
        )
        out["pool.evictions"] = (
            pool1["evictions"] - pool0["evictions"]
        ) / batteries
        store0, store1 = stats_before["store"], stats_after["store"]
        out["store.puts"] = (store1["puts"] - store0["puts"]) / batteries
        if store1["entries"]:
            out["store.entry_bytes"] = store1["bytes"] / store1["entries"]
        requests0 = stats_before["server"]["requests"]
        requests1 = stats_after["server"]["requests"]
        out["server.rejected"] = float(sum(
            requests1[key] - requests0[key]
            for key in ("rejected_rate_limited", "rejected_busy")
        ))
    return out
