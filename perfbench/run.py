"""The repository's benchmark: BFL batteries cold, warm and under churn.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1        # all three, one table

Workloads (closed loop, one single-threaded client, one keep-alive
connection where there is HTTP):

* ``cold-batch`` -- in-process, per corpus tree: ``galileo.loads``, a
  fresh ``BatchAnalyzer``, the fixed battery, ``to_json``.  Translation
  and kernel growth do the work; no server, pool or store.
* ``warm-serve`` -- a ``bfl serve`` child whose pool holds every scenario
  (prewarmed in set-up); batteries to paper-scale and large scenarios.
* ``churn-serve`` -- a ``bfl serve`` child with ``--store`` and more
  same-size scenarios than ``--pool-size``, visited round-robin, so every
  request evicts one session to the store and rewarms another from it.

Every timing is normalised by the interleaved reference burst
(``reference.py``); raw values and the burst median go to the run record
under ``perfbench/out/``.  Every answer is compared with a sequential
in-process ``BatchAnalyzer`` report built before timing starts.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer
metrics (``layers.py``) under ``--trace 1``.  The run exits non-zero on
any answer mismatch, and without a result when the program is missing.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

# numpy's OpenBLAS starts one spinning thread per core on import; on a
# 2-vCPU VM that made a bare `import numpy` take from 112 ms to 187 ms
# from one minute to the next (120-127 ms with one thread).  The program
# does no BLAS work, so the benchmark and every child it starts (they
# inherit the environment) use one BLAS thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import corpus as corpus_mod  # noqa: E402
import serving  # noqa: E402
from reference import REF_NOMINAL, Reference, factor  # noqa: E402

WORKLOADS = ("cold-batch", "warm-serve", "churn-serve")

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Bursts run before and after each set-up to normalise it.
SETUP_BURSTS = 5
#: Batteries a timed run makes at least (in whole corpus cycles), so p90
#: always leaves ten or more samples above it.
MIN_SAMPLES = 100
#: Each arm of a --trace 1 run makes at least this many cycles.
TRACE_MIN_CYCLES = 3
#: Server CPU seconds per reference-burst second above which the run is
#: void: a server busy while idle would slow the burst and flatter every
#: normalised number.
SERVER_CPU_SHARE_LIMIT = 0.05
#: Pool capacity in warm-serve: holds every scenario.
WARM_POOL = 16
#: churn-serve: pool capacity, below the corpus's 4 scenarios.
CHURN_POOL = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

def environment() -> Dict[str, Any]:
    """Stamp: git sha, Python, platform, usable cores, numpy."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy_version,
    }


def zeroed(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [{**row, "elapsed_ms": 0.0} for row in rows]


class Tally:
    """Attempted / failed batteries, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.non_200 = 0
        self.not_ok_rows = 0
        self.mismatches = 0

    def check(self, status: int, body: bytes, expected: List[Dict[str, Any]],
              reports: Optional[List[Dict[str, Any]]] = None) -> int:
        """Check one answer (kept in ``reports`` when given); returns the
        number of queries it answered."""
        self.attempted += 1
        if status != 200:
            self.non_200 += 1
            self.failed += 1
            return 0
        report = json.loads(body)
        rows = report["results"]
        bad_rows = sum(1 for row in rows if not row["ok"])
        mismatch = zeroed(rows) != expected
        self.not_ok_rows += bad_rows
        self.mismatches += int(mismatch)
        if bad_rows or mismatch:
            self.failed += 1
        if reports is not None:
            reports.append(report)
        return len(rows) - bad_rows

    def as_dict(self) -> Dict[str, int]:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
            "non_200": self.non_200,
            "not_ok_rows": self.not_ok_rows,
            "mismatches": self.mismatches,
        }


def cycle(ops, reference: Reference, tally: Tally, requests: List,
          reports: Optional[List] = None) -> int:
    """One pass over ``ops``; each op is ``(send, expected)`` and ``send()``
    returns ``(status, body)``.  A reference burst runs before every
    request, while nothing is in flight.  Appends ``(start, end, burst
    index)`` per request; returns the queries answered."""
    answered = 0
    for send, expected in ops:
        index = reference.run()
        start = time.perf_counter()
        status, body = send()
        end = time.perf_counter()
        requests.append((start, end, index))
        answered += tally.check(status, body, expected, reports)
    return answered


def closed_loop(ops, seconds: float, reference: Reference, tally: Tally,
                peak_rss):
    """Whole cycles until ``seconds`` have passed and at least
    ``MIN_SAMPLES`` batteries are done, then the closing burst.  Returns
    the requests, the queries answered, and ``peak_rss()`` read once those
    minimum cycles are done: a fixed amount of work, because the churn
    server's RSS keeps growing with every request served."""
    requests: List[Tuple[float, float, int]] = []
    answered = 0
    deadline = time.perf_counter() + seconds
    min_cycles = -(-MIN_SAMPLES // len(ops))
    cycles = 0
    peak = None
    while cycles < min_cycles or time.perf_counter() < deadline:
        answered += cycle(ops, reference, tally, requests)
        cycles += 1
        if cycles == min_cycles:
            peak = peak_rss()
    reference.run()
    return requests, answered, peak


def setup_samples(reference: Reference, set_up,
                  repeats: int) -> Tuple[List[float], List[float]]:
    """``repeats`` timed calls of ``set_up()`` (which returns seconds);
    returns (raw, normalised) seconds.  A set-up is normalised by the
    median of ``SETUP_BURSTS`` bursts before and after it: a single
    burst right after a child process exits is too noisy to scale a
    whole set-up by."""
    reference.run()  # a process's first burst runs cold; not used
    raw, around = [], [reference.run_median(SETUP_BURSTS)]
    for _ in range(repeats):
        raw.append(set_up())
        around.append(reference.run_median(SETUP_BURSTS))
    return raw, [
        value * factor(around[i], around[i + 1]) for i, value in enumerate(raw)
    ]


class Traced:
    """Alternating untraced and traced cycles of a --trace 1 run.

    Alternating (rather than one phase after the other) exposes both arms
    to the same machine drift, so ``trace.overhead_pct`` compares like
    with like.
    """

    def __init__(self) -> None:
        self.plain: List[Tuple[float, float, int]] = []
        self.traced: List[Tuple[float, float, int]] = []
        self.plain_answered = 0
        self.traced_answered = 0
        self.reports: List[Dict[str, Any]] = []

    def run(self, plain_ops, traced_ops, seconds: float, reference: Reference,
            tally: Tally, trace_on=None, trace_off=None) -> None:
        deadline = time.perf_counter() + seconds
        cycles = 0
        while cycles < TRACE_MIN_CYCLES or time.perf_counter() < deadline:
            self.plain_answered += cycle(plain_ops, reference, tally, self.plain)
            if trace_on is not None:
                trace_on()
            self.traced_answered += cycle(
                traced_ops, reference, tally, self.traced, self.reports)
            if trace_off is not None:
                trace_off()
            cycles += 1
        reference.run()

    def overhead_pct(self) -> float:
        """Traced against untraced request time per query answered."""
        plain = sum(r[1] - r[0] for r in self.plain) / max(self.plain_answered, 1)
        traced = sum(r[1] - r[0] for r in self.traced) / max(self.traced_answered, 1)
        return 100.0 * (traced / plain - 1.0)


def p50_p90(values: List[float]) -> Tuple[float, float]:
    cuts = statistics.quantiles(sorted(values), n=10, method="inclusive")
    return cuts[4], cuts[8]


def end_to_end(requests, answered: int, setups: Tuple[List[float], List[float]],
               peak_rss_mb: float, reference: Reference):
    """(normalised metrics, raw metrics, run-median-normalised metrics,
    samples above the normalised p90).

    Each request is normalised by its neighbouring bursts before the
    percentiles and the sum are taken.  The run-median variant
    (raw * REF_NOMINAL / median(burst)) is kept for comparison."""
    raw_latencies = [end - start for start, end, _ in requests]
    latencies = [
        (end - start) * reference.local(index) for start, end, index in requests
    ]
    raw_p50, raw_p90 = p50_p90(raw_latencies)
    p50, p90 = p50_p90(latencies)
    raw = {
        "setup_s": statistics.median(setups[0]),
        "latency_ms_p50": raw_p50 * 1000.0,
        "latency_ms_p90": raw_p90 * 1000.0,
        "throughput_qps": answered / sum(raw_latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    normalised = {
        "setup_s": statistics.median(setups[1]),
        "latency_ms_p50": p50 * 1000.0,
        "latency_ms_p90": p90 * 1000.0,
        "throughput_qps": answered / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    scale = REF_NOMINAL / reference.median()
    run_median = {
        name: (value / scale if name == "throughput_qps"
               else value if name == "peak_rss_mb" else value * scale)
        for name, value in raw.items()
    }
    above = sum(1 for value in latencies if value > p90)
    return normalised, raw, run_median, above


def own_peak_rss_mb() -> float:
    return serving.vm_hwm_mb(os.getpid())


def spans_file(args) -> str:
    """Where a traced run leaves its spans (kept after the run)."""
    os.makedirs(OUT, exist_ok=True)
    return os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json")


def write_corpus(workdir: str, trees) -> Dict[str, str]:
    paths = {}
    for tree in trees:
        path = os.path.join(workdir, f"{tree.name}.dft")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(tree.text)
        paths[tree.name] = path
    return paths


def references(trees) -> Tuple[Dict[str, List[Dict[str, Any]]], Dict[str, int]]:
    """Expected rows (timings zeroed) and kernel node count per tree, from
    a sequential in-process BatchAnalyzer on the same Galileo text."""
    from repro.ft.galileo import loads
    from repro.service import BatchAnalyzer

    expected, kernel_nodes = {}, {}
    for tree in trees:
        analyzer = BatchAnalyzer({tree.name: loads(tree.text)})
        report = json.loads(analyzer.run(corpus_mod.battery(tree)).to_json())
        if not report["ok"]:
            raise RuntimeError(f"reference battery failed on {tree.name}")
        expected[tree.name] = zeroed(report["results"])
        kernel_nodes[tree.name] = report["stats"]["scenarios"][tree.name]["bdd_nodes"]
    return expected, kernel_nodes


# ----------------------------------------------------------------------
# cold-batch
# ----------------------------------------------------------------------

def cold_setup_sample(workdir: str) -> float:
    """Seconds from spawning ``setup_probe.py`` to its ready line."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workdir],
        cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        code = child.wait(60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError("cold-batch set-up probe failed")
    return elapsed


def cold_ops(trees, expected):
    from repro.ft import galileo
    from repro.service import BatchAnalyzer

    def make(tree):
        battery = corpus_mod.battery(tree)

        def send():
            # galileo.loads is looked up per call: a traced run swaps it.
            analyzer = BatchAnalyzer({tree.name: galileo.loads(tree.text)})
            return 200, analyzer.run(battery).to_json()
        return send, expected[tree.name]

    return [make(tree) for tree in trees]


def run_cold(args, trees, workdir, expected, record) -> Tuple[Dict[str, float], Tally]:
    ops = cold_ops(trees, expected)
    if args.trace == 0:
        write_corpus(workdir, trees)
        reference, tally = Reference(), Tally()
        setups = setup_samples(
            reference, lambda: cold_setup_sample(workdir), SETUP_REPEATS)
        requests, answered, peak = closed_loop(
            ops, args.seconds, reference, tally, own_peak_rss_mb)
        record["peak_rss_end_mb"] = own_peak_rss_mb()
        return finish(record, reference, tally, *end_to_end(
            requests, answered, setups, peak, reference),
            setups=setups, samples=len(requests))

    import layers
    import layertrace

    tracer = layertrace.Tracer()
    uninstall = []
    reference, tally, run = Reference(), Tally(), Traced()
    run.run(ops, ops, args.seconds, reference, tally,
            trace_on=lambda: uninstall.append(layertrace.install(tracer)),
            trace_off=lambda: uninstall.pop()())
    tracer.dump(spans_file(args))
    metrics = layers.compute(run.traced, tracer.spans, run.reports,
                             local_scale(reference, run.traced))
    metrics["trace.overhead_pct"] = run.overhead_pct()
    return finish_traced(record, metrics, reference, tally)


# ----------------------------------------------------------------------
# warm-serve and churn-serve
# ----------------------------------------------------------------------

def serve_ops(server, trees, expected):
    def make(tree):
        body = json.dumps({"queries": corpus_mod.battery(tree)}).encode()

        def send():
            return server.post("/battery", body)
        return send, expected[tree.name]

    return [make(tree) for tree in trees]


def start_server(workdir: str, paths, trees, pool: int, tag: str,
                 trace_out: Optional[str] = None):
    store = os.path.join(workdir, f"{tag}.store")
    prewarm = [json.dumps({"queries": corpus_mod.battery(t)}).encode() for t in trees]
    return serving.start(workdir, paths, pool, store, prewarm, trace_out, tag)


def run_serve(args, trees, workdir, expected, record) -> Tuple[Dict[str, float], Tally]:
    paths = write_corpus(workdir, trees)
    pool = WARM_POOL if args.workload == "warm-serve" else CHURN_POOL
    if args.trace == 0:
        servers: List[Any] = []

        def set_up() -> float:
            # Earlier set-ups are only timed; the last one serves the run.
            if servers:
                servers[-1].kill()
            server, seconds = start_server(
                workdir, paths, trees, pool, f"setup{len(servers)}")
            servers.append(server)
            return seconds

        try:
            setups = setup_samples(Reference(), set_up, SETUP_REPEATS)
        except BaseException:
            if servers:
                servers[-1].kill()
            raise
        server = servers[-1]
        try:
            reference, tally = Reference((server.pid,)), Tally()
            record["stats_before"] = server.get_json("/stats")
            requests, answered, peak = closed_loop(
                serve_ops(server, trees, expected), args.seconds, reference,
                tally, server.peak_rss_mb)
            record["stats_after"] = server.get_json("/stats")
            record["peak_rss_end_mb"] = server.peak_rss_mb()
        finally:
            record["shutdown"] = server.terminate()
        return finish(record, reference, tally, *end_to_end(
            requests, answered, setups, peak, reference),
            setups=setups, samples=len(requests))

    import layers

    spans_path = spans_file(args)
    plain, _ = start_server(workdir, paths, trees, pool, "plain")
    try:
        traced, _ = start_server(workdir, paths, trees, pool, "traced", spans_path)
    except BaseException:
        plain.kill()
        raise
    try:
        reference = Reference((plain.pid, traced.pid))
        tally, run = Tally(), Traced()
        stats_before = traced.get_json("/stats")
        run.run(serve_ops(plain, trees, expected),
                serve_ops(traced, trees, expected),
                args.seconds, reference, tally)
        stats_after = traced.get_json("/stats")
    finally:
        record["shutdown_plain"] = plain.terminate()
        record["shutdown"] = traced.terminate()
    with open(spans_path, "r", encoding="utf-8") as handle:
        spans = json.load(handle)
    record.update(stats_before=stats_before, stats_after=stats_after)
    metrics = layers.compute(run.traced, spans, run.reports,
                             local_scale(reference, run.traced),
                             stats_before=stats_before, stats_after=stats_after)
    metrics["trace.overhead_pct"] = run.overhead_pct()
    return finish_traced(record, metrics, reference, tally)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------

def drift_guard(record, reference: Reference) -> None:
    share = reference.server_cpu_share()
    record["burst"] = {
        "nominal_s": REF_NOMINAL,
        "median_s": reference.median(),
        "count": len(reference.durations),
        "server_cpu_share": share,
    }
    if share > SERVER_CPU_SHARE_LIMIT:
        raise RuntimeError(
            f"server used {share:.3f} CPU-s per burst-s while idle "
            f"(limit {SERVER_CPU_SHARE_LIMIT}); the run is void")


def finish(record, reference, tally, metrics, raw, run_median, above, *,
           setups, samples):
    drift_guard(record, reference)
    record.update(
        metrics=metrics, raw=raw, run_median_normalised=run_median,
        setup_samples_s=setups[0], setup_samples_normalised_s=setups[1],
        samples=samples, samples_above_p90=above)
    return metrics, tally


def local_scale(reference: Reference, requests) -> float:
    """Median normalising factor over ``requests`` (per-layer figures)."""
    return statistics.median(reference.local(r[2]) for r in requests)


def finish_traced(record, metrics, reference, tally):
    drift_guard(record, reference)
    metrics["ref.burst_ms_p50"] = reference.median() * 1000.0
    metrics["ref.server_cpu_share"] = reference.server_cpu_share()
    record["metrics"] = metrics
    return metrics, tally


def run_workload(args) -> int:
    import layers

    sys.path.insert(0, SRC)
    templates = (corpus_mod.CHURN_TEMPLATES if args.workload == "churn-serve"
                 else corpus_mod.TEMPLATES)
    trees = corpus_mod.build_corpus(args.seed, templates)
    workdir = os.path.join(
        OUT, f"work-{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        expected, kernel_nodes = references(trees)
        record: Dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "corpus": {
                "sha256": corpus_mod.corpus_sha256(trees),
                "trees": [
                    {
                        "name": t.name,
                        "class": t.size_class,
                        "template": t.template,
                        "elements": t.events + t.gates,
                        "basic_events": t.events,
                        "kernel_nodes": kernel_nodes[t.name],
                    }
                    for t in trees
                ],
            },
        }
        if args.workload == "cold-batch":
            metrics, tally = run_cold(args, trees, workdir, expected, record)
        else:
            metrics, tally = run_serve(args, trees, workdir, expected, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["tally"] = tally.as_dict()
    units = END_TO_END_UNITS if args.trace == 0 else layers.metric_units()
    os.makedirs(OUT, exist_ok=True)
    record_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for name, unit in units.items():
        print(f"{args.workload:12s} {name:28s} {metrics[name]:14.4f} {unit}")
    print(f"{args.workload:12s} answers: {json.dumps(tally.as_dict())}")
    print(f"record: {record_path}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if tally.mismatches == 0 else 1


def run_all(args) -> int:
    """All three workloads, each in its own process, one table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{workload}: failed (exit {done.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            status = 1
        answers = next(line for line in lines if " answers: " in line)
        rows.append((workload, result, answers))
    for workload, result, answers in rows:
        for name, metric in result["metrics"].items():
            print(f"{workload:12s} {name:28s} {metric['value']:14.4f} {metric['unit']}")
        print(answers)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program is not here ({SRC}/repro is missing)",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
