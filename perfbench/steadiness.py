"""Run-to-run spread of every end-to-end metric, raw beside normalised.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--workloads cold-batch,...]

Runs ``run.py`` once per seed (seeds 1..runs) on each workload, one run
at a time, and reports for every metric the distance between the first
and third quartile of the runs as a share of their median, next to a
third of the metric's bound from ``BENCHMARK.json``.  Three columns: the
normalised value the benchmark prints, the raw value, and the raw value
scaled by the run-wide burst median.  The table
and the per-run values are written to ``perfbench/out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in contract["workloads"]),
    )
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    table = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}")
                return 1
            record_line = next(l for l in lines if l.startswith("record: "))
            with open(record_line[len("record: "):], encoding="utf-8") as handle:
                record = json.load(handle)
            runs.append(record)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items())
                  + f" burst_ms={record['burst']['median_s'] * 1000:.4g}",
                  flush=True)
        rows = {}
        for name, bound in bounds.items():
            normalised = [r["metrics"][name] for r in runs]
            raw = [r["raw"][name] for r in runs]
            run_median = [r["run_median_normalised"][name] for r in runs]
            rows[name] = {
                "bound": bound,
                "median": statistics.median(normalised),
                "spread": spread(normalised),
                "raw_median": statistics.median(raw),
                "raw_spread": spread(raw),
                "run_median_spread": spread(run_median),
                "values": normalised,
                "raw_values": raw,
            }
        table[workload] = {
            "rows": rows,
            "burst_ms": [r["burst"]["median_s"] * 1000 for r in runs],
            "server_cpu_share": [r["burst"]["server_cpu_share"] for r in runs],
            "failed": sum(r["tally"]["failed"] for r in runs),
        }

    print(f"\n{'workload':12s} {'metric':16s} {'median':>10s} "
          f"{'spread':>8s} {'raw':>8s} {'run-med':>8s} {'bound/3':>8s}")
    steady = True
    for workload, result in table.items():
        for name, row in result["rows"].items():
            ok = name == "setup_s" or row["spread"] < row["bound"] / 3
            steady &= ok
            print(f"{workload:12s} {name:16s} {row['median']:10.4g} "
                  f"{row['spread']:8.3f} {row['raw_spread']:8.3f} "
                  f"{row['run_median_spread']:8.3f} "
                  f"{row['bound'] / 3:8.3f}{'' if ok else '  WIDE'}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w",
              encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
