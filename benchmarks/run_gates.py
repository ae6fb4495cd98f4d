"""Consolidated benchmark-gate runner (the single CI perf step).

Every gated benchmark in this repo is a stand-alone script that prints a
report, appends a machine-readable record to
``benchmarks/results/BENCH_*.json``, and exits non-zero when its
regression floor is breached.  This runner replaces the copy-pasted
per-gate CI steps with one declarative table: each :class:`GateSpec`
names the script, the threshold environment its floor defaults to, and
the one env var an operator overrides to tune (or effectively disable,
e.g. ``BENCH_MIN_SPEEDUP=0``) that gate.

Real environment variables always win over the table's defaults, so CI
pins nothing twice and a local run can relax a single gate without
touching this file::

    PYTHONPATH=src python benchmarks/run_gates.py                 # all gates
    PYTHONPATH=src python benchmarks/run_gates.py --only prob,parallel
    BENCH_MIN_SIFT_SPEEDUP=3 PYTHONPATH=src python benchmarks/run_gates.py

Gates run in table order; a failure does not stop later gates (CI
should report every regression of a PR, not the first), and the exit
code is non-zero iff any gate failed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

HERE = Path(__file__).resolve().parent


def _parallel_env_skip() -> Optional[str]:
    """Reason the parallel speedup floor cannot bind here, if any."""
    workers = int(os.environ.get("BENCH_WORKERS", "4"))
    cores = os.cpu_count() or 1
    if cores < workers:
        return (
            f"only {cores} core(s) for {workers} workers — the script "
            "still runs (agreement enforced) but the speedup floor is "
            "waived"
        )
    return None


def _kernel_sweep_env_skip() -> Optional[str]:
    """Reason the vectorised-sweep floor cannot bind here, if any."""
    if os.environ.get("REPRO_NO_NUMPY"):
        return (
            "REPRO_NO_NUMPY is set — the script still runs (agreement "
            "enforced) but the sweep floor needs the numpy path"
        )
    try:
        import numpy  # noqa: F401
    except ImportError:
        return (
            "numpy unavailable — the script still runs (agreement "
            "enforced) but the sweep floor needs the numpy path"
        )
    return None


def _coverage_env_skip() -> Optional[str]:
    """Reason the coverage floor cannot bind here, if any."""
    try:
        import pytest_cov  # noqa: F401
    except ImportError:
        return "pytest-cov unavailable — the gate skips cleanly"
    return None


@dataclass(frozen=True)
class GateSpec:
    """One gated benchmark.

    Attributes:
        name: Short handle for ``--only``/``--skip`` selection.
        script: Benchmark file under ``benchmarks/``.
        title: One-line description shown in the summary.
        override: The gate's primary tuning env var (documentation —
            the summary prints its effective value).
        defaults: Threshold environment applied unless the variable is
            already set in the real environment.
        env_skip: Optional probe returning *why* this gate's floor
            cannot bind in the current environment (``None`` when it
            can).  Purely informational: the script still runs — every
            gated benchmark downgrades itself consistently (recording
            ``"gated": false``) — but ``--list`` and the run banner
            surface the downgrade instead of leaving a silently green
            gate unexplained.
    """

    name: str
    script: str
    title: str
    override: str
    defaults: Dict[str, str] = field(default_factory=dict)
    env_skip: Optional[Callable[[], Optional[str]]] = None


#: The declarative gate table.  Floors mirror what the historical
#: per-step CI pinned; measured headroom is recorded per gate in
#: ``benchmarks/results/BENCH_*.json`` and EXPERIMENTS.md.
GATES: Tuple[GateSpec, ...] = (
    GateSpec(
        name="batch-service",
        script="bench_batch_service.py",
        title="batch battery >= 2x over fresh sequential checkers",
        override="BENCH_MIN_SPEEDUP",
        defaults={"BENCH_MIN_SPEEDUP": "2"},
    ),
    GateSpec(
        name="scalability",
        script="bench_scalability.py",
        title="scalability sweep (JSON record, small sizes)",
        override="BENCH_SMALL",
        defaults={"BENCH_SMALL": "1"},
    ),
    GateSpec(
        name="reorder-gc",
        script="bench_reorder_gc.py",
        title="in-place sifting >= 5x over rebuild; GC soak reclaims "
        ">= 90% and holds peak < 2x steady state",
        override="BENCH_MIN_SIFT_SPEEDUP",
        defaults={
            "BENCH_MIN_SIFT_SPEEDUP": "5",
            "BENCH_MAX_PEAK_RATIO": "2",
            "BENCH_MIN_RECLAIM": "0.9",
            "BENCH_SOAK_QUERIES": "1000",
        },
    ),
    GateSpec(
        name="prob",
        script="bench_prob.py",
        title="cached in-kernel probability pass >= 5x over the "
        "per-call recursive baseline",
        override="BENCH_MIN_PROB_SPEEDUP",
        defaults={"BENCH_MIN_PROB_SPEEDUP": "5"},
    ),
    GateSpec(
        name="parallel",
        script="bench_parallel.py",
        title="sharded batch >= 2x over sequential at 4 workers "
        "(agreement always enforced)",
        override="BENCH_MIN_PARALLEL_SPEEDUP",
        defaults={
            "BENCH_MIN_PARALLEL_SPEEDUP": "2",
            "BENCH_WORKERS": "4",
        },
        env_skip=_parallel_env_skip,
    ),
    GateSpec(
        name="kernel",
        script="bench_kernel.py",
        title="array kernel >= 2x over the dict kernel on the covid "
        "battery; vectorised sweep >= 5x over per-profile calls",
        override="BENCH_MIN_KERNEL_SPEEDUP",
        defaults={
            "BENCH_MIN_KERNEL_SPEEDUP": "2",
            "BENCH_MIN_SWEEP_SPEEDUP": "5",
            "BENCH_SWEEP_PROFILES": "64",
        },
        env_skip=_kernel_sweep_env_skip,
    ),
    GateSpec(
        name="incremental",
        script="bench_incremental.py",
        title="incremental variant sweep >= 5x over per-variant "
        "rebuild (agreement always enforced)",
        override="BENCH_MIN_INCREMENTAL_SPEEDUP",
        defaults={
            "BENCH_MIN_INCREMENTAL_SPEEDUP": "5",
            "BENCH_VARIANTS": "1000",
            "BENCH_WARDS": "8",
        },
    ),
    GateSpec(
        name="timeout-overhead",
        script="bench_robustness.py",
        title="armed governor (battery deadline + per-query timeout) "
        "costs < 5% on the covid battery",
        override="BENCH_MAX_GOVERNOR_OVERHEAD",
        defaults={
            "BENCH_ROBUSTNESS_ARM": "overhead",
            "BENCH_MAX_GOVERNOR_OVERHEAD": "0.05",
            "BENCH_REPEATS": "5",
        },
    ),
    GateSpec(
        name="chaos",
        script="bench_robustness.py",
        title="chaos battery: killed worker recovered by retry, corrupt "
        "snapshot degraded to cold build, budget trip structured; "
        "non-injected queries agree with fault-free sequential",
        override="BENCH_CHAOS_WORKERS",
        defaults={
            "BENCH_ROBUSTNESS_ARM": "chaos",
            "BENCH_CHAOS_WORKERS": "4",
        },
    ),
    GateSpec(
        name="synthesis",
        script="bench_synthesis.py",
        title="repair-candidate sweep: BDD quantification >= 5x over "
        "vector enumeration (agreement always enforced)",
        override="BENCH_MIN_SYNTH_SPEEDUP",
        defaults={
            "BENCH_MIN_SYNTH_SPEEDUP": "5",
            "BENCH_SYNTH_SETS": "220",
            "BENCH_SYNTH_ENUM_SAMPLE": "20",
        },
    ),
    GateSpec(
        name="server",
        script="bench_server.py",
        title="bfl serve: snapshot-store rewarm >= 10x over cold build "
        "across the real HTTP surface (agreement always enforced)",
        override="BENCH_MIN_WARM_SPEEDUP",
        defaults={"BENCH_MIN_WARM_SPEEDUP": "10"},
    ),
    GateSpec(
        name="docs",
        script="docs_gate.py",
        title="docs drift: dsl.md kinds vs registry, server.md endpoints "
        "vs ROUTES, error_kind taxonomy, operations.md options table vs "
        "AnalysisOptions, README subcommand inventory, "
        "bfl <sub> --flag examples vs the parser",
        override="PYTHONPATH",
    ),
    GateSpec(
        name="coverage",
        script="coverage_gate.py",
        title="tier-1 suite line coverage >= 70% of repro "
        "(skips cleanly where pytest-cov is absent)",
        override="COV_MIN_PERCENT",
        defaults={"COV_MIN_PERCENT": "70"},
        env_skip=_coverage_env_skip,
    ),
)


def run_gate(gate: GateSpec) -> Tuple[bool, float]:
    """Run one gate as a subprocess; returns (passed, seconds)."""
    env = dict(os.environ)
    for key, value in gate.defaults.items():
        env.setdefault(key, value)
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, str(HERE / gate.script)], env=env
    )
    return result.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the declarative benchmark-gate table"
    )
    parser.add_argument(
        "--only",
        help="comma-separated gate names to run (default: all)",
    )
    parser.add_argument(
        "--skip",
        help="comma-separated gate names to skip",
    )
    parser.add_argument(
        "--list", action="store_true", help="print the gate table and exit"
    )
    args = parser.parse_args(argv)

    known = {gate.name for gate in GATES}
    only = set(args.only.split(",")) if args.only else None
    skip = set(args.skip.split(",")) if args.skip else set()
    for name in (only or set()) | skip:
        if name not in known:
            parser.error(
                f"unknown gate {name!r} (known: {', '.join(sorted(known))})"
            )

    if args.list:
        for gate in GATES:
            print(f"{gate.name:14s} {gate.script:26s} [{gate.override}] "
                  f"{gate.title}")
            reason = gate.env_skip() if gate.env_skip else None
            if reason:
                print(f"{'':14s} env-skip here: {reason}")
        return 0

    selected = [
        gate
        for gate in GATES
        if (only is None or gate.name in only) and gate.name not in skip
    ]
    outcomes = []
    for gate in selected:
        effective = os.environ.get(
            gate.override, gate.defaults.get(gate.override, "")
        )
        print(f"\n=== gate {gate.name}: {gate.title}")
        print(f"    ({gate.script}, {gate.override}={effective})", flush=True)
        reason = gate.env_skip() if gate.env_skip else None
        if reason:
            print(f"    env-skip here: {reason}", flush=True)
        passed, seconds = run_gate(gate)
        outcomes.append((gate, passed, seconds))
        print(
            f"=== gate {gate.name}: "
            f"{'PASS' if passed else 'FAIL'} in {seconds:.1f}s",
            flush=True,
        )

    print("\n" + "=" * 60)
    print("benchmark gate summary:")
    failed = 0
    for gate, passed, seconds in outcomes:
        marker = "PASS" if passed else "FAIL"
        failed += not passed
        print(f"  {marker}  {gate.name:14s} {seconds:7.1f}s  {gate.title}")
    if failed:
        print(f"{failed} of {len(outcomes)} gates FAILED")
        return 1
    print(f"all {len(outcomes)} gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
