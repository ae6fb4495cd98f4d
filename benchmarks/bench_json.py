"""Machine-readable benchmark records (``BENCH_*.json``).

Benchmarks that want their numbers tracked across PRs call
:func:`record_run` with a flat-ish dict of measurements.  Records land in
``benchmarks/results/BENCH_<name>.json`` as::

    {
      "benchmark": "<name>",
      "runs": [
        {"label": "pr1-node-kernel", ...},
        {"label": "pr2-complement-kernel", ...}
      ]
    }

One run per *label*: re-running under the same label (``BENCH_LABEL`` env
var) replaces that run in place, so the committed per-PR labels form the
perf trajectory.  CI runs under the labels ``"ci"`` and
``"ci-no-numpy"``, which are likewise replaced on every pass and never
committed.

Only a labelled run writes the tracked files.  A run without
``BENCH_LABEL`` (a local gate pass, a script run by hand) records the
same run under the label ``"dev"`` in the gitignored
``benchmarks/results/local/`` instead, so it never leaves the working
tree dirty with one machine's timings.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

#: Where the labelled JSON records live (committed to the repo).
RESULTS_DIR = Path(__file__).resolve().parent / "results"
#: Where unlabelled runs land (gitignored).
LOCAL_RESULTS_DIR = RESULTS_DIR / "local"


def record_run(name: str, run: Dict[str, Any]) -> Path:
    """Insert (or replace, by label) ``run`` into ``BENCH_<name>.json``.

    The label is ``BENCH_LABEL``; without it the run is labelled
    ``"dev"`` and goes to :data:`LOCAL_RESULTS_DIR`, not the tracked
    :data:`RESULTS_DIR`.

    Args:
        name: Benchmark name; file is ``BENCH_<name>.json``.
        run: The measurements.  A ``"label"`` key is added/overwritten.

    Returns:
        The path written.
    """
    label = os.environ.get("BENCH_LABEL")
    directory = RESULTS_DIR if label else LOCAL_RESULTS_DIR
    label = label or "dev"
    path = directory / f"BENCH_{name}.json"
    data: Dict[str, Any] = {"benchmark": name, "runs": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            loaded = None  # a corrupt file is rebuilt from scratch
        if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
            data = loaded
    runs = [
        r for r in data["runs"] if isinstance(r, dict) and r.get("label") != label
    ]
    runs.append({"label": label, **run})
    data = {"benchmark": name, "runs": runs}
    directory.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    return path
