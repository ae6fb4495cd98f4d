"""One cold-batch set-up sample, run as a fresh interpreter.

Usage (from the repository root)::

    python3 perfbench/setup_probe.py DIR

Imports the program, parses every ``*.dft`` Galileo file in ``DIR``,
builds one analyzer over all of them and prints ``ready``.  ``run.py``
times the spawn up to that line.  Nothing else is imported, so the
sample holds only what a cold user pays before the first battery.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.ft.galileo import loads  # noqa: E402
from repro.service import BatchAnalyzer  # noqa: E402


def main(workdir: str) -> int:
    trees = {}
    for entry in sorted(os.listdir(workdir)):
        if entry.endswith(".dft"):
            with open(os.path.join(workdir, entry), encoding="utf-8") as handle:
                trees[entry[:-4]] = loads(handle.read())
    BatchAnalyzer(trees)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
