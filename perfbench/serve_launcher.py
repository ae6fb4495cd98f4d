"""Start ``bfl serve``, optionally with layer spans recorded from outside.

Usage (from the repository root)::

    python3 perfbench/serve_launcher.py [--trace-out SPANS.json] serve ARGS...

With ``--trace-out`` the public layer functions are wrapped
(:mod:`layertrace`) before control passes to ``repro.cli.main``; the spans are
kept in memory and written to ``SPANS.json`` once the server has drained
and ``main`` returns.  Without it the server runs exactly as the ``bfl``
command would.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out is not None:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
