"""Docs drift gate: generated-surface tables must match the live code.

The repo's documentation contains four tables that restate machine
truth, plus a README whose command inventory tends to rot:

* ``docs/dsl.md`` — the query-kind table between
  ``<!-- kinds:begin -->`` / ``<!-- kinds:end -->`` must match the
  query-kind registry (name, required fields, accepted fields, CLI
  face), exactly as ``bfl batch --list-kinds`` would print it.
* ``docs/server.md`` — the endpoint table between
  ``<!-- endpoints:begin -->`` / ``<!-- endpoints:end -->`` must match
  ``repro.service.server.ROUTES`` (method + path, in order), and the
  ``error_kind`` table between ``<!-- error-kinds:begin -->`` /
  ``<!-- error-kinds:end -->`` must list exactly the
  :class:`~repro.errors.ExecutionError` taxonomy.
* ``docs/operations.md`` — the analysis-options table between
  ``<!-- options:begin -->`` / ``<!-- options:end -->`` must list
  exactly :func:`dataclasses.fields` of
  :class:`~repro.service.options.AnalysisOptions`, in order, each with
  its query-file key, ``bfl batch``/``bfl serve`` flag, HTTP field and
  both defaults (API/``bfl batch`` and ``bfl serve``).
* ``README.md`` — every ``bfl`` subcommand registered in
  :func:`repro.cli.build_parser` must appear (as ``bfl <name>``).
* ``README.md`` and ``docs/*.md`` — every ``--flag`` shown after
  ``bfl <subcommand>`` on a line must be an option of that subcommand,
  so a retired flag cannot linger in an example.

Each check returns a list of human-readable problems so the test suite
can call them individually; ``main()`` runs all of them and exits
non-zero on any drift.  Registered in ``run_gates.py`` (gate name
``docs``) and therefore in CI.

Run directly::

    PYTHONPATH=src python benchmarks/docs_gate.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:  # runnable without PYTHONPATH=src
    sys.path.insert(0, str(REPO / "src"))
DOCS_DSL = REPO / "docs" / "dsl.md"
DOCS_SERVER = REPO / "docs" / "server.md"
DOCS_OPERATIONS = REPO / "docs" / "operations.md"
README = REPO / "README.md"


def _marked_rows(
    path: Path, begin: str, end: str
) -> Tuple[List[str], List[str]]:
    """(problems, table rows) for the marked region of ``path``."""
    if not path.is_file():
        return [f"{path.name}: file is missing"], []
    text = path.read_text(encoding="utf-8")
    match = re.search(
        re.escape(begin) + r"\n(.*?)" + re.escape(end), text, re.DOTALL
    )
    if not match:
        return [f"{path.name}: lost its {begin} / {end} markers"], []
    rows = [
        line
        for line in match.group(1).splitlines()
        if line.startswith("| `")
    ]
    return [], rows


def check_dsl_kinds() -> List[str]:
    """docs/dsl.md kind table vs the query-kind registry."""
    from repro.engine import REGISTRY

    problems, rows = _marked_rows(
        DOCS_DSL, "<!-- kinds:begin -->", "<!-- kinds:end -->"
    )
    if problems:
        return problems
    documented = []
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        documented.append(
            (
                cells[0].strip("`"),
                tuple(re.findall(r"`([^`]+)`", cells[1])),
                tuple(re.findall(r"`([^`]+)`", cells[2])),
                cells[3].strip("`"),
            )
        )
    registered = [
        (kind.name, kind.required_fields(), kind.accepts, kind.cli)
        for kind in REGISTRY
    ]
    if documented != registered:
        doc_names = [entry[0] for entry in documented]
        reg_names = [entry[0] for entry in registered]
        if doc_names != reg_names:
            problems.append(
                f"dsl.md kind table lists {doc_names} but the registry "
                f"has {reg_names}"
            )
        else:
            for doc, reg in zip(documented, registered):
                if doc != reg:
                    problems.append(
                        f"dsl.md kind {doc[0]!r} row drifted: "
                        f"documented {doc[1:]} vs registry {reg[1:]}"
                    )
    return problems


def check_server_endpoints() -> List[str]:
    """docs/server.md endpoint table vs ``server.ROUTES``."""
    from repro.service.server import ROUTES

    problems, rows = _marked_rows(
        DOCS_SERVER, "<!-- endpoints:begin -->", "<!-- endpoints:end -->"
    )
    if problems:
        return problems
    documented = []
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        if len(cells) < 2:
            problems.append(f"server.md malformed endpoint row: {row!r}")
            continue
        documented.append((cells[0].strip("`"), cells[1].strip("`")))
    live = [(route.method, route.path) for route in ROUTES]
    if documented != live:
        problems.append(
            f"server.md endpoint table lists {documented} but the "
            f"server exposes {live}"
        )
    return problems


def check_server_error_kinds() -> List[str]:
    """docs/server.md error_kind table vs the ExecutionError taxonomy."""
    from repro.errors import ExecutionError

    problems, rows = _marked_rows(
        DOCS_SERVER,
        "<!-- error-kinds:begin -->",
        "<!-- error-kinds:end -->",
    )
    if problems:
        return problems
    documented = set()
    for row in rows:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        documented.add(cells[0].strip("`"))
    kinds = {ExecutionError.kind}
    stack = [ExecutionError]
    while stack:
        for sub in stack.pop().__subclasses__():
            kinds.add(sub.kind)
            stack.append(sub)
    missing = sorted(kinds - documented)
    stale = sorted(documented - kinds)
    if missing:
        problems.append(
            "server.md error_kind table is missing: " + ", ".join(missing)
        )
    if stale:
        problems.append(
            "server.md error_kind table documents kinds that no "
            "ExecutionError carries: " + ", ".join(stale)
        )
    return problems


def _subcommands() -> Dict[str, "argparse.ArgumentParser"]:
    """``bfl`` subcommand name -> its parser."""
    import argparse

    from repro.cli import build_parser

    for action in build_parser()._actions:  # noqa: SLF001 — argparse
        # has no public subcommand inventory; this is what it offers.
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    return {}


def _subcommand_options() -> Dict[str, Set[str]]:
    """``bfl`` subcommand name -> its option strings (``--help`` too)."""
    return {
        name: set(sub._option_string_actions)  # noqa: SLF001
        for name, sub in _subcommands().items()
    }


def check_options_table() -> List[str]:
    """docs/operations.md options table vs ``AnalysisOptions``: fields
    in order, query-file keys, flags, HTTP fields and defaults."""
    import dataclasses
    import enum
    import json

    from repro.service.options import AnalysisOptions
    from repro.service.server import _BATTERY_OPTION_KEYS, SERVE_DEFAULTS

    problems, rows = _marked_rows(
        DOCS_OPERATIONS, "<!-- options:begin -->", "<!-- options:end -->"
    )
    if problems:
        return problems
    documented = {}
    for row in rows:
        cells = [
            cell.strip().strip("`")
            for cell in row.strip().strip("|").split("|")
        ]
        documented[cells[0]] = cells[1:]
    fields = [spec.name for spec in dataclasses.fields(AnalysisOptions)]
    if list(documented) != fields:
        return [
            f"operations.md options table lists {list(documented)} but "
            f"AnalysisOptions has {fields}"
        ]
    parsers = _subcommands()

    def flag(command: str, name: str) -> str:
        flags = [
            option
            for action in parsers[command]._actions  # noqa: SLF001
            if action.dest == name
            for option in action.option_strings
        ]
        return ", ".join(flags) or "—"

    def shown(value) -> str:
        if isinstance(value, enum.Enum):
            value = value.value
        return json.dumps(value)

    for name in fields:
        live = [
            AnalysisOptions.file_key(name) or "—",
            flag("batch", name),
            flag("serve", name),
            name if name in _BATTERY_OPTION_KEYS else "—",
            shown(getattr(AnalysisOptions(), name)),
            shown(getattr(SERVE_DEFAULTS, name)),
        ]
        if documented[name] != live:
            problems.append(
                f"operations.md options row {name!r} drifted: documented "
                f"{documented[name]} vs live {live}"
            )
    return problems


def check_readme_subcommands() -> List[str]:
    """Every ``bfl`` subcommand must appear in README as ``bfl <name>``."""
    if not README.is_file():
        return ["README.md is missing"]
    text = README.read_text(encoding="utf-8")
    problems = []
    for name in _subcommand_options():
        if f"bfl {name}" not in text:
            problems.append(
                f"README.md never mentions `bfl {name}` (every "
                "subcommand must be documented)"
            )
    return problems


#: ``bfl <subcommand>`` plus the rest of its command line: up to a
#: backtick, a shell comment or pipe, or the next ``bfl`` command.
_COMMAND = re.compile(
    r"(?<![\w/.-])bfl\s+([a-z][\w-]*)((?:(?!\bbfl\s)[^`#|\n])*)"
)


def check_doc_flags(paths: Optional[Sequence[Path]] = None) -> List[str]:
    """Every ``--flag`` after ``bfl <subcommand>`` in README.md and
    docs/*.md must be an option of that subcommand."""
    if paths is None:
        paths = [README, *sorted((REPO / "docs").glob("*.md"))]
    options = _subcommand_options()
    problems = []
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for match in _COMMAND.finditer(line):
                name, rest = match.groups()
                if name not in options:
                    continue  # prose ("bfl is ..."), not a command
                for flag in re.findall(r"--[A-Za-z][\w-]*", rest):
                    if flag not in options[name]:
                        problems.append(
                            f"{path.name}:{lineno}: `bfl {name} {flag}` — "
                            f"{flag} is not an option of bfl {name}"
                        )
    return problems


CHECKS = (
    check_dsl_kinds,
    check_server_endpoints,
    check_server_error_kinds,
    check_options_table,
    check_readme_subcommands,
    check_doc_flags,
)


def main() -> int:
    failed = 0
    for check in CHECKS:
        problems = check()
        status = "PASS" if not problems else "FAIL"
        print(f"{status}  {check.__name__}")
        for problem in problems:
            print(f"      {problem}")
        failed += bool(problems)
    if failed:
        print(f"docs drift gate: {failed} check(s) failed")
        return 1
    print("docs drift gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
