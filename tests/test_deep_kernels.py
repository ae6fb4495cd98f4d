"""A kernel deeper than Python's recursion limit answers with rows.

``_and_e``/``_ite_e`` recurse once per level, so conjoining two chains
of more events than ``sys.getrecursionlimit()`` runs out of Python
stack.  The battery turns that into a ``resource-limit`` row through the
manager's abort protocol, keeps answering the queries that fit, and
never keeps (or pools) a kernel that fails ``check_invariants``.  The
minimal-solutions sweep itself runs on an explicit stack, so ``MCS`` of
one deep chain answers.
"""

import sys

import pytest

from repro.bdd import BDDManager
from repro.checker import ModelChecker
from repro.cli import main
from repro.errors import recursion_limit_message
from repro.ft import dumps, loads
from repro.service import BatchAnalyzer

from test_service_server import running

BATTERY = [
    {"id": "deep", "kind": "check", "formula": "exists T"},
    {"id": "chain", "kind": "check", "formula": "exists A0"},
    {"id": "mcs", "kind": "mcs", "element": "A0"},
]


def deep_tree(n=None):
    """``T = A0 and B0`` over two AND chains of ``n`` events each; the
    default order places every ``a`` event above every ``b`` event, so
    ``A0 and B0`` recurses through all ``n`` levels of ``A0``."""
    n = n or sys.getrecursionlimit() + 200
    lines = ["toplevel T;", "T and A0 B0;"]
    for side in "AB":
        for i in range(n - 1):
            lines.append(f"{side}{i} and {side.lower()}{i} {side}{i + 1};")
        lines.append(f"{side}{n - 1} and {side.lower()}{n - 1};")
    return loads("\n".join(lines))


def check_rows(rows, n):
    deep, chain, mcs = rows
    assert (deep["ok"], deep["error_kind"]) == (False, "resource-limit")
    assert deep["error"].endswith(recursion_limit_message())
    assert (chain["ok"], chain["holds"]) == (True, True)
    assert mcs["ok"]
    (cut_set,) = mcs["sets"]
    assert len(cut_set) == n


def test_batch_analyzer_answers_with_a_resource_limit_row():
    tree = deep_tree()
    n = len(tree.basic_events) // 2
    analyzer = BatchAnalyzer({"s": tree})
    for _ in range(2):  # the next battery on the scenario answers too
        report = analyzer.run([dict(q, tree="s") for q in BATTERY])
        check_rows(report.to_dict()["results"], n)
        analyzer.sessions["s"].checker.manager.check_invariants()


def test_model_checker_execute_answers_like_the_batch():
    tree = deep_tree()
    checker = ModelChecker(tree)
    rows = [checker.execute(q).to_dict() for q in BATTERY]
    check_rows(rows, len(tree.basic_events) // 2)
    batch = BatchAnalyzer(tree).run(BATTERY).to_dict()["results"]
    for row in rows + batch:
        del row["elapsed_ms"]
    assert rows == batch


@pytest.mark.parametrize("argv", [
    ["check", "exists T"],
    ["allsat", "T"],
    ["mcs"],
    ["mps"],
    ["cex", "T", "--failed", "a0"],
])
def test_cli_prints_the_recursion_limit_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.dft"
    path.write_text(dumps(deep_tree()))
    assert main([argv[0], "--tree", str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {recursion_limit_message()}\n"


def broken(manager):
    raise AssertionError("node columns differ in length")


def test_a_kernel_failing_its_invariants_is_rebuilt(monkeypatch):
    analyzer = BatchAnalyzer({"s": deep_tree()})
    first = analyzer.session("s")
    monkeypatch.setattr(BDDManager, "check_invariants", broken)
    report = analyzer.run([dict(q, tree="s") for q in BATTERY])
    monkeypatch.undo()
    check_rows(report.to_dict()["results"], len(first.tree.basic_events) // 2)
    rebuilt = analyzer.sessions["s"]
    assert rebuilt is not first
    assert rebuilt.checker.manager is not first.checker.manager
    rebuilt.checker.manager.check_invariants()


def test_a_facade_kernel_failing_its_invariants_is_rebuilt(monkeypatch):
    tree = deep_tree()
    checker = ModelChecker(tree)
    first = checker.manager
    monkeypatch.setattr(BDDManager, "check_invariants", broken)
    rows = [checker.execute(q).to_dict() for q in BATTERY]
    monkeypatch.undo()
    check_rows(rows, len(tree.basic_events) // 2)
    assert checker.manager is not first
    checker.manager.check_invariants()
    assert checker.execute("exists A0").holds


@pytest.mark.parametrize("break_kernel", [False, True])
def test_http_battery_gets_a_200_with_structured_rows(monkeypatch, break_kernel):
    tree = deep_tree()
    n = len(tree.basic_events) // 2
    with running({"s": tree}) as harness:
        pooled = []
        for attempt in range(2):
            if break_kernel and attempt == 1:
                monkeypatch.setattr(BDDManager, "check_invariants", broken)
            status, report, _ = harness.post(
                "/battery", {"queries": [dict(q, tree="s") for q in BATTERY]}
            )
            monkeypatch.undo()
            assert status == 200
            check_rows(report["results"], n)
            (entry,) = harness.server.pool._entries.values()
            entry.session.checker.manager.check_invariants()
            pooled.append(entry.session)
        # A kernel that failed its invariants never stays pooled.
        assert (pooled[0] is pooled[1]) is not break_kernel


def test_without_asserts_a_kernel_is_always_rebuilt(tmp_path):
    """``check_invariants`` is made of asserts; under ``python -O`` it
    passes whatever the kernel holds, so it cannot keep a kernel."""
    import json
    import os
    import subprocess

    tree = deep_tree()
    (tmp_path / "deep.dft").write_text(dumps(tree))
    script = (
        "import json, sys\n"
        "from repro.ft import load\n"
        "from repro.service import BatchAnalyzer\n"
        "if __debug__:\n"
        "    sys.exit('asserts are on')\n"
        "analyzer = BatchAnalyzer({'s': load(sys.argv[1])})\n"
        "first = analyzer.session('s')\n"
        "rows = analyzer.run(json.loads(sys.argv[2])).to_dict()['results']\n"
        "print(rows[0]['error_kind'], rows[1]['holds'],\n"
        "      len(rows[2]['sets'][0]), analyzer.sessions['s'] is first)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script, str(tmp_path / "deep.dft"),
         json.dumps([dict(q, tree="s") for q in BATTERY])],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout.split()
    n = len(tree.basic_events) // 2
    assert out == ["resource-limit", "True", str(n), "False"]
