"""Tests for the fork fast paths: ``BDDManager.move_to_level``, the
edit-driven dirty set, and sibling-translator adoption.

These three pieces exist for one reason — keeping a copy-on-write
variant fork proportional to the *edit*, not the tree:

* ``move_to_level`` parks a just-declared placeholder (or basic event)
  where its subtree lives, so the splice compose grafts instead of
  recombining through every level in between;
* ``changed_elements_from_edits`` reads the dirty set off the edit
  script instead of diffing record tables (the record diff,
  ``changed_elements`` below, is its oracle);
* ``adopt_from`` bulk-seeds a child translator from its parent without
  copying or re-checking the shared manager's handles.

Each is checked against the slow, general machinery it shortcuts.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager
from repro.errors import SnapshotError, VariableError
from repro.ft import (
    EditError,
    GateSwap,
    WeightChange,
    apply_edits,
    changed_elements_from_edits,
    edits_from_any,
)
from repro.ft.to_bdd import TreeTranslator, hole_variable
from bfl_strategies import small_trees

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

VARS = ("a", "b", "c", "d", "e")


def _random_bdd(manager: BDDManager, rng: random.Random, depth: int = 4):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return manager.constant(rng.random() < 0.5)
        ref = manager.var(rng.choice(VARS))
        return manager.negate(ref) if rng.random() < 0.5 else ref
    left = _random_bdd(manager, rng, depth - 1)
    right = _random_bdd(manager, rng, depth - 1)
    out = manager.apply(rng.choice(("and", "or", "xor")), left, right)
    return manager.negate(out) if rng.random() < 0.3 else out


def _assignments():
    for bits in itertools.product([False, True], repeat=len(VARS)):
        yield dict(zip(VARS, bits))


# ----------------------------------------------------------------------
# move_to_level
# ----------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    name=st.sampled_from(VARS),
    target=st.integers(min_value=0, max_value=len(VARS) - 1),
)
@settings(**_SETTINGS)
def test_move_to_level_preserves_functions(seed, name, target):
    """Every live handle denotes the same function after any move."""
    manager = BDDManager(VARS)
    rng = random.Random(seed)
    roots = [_random_bdd(manager, rng) for _ in range(3)]
    tables = [
        [manager.evaluate(root, a) for a in _assignments()]
        for root in roots
    ]
    manager.move_to_level(name, target)
    assert manager.level_of(name) == target
    assert (
        [[manager.evaluate(root, a) for a in _assignments()]
         for root in roots]
        == tables
    )
    manager.check_invariants()


def test_move_to_level_reorders_and_validates():
    manager = BDDManager(VARS)
    manager.move_to_level("e", 0)
    assert manager.variables == ("e", "a", "b", "c", "d")
    manager.move_to_level("e", 4)
    assert manager.variables == ("a", "b", "c", "d", "e")
    with pytest.raises(VariableError):
        manager.move_to_level("nope", 0)
    with pytest.raises(VariableError):
        manager.move_to_level("a", len(VARS))
    with pytest.raises(VariableError):
        manager.move_to_level("a", -1)


def test_move_to_level_noop_keeps_memo_tables():
    manager = BDDManager(VARS)
    ab = manager.apply("and", manager.var("a"), manager.var("b"))
    cd = manager.apply("or", manager.var("c"), manager.var("d"))
    manager.apply("xor", ab, cd)
    before = manager.cache_stats()["apply_cache_size"]
    assert before > 0
    manager.move_to_level("a", manager.level_of("a"))
    assert manager.cache_stats()["apply_cache_size"] == before
    manager.move_to_level("a", 3)
    assert manager.cache_stats()["apply_cache_size"] == 0


@given(data=small_trees())
@settings(**_SETTINGS)
def test_splice_parks_hole_above_site_support(data):
    """After a splice, the placeholder sits at or above the site's
    support, and the spliced top still equals the direct lowering."""
    tree = data
    manager = BDDManager(tree.basic_events)
    translator = TreeTranslator(tree, manager)
    reference = translator.top()
    sites = [name for name in tree.gate_names if name != tree.top]
    if not sites:
        return
    site = sorted(sites)[0]
    spliced = translator.splice(site, translator.element(site))
    assert spliced == reference
    hole = hole_variable(site)
    support = manager.support(translator.element(site))
    if support:
        assert manager.level_of(hole) <= min(
            manager.level_of(v) for v in support
        )
    manager.check_invariants()


# ----------------------------------------------------------------------
# changed_elements_from_edits
# ----------------------------------------------------------------------


def _records(tree):
    """Every element's local record: its own definition, children by
    name."""
    table = {name: ("be", name) for name in tree.basic_events}
    for name in tree.gate_names:
        gate = tree.gate(name)
        table[name] = (gate.gate_type.value, gate.threshold, gate.children)
    return table


def changed_elements(old, new):
    """Element names whose structure function may differ between trees,
    by diffing local records: a name in one tree only or with a changed
    record, plus every ancestor of one (in either tree)."""
    old_records = _records(old)
    new_records = _records(new)
    changed = set(old_records.keys() ^ new_records.keys())
    for name in old_records.keys() & new_records.keys():
        if old_records[name] != new_records[name]:
            changed.add(name)
    stack = list(changed)
    while stack:
        name = stack.pop()
        for tree in (old, new):
            if name in tree:
                for parent in tree.parents(name):
                    if parent not in changed:
                        changed.add(parent)
                        stack.append(parent)
    return frozenset(changed)


@given(data=small_trees(), seed=st.integers(0, 2**31 - 1))
@settings(**_SETTINGS)
def test_dirty_from_edits_covers_record_diff(data, seed):
    """The edit-driven dirty set contains the record-diff one (the
    direction the translator caches rely on)."""
    tree = data
    rng = random.Random(seed)
    gates = sorted(tree.gate_names)
    events = sorted(tree.basic_events)
    edits = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5 and gates:
            gate = rng.choice(gates)
            arity = len(tree.gate(gate).children)
            if rng.random() < 0.5 and arity >= 1:
                edits.append(GateSwap(gate, "vot", rng.randint(1, arity)))
            else:
                edits.append(GateSwap(gate, rng.choice(("and", "or"))))
        else:
            edits.append(WeightChange(rng.choice(events), 0.42))
    new_tree = apply_edits(tree, edits)
    exact = changed_elements(tree, new_tree)
    estimated = changed_elements_from_edits(tree, new_tree, edits)
    assert exact <= estimated
    # The over-approximation is bounded by the edit targets' ancestor
    # closure — never the whole tree for a local edit script.
    seeds = {e.gate for e in edits if isinstance(e, GateSwap)}
    allowed = set(seeds)
    stack = list(seeds)
    while stack:
        for parent in new_tree.parents(stack.pop()):
            if parent not in allowed:
                allowed.add(parent)
                stack.append(parent)
    assert estimated <= allowed


def test_dirty_from_edits_noop_swap_is_conservative_only():
    """A no-op GateSwap dirties its target (allowed) but nothing else
    beyond the ancestor closure."""
    from repro.ft import figure1_tree

    tree = figure1_tree()
    gate = next(
        name for name in tree.gate_names if name != tree.top
    )
    swap = GateSwap(gate, tree.gate(gate).gate_type)
    new_tree = apply_edits(tree, [swap])
    assert changed_elements(tree, new_tree) == frozenset()
    estimated = changed_elements_from_edits(tree, new_tree, [swap])
    assert gate in estimated


def test_only_the_five_edit_types_are_edits():
    """``edits_from_any`` rejects anything that is neither an edit nor
    its mapping form, so the dirty set never meets an unknown edit."""
    from repro.ft import figure1_tree

    tree = figure1_tree()
    for item in (object(), "gate-swap", (tree.top, "and")):
        with pytest.raises(EditError):
            edits_from_any([item])
        with pytest.raises(EditError):
            changed_elements_from_edits(tree, tree, [item])


def test_a_variant_event_is_appended_to_the_shared_order():
    """A variant's new event is declared after every base event in the
    shared kernel, not parked next to its siblings."""
    from repro.casestudy import build_covid_tree
    from repro.service import BatchAnalyzer

    tree = build_covid_tree()
    edit = {"op": "event-add", "gate": "MoT", "event": "EXTRA"}
    analyzer = BatchAnalyzer(tree, variants={"v": {"edits": [edit]}})
    base = analyzer.session()
    variant = analyzer.session("v")
    manager = variant.checker.manager
    assert manager is base.checker.manager
    order = list(manager.variables)
    assert order.index("EXTRA") > max(
        order.index(name) for name in tree.basic_events
    )
    assert analyzer.run([{"tree": "v", "formula": "exists EXTRA"}]).results[
        0
    ].holds


# ----------------------------------------------------------------------
# adopt_from
# ----------------------------------------------------------------------


def test_adopt_from_matches_filtered_adopt():
    from repro.ft import figure1_tree

    tree = figure1_tree()
    manager = BDDManager(tree.basic_events)
    parent = TreeTranslator(tree, manager)
    parent.top()

    child = TreeTranslator(tree, manager)
    skip = frozenset({tree.top})
    child.adopt_from(parent, skip=skip)
    expected = {
        name: ref
        for name, ref in parent.export_cache().items()
        if name not in skip
    }
    assert dict(child.export_cache()) == expected

    other = TreeTranslator(tree, BDDManager(tree.basic_events))
    with pytest.raises(SnapshotError):
        other.adopt_from(parent)


def test_adopt_from_skips_foreign_names():
    """Names absent from the adopting tree are dropped silently (the
    fork path adopts from a tree the edit may have shrunk)."""
    from repro.ft import figure1_tree
    from repro.ft.elements import BasicEvent, Gate, GateType

    tree = figure1_tree()
    manager = BDDManager(tree.basic_events)
    parent = TreeTranslator(tree, manager)
    parent.top()
    events = sorted(tree.basic_events)[:2]
    small = __import__("repro.ft.tree", fromlist=["FaultTree"]).FaultTree(
        [BasicEvent(name) for name in events],
        [Gate("small_top", GateType.OR, tuple(events))],
        "small_top",
    )
    child = TreeTranslator(small, manager)
    child.adopt_from(parent)
    assert set(child.cached_elements) <= set(small.elements)
