"""The raw-edge answer walks against Ref-walking references.

Algorithms 2, 3 and 4 walk the kernel's int64 columns directly
(``BDDManager.evaluate``, ``allsat.iter_cubes``,
``allsat.greedy_witness``).  The references below are test-local copies
of the earlier walks over :class:`Ref` handles (``node.low``/``node.high``,
one interned handle per visited node); on random trees and formulas, with
negation so complement edges are exercised, and after a collection or an
in-place sift has renumbered or reordered the kernel, the raw walks must
give the identical answers: the same cubes in the same order with the
same key order, the same terminal, the same decisions.  The MCS/MPS set
walk (``allsat.path_sets``) must equal the sets read off those cubes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bdd.allsat import cube_sets, greedy_witness, iter_cubes, path_sets
from repro.casestudy import build_covid_tree
from repro.checker import FormulaTranslator, ModelChecker
from repro.checker.counterexample import algorithm4
from repro.checker.evaluate import walk
from repro.errors import StatusVectorError
from repro.logic import MCS, MPS, Atom, Equiv, Not

from bfl_strategies import formulas_for, small_trees, vectors_for

_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def ref_iter_cubes(manager, u):
    """The Ref-walking Algorithm 3 (mutate-and-undo DFS, low edge first)."""
    if u is manager.false:
        return
    if u is manager.true:
        yield {}
        return
    partial = {}
    stack = [(0, u)]
    while stack:
        op, arg = stack.pop()
        if op == 1:
            name, value = arg
            partial[name] = value
        elif op == 2:
            del partial[arg]
        else:
            node = arg
            if node.is_terminal:
                if node.value:
                    yield dict(partial)
                continue
            name = manager.name_of(node.level)
            stack.append((2, name))
            stack.append((0, node.high))
            stack.append((1, (name, True)))
            stack.append((0, node.low))
            stack.append((1, (name, False)))


def ref_walk(manager, root, vector):
    """The Ref-walking Algorithm 2."""
    node = root
    while not node.is_terminal:
        name = manager.name_of(node.level)
        try:
            bit = vector[name]
        except KeyError:
            raise StatusVectorError(
                f"status vector does not assign {name!r}"
            ) from None
        node = node.high if bit else node.low
    return bool(node.value)


def ref_greedy(manager, root, vector):
    """The Ref-walking Algorithm 4 decisions."""
    decided = {}
    node = root
    while not node.is_terminal:
        name = manager.name_of(node.level)
        bit = bool(vector[name])
        chosen = node.high if bit else node.low
        if chosen.is_terminal and not chosen.value:
            bit = not bit
            chosen = node.high if bit else node.low
        decided[name] = bit
        node = chosen
    return decided


def _ordered(cubes):
    """Cubes with their key order made part of the comparison."""
    return [list(cube.items()) for cube in cubes]


@given(data=st.data(), tree=small_trees(max_basic_events=5))
@settings(**_SETTINGS)
@pytest.mark.parametrize("churn", ["none", "collect", "sift"])
def test_raw_walks_equal_ref_walks(data, tree, churn):
    translator = FormulaTranslator(tree)
    manager = translator.manager
    operand = data.draw(formulas_for(tree))
    roots = [
        translator.bdd(formula)
        for formula in (operand, Not(operand), MCS(operand), MPS(operand))
    ]
    vector = data.draw(vectors_for(tree))
    for step in ("before", churn):
        if step == "collect":
            manager.collect()
        elif step == "sift":
            manager.sift_inplace()
        for root in roots:
            assert _ordered(iter_cubes(manager, root)) == _ordered(
                ref_iter_cubes(manager, root)
            )
            assert walk(manager, root, vector) == ref_walk(
                manager, root, vector
            )
            if root is not manager.false:
                assert list(
                    greedy_witness(manager, root, vector).items()
                ) == list(ref_greedy(manager, root, vector).items())


@given(data=st.data(), tree=small_trees(max_basic_events=5))
@settings(**_SETTINGS)
@pytest.mark.parametrize("churn", ["none", "collect", "sift"])
def test_path_sets_equal_the_sets_of_the_cubes(data, tree, churn):
    translator = FormulaTranslator(tree)
    manager = translator.manager
    operand = data.draw(formulas_for(tree))
    other = data.draw(formulas_for(tree))
    roots = [
        translator.bdd(formula)
        for formula in (
            operand,
            Not(operand),
            Equiv(operand, other),
            MCS(Equiv(operand, Not(other))),
            MPS(Not(operand)),
            MCS(MPS(operand)),
        )
    ]
    for step in ("before", churn):
        if step == "collect":
            manager.collect()
        elif step == "sift":
            manager.sift_inplace()
        for root in roots:
            for value in (True, False):
                assert path_sets(manager, root, value) == cube_sets(
                    iter_cubes(manager, root), value
                )


@given(data=st.data(), tree=small_trees(max_basic_events=5))
@settings(**_SETTINGS)
def test_algorithm4_follows_the_ref_walk(data, tree):
    translator = FormulaTranslator(tree)
    manager = translator.manager
    formula = data.draw(formulas_for(tree))
    root = translator.bdd(formula)
    vector = data.draw(vectors_for(tree))
    if root is manager.false:
        return
    decided = ref_greedy(manager, root, vector)
    cex = algorithm4(translator, formula, vector)
    assert cex.vector == {
        name: decided.get(name, vector[name]) for name in tree.basic_events
    }
    assert ref_walk(manager, root, cex.vector)


class _Recorder:
    """A governor that never trips and records every charge."""

    def __init__(self):
        self.charges = []

    def tick(self, live_nodes=0, weight=1):
        self.charges.append(weight)

    def check_deadline(self):
        pass


@pytest.mark.parametrize("kind, value", [(MCS, True), (MPS, False)])
def test_path_sets_charge_the_governor_as_the_cube_walk_does(kind, value):
    tree = build_covid_tree()
    translator = FormulaTranslator(tree)
    manager = translator.manager
    root = translator.bdd(kind(Atom(tree.top)))
    cubes, sets = _Recorder(), _Recorder()
    manager.governor = cubes
    expected = cube_sets(iter_cubes(manager, root), value)
    manager.governor = sets
    assert path_sets(manager, root, value) == expected
    manager.governor = None
    assert sets.charges == cubes.charges != []


def test_unassigned_variable_is_a_status_vector_error():
    tree = build_covid_tree()
    translator = FormulaTranslator(tree)
    manager = translator.manager
    root = translator.bdd(MCS(Not(Atom(tree.top))))
    name = manager.name_of(manager._level[root.edge >> 1])
    with pytest.raises(StatusVectorError) as raised:
        walk(manager, root, {})
    assert str(raised.value) == f"status vector does not assign {name!r}"


def test_warm_minimal_cut_sets_intern_no_handles(monkeypatch):
    checker = ModelChecker(build_covid_tree())
    manager = checker.translator.manager
    expected = checker.minimal_cut_sets(), checker.minimal_path_sets()
    interned = len(manager._refs)
    wraps = []
    original = manager._wrap
    monkeypatch.setattr(
        manager, "_wrap", lambda edge: wraps.append(edge) or original(edge)
    )
    assert (checker.minimal_cut_sets(), checker.minimal_path_sets()) == expected
    assert len(manager._refs) == interned
    assert wraps == []
