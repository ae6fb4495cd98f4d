"""Minimal/maximal satisfying-vector constructions (the MCS/MPS engine).

Cross-validates the production minimal-solutions recursion against the
paper's primed-relation construction (canonical identity, any operand),
against the historical restrict+conjoin formula on monotone operands,
and against brute force.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BDDManager,
    all_models,
    maximal_assignments,
    maximal_solutions,
    minimal_assignments,
    minimal_solutions,
    prime_name,
)
from repro.bdd.minimal import _closure_e, ensure_primed

NAMES = ["p", "q", "r"]


def _brute_minimal(models, scope):
    keys = [frozenset(n for n in scope if m[n]) for m in models]
    return {
        m_key
        for m_key in keys
        if not any(other < m_key for other in keys)
    }


def _brute_maximal(models, scope):
    keys = [frozenset(n for n in scope if m[n]) for m in models]
    return {
        m_key
        for m_key in keys
        if not any(other > m_key for other in keys)
    }


def _monotone_function(manager, seed):
    """Random AND/OR combination of positive literals (hence monotone)."""
    import random

    rng = random.Random(seed)
    result = manager.var(rng.choice(NAMES))
    for _ in range(4):
        literal = manager.var(rng.choice(NAMES))
        op = rng.choice(["and", "or"])
        result = manager.apply(op, result, literal)
    return result


def _random_function(manager, seed, names=NAMES, depth=4):
    """Random formula over literals of both polarities with AND/OR/XOR:
    mostly *not* monotone."""
    import random

    rng = random.Random(seed)

    def build(level):
        if level == 0 or rng.random() < 0.2:
            literal = manager.var(rng.choice(names))
            return manager.negate(literal) if rng.random() < 0.4 else literal
        op = rng.choice(["and", "or", "xor"])
        return manager.apply(op, build(level - 1), build(level - 1))

    return build(depth)


def _up_closure(manager, f, scope=NAMES):
    """``up(f)`` over ``scope``: the recursion's closure of ``f``."""
    levels = frozenset(manager.level_of(name) for name in scope)
    edge = _closure_e(manager, manager._unwrap(f), levels, False, {})
    return manager._wrap(edge)


def _restrict_minimal(manager, u, scope):
    """The historical restrict+conjoin formula
    ``u and AND_x (not x or not u[x:=0])``: the minimal vectors of a
    *monotone* ``u`` (wrong for non-monotone ones)."""
    result = u
    for name in scope:
        off = manager.restrict(u, name, False)
        result = manager.and_(
            result, manager.or_(manager.nvar(name), manager.negate(off))
        )
    return result


def _restrict_maximal(manager, u, scope):
    """Dual of :func:`_restrict_minimal`: ``u and AND_x (x or not
    u[x:=1])``, the maximal vectors of an *antitone* ``u``."""
    result = u
    for name in scope:
        on = manager.restrict(u, name, True)
        result = manager.and_(
            result, manager.or_(manager.var(name), manager.negate(on))
        )
    return result


class TestPrimedNames:
    def test_prime_name_suffix(self):
        assert prime_name("IW") == "IW__prime"

    def test_ensure_primed_declares_once(self):
        manager = BDDManager(NAMES)
        mapping = ensure_primed(manager, NAMES)
        again = ensure_primed(manager, NAMES)
        assert mapping == again
        assert manager.variables.count(prime_name("p")) == 1


class TestMinimal:
    def test_or_gate_minimal_vectors(self):
        manager = BDDManager(["a", "b"])
        f = manager.or_(manager.var("a"), manager.var("b"))
        minimal = minimal_assignments(manager, f, ["a", "b"])
        models = all_models(manager, minimal, ["a", "b"])
        sets = {frozenset(n for n, v in m.items() if v) for m in models}
        assert sets == {frozenset({"a"}), frozenset({"b"})}

    def test_and_gate_single_minimal_vector(self):
        manager = BDDManager(["a", "b"])
        f = manager.and_(manager.var("a"), manager.var("b"))
        minimal = minimal_assignments(manager, f, ["a", "b"])
        models = all_models(manager, minimal, ["a", "b"])
        assert models == [{"a": True, "b": True}]

    def test_empty_scope_is_identity(self):
        manager = BDDManager(["a"])
        f = manager.var("a")
        assert minimal_assignments(manager, f, []) is f

    def test_unsatisfiable_stays_unsatisfiable(self):
        manager = BDDManager(["a"])
        f = manager.false
        assert minimal_assignments(manager, f, ["a"]) is manager.false

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_primed_equals_monotone_fast_path(self, seed):
        manager = BDDManager(NAMES)
        f = _monotone_function(manager, seed)
        assert _up_closure(manager, f) is f  # monotone
        general = minimal_assignments(manager, f, NAMES)
        fast = minimal_solutions(manager, f, NAMES)
        assert general is fast

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_primed_matches_brute_force(self, seed):
        manager = BDDManager(NAMES)
        f = _monotone_function(manager, seed)
        minimal = minimal_assignments(manager, f, NAMES)
        got = {
            frozenset(n for n, v in m.items() if v)
            for m in all_models(manager, minimal, NAMES)
        }
        expected = _brute_minimal(all_models(manager, f, NAMES), NAMES)
        assert got == expected


class TestMaximal:
    def test_maximal_vectors_of_negated_and(self):
        manager = BDDManager(["a", "b"])
        f = manager.negate(manager.and_(manager.var("a"), manager.var("b")))
        maximal = maximal_assignments(manager, f, ["a", "b"])
        models = all_models(manager, maximal, ["a", "b"])
        sets = {frozenset(n for n, v in m.items() if v) for m in models}
        # Maximal non-(a and b) vectors: {a}, {b}.
        assert sets == {frozenset({"a"}), frozenset({"b"})}

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_maximal_matches_brute_force(self, seed):
        manager = BDDManager(NAMES)
        f = manager.negate(_monotone_function(manager, seed))
        maximal = maximal_assignments(manager, f, NAMES)
        got = {
            frozenset(n for n, v in m.items() if v)
            for m in all_models(manager, maximal, NAMES)
        }
        expected = _brute_maximal(all_models(manager, f, NAMES), NAMES)
        assert got == expected

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_maximal_fast_path_agrees(self, seed):
        manager = BDDManager(NAMES)
        base = _monotone_function(manager, seed)
        f = manager.negate(base)
        general = maximal_assignments(manager, f, NAMES)
        fast = maximal_solutions(manager, f, NAMES)
        assert general is fast


class TestIsMonotone:
    """A function is monotone in the scope iff it is its own up-closure,
    which is why the recursion needs no monotonicity test: on a monotone
    low cofactor ``up(u0) = u0`` and the rule is Rauzy's ``minsol``."""

    def test_positive_function_is_monotone(self):
        manager = BDDManager(NAMES)
        f = manager.or_(manager.var("p"), manager.and_(manager.var("q"), manager.var("r")))
        assert _up_closure(manager, f) is f

    def test_negation_is_not_monotone(self):
        manager = BDDManager(NAMES)
        # Some vector below every vector (p cleared) satisfies not-p.
        assert _up_closure(manager, manager.nvar("p")) is manager.true

    def test_constants_are_monotone(self):
        manager = BDDManager(NAMES)
        assert _up_closure(manager, manager.true) is manager.true
        assert _up_closure(manager, manager.false) is manager.false

    def test_xor_is_not_monotone(self):
        manager = BDDManager(NAMES)
        p, q = manager.var("p"), manager.var("q")
        assert _up_closure(manager, manager.xor(p, q)) is manager.or_(p, q)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_closure_is_the_least_monotone_superset(self, seed):
        manager = BDDManager(NAMES)
        f = _random_function(manager, seed)
        up = _up_closure(manager, f)
        truth = {
            bits: manager.evaluate(f, dict(zip(NAMES, bits)))
            for bits in itertools.product((False, True), repeat=len(NAMES))
        }
        for bits in truth:
            below = any(
                truth[other]
                for other in truth
                if all(o <= b for o, b in zip(other, bits))
            )
            assert manager.evaluate(up, dict(zip(NAMES, bits))) == below


class TestMinsolSinglePass:
    """The memoised minimal-solutions recursion builds *canonically the
    same BDD* as the paper's construction for any input, any scope subset,
    and scopes with variables outside the function's support; on
    monotone inputs it also equals the historical restrict+conjoin
    formula it grew out of."""

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_minimal_matches_restrict_oracle(self, seed):
        manager = BDDManager(NAMES)
        f = _monotone_function(manager, seed)
        for scope in (NAMES, NAMES[:2], NAMES[1:], []):
            fast = minimal_solutions(manager, f, scope)
            assert fast is _restrict_minimal(manager, f, scope)
            assert fast is minimal_assignments(manager, f, scope)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_maximal_matches_restrict_oracle(self, seed):
        manager = BDDManager(NAMES)
        f = manager.negate(_monotone_function(manager, seed))
        for scope in (NAMES, NAMES[:2], NAMES[2:], []):
            fast = maximal_solutions(manager, f, scope)
            assert fast is _restrict_maximal(manager, f, scope)
            assert fast is maximal_assignments(manager, f, scope)

    def test_non_monotone_inputs_still_match_the_oracle(self):
        manager = BDDManager(NAMES)
        p, q = manager.var("p"), manager.var("q")
        f = manager.xor(p, q)
        minimal = minimal_solutions(manager, f, NAMES)
        assert minimal is minimal_assignments(manager, f, NAMES)
        assert maximal_solutions(
            manager, f, NAMES
        ) is maximal_assignments(manager, f, NAMES)
        # The closure matters: p <=> q holds at {} and {p, q}; clearing a
        # single bit of {p, q} falsifies it, so the single-bit formula
        # keeps {p, q}, which {} lies below.
        g = manager.equiv(p, q)
        assert minimal_solutions(manager, g, NAMES) is minimal_assignments(
            manager, g, NAMES
        )
        assert _restrict_minimal(manager, g, NAMES) is not minimal_solutions(
            manager, g, NAMES
        )

    @given(seed=st.integers(0, 10**6), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_function_matches_the_paper_construction(self, seed, data):
        names = NAMES + ["s", "t"]
        manager = BDDManager(names)
        f = _random_function(manager, seed, names)
        scope = data.draw(st.lists(st.sampled_from(names), unique=True))
        assert minimal_solutions(manager, f, scope) is minimal_assignments(
            manager, f, scope
        )
        assert maximal_solutions(manager, f, scope) is maximal_assignments(
            manager, f, scope
        )

    def test_duplicate_scope_names_are_tolerated(self):
        manager = BDDManager(NAMES)
        f = manager.or_(manager.var("p"), manager.var("q"))
        duplicated = ["p", "p", "q", "q", "q"]
        assert minimal_solutions(
            manager, f, duplicated
        ) is minimal_assignments(manager, f, duplicated)
        g = manager.negate(f)
        assert maximal_solutions(
            manager, g, duplicated
        ) is maximal_assignments(manager, g, duplicated)

    def test_no_primed_variable_is_declared(self):
        manager = BDDManager(NAMES)
        f = manager.xor(manager.var("p"), manager.var("q"))
        minimal_solutions(manager, f, NAMES)
        maximal_solutions(manager, f, NAMES)
        assert manager.variables == tuple(NAMES)

    def test_scope_variables_outside_support_are_pinned(self):
        manager = BDDManager(NAMES)
        f = manager.var("p")
        minimal = minimal_solutions(manager, f, NAMES)
        models = all_models(manager, minimal, NAMES)
        # q/r are don't-cares of f; minimality clears them.
        assert models == [{"p": True, "q": False, "r": False}]
