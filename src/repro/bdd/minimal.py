"""Minimal / maximal satisfying assignments of a BDD.

This module implements the heart of the paper's ``MCS``/``MPS`` operators
(Algorithm 1, last recursion rule)::

    BT(MCS(phi)) : BT(phi) and not exists V'. (V' < V  and  BT(phi)[V -> V'])

where ``V' < V  ==  (AND_k v'_k => v_k) and (OR_k v'_k != v_k)`` compares
status vectors by strict inclusion of their *failed* sets.

Two constructions of the same function are provided:

* the **minimal-solutions recursion** used in production,
  :func:`minimal_solutions` / :func:`maximal_solutions` — one memoised
  sweep over the BDD that generalises Rauzy's ``minsol`` to any operand
  through a scope closure (``min(f) = x ? (min(f1) and not up(f0)) :
  min(f0)``), with no primed copies of the variables;
* the paper's **primed-relation** construction,
  :func:`minimal_assignments` / :func:`maximal_assignments`, kept as the
  reference the tests and ``bench_mcs_algorithms`` compare against.  It
  declares a primed twin of every scope variable on first use.

Both build canonically the identical BDD for every input, monotone or
not; the test suite pins the identity.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence, Tuple

from ..errors import VariableError
from .manager import _FALSE, _TRUE, BDDManager
from .ref import Ref
from .quantify import exists

#: Suffix used to derive the primed copy of a variable name.
PRIME_SUFFIX = "__prime"


def prime_name(name: str) -> str:
    """Name of the primed copy of ``name`` (``V -> V'`` in the paper)."""
    return name + PRIME_SUFFIX


def ensure_primed(manager: BDDManager, scope: Sequence[str]) -> Dict[str, str]:
    """Declare (if needed) primed copies for ``scope``; return the mapping.

    Primed variables are appended to the end of the order in the same
    relative order as their originals, which keeps :meth:`BDDManager.rename`
    monotone.
    """
    declared = set(manager.variables)
    mapping: Dict[str, str] = {}
    for name in scope:
        primed = prime_name(name)
        if primed not in declared:
            manager.declare(primed)
            declared.add(primed)
        mapping[name] = primed
    return mapping


def strict_subset_relation(
    manager: BDDManager, scope: Sequence[str], mapping: Dict[str, str]
) -> Ref:
    """BDD for ``V' subset-of V`` over ``scope``:
    ``(AND v' => v) and (OR v' != v)``."""
    all_below = manager.conjoin(
        manager.implies(manager.var(mapping[name]), manager.var(name))
        for name in scope
    )
    some_differ = manager.disjoin(
        manager.xor(manager.var(mapping[name]), manager.var(name))
        for name in scope
    )
    return manager.and_(all_below, some_differ)


def strict_superset_relation(
    manager: BDDManager, scope: Sequence[str], mapping: Dict[str, str]
) -> Ref:
    """BDD for ``V' superset-of V`` over ``scope`` (the MPS dual)."""
    all_above = manager.conjoin(
        manager.implies(manager.var(name), manager.var(mapping[name]))
        for name in scope
    )
    some_differ = manager.disjoin(
        manager.xor(manager.var(mapping[name]), manager.var(name))
        for name in scope
    )
    return manager.and_(all_above, some_differ)


def _substitute_fresh(
    manager: BDDManager, u: Ref, mapping: Dict[str, str]
) -> Ref:
    """Rename ``u``'s variables to fresh (independent) targets under *any*
    level order.

    :meth:`BDDManager.rename` is a linear-time rebuild but demands a
    monotone mapping; in-place dynamic reordering can legally break the
    interleaved original/primed layout, so the primed copy falls back to
    a Shannon-expansion rebuild (``ite(target, walk(high), walk(low))``)
    whenever the current order is no longer monotone.  Correct because
    every target variable is outside the support of ``u``.
    """
    try:
        return manager.rename(u, mapping)
    except VariableError:
        pass
    cache: Dict[int, Ref] = {}

    def walk(node: Ref) -> Ref:
        if node.is_terminal:
            return node
        cached = cache.get(node.uid)
        if cached is not None:
            return cached
        name = manager.name_of(node.level)
        target = manager.var(mapping.get(name, name))
        result = manager.ite(target, walk(node.high), walk(node.low))
        cache[node.uid] = result
        return result

    return walk(u)


def _relational_extreme(
    manager: BDDManager, u: Ref, scope: Sequence[str], superset: bool
) -> Ref:
    if not scope:
        return u
    mapping = ensure_primed(manager, scope)
    if superset:
        relation = strict_superset_relation(manager, scope, mapping)
    else:
        relation = strict_subset_relation(manager, scope, mapping)
    shifted = _substitute_fresh(manager, u, mapping)
    witness = exists(
        manager,
        manager.and_(relation, shifted),
        [mapping[name] for name in scope],
    )
    return manager.and_(u, manager.negate(witness))


def minimal_assignments(manager: BDDManager, u: Ref, scope: Sequence[str]) -> Ref:
    """Paper construction: satisfying vectors with no strictly smaller
    satisfying vector (comparison over ``scope``; other variables are
    untouched don't-cares).  The reference for :func:`minimal_solutions`;
    it declares primed twins of the scope variables on first use."""
    return _relational_extreme(manager, u, scope, superset=False)


def maximal_assignments(manager: BDDManager, u: Ref, scope: Sequence[str]) -> Ref:
    """Satisfying vectors with no strictly larger satisfying vector; this is
    the MPS-side construction (see DESIGN.md deviation 1) and the
    reference for :func:`maximal_solutions`."""
    return _relational_extreme(manager, u, scope, superset=True)


def _closure_e(
    manager: BDDManager,
    edge: int,
    scope: FrozenSet[int],
    down: bool,
    memo: Dict[int, int],
) -> int:
    """Up-closure (``down=False``) or down-closure of ``edge`` over the
    scope levels, on raw kernel edges.

    ``up(g)`` holds at ``v`` iff some ``w`` with ``w <= v`` on the scope
    (and equal elsewhere) satisfies ``g``::

        up(g)   = y ? (up(g0) or up(g1)) : up(g0)      (y in scope)
        down(g) = y ? down(g1) : (down(g0) or down(g1))
        up(g)   = y ? up(g1) : up(g0)                  (y outside scope)

    A level ``g`` skips stays skipped (the closure of a function that
    ignores ``y`` ignores ``y``), so the result depends on the edge alone
    and is memoised per edge.  For a function monotone in the scope the
    up-closure is the function itself.
    """
    if edge <= _FALSE:
        return edge
    cached = memo.get(edge)
    if cached is not None:
        return cached
    index = edge >> 1
    c = edge & 1
    top = manager._level[index]
    c0 = _closure_e(manager, manager._low[index] ^ c, scope, down, memo)
    c1 = _closure_e(manager, manager._high[index] ^ c, scope, down, memo)
    if top in scope:
        if down:
            c0 = manager._or_e(c0, c1)
        else:
            c1 = manager._or_e(c0, c1)
    result = manager._mk(top, c0, c1)
    memo[edge] = result
    return result


def _extreme(
    manager: BDDManager, u: Ref, scope: Sequence[str], maximal: bool
) -> Ref:
    """The minimal-solutions recursion, exact for any function.  With
    ``u = x ? u1 : u0`` and ``x`` in scope::

        min(u) = x ? (min(u1) and not up(u0)) : min(u0)
        max(u) = x ? max(u1) : (max(u0) and not down(u1))

    where ``up``/``down`` are the scope closures of :func:`_closure_e`: a
    vector with ``x`` failed is minimal iff it is minimal in ``u1`` and
    no vector below it (``x`` cleared, the rest a subset) satisfies
    ``u0``.  For a monotone ``u0``, ``up(u0) = u0`` and this is Rauzy's
    ``minsol``.

    Scope variables the BDD skips over (it does not branch on them) are
    forced to their extreme value — 0 for minimality, 1 for maximality —
    by a chain of fresh nodes above the recursive core; scope variables
    outside the sub-call's window (``levels[k:]``) belong to an
    ancestor.  Memoised on ``(edge, k)``.
    """
    if not scope:
        return u
    # Dedup: a repeated scope name states the same comparison twice, and
    # the pin loop must never see the same level twice.
    levels = sorted({manager.level_of(name) for name in scope})
    in_scope = frozenset(levels)
    nlev = len(levels)
    memo: Dict[Tuple[int, int], int] = {}
    closures: Dict[int, int] = {}

    def extreme(edge: int, k: int) -> int:
        key = (edge, k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if edge == _FALSE:
            memo[key] = _FALSE
            return _FALSE
        top = manager._level[edge >> 1]
        j = k
        while j < nlev and levels[j] < top:
            j += 1
        if edge == _TRUE:
            core = _TRUE
        else:
            index = edge >> 1
            c = edge & 1
            u0 = manager._low[index] ^ c
            u1 = manager._high[index] ^ c
            if j < nlev and levels[j] == top:
                m0 = extreme(u0, j + 1)
                m1 = extreme(u1, j + 1)
                if maximal:
                    below = _closure_e(manager, u1, in_scope, True, closures)
                    core = manager._mk(top, manager._and_e(m0, below ^ 1), m1)
                else:
                    above = _closure_e(manager, u0, in_scope, False, closures)
                    core = manager._mk(top, m0, manager._and_e(m1, above ^ 1))
            else:
                core = manager._mk(top, extreme(u0, j), extreme(u1, j))
        # Skipped scope variables: an extreme vector cannot waste a bit
        # the function ignores, so pin them (0 for minimal, 1 for
        # maximal).
        for lvl in reversed(levels[k:j]):
            if maximal:
                core = manager._mk(lvl, _FALSE, core)  # x and core
            else:
                core = manager._mk(lvl, core, _FALSE)  # (not x) and core
        memo[key] = core
        return core

    return manager._wrap(extreme(manager._unwrap(u), 0))


def minimal_solutions(
    manager: BDDManager, u: Ref, scope: Sequence[str]
) -> Ref:
    """Satisfying vectors of ``u`` with no strictly smaller satisfying
    vector over ``scope`` (other variables are untouched don't-cares).

    The production MCS construction: one memoised sweep, exact for any
    ``u`` (monotone or not), canonically the same BDD as the paper's
    :func:`minimal_assignments` without declaring or touching any primed
    variable.
    """
    return _extreme(manager, u, scope, maximal=False)


def maximal_solutions(
    manager: BDDManager, u: Ref, scope: Sequence[str]
) -> Ref:
    """Satisfying vectors of ``u`` with no strictly larger satisfying
    vector over ``scope``: the dual of :func:`minimal_solutions` (the MPS
    construction), canonically the same BDD as
    :func:`maximal_assignments`."""
    return _extreme(manager, u, scope, maximal=True)
