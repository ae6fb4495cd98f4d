"""AllSat: enumerate satisfying assignments of a BDD (paper Algorithm 3).

The paper's Algorithm 3 collects "every path that leads to the terminal 1".
A path assigns values only to the variables it branches on; the remaining
variables are *don't-cares*.  We expose both views:

* :func:`iter_cubes` — one partial assignment (cube) per 1-path, exactly the
  paper's "collect every path" reading;
* :func:`iter_models` — total assignments over an explicit variable scope,
  i.e. the satisfying status vectors ``[[b]]``;
* :func:`path_sets` — the failed (or operational) set of each path, the
  MCS/MPS view, read off the walk without building the cubes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence

from .manager import _FALSE, _GOV_STRIDE, _TRUE, BDDManager
from .ref import Ref

#: A cube maps variable names to booleans; absent variables are don't-cares.
Cube = Dict[str, bool]


def iter_cubes(manager: BDDManager, u: Ref) -> Iterator[Cube]:
    """Yield one cube per root-to-``1`` path (depth-first, low edge first).

    The generator is lazy, so callers may stop after the first witness.
    It walks the kernel's int columns: no :class:`Ref` is made for a
    visited node (this frame holds ``u``, so no collection reclaims the
    walked nodes).  One partial assignment is set along the path and
    undone on backtrack; only the yielded cubes are copies.

    Edges into ``0`` are never followed and every other node has a path
    to ``1``, so the visits between two cubes lie on the path of the
    second: at most ``len(cube) + 1``.  The walk allocates no nodes, so
    no ``_mk`` safe point sees it: under an installed governor it charges
    each cube that bound and ticks once per ``_GOV_STRIDE`` charged
    visits, so a deadline or step budget ends the enumeration.
    """
    edge = manager._unwrap(u)
    if edge == _FALSE:
        return
    level, low, high = manager._level, manager._low, manager._high
    order = manager._order
    partial: Cube = {}
    # A frame is a name to unset, or (edge, name, value): set
    # name = value (name None at the root), then visit edge.
    stack: List[object] = [(edge, None, False)]
    pop, push = stack.pop, stack.append
    governed = manager.governor is not None
    charged = 0
    while stack:
        frame = pop()
        if frame.__class__ is str:
            del partial[frame]
            continue
        edge, name, value = frame
        if name is not None:
            partial[name] = value
        if edge == _TRUE:
            if governed:
                charged += len(partial) + 1
                if charged >= _GOV_STRIDE:
                    manager._governed_point(weight=charged)
                    charged = 0
            yield dict(partial)
            continue
        index = edge >> 1
        c = edge & 1
        name = order[level[index]]
        # LIFO: low is walked first, then high overwrites the value in
        # place (keeping the cube's key order), then the unset.
        push(name)
        child = high[index] ^ c
        if child != _FALSE:
            push((child, name, True))
        child = low[index] ^ c
        if child != _FALSE:
            push((child, name, False))


def count_cubes(manager: BDDManager, u: Ref) -> int:
    """Number of distinct root-to-``1`` paths, in O(BDD size).

    Per node, ``total`` counts its paths to either terminal and ``ones``
    those ending in ``1`` on its regular edge; through a complemented
    edge the other ``total - ones`` paths end in ``1``.
    """
    edge = manager._unwrap(u)
    low, high = manager._low, manager._high
    total = {0: 1}
    ones = {0: 1}

    def ones_of(e: int) -> int:
        return total[e >> 1] - ones[e >> 1] if e & 1 else ones[e >> 1]

    for index in manager._below(edge):
        lo, hi = low[index], high[index]
        total[index] = total[lo >> 1] + total[hi >> 1]
        ones[index] = ones_of(lo) + ones_of(hi)
    return ones_of(edge)


def greedy_witness(
    manager: BDDManager, u: Ref, assignment: Mapping[str, bool]
) -> Cube:
    """The decisions of Algorithm 4's walk, on raw edges: follow
    ``assignment`` from the root, but take the sibling of an edge into
    ``0`` (a reduced node's other edge is never ``0`` too).  One entry
    per level branched on, root first.

    Raises:
        KeyError: If the walk reaches a variable not in ``assignment``.
    """
    edge = manager._unwrap(u)
    level, low, high = manager._level, manager._low, manager._high
    order = manager._order
    decided: Cube = {}
    while edge > _FALSE:
        index, c = edge >> 1, edge & 1
        name = order[level[index]]
        bit = bool(assignment[name])
        if (high[index] if bit else low[index]) ^ c == _FALSE:
            bit = not bit
        decided[name] = bit
        edge = (high[index] if bit else low[index]) ^ c
    return decided


def path_sets(manager: BDDManager, u: Ref, value: bool) -> List[FrozenSet[str]]:
    """``cube_sets(iter_cubes(manager, u), value)`` without the cubes:
    the same depth-first walk, but a path keeps only the names it
    decides to ``value`` (a tuple shared with the paths below).  Low
    edges are stepped in place; a branching node pushes its high edge.
    Under a governor each 1-path is charged ``len(cube) + 1`` visits,
    as :func:`iter_cubes` charges its cubes.
    """
    edge = manager._unwrap(u)
    level, low, high = manager._level, manager._low, manager._high
    order = manager._order
    governed = manager.governor is not None
    charged = 0
    sets = set()
    # A frame is (edge, decisions above it, names kept above it).
    stack = [] if edge == _FALSE else [(edge, 0, ())]
    pop, push = stack.pop, stack.append
    while stack:
        edge, depth, kept = pop()
        while edge != _TRUE:
            index = edge >> 1
            c = edge & 1
            depth += 1
            low_edge = low[index] ^ c
            if low_edge == _FALSE:
                edge, keep = high[index] ^ c, value
            else:
                high_edge = high[index] ^ c
                if high_edge != _FALSE:
                    name = order[level[index]]
                    push((high_edge, depth, kept + (name,) if value else kept))
                edge, keep = low_edge, not value
            if keep:
                kept += (order[level[index]],)
        if governed:
            charged += depth + 1
            if charged >= _GOV_STRIDE:
                manager._governed_point(weight=charged)
                charged = 0
        sets.add(frozenset(kept))
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def cube_sets(cubes: Iterable[Cube], value: bool) -> List[FrozenSet[str]]:
    """The distinct sets of the names each cube sets to ``value`` (failed
    sets for ``True``, operational sets for ``False``), smallest first."""
    sets = {
        frozenset(name for name, v in cube.items() if v == value)
        for cube in cubes
    }
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def iter_models(
    manager: BDDManager,
    u: Ref,
    over: Sequence[str],
    fixed: Optional[Mapping[str, bool]] = None,
) -> Iterator[Dict[str, bool]]:
    """Yield total satisfying assignments over the variables ``over``.

    Don't-care variables of each cube are expanded to both values, so the
    output is exactly the set of status vectors satisfying the BDD.

    Args:
        manager: Owning manager.
        u: Root of the BDD.
        over: Variables each model must assign (superset of the support).
        fixed: Optional pre-set values for some variables; cubes that
            contradict them are skipped and matching models inherit them.
    """
    scope = list(over)
    fixed = dict(fixed or {})
    for cube in iter_cubes(manager, u):
        if any(name in cube and cube[name] != value for name, value in fixed.items()):
            continue
        merged = {**fixed, **cube}
        free = [name for name in scope if name not in merged]
        yield from _expand(merged, free, scope)


def _expand(
    partial: Mapping[str, bool], free: Sequence[str], scope: Sequence[str]
) -> Iterator[Dict[str, bool]]:
    """Expand the don't-cares of one cube into total assignments.

    One working dict is mutated through all ``2^len(free)`` combinations
    (earlier free variables are the most significant bits, so the output
    order matches the old recursive expansion, False before True) instead
    of copying the partial assignment at every recursion level.
    """
    current = dict(partial)
    if not free:
        yield {name: current[name] for name in scope}
        return
    n = len(free)
    for mask in range(1 << n):
        for i, name in enumerate(free):
            current[name] = bool((mask >> (n - 1 - i)) & 1)
        yield {name: current[name] for name in scope}


def all_models(
    manager: BDDManager, u: Ref, over: Sequence[str]
) -> List[Dict[str, bool]]:
    """Eager version of :func:`iter_models` (handy in tests)."""
    return list(iter_models(manager, u, over))


def any_model(
    manager: BDDManager, u: Ref, over: Sequence[str]
) -> Optional[Dict[str, bool]]:
    """One satisfying total assignment, or ``None`` if unsatisfiable."""
    for model in iter_models(manager, u, over):
        return model
    return None
