"""AllSat: enumerate satisfying assignments of a BDD (paper Algorithm 3).

The paper's Algorithm 3 collects "every path that leads to the terminal 1".
A path assigns values only to the variables it branches on; the remaining
variables are *don't-cares*.  We expose both views:

* :func:`iter_cubes` — one partial assignment (cube) per 1-path, exactly the
  paper's "collect every path" reading;
* :func:`iter_models` — total assignments over an explicit variable scope,
  i.e. the satisfying status vectors ``[[b]]``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from .manager import _GOV_STRIDE, BDDManager
from .ref import Ref

#: A cube maps variable names to booleans; absent variables are don't-cares.
Cube = Dict[str, bool]


#: Path-stack frame opcodes for the mutate-and-undo DFS below.
_VISIT = 0
_SET = 1
_UNSET = 2


def iter_cubes(manager: BDDManager, u: Ref) -> Iterator[Cube]:
    """Yield one cube per root-to-``1`` path (depth-first, low edge first).

    The generator is lazy, so callers may stop after the first witness.

    One shared partial-assignment dict is mutated along the path and
    undone on backtrack (the explicit-stack analogue of recursive
    ``partial[name] = v; recurse(); del partial[name]``).  The previous
    implementation copied the dict on every edge push — O(depth) fresh
    allocations per node on the MCS-enumeration hot path; only the
    yielded cubes are materialised now.

    A minimal-path-set BDD can have ~10^8 paths, and the walk allocates
    no nodes, so no ``_mk`` safe point ever sees it: under an installed
    governor it ticks itself every ``_GOV_STRIDE`` node visits, so a
    deadline or step budget ends the enumeration.
    """
    if u is manager.false:
        return
    if u is manager.true:
        yield {}
        return
    partial: Cube = {}
    stack: List[tuple] = [(_VISIT, u)]
    governed = manager.governor is not None
    gov_ticks = 0
    while stack:
        op, arg = stack.pop()
        if op == _SET:
            name, value = arg
            partial[name] = value
        elif op == _UNSET:
            del partial[arg]
        else:
            if governed:
                gov_ticks += 1
                if gov_ticks & (_GOV_STRIDE - 1) == 1:
                    manager._governed_point(weight=_GOV_STRIDE)
            node = arg
            if node.is_terminal:
                if node.value:
                    yield dict(partial)
                continue
            name = manager.name_of(node.level)
            # Frames pop LIFO: set name=False, walk low, set name=True,
            # walk high, then undo — so low-edge paths come out first.
            stack.append((_UNSET, name))
            stack.append((_VISIT, node.high))
            stack.append((_SET, (name, True)))
            stack.append((_VISIT, node.low))
            stack.append((_SET, (name, False)))


def count_cubes(manager: BDDManager, u: Ref) -> int:
    """Number of distinct root-to-``1`` paths."""
    return sum(1 for _ in iter_cubes(manager, u))


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
