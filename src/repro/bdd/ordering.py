"""Variable-ordering heuristics for building fault-tree BDDs.

BDD size is notoriously sensitive to variable order (paper Sec. V-A); the
paper cites Bouissou's RAMS'96 ordering heuristic for fault trees.  This
module implements several static heuristics.  They are written against a
small structural protocol (``top``, ``basic_events``, ``children(name)``,
``is_basic(name)``)
so the BDD package stays independent of the fault-tree package;
:class:`repro.ft.tree.FaultTree` satisfies the protocol.

:func:`resolve_order` is the one place a fresh kernel's order is chosen:
``FormulaTranslator``/``ModelChecker`` and ``tree_to_bdd`` call it, with
:data:`DEFAULT_ORDER` (``dfs``) when the caller names none.  The ablation
benchmark ``bench_ordering_ablation`` compares the heuristics' build
times and BDD sizes.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Dict, List, Protocol, Sequence, Tuple, Union


class TreeLike(Protocol):
    """Structural protocol the ordering heuristics need."""

    @property
    def top(self) -> str: ...

    @property
    def basic_events(self) -> Sequence[str]: ...

    def children(self, name: str) -> Tuple[str, ...]: ...

    def is_basic(self, name: str) -> bool: ...


def declaration_order(tree: TreeLike, basic_events: Sequence[str]) -> List[str]:
    """The order in which basic events were declared (the baseline)."""
    return list(basic_events)


def dfs_order(tree: TreeLike, basic_events: Sequence[str]) -> List[str]:
    """Top-down, left-to-right depth-first order (first occurrence wins).

    This is the classical "as encountered" heuristic, which tends to keep
    variables that interact in the same subtree close together.  The walk
    is iterative and expands each gate once: a shared gate's events were
    all placed on its first visit, so revisiting it adds nothing, and
    skipping it keeps the walk linear on DAGs and free of recursion
    limits on deep trees.
    """
    order: List[str] = []
    seen = set()
    stack = [tree.top]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        if tree.is_basic(name):
            order.append(name)
        else:
            stack.extend(reversed(tree.children(name)))
    # Shared DAGs may leave unreachable-from-top events (none in well-formed
    # trees, but be safe for partial structures).
    for name in basic_events:
        if name not in seen:
            order.append(name)
    return order


def bfs_order(tree: TreeLike, basic_events: Sequence[str]) -> List[str]:
    """Breadth-first (level) order from the top event."""
    order: List[str] = []
    seen = set()
    queue = deque([tree.top])
    visited = {tree.top}
    while queue:
        name = queue.popleft()
        if tree.is_basic(name):
            if name not in seen:
                seen.add(name)
                order.append(name)
            continue
        for child in tree.children(name):
            if child not in visited:
                visited.add(child)
                queue.append(child)
    for name in basic_events:
        if name not in seen:
            order.append(name)
    return order


def weight_order(tree: TreeLike, basic_events: Sequence[str]) -> List[str]:
    """Bouissou-inspired weight heuristic.

    Every occurrence of a basic event at depth ``d`` contributes ``2**-d``;
    events with larger total weight (shallow and/or repeated — the ones whose
    value constrains the function most) come first.  Ties fall back to DFS
    position, keeping the order deterministic.

    The per-path sum is computed by one top-down pass in topological
    order (a node's weight is half the summed weight of its parents), so
    the cost is linear in the edges even when sharing multiplies paths.
    """
    weights: Dict[str, float] = {tree.top: 1.0}
    for name in _topological(tree):
        if tree.is_basic(name):
            continue
        half = weights[name] / 2.0
        for child in tree.children(name):
            weights[child] = weights.get(child, 0.0) + half
    dfs_pos = {name: i for i, name in enumerate(dfs_order(tree, basic_events))}
    return sorted(
        basic_events,
        key=lambda name: (-weights.get(name, 0.0), dfs_pos[name]),
    )


def _topological(tree: TreeLike) -> List[str]:
    """Every node reachable from the top, parents before children
    (reverse post-order of an iterative DFS)."""
    post: List[str] = []
    expanded = set()
    stack: List[Tuple[str, bool]] = [(tree.top, False)]
    while stack:
        name, done = stack.pop()
        if done:
            post.append(name)
            continue
        if name in expanded:
            continue
        expanded.add(name)
        stack.append((name, True))
        if not tree.is_basic(name):
            stack.extend(
                (child, False)
                for child in tree.children(name)
                if child not in expanded
            )
    post.reverse()
    return post


def random_order(
    tree: TreeLike, basic_events: Sequence[str], seed: int = 0
) -> List[str]:
    """A seeded random permutation (the ablation's control arm)."""
    order = list(basic_events)
    random.Random(seed).shuffle(order)
    return order


#: The named static orders: ``ModelChecker(order=...)`` and
#: ``tree_to_bdd(order=...)`` take one of these keys, and the ordering
#: ablation benchmark compares them.
HEURISTICS: Dict[str, Callable[[TreeLike, Sequence[str]], List[str]]] = {
    "declaration": declaration_order,
    "dfs": dfs_order,
    "bfs": bfs_order,
    "weight": weight_order,
}

#: The order every fresh kernel is built in unless an API caller names
#: another; ``bfl batch`` and ``bfl serve`` always use it.  In the
#: ordering ablation (EXPERIMENTS.md) ``dfs`` shrank a redundant-bank
#: kernel 76x and is the only heuristic that is never far behind
#: declaration order on the COVID-shaped trees, where ``bfs`` and
#: ``weight`` were up to 8x slower.
DEFAULT_ORDER = "dfs"


def resolve_order(
    tree: TreeLike, order: Union[None, str, Sequence[str]] = None
) -> List[str]:
    """The variable order for a fresh manager over the tree's basic events.

    ``order`` is a :data:`HEURISTICS` name, an explicit list of event
    names (used as given), or ``None`` for :data:`DEFAULT_ORDER`.

    Raises:
        ValueError: For an unknown heuristic name.
    """
    if order is None:
        order = DEFAULT_ORDER
    if isinstance(order, str):
        heuristic = HEURISTICS.get(order)
        if heuristic is None:
            raise ValueError(
                f"unknown variable order {order!r} (expected "
                + ", ".join(HEURISTICS)
                + " or a list of basic events)"
            )
        return heuristic(tree, tree.basic_events)
    return list(order)
