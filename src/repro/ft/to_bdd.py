"""Translation of fault trees to BDDs — the paper's ``Psi_FT`` (Def. 6).

``Psi_FT(e)`` maps an element to a BDD over the basic events::

    Psi(e) = B(e)                      if e is a basic event
    Psi(e) = OR  of Psi(children)      if t(e) = OR
    Psi(e) = AND of Psi(children)      if t(e) = AND
    Psi(e) = at-least-k combination    if t(e) = VOT(k/N)

Results are cached per (manager, tree) in a :class:`TreeTranslator`, the
"store the resulting BDDs" device of Algorithm 1.
"""

from __future__ import annotations

from typing import (
    Container,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..bdd.manager import BDDManager
from ..bdd.ordering import resolve_order
from ..bdd.ref import Ref
from ..errors import SnapshotError, VariableError
from .elements import GateType
from .tree import FaultTree

#: Prefix of the placeholder variables :meth:`TreeTranslator.abstract_root`
#: declares.  Double underscores keep them out of any Galileo namespace;
#: they never appear in the support of a spliced result.
HOLE_PREFIX = "__hole__"


def hole_variable(site: str) -> str:
    """Name of the placeholder variable standing in for ``Psi(site)``."""
    return HOLE_PREFIX + site


class TreeTranslator:
    """Caching ``Psi_FT`` for one tree inside one manager.

    The manager must declare (at least) the tree's basic events.  Element
    BDDs are computed on demand and memoised, so repeated formulae over the
    same elements reuse earlier work — exactly the "simple caching" the
    paper prescribes for Algorithm 1.

    Element boundaries are safe points for the kernel's automatic memory
    management (no raw edge is held across them — every intermediate the
    translator needs is pinned by a cached Ref), so each :meth:`element`
    call ends with a :meth:`~repro.bdd.manager.BDDManager.checkpoint`;
    a no-op unless automatic GC/reordering was enabled on the manager
    (:meth:`~repro.bdd.manager.BDDManager.configure_memory`).
    """

    def __init__(self, tree: FaultTree, manager: BDDManager) -> None:
        self.tree = tree
        self.manager = manager
        declared = set(manager.variables)
        missing = [be for be in tree.basic_events if be not in declared]
        if missing:
            manager.declare(*missing)
        self._cache: Dict[str, Ref] = {}
        #: Bumped on every change to the element memo (insert, adopt),
        #: so equal generations mean equal :meth:`export_cache` roots.
        self.generation = 0
        # site -> Psi(top) with the site's subtree abstracted into a
        # placeholder variable (see abstract_root).  The tree never
        # changes under a translator, so entries never go stale.
        self._abstract: Dict[str, Ref] = {}

    def element(self, name: str) -> Ref:
        """``Psi_FT(name)`` with memoisation."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        # Iterative post-order so deep/shared DAGs never hit the Python
        # recursion limit.
        stack: List[tuple] = [(name, False)]
        while stack:
            current, expanded = stack.pop()
            if current in self._cache:
                continue
            if self.tree.is_basic(current):
                self._cache[current] = self.manager.var(current)
                self.generation += 1
                continue
            if not expanded:
                stack.append((current, True))
                for child in self.tree.children(current):
                    if child not in self._cache:
                        stack.append((child, False))
                continue
            self._cache[current] = self._combine(current)
            self.generation += 1
        self.manager.checkpoint()
        return self._cache[name]

    def _combine(self, name: str) -> Ref:
        gate = self.tree.gate(name)
        return self._combine_operands(
            gate, [self._cache[child] for child in gate.children]
        )

    def _combine_operands(self, gate, operands: List[Ref]) -> Ref:
        if gate.gate_type is GateType.OR:
            return self.manager.disjoin(operands)
        if gate.gate_type is GateType.AND:
            return self.manager.conjoin(operands)
        return self.manager.threshold(operands, gate.threshold)

    def abstract_root(self, site: str) -> Ref:
        """``Psi(top)`` with the subtree at ``site`` replaced by a
        placeholder variable (memoised per site).

        The placeholder (:func:`hole_variable`) is declared on demand
        and parked just *above* the site subtree's own variables in the
        order (via :meth:`~repro.bdd.manager.BDDManager.move_to_level`,
        cheap while the placeholder has no nodes).  Placement does not
        affect what :meth:`splice` computes, only what it costs: with
        the hole above the substituted BDD's support the compose is a
        graft — walk ``g``, drop in the two cofactors — instead of an
        ITE recombination through every level between the hole and the
        root.  The result is a function of the basic events *and* the
        placeholder; substituting any BDD ``g`` for the placeholder
        (see :meth:`splice`) yields exactly the top BDD of a tree whose
        ``site`` subtree computes ``g`` — shared occurrences of
        ``site`` all route through the one variable.
        """
        cached = self._abstract.get(site)
        if cached is not None:
            return cached
        if site not in self.tree:
            raise VariableError(
                f"abstract_root: {site!r} is not an element of the tree"
            )
        hole = hole_variable(site)
        if hole not in set(self.manager.variables):
            self.manager.declare(hole)
        if site != self.tree.top:
            # Park the hole above the site BDD's support while it is
            # still node-free (the top case skips the probe: compose
            # against a bare placeholder is ``g`` wherever it sits).
            support = self.manager.support(self.element(site))
            if support:
                target = min(self.manager.level_of(v) for v in support)
                if self.manager.level_of(hole) > target:
                    self.manager.move_to_level(hole, target)
        placeholder = self.manager.var(hole)
        if site == self.tree.top:
            root = placeholder
        else:
            # Re-lower only the site's (transitive) parents against the
            # placeholder; every other element comes from the shared memo.
            dirty = self._ancestors(site)
            memo: Dict[str, Ref] = {site: placeholder}
            stack: List[tuple] = [(self.tree.top, False)]
            while stack:
                current, expanded = stack.pop()
                if current in memo:
                    continue
                if not expanded:
                    stack.append((current, True))
                    for child in self.tree.children(current):
                        if child in dirty and child not in memo:
                            stack.append((child, False))
                    continue
                gate = self.tree.gate(current)
                operands = [
                    memo[child]
                    if (child in dirty or child == site)
                    else self.element(child)
                    for child in gate.children
                ]
                memo[current] = self._combine_operands(gate, operands)
            root = memo[self.tree.top]
        self._abstract[site] = root
        self.manager.checkpoint()
        return root

    def splice(self, site: str, replacement: Ref) -> Ref:
        """Top BDD with ``Psi(site)`` substituted by ``replacement``.

        One memoised :meth:`~repro.bdd.manager.BDDManager.compose` call
        against the (cached) abstract root, so a sweep of many variants
        editing one site pays for one abstraction pass up front and a
        near-pure cache walk per variant afterwards.
        """
        root = self.abstract_root(site)
        result = self.manager.compose(root, hole_variable(site), replacement)
        self.manager.checkpoint()
        return result

    def _ancestors(self, name: str) -> FrozenSet[str]:
        seen: set = set()
        stack = [name]
        while stack:
            for parent in self.tree.parents(stack.pop()):
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return frozenset(seen)

    def top(self) -> Ref:
        """BDD of the top level event."""
        return self.element(self.tree.top)

    @property
    def cached_elements(self) -> Sequence[str]:
        """Element names translated so far (for cache-behaviour tests)."""
        return tuple(self._cache)

    def export_cache(self) -> Dict[str, Ref]:
        """Element-name -> BDD for everything translated so far.

        These are exactly the named roots a kernel snapshot should pin
        (see :meth:`repro.bdd.manager.BDDManager.save_snapshot`): the
        expensive, reusable part of a session is the per-element
        ``Psi_FT`` work, not the per-formula combinations on top.
        """
        return dict(self._cache)

    def adopt(self, cache: Mapping[str, Ref]) -> None:
        """Seed the element memo with pre-built BDDs.

        This is the warm-start half of the kernel-snapshot story: the
        roots returned by ``BDDManager.load_snapshot`` (saved from
        :meth:`export_cache`) drop straight back into the memo, so a
        fresh session skips ``Psi_FT`` entirely.

        Raises:
            SnapshotError: If a name is not an element of this tree or a
                handle belongs to a different manager — a snapshot taken
                from another tree must fail loudly, not answer queries
                from stale BDDs.
        """
        elements = set(self.tree.elements)
        for name, ref in cache.items():
            if name not in elements:
                raise SnapshotError(
                    f"snapshot root {name!r} is not an element of the "
                    f"tree {self.tree.top!r}"
                )
            self.manager._unwrap(ref)  # ownership check
            self._cache[name] = ref
            self.generation += 1

    def adopt_from(
        self, other: "TreeTranslator", skip: Container[str] = frozenset()
    ) -> None:
        """Bulk-seed the memo from a sibling translator on the same
        manager, skipping ``skip`` (e.g. the dirty set of an edit) and
        names that are not elements of this translator's tree.

        The one-pass, no-copy counterpart of
        ``adopt(other.export_cache())`` for the copy-on-write fork
        path, where per-entry ownership checks are redundant (the
        handles live in the shared manager by construction) and the
        filtering would otherwise walk the element list three times.

        Raises:
            SnapshotError: If ``other`` is bound to a different manager.
        """
        if other.manager is not self.manager:
            raise SnapshotError(
                "adopt_from requires translators sharing one manager"
            )
        tree = self.tree
        cache = self._cache
        for name, ref in other._cache.items():
            if name not in skip and name in tree:
                cache[name] = ref
        self.generation += 1


def tree_to_bdd(
    tree: FaultTree,
    manager: Optional[BDDManager] = None,
    element: Optional[str] = None,
    order: Union[None, str, Sequence[str]] = None,
) -> Ref:
    """One-shot convenience wrapper around :class:`TreeTranslator`.

    Args:
        tree: Fault tree to translate.
        manager: Target manager; a fresh one is created if omitted.
        element: Element to translate (default: the top level event).
        order: Variable order for a fresh manager: a heuristic name from
            :data:`repro.bdd.ordering.HEURISTICS`, an explicit list, or
            ``None`` for the default tree DFS order.  Ignored when
            ``manager`` is given.  To arm automatic GC or sifting, pass
            a manager set up with
            :meth:`~repro.bdd.manager.BDDManager.configure_memory`.

    Returns:
        The BDD for ``Psi_FT(element)``.
    """
    if manager is None:
        manager = BDDManager(resolve_order(tree, order))
    translator = TreeTranslator(tree, manager)
    return translator.element(element if element is not None else tree.top)
