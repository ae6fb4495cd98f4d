"""Algorithm 1: translate BFL formulae to BDDs, with caching.

Implements the recursion scheme of the paper verbatim::

    BT(e)              = Psi_FT(e)
    BT(not phi)        = NOT BT(phi)
    BT(phi and phi')   = BT(phi) AND BT(phi')
    BT(phi[e -> v])    = Restrict(BT(phi), e, v)
    BT(MCS(phi))       = BT(phi) AND NOT exists V'. (V' < V AND BT(phi)[V->V'])
    BT(exists phi)     = exists V. BT(phi)          (non-false test)
    BT(forall phi)     = not exists V. not BT(phi)  (tautology test)
    IDP(phi, phi')     = VarB(BT(phi)) disjoint VarB(BT(phi'))

plus the derived operators (or/implies/equiv/Vot/MPS) built directly with
BDD operations — the test suite proves them equal to translating the
desugared formulae.  Intermediate results ``BT(...)`` and ``Psi_FT(...)``
are memoised, as the paper prescribes ("store intermediate results ... in a
cache in case they are used several times").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..bdd.manager import BDDManager
from ..bdd.minimal import (
    maximal_assignments,
    maximal_assignments_monotone,
    minimal_assignments,
    minimal_assignments_monotone,
)
from ..bdd.ordering import resolve_order
from ..bdd.ref import Ref
from ..errors import LogicError
from ..ft.to_bdd import TreeTranslator
from ..ft.tree import FaultTree
from ..logic.ast_nodes import (
    MCS,
    MPS,
    And,
    Atom,
    Constant,
    Equiv,
    Evidence,
    Formula,
    Implies,
    Not,
    NotEquiv,
    Or,
    Vot,
)
from ..logic.scope import MinimalityScope


@dataclass
class CacheStats:
    """Hit/miss counters for the Algorithm 1 caches (tested explicitly)."""

    formula_hits: int = 0
    formula_misses: int = 0
    element_requests: int = 0

    def reset(self) -> None:
        self.formula_hits = 0
        self.formula_misses = 0
        self.element_requests = 0


class FormulaTranslator:
    """Caching translator ``BT`` from BFL formulae to BDDs over one tree.

    Args:
        tree: The fault tree ``T``.
        manager: BDD manager to build in; a fresh one over the tree's basic
            events, in ``order``, is created if omitted.
        scope: Minimality scope for MCS/MPS (DESIGN.md deviation 2).
        order: Variable order of a fresh manager: a
            :data:`~repro.bdd.ordering.HEURISTICS` name, an explicit list
            of basic events, or ``None`` for the default (``dfs``; see
            :func:`~repro.bdd.ordering.resolve_order`).  Ignored when
            ``manager`` is given.
        monotone_fast_path: When True, MCS/MPS of *monotone* operands use
            the single-pass minsol construction instead of the paper's
            primed-relation construction (both are implemented; the
            ablation benchmark compares them).
        auto_gc: Arm the manager's automatic garbage collection (fires at
            translation safe points; see ``BDDManager.checkpoint``).
        auto_reorder: Arm automatic in-place sifting.  The primed-relation
            MCS/MPS construction no longer depends on the interleaved
            original/primed layout staying monotone — its primed copy
            falls back to a Shannon rebuild when sifting has moved the
            pairs apart (see ``repro.bdd.minimal._substitute_fresh``).
        gc_trigger: Optional live-node count arming the first collection.
        reorder_trigger: Optional live-node count arming the first sift.
    """

    def __init__(
        self,
        tree: FaultTree,
        manager: Optional[BDDManager] = None,
        scope: MinimalityScope = MinimalityScope.SUPPORT,
        order: Union[None, str, Sequence[str]] = None,
        monotone_fast_path: bool = False,
        auto_gc: bool = False,
        auto_reorder: bool = False,
        gc_trigger: Optional[int] = None,
        reorder_trigger: Optional[int] = None,
    ) -> None:
        from ..bdd.minimal import ensure_primed, prime_name

        if manager is None:
            # Interleave each basic event with its primed copy: the
            # subset relation (AND_k v'_k => v_k) of the MCS construction
            # is then linear-size, whereas appending all primes at the end
            # makes it exponential in the number of events.
            base = resolve_order(tree, order)
            interleaved: List[str] = []
            for name in base:
                interleaved.append(name)
                interleaved.append(prime_name(name))
            manager = BDDManager(interleaved)
        else:
            # Caller-provided manager: declare whatever basic events it is
            # missing (a variant fork may add events to a shared kernel),
            # then fall back to appending the primes in the manager's
            # level order (correct, possibly slower).
            declared = set(manager.variables)
            missing = [
                name for name in tree.basic_events if name not in declared
            ]
            if missing:
                manager.declare(*missing)
            ensure_primed(
                manager, sorted(tree.basic_events, key=manager.level_of)
            )
        arm_gc = auto_gc or gc_trigger is not None
        arm_reorder = auto_reorder or reorder_trigger is not None
        if arm_gc or arm_reorder:
            # An explicit trigger arms the feature (as documented), and
            # unrequested knobs pass None so a manager the caller already
            # armed via configure_memory is never silently disarmed.
            manager.configure_memory(
                auto_gc=True if arm_gc else None,
                auto_reorder=True if arm_reorder else None,
                gc_trigger=gc_trigger,
                reorder_trigger=reorder_trigger,
            )
        self.tree = tree
        self.manager = manager
        self.scope = scope
        self.monotone_fast_path = monotone_fast_path
        self.tree_translator = TreeTranslator(tree, manager)
        self.stats = CacheStats()
        self._cache: Dict[Formula, Ref] = {}

    # ------------------------------------------------------------------

    def bdd(self, formula: Formula) -> Ref:
        """``BT(formula)`` with memoisation."""
        cached = self._cache.get(formula)
        if cached is not None:
            self.stats.formula_hits += 1
            return cached
        self.stats.formula_misses += 1
        result = self._translate(formula)
        self._cache[formula] = result
        # Safe point: every function this translation produced is pinned
        # by the caches, so automatic GC/reordering may fire here.
        self.manager.checkpoint()
        return result

    def _translate(self, formula: Formula) -> Ref:
        manager = self.manager
        if isinstance(formula, Atom):
            return self._element(formula.name)
        if isinstance(formula, Constant):
            return manager.constant(formula.value)
        if isinstance(formula, Not):
            return manager.negate(self.bdd(formula.operand))
        if isinstance(formula, And):
            return manager.and_(self.bdd(formula.left), self.bdd(formula.right))
        if isinstance(formula, Or):
            return manager.or_(self.bdd(formula.left), self.bdd(formula.right))
        if isinstance(formula, Implies):
            return manager.implies(
                self.bdd(formula.left), self.bdd(formula.right)
            )
        if isinstance(formula, Equiv):
            return manager.equiv(self.bdd(formula.left), self.bdd(formula.right))
        if isinstance(formula, NotEquiv):
            return manager.xor(self.bdd(formula.left), self.bdd(formula.right))
        if isinstance(formula, Evidence):
            result = self.bdd(formula.operand)
            for name, value in formula.assignments:
                if name not in self.tree.basic_events:
                    raise LogicError(
                        f"evidence target {name!r} is not a basic event of "
                        "the tree (the status vector only covers BE)"
                    )
                result = manager.restrict(result, name, value)
            return result
        if isinstance(formula, Vot):
            operands = [self.bdd(op) for op in formula.operands]
            return self._vot(operands, formula.operator, formula.threshold)
        if isinstance(formula, MCS):
            inner = self.bdd(formula.operand)
            scope = self._minimality_scope(inner)
            if self.monotone_fast_path and self._is_monotone(inner, scope):
                return minimal_assignments_monotone(manager, inner, scope)
            return minimal_assignments(manager, inner, scope)
        if isinstance(formula, MPS):
            inner = self.bdd(formula.operand)
            scope = self._minimality_scope(inner)
            negated = manager.negate(inner)
            if self.monotone_fast_path and self._is_monotone(inner, scope):
                return maximal_assignments_monotone(manager, negated, scope)
            return maximal_assignments(manager, negated, scope)
        raise TypeError(f"cannot translate {formula!r}")

    # ------------------------------------------------------------------
    # Incremental update (the variant-sweep delta path)
    # ------------------------------------------------------------------

    def rebase(self, new_tree: FaultTree) -> frozenset:
        """Retarget the translator at an edited tree in place.

        Delegates the structural diff to
        :meth:`repro.ft.to_bdd.TreeTranslator.rebase` (unchanged element
        BDDs survive), then evicts exactly the formula-cache entries the
        edit can affect: formulae mentioning a dirty element, and — when
        the basic-event set itself changed — formulae containing MCS/MPS
        (whose minimality scope quantifies over the events) or evidence
        (whose targets are validated against the event set).  Everything
        else keeps answering from cache, which is what makes a what-if
        sweep on a warm session nearly free.

        Returns:
            The dirty element names.
        """
        from ..bdd.minimal import ensure_primed

        if new_tree is self.tree:
            return frozenset()
        be_changed = set(self.tree.basic_events) != set(
            new_tree.basic_events
        )
        dirty = self.tree_translator.rebase(new_tree)
        self.tree = new_tree
        ensure_primed(
            self.manager,
            sorted(new_tree.basic_events, key=self.manager.level_of),
        )
        for formula in [
            f
            for f in self._cache
            if _affected(f, dirty, be_changed)
        ]:
            del self._cache[formula]
        return dirty

    # ------------------------------------------------------------------

    def _element(self, name: str) -> Ref:
        if name not in self.tree:
            raise LogicError(f"formula mentions unknown element {name!r}")
        self.stats.element_requests += 1
        return self.tree_translator.element(name)

    def _vot(self, operands: List[Ref], operator: str, k: int) -> Ref:
        manager = self.manager
        at_least_k = manager.threshold(operands, k)
        if operator == ">=":
            return at_least_k
        if operator == ">":
            return manager.threshold(operands, k + 1)
        if operator == "<":
            return manager.negate(at_least_k)
        if operator == "<=":
            return manager.negate(manager.threshold(operands, k + 1))
        # operator == "=": at least k but not at least k + 1.
        return manager.and_(
            at_least_k, manager.negate(manager.threshold(operands, k + 1))
        )

    def _minimality_scope(self, inner: Ref) -> List[str]:
        if self.scope is MinimalityScope.FULL:
            return list(self.tree.basic_events)
        support = self.manager.support(inner)
        return [name for name in self.tree.basic_events if name in support]

    def _is_monotone(self, inner: Ref, scope: Sequence[str]) -> bool:
        from ..bdd.minimal import is_monotone

        return is_monotone(self.manager, inner, scope)

    # ------------------------------------------------------------------

    @property
    def basic_events(self) -> Sequence[str]:
        """Basic events of the underlying tree (the status-vector scope)."""
        return self.tree.basic_events

    def support(self, formula: Formula) -> frozenset:
        """``VarB(BT(formula))`` — used by IDP/SUP and the engine."""
        return frozenset(self.manager.support(self.bdd(formula)))

    def probability(
        self, formula: Formula, weights: Mapping[str, float]
    ) -> float:
        """``P[[formula]]`` under independent per-event weights.

        The PFL lowering path: Algorithm 1 translates the formula onto
        kernel edges (through this translator's cache), then the
        manager's iterative weighted-evaluation pass measures the result
        — so probabilistic and qualitative queries share every BDD and
        both manager-level caches.
        """
        return self.manager.probability(self.bdd(formula), weights)


def _affected(
    formula: Formula, dirty: frozenset, be_changed: bool
) -> bool:
    """Can an edit with this dirty set change ``BT(formula)``?

    Conservative syntactic test used by :meth:`FormulaTranslator.rebase`:
    True when the formula mentions a dirty element, or (with a changed
    basic-event set) contains an operator whose semantics quantify over
    or validate against the event universe (MCS/MPS, evidence).
    """
    stack: List[Formula] = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            if node.name in dirty:
                return True
        elif isinstance(node, Constant):
            pass
        elif isinstance(node, (MCS, MPS)):
            if be_changed:
                return True
            stack.append(node.operand)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or, Implies, Equiv, NotEquiv)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Evidence):
            if be_changed:
                return True
            if any(name in dirty for name, _ in node.assignments):
                return True
            stack.append(node.operand)
        elif isinstance(node, Vot):
            stack.extend(node.operands)
        else:
            return True  # Unknown node kind: never keep a stale entry.
    return False
