"""Qualitative fault-tree analysis: cut sets, path sets, MCS and MPS.

Implements Defs. 3 and 4 of the paper twice:

* **enumeration baselines** (``*_enum``) — walk all ``2^n`` status vectors
  with the structure function; exponential but obviously correct, used as
  the reference implementation in tests and as the baseline arm of the
  scalability benchmark;
* **BDD-based algorithms** — translate with ``Psi_FT`` and extract
  minimal/maximal satisfying vectors, which is how the paper's tooling (and
  real FTA tools) do it.

Also provides Birnbaum-style *structural importance*, a classical
qualitative metric that falls out of the BDD machinery for free.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional

from ..bdd.allsat import path_sets
from ..bdd.manager import BDDManager
from ..bdd.ordering import resolve_order
from ..bdd.minimal import maximal_solutions, minimal_solutions
from .structure import structure_function
from .to_bdd import tree_to_bdd
from .tree import FaultTree, StatusVector

#: Practical guard for the exponential baselines.
_ENUM_LIMIT = 24


def iter_vectors(tree: FaultTree) -> Iterator[Dict[str, bool]]:
    """All ``2^n`` status vectors, in lexicographic (0 first) order."""
    names = tree.basic_events
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def _check_enum_size(tree: FaultTree) -> None:
    if len(tree.basic_events) > _ENUM_LIMIT:
        raise ValueError(
            f"enumeration baseline limited to {_ENUM_LIMIT} basic events; "
            f"tree has {len(tree.basic_events)} (use the BDD-based API)"
        )


# ----------------------------------------------------------------------
# Definitions 3 and 4, applied to a single vector
# ----------------------------------------------------------------------

def is_cut_set(
    tree: FaultTree, vector: StatusVector, element: Optional[str] = None
) -> bool:
    """Def. 3: ``b`` is a cut set for ``e`` iff ``Phi_T(b, e) = 1``."""
    return structure_function(tree, vector, element)


def is_path_set(
    tree: FaultTree, vector: StatusVector, element: Optional[str] = None
) -> bool:
    """Def. 4: ``b`` is a path set for ``e`` iff ``Phi_T(b, e) = 0``."""
    return not structure_function(tree, vector, element)


def is_minimal_cut_set(
    tree: FaultTree, vector: StatusVector, element: Optional[str] = None
) -> bool:
    """Def. 3: a cut set no proper subset of which is a cut set.

    Because structure functions are monotone it suffices to check the
    vectors obtained by clearing one failed bit.
    """
    if not is_cut_set(tree, vector, element):
        return False
    for name in tree.failed_set(vector):
        smaller = dict(vector)
        smaller[name] = False
        if is_cut_set(tree, smaller, element):
            return False
    return True


def is_minimal_path_set(
    tree: FaultTree, vector: StatusVector, element: Optional[str] = None
) -> bool:
    """Def. 4 (intent, see DESIGN.md): a path set whose operational set has
    no proper subset that is still a path set — equivalently, failing any
    single operational event makes the element fail."""
    if not is_path_set(tree, vector, element):
        return False
    for name in tree.operational_set(vector):
        larger = dict(vector)
        larger[name] = True
        if is_path_set(tree, larger, element):
            return False
    return True


# ----------------------------------------------------------------------
# Enumeration baselines
# ----------------------------------------------------------------------

def minimize_sets(sets: Iterable[FrozenSet[str]]) -> List[FrozenSet[str]]:
    """Drop every set that strictly contains another one."""
    unique = sorted(set(sets), key=len)
    kept: List[FrozenSet[str]] = []
    for candidate in unique:
        if not any(smaller < candidate or smaller == candidate for smaller in kept):
            kept.append(candidate)
    return kept


def minimal_cut_sets_enum(
    tree: FaultTree, element: Optional[str] = None
) -> List[FrozenSet[str]]:
    """All MCSs of ``element`` by exhaustive enumeration (reference)."""
    _check_enum_size(tree)
    cuts = [
        tree.failed_set(vector)
        for vector in iter_vectors(tree)
        if is_cut_set(tree, vector, element)
    ]
    return sorted(minimize_sets(cuts), key=lambda s: (len(s), sorted(s)))


def minimal_path_sets_enum(
    tree: FaultTree, element: Optional[str] = None
) -> List[FrozenSet[str]]:
    """All MPSs of ``element`` by exhaustive enumeration (reference)."""
    _check_enum_size(tree)
    paths = [
        tree.operational_set(vector)
        for vector in iter_vectors(tree)
        if is_path_set(tree, vector, element)
    ]
    return sorted(minimize_sets(paths), key=lambda s: (len(s), sorted(s)))


# ----------------------------------------------------------------------
# BDD-based algorithms
# ----------------------------------------------------------------------

def minimal_cut_sets(
    tree: FaultTree,
    element: Optional[str] = None,
    manager: Optional[BDDManager] = None,
) -> List[FrozenSet[str]]:
    """All MCSs of ``element`` via the BDD engine.

    Translates the element with ``Psi_FT``, restricts to minimal satisfying
    vectors with the minimal-solutions recursion (the one MCS/MPS
    construction of the model checker) and reads one MCS off every
    1-path.
    """
    if manager is None:
        manager = BDDManager(resolve_order(tree))
    root = tree_to_bdd(tree, manager, element)
    scope = sorted(manager.support(root), key=manager.level_of)
    minimal = minimal_solutions(manager, root, scope)
    return path_sets(manager, minimal, True)


def minimal_path_sets(
    tree: FaultTree,
    element: Optional[str] = None,
    manager: Optional[BDDManager] = None,
) -> List[FrozenSet[str]]:
    """All MPSs of ``element`` via the BDD engine.

    MPSs are the operational sets of the *maximal* vectors satisfying the
    element's negation (DESIGN.md deviation 1).
    """
    if manager is None:
        manager = BDDManager(resolve_order(tree))
    root = tree_to_bdd(tree, manager, element)
    scope = sorted(manager.support(root), key=manager.level_of)
    negated = manager.negate(root)
    maximal = maximal_solutions(manager, negated, scope)
    return path_sets(manager, maximal, False)


def structural_importance(
    tree: FaultTree,
    basic_event: str,
    element: Optional[str] = None,
    manager: Optional[BDDManager] = None,
) -> Fraction:
    """Birnbaum structural importance of ``basic_event`` for ``element``.

    The fraction of assignments to the *other* basic events for which the
    event is critical (its value decides the element's status):
    ``|{b : Phi(b[e:=1]) != Phi(b[e:=0])}| / 2^(n-1)``.

    A structural importance of 0 means the event is superfluous — the same
    notion BFL's ``SUP`` operator captures symbolically.
    """
    if basic_event not in tree.basic_events:
        raise ValueError(f"{basic_event!r} is not a basic event of the tree")
    if manager is None:
        manager = BDDManager(resolve_order(tree))
    root = tree_to_bdd(tree, manager, element)
    on = manager.restrict(root, basic_event, True)
    off = manager.restrict(root, basic_event, False)
    critical = manager.xor(on, off)
    others = [name for name in tree.basic_events if name != basic_event]
    if not others:
        return Fraction(1 if critical is manager.true else 0, 1)
    return Fraction(manager.sat_count(critical, others), 2 ** len(others))
