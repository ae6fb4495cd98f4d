"""Quantitative fault-tree analysis: failure probabilities over BDDs.

The paper's first item of future work is "to extend BFL to model
probabilities ... system reliability, availability and mean time to
failure".  This module provides the standard machinery:

* :func:`bdd_probability` — exact top-event probability by Shannon
  expansion over the BDD (Rauzy's classical algorithm; linear in the
  BDD).  Since the PFL engine landed this delegates to the kernel's
  iterative weighted-evaluation pass and its manager-level cache; the
  historical per-call recursion survives as
  :func:`recursive_probability` (benchmark baseline / oracle only);
* :func:`enumeration_probability` — the 2^n reference baseline;
* :func:`conditional_probability` — P(phi | evidence), which is how BFL's
  evidence operator lifts to the quantitative world;
* bounds: the min-cut upper bound and rare-event approximation.

Basic events carry independent failure probabilities (the
``BasicEvent.probability`` attribute; events with no probability are
rejected explicitly rather than silently defaulted).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Mapping, Optional, Sequence

from ..bdd.manager import BDDManager
from ..bdd.ref import Ref
from ..errors import FaultTreeError, MissingWeightError
from ..ft.analysis import minimal_cut_sets
from ..ft.structure import structure_function
from ..ft.tree import FaultTree


#: Relative tolerance within which two computations of one probability
#: agree.  The Shannon sum of :func:`bdd_probability` follows the BDD's
#: variable order, so kernels built in different orders (or reordered by
#: sifting) round differently in the last ulp — ``4.201349930095197e-07``
#: against ``4.2013499300951964e-07``.  Within one order the result is
#: bit-for-bit reproducible; across orders it agrees to this bound.
PROBABILITY_RTOL = 1e-12


def probabilities_agree(a: float, b: float) -> bool:
    """True when ``a`` and ``b`` are the same probability up to
    :data:`PROBABILITY_RTOL` (relative; exact zeros must match exactly,
    since a zero is structural, not rounded)."""
    return math.isclose(a, b, rel_tol=PROBABILITY_RTOL, abs_tol=0.0)


class MissingProbabilityError(FaultTreeError):
    """A basic event has no failure probability attached."""


class ZeroProbabilityEvidenceError(FaultTreeError, ZeroDivisionError):
    """Conditioning on evidence whose probability is zero.

    Subclasses :class:`FaultTreeError` so the batch service can report it
    per-query (every library error derives from ``ReproError``), and
    ``ZeroDivisionError`` for callers of the historical
    :func:`conditional_probability` contract.
    """


def event_probabilities(
    tree: FaultTree, overrides: Optional[Mapping[str, float]] = None
) -> Dict[str, float]:
    """Collect per-event failure probabilities, applying ``overrides``.

    Raises:
        MissingProbabilityError: If any basic event ends up without one.
    """
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(tree.basic_events)
    if unknown:
        raise MissingProbabilityError(
            "overrides for unknown basic events: " + ", ".join(sorted(unknown))
        )
    result: Dict[str, float] = {}
    missing = []
    for name in tree.basic_events:
        if name in overrides:
            value = overrides[name]
        else:
            value = tree.basic_event(name).probability
        if value is None:
            missing.append(name)
            continue
        if not 0.0 <= value <= 1.0:
            raise MissingProbabilityError(
                f"probability of {name!r} outside [0, 1]: {value}"
            )
        result[name] = float(value)
    if missing:
        raise MissingProbabilityError(
            "no failure probability for: " + ", ".join(missing)
        )
    return result


def bdd_probability(
    manager: BDDManager, node: Ref, probabilities: Mapping[str, float]
) -> float:
    """P(f = 1) for independent variables, by Shannon expansion.

    Delegates to the kernel's iterative weighted-evaluation pass
    (:meth:`BDDManager.probability <repro.bdd.manager.BDDManager.probability>`):
    explicit-stack traversal (deep chain BDDs no longer overflow the
    Python recursion limit), memoisation in the manager-level probability
    cache keyed on *regular* node indices (``f`` and ``~f`` share every
    entry, since ``P(~f) = 1 - P(f)`` on complement edges), and cache
    reuse across calls with the same probability profile.
    """
    try:
        return manager.probability(node, probabilities)
    except MissingWeightError as error:
        raise MissingProbabilityError(str(error)) from None


def bdd_probability_many(
    manager: BDDManager,
    node: Ref,
    profiles: "Sequence[Mapping[str, float]]",
) -> "List[float]":
    """P(f = 1) under many weight profiles, in one traversal.

    Delegates to the kernel's vectorised multi-profile sweep
    (:meth:`BDDManager.probability_many
    <repro.bdd.manager.BDDManager.probability_many>`): the reachable DAG
    is collected once and all profiles are evaluated simultaneously
    (one numpy pass of shape ``(nodes, profiles)`` when numpy is
    available), so a battery of per-scenario settings or a variant
    weight sweep pays one traversal instead of one per profile.
    """
    try:
        return manager.probability_many(node, profiles)
    except MissingWeightError as error:
        raise MissingProbabilityError(str(error)) from None


def recursive_probability(
    manager: BDDManager, node: Ref, probabilities: Mapping[str, float]
) -> float:
    """The pre-kernel recursive baseline (per-call cache, ``f``/``~f``
    cached as distinct ``uid`` entries).

    Kept as the comparison arm for ``benchmarks/bench_prob.py`` and as an
    independent oracle in the cross-validation tests.  Do not use on deep
    BDDs: the recursion tracks BDD depth and raises ``RecursionError``
    near the interpreter limit — the bug that motivated the kernel pass.
    """
    cache: Dict[int, float] = {}

    def walk(current: Ref) -> float:
        if current.is_terminal:
            return 1.0 if current.value else 0.0
        cached = cache.get(current.uid)
        if cached is not None:
            return cached
        name = manager.name_of(current.level)
        try:
            p = probabilities[name]
        except KeyError:
            raise MissingProbabilityError(
                f"no probability for BDD variable {name!r}"
            ) from None
        value = p * walk(current.high) + (1.0 - p) * walk(current.low)
        cache[current.uid] = value
        return value

    return walk(node)


def enumeration_probability(
    tree: FaultTree,
    element: Optional[str] = None,
    overrides: Optional[Mapping[str, float]] = None,
) -> float:
    """Reference: sum vector probabilities over all 2^n status vectors."""
    probabilities = event_probabilities(tree, overrides)
    names = tree.basic_events
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(names)):
        vector = dict(zip(names, bits))
        if not structure_function(tree, vector, element):
            continue
        weight = 1.0
        for name, bit in vector.items():
            weight *= probabilities[name] if bit else 1.0 - probabilities[name]
        total += weight
    return total


def conditional_probability(
    manager: BDDManager,
    node: Ref,
    evidence: Ref,
    probabilities: Mapping[str, float],
) -> float:
    """P(node | evidence) = P(node and evidence) / P(evidence).

    Raises:
        ZeroProbabilityEvidenceError: If ``P(evidence) = 0`` (the
            conditional is undefined; as a ``FaultTreeError`` subclass
            the batch service reports it per-query instead of aborting).
    """
    denominator = bdd_probability(manager, evidence, probabilities)
    if denominator == 0.0:
        raise ZeroProbabilityEvidenceError(
            "conditioning on a zero-probability event"
        )
    joint = bdd_probability(
        manager, manager.and_(node, evidence), probabilities
    )
    return joint / denominator


def rare_event_approximation(
    tree: FaultTree,
    element: Optional[str] = None,
    overrides: Optional[Mapping[str, float]] = None,
) -> float:
    """Sum of MCS probabilities — the classical upper-ish estimate used
    when probabilities are small."""
    probabilities = event_probabilities(tree, overrides)
    total = 0.0
    for cut in minimal_cut_sets(tree, element):
        product = 1.0
        for name in cut:
            product *= probabilities[name]
        total += product
    return total


def min_cut_upper_bound(
    tree: FaultTree,
    element: Optional[str] = None,
    overrides: Optional[Mapping[str, float]] = None,
) -> float:
    """The min-cut upper bound: ``1 - prod_cuts (1 - P(cut))``.

    Exact for disjoint cut sets; an upper bound in general (for coherent
    trees).
    """
    probabilities = event_probabilities(tree, overrides)
    survival = 1.0
    for cut in minimal_cut_sets(tree, element):
        product = 1.0
        for name in cut:
            product *= probabilities[name]
        survival *= 1.0 - product
    return 1.0 - survival
