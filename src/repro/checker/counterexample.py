"""Algorithm 4 and Def. 7: counterexample construction.

Given ``b`` with ``b, T |/= chi``, produce a vector ``b'`` with
``b', T |= chi`` whose modifications are individually necessary: flipping
any changed bit back to its original value must invalidate the formula
(Def. 7).

:func:`algorithm4` is the paper's greedy BDD walk: follow ``b`` through
``BT(chi)``; whenever the chosen edge leads to the ``0`` terminal, revise
the decision and take the sibling edge, recording the flip.  Because ROBDD
siblings are distinct, the revised edge never leads to ``0`` immediately,
and the walk terminates in the ``1`` terminal.

:func:`verify_def7` checks the Def. 7 conditions explicitly, and
:func:`exhaustive_counterexamples` enumerates *all* Def. 7-compliant
counterexamples (the reference used by the tests and by EXPERIMENTS.md's
discussion of the greedy algorithm's behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..bdd.allsat import greedy_witness
from ..errors import NoCounterexampleError
from ..logic.ast_nodes import Formula
from .evaluate import walk
from .satisfy import iter_satisfying_vectors
from .translate import FormulaTranslator


@dataclass(frozen=True)
class Counterexample:
    """Result of Algorithm 4.

    Attributes:
        original: The vector ``b`` that failed to satisfy the formula.
        vector: The new vector ``b'`` with ``b', T |= chi``.
        changed: Names whose value differs between ``b`` and ``b'``,
            in basic-event order.
        def7_compliant: Whether every change is individually necessary
            (checked by :func:`verify_def7`).
    """

    original: Dict[str, bool]
    vector: Dict[str, bool]
    changed: Tuple[str, ...]
    def7_compliant: bool

    @property
    def newly_failed(self) -> Tuple[str, ...]:
        """Events flipped from operational to failed."""
        return tuple(n for n in self.changed if self.vector[n])

    @property
    def newly_operational(self) -> Tuple[str, ...]:
        """Events flipped from failed to operational."""
        return tuple(n for n in self.changed if not self.vector[n])


def algorithm4(
    translator: FormulaTranslator,
    formula: Formula,
    vector: Mapping[str, bool],
) -> Counterexample:
    """The paper's Algorithm 4 (greedy BDD-walk counterexample).

    Args:
        translator: Algorithm-1 translator for the tree.
        formula: The layer-1 formula ``chi``.
        vector: The status vector ``b``.

    Returns:
        A :class:`Counterexample`; if ``b`` already satisfies the formula
        it is returned unchanged (empty ``changed``).

    Raises:
        NoCounterexampleError: If the formula is unsatisfiable over the
            tree ("if 1 not in Wt: return").
    """
    translator.tree.check_vector(vector)
    manager = translator.manager
    root = translator.bdd(formula)
    if root is manager.false:
        raise NoCounterexampleError(
            "the formula is unsatisfiable for this tree; no counterexample "
            "vector exists"
        )

    decided = greedy_witness(manager, root, vector)

    # "set all values b'_i which have not been set to the same values as
    # according b_i"
    new_vector = {
        name: decided.get(name, bool(vector[name]))
        for name in translator.basic_events
    }
    changed = tuple(
        name
        for name in translator.basic_events
        if new_vector[name] != bool(vector[name])
    )
    compliant = verify_def7(translator, formula, vector, new_vector) == ()
    return Counterexample(
        original={n: bool(vector[n]) for n in translator.basic_events},
        vector=new_vector,
        changed=changed,
        def7_compliant=compliant,
    )


def verify_def7(
    translator: FormulaTranslator,
    formula: Formula,
    original: Mapping[str, bool],
    candidate: Mapping[str, bool],
) -> Tuple[str, ...]:
    """Check Def. 7 for ``candidate``; return the names that violate it.

    A violation is either "the candidate does not satisfy the formula"
    (reported as ``"*"``) or a changed bit that could be flipped back to the
    original value while still satisfying the formula.
    """
    manager = translator.manager
    root = translator.bdd(formula)
    if not walk(manager, root, candidate):
        return ("*",)
    violations: List[str] = []
    for name in translator.basic_events:
        if bool(candidate[name]) == bool(original[name]):
            continue
        reverted = dict(candidate)
        reverted[name] = bool(original[name])
        if walk(manager, root, reverted):
            violations.append(name)
    return tuple(violations)


def exhaustive_counterexamples(
    translator: FormulaTranslator,
    formula: Formula,
    vector: Mapping[str, bool],
) -> List[Counterexample]:
    """All Def. 7-compliant counterexamples, by filtering ``[[chi]]``.

    Exponential reference implementation used by the tests; prefer
    :func:`algorithm4` in applications.
    """
    translator.tree.check_vector(vector)
    results: List[Counterexample] = []
    original = {n: bool(vector[n]) for n in translator.basic_events}
    for model in iter_satisfying_vectors(translator, formula):
        if verify_def7(translator, formula, original, model):
            continue
        changed = tuple(
            name
            for name in translator.basic_events
            if model[name] != original[name]
        )
        results.append(
            Counterexample(
                original=dict(original),
                vector=model,
                changed=changed,
                def7_compliant=True,
            )
        )
    return results


def closest_counterexample(
    translator: FormulaTranslator,
    formula: Formula,
    vector: Mapping[str, bool],
) -> Optional[Counterexample]:
    """A Def. 7-compliant counterexample with the fewest changed bits.

    Hamming-minimal counterexamples are always Def. 7-compliant (reverting
    any bit of a closest witness cannot stay satisfying, or it would be
    closer); this gives a canonical witness for reports.
    """
    candidates = exhaustive_counterexamples(translator, formula, vector)
    if not candidates:
        return None
    return min(candidates, key=lambda cex: (len(cex.changed), sorted(cex.changed)))
