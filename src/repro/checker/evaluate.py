"""Algorithm 2: check ``b, T |= chi`` by walking the formula's BDD.

The paper's algorithm: compute ``BT(chi)`` (Algorithm 1), then descend from
the root taking the ``Low`` edge where ``b`` assigns 0 and the ``High`` edge
where it assigns 1, and report which terminal is reached.
"""

from __future__ import annotations

from typing import Mapping

from ..bdd.manager import BDDManager
from ..bdd.ref import Ref
from ..errors import StatusVectorError
from ..logic.ast_nodes import Formula
from .translate import FormulaTranslator


def walk(manager: BDDManager, root: Ref, vector: Mapping[str, bool]) -> bool:
    """The BDD walk at the heart of Algorithm 2.

    Args:
        manager: Owning manager.
        root: BDD of the formula.
        vector: Status vector ``b``; must cover every variable the walk
            branches on.

    Returns:
        True iff the walk ends in the ``1`` terminal.
    """
    try:
        return manager.evaluate(root, vector)
    except KeyError as missing:
        raise StatusVectorError(
            f"status vector does not assign {missing.args[0]!r}"
        ) from None


def check(
    translator: FormulaTranslator,
    formula: Formula,
    vector: Mapping[str, bool],
) -> bool:
    """Algorithm 2: ``b, T |= formula``.

    Args:
        translator: Algorithm-1 translator for the tree ``T``.
        formula: A layer-1 BFL formula ``chi``.
        vector: The status vector ``b`` over the tree's basic events.
    """
    translator.tree.check_vector(vector)
    root = translator.bdd(formula)
    return walk(translator.manager, root, vector)
