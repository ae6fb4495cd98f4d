"""Opaque BDD handles over the complement-edge kernel.

A :class:`Ref` is the one public currency of the BDD engine: an immutable,
manager-interned handle for a Boolean function.  Internally the manager
stores nodes as integer indices into parallel arrays (``level``, ``low``,
``high``) and an *edge* is a tagged integer::

    edge = (node_index << 1) | complement_bit

The single stored terminal is the constant ``1`` at index 0; the constant
``0`` is its complemented edge.  Negating a function therefore flips one
bit of the handle — no traversal, no unique-table insertions (see
:meth:`repro.bdd.manager.BDDManager.negate`).

Because refs are interned per manager (one :class:`Ref` object per live
edge), identity comparison keeps working exactly as it did for the old
pointer-linked ``Node`` objects: two refs denote the same function iff
they are the same object.  The cofactor properties :attr:`Ref.low` /
:attr:`Ref.high` resolve complement bits on the fly, so traversals written
against the old API see an ordinary (uncomplemented) Shannon expansion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .manager import BDDManager

#: Level assigned to the terminal.  It orders *after* every real variable
#: level so that the usual "smaller level is closer to the root" invariant
#: holds uniformly.
TERMINAL_LEVEL = 2**31


class Ref:
    """A manager-interned handle for one Boolean function.

    Attributes:
        manager: The owning :class:`~repro.bdd.manager.BDDManager`.
        edge: The tagged integer handle ``(index << 1) | complement``.

    Users never construct refs directly; they obtain them from a manager
    (``var``, ``apply``, ``ite``, ...).  All attributes are read-only in
    spirit: mutating a ref corrupts the manager's interning table.

    Refs participate in the kernel's garbage collector: the manager
    interns them weakly (hence the ``__weakref__`` slot), and its
    interning table is the collector's root set, so an edge stops being
    a root when the last handle for it dies.  A node is reclaimable
    exactly when no live Ref can reach it.
    """

    __slots__ = ("manager", "edge", "__weakref__")

    def __init__(self, manager: "BDDManager", edge: int) -> None:
        self.manager = manager
        self.edge = edge

    # ------------------------------------------------------------------
    # Handle anatomy
    # ------------------------------------------------------------------

    @property
    def index(self) -> int:
        """Index of the underlying stored node (0 is the terminal)."""
        return self.edge >> 1

    @property
    def complemented(self) -> bool:
        """True iff this handle carries the complement bit."""
        return bool(self.edge & 1)

    @property
    def uid(self) -> int:
        """Manager-unique integer identity of the *function* (the edge).

        Distinct functions have distinct uids; a function and its
        complement differ in the low bit.
        """
        return self.edge

    # ------------------------------------------------------------------
    # Semantic (complement-resolved) view
    # ------------------------------------------------------------------

    @property
    def is_terminal(self) -> bool:
        """True for the constants ``0`` and ``1``."""
        return (self.edge >> 1) == 0

    @property
    def value(self) -> Optional[bool]:
        """Boolean value of a constant; ``None`` for internal nodes."""
        if (self.edge >> 1) != 0:
            return None
        return not (self.edge & 1)

    @property
    def level(self) -> int:
        """Variable level, or :data:`TERMINAL_LEVEL` for the constants."""
        return self.manager._level[self.edge >> 1]

    @property
    def low(self) -> Optional["Ref"]:
        """Negative cofactor (variable = 0); ``None`` for the constants.

        Complement bits are resolved: this is the BDD of the function's
        actual cofactor, regardless of how the edge is stored.
        """
        index = self.edge >> 1
        if index == 0:
            return None
        manager = self.manager
        return manager._wrap(manager._low[index] ^ (self.edge & 1))

    @property
    def high(self) -> Optional["Ref"]:
        """Positive cofactor (variable = 1); ``None`` for the constants."""
        index = self.edge >> 1
        if index == 0:
            return None
        manager = self.manager
        return manager._wrap(manager._high[index] ^ (self.edge & 1))

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def __invert__(self) -> "Ref":
        """``~ref`` — the O(1) complement."""
        return self.manager.negate(self)

    def __hash__(self) -> int:
        return self.edge

    def __eq__(self, other: object) -> bool:
        # Interning makes equality coincide with identity.
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_terminal:
            return f"<Ref {int(bool(self.value))}>"
        sign = "~" if self.complemented else ""
        return (
            f"<Ref {sign}n{self.edge >> 1} level={self.level} "
            f"low={self.low.uid} high={self.high.uid}>"
        )

    # ------------------------------------------------------------------
    # Traversal helpers (semantic DAG: one vertex per distinct function)
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator["Ref"]:
        """Yield every distinct function reachable by cofactoring, once.

        This is the semantic expansion of the complement-edge DAG: it
        enumerates exactly the nodes the old pointer-linked representation
        materialised (both constants included when reachable).  Iterative
        depth-first traversal, so deep BDDs never hit the recursion limit.
        """
        manager = self.manager
        seen = {self.edge}
        stack = [self.edge]
        while stack:
            edge = stack.pop()
            yield manager._wrap(edge)
            index = edge >> 1
            if index == 0:
                continue
            c = edge & 1
            for child in (manager._low[index] ^ c, manager._high[index] ^ c):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)

    def count_nodes(self) -> int:
        """Number of distinct functions in the DAG rooted here (constants
        included) — the size of the equivalent complement-free ROBDD.

        Traverses raw edges without interning refs, so counting a large
        BDD (e.g. inside the sifting loop) allocates nothing persistent.
        """
        manager = self.manager
        seen = {self.edge}
        stack = [self.edge]
        while stack:
            edge = stack.pop()
            index = edge >> 1
            if index == 0:
                continue
            c = edge & 1
            for child in (manager._low[index] ^ c, manager._high[index] ^ c):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return len(seen)
