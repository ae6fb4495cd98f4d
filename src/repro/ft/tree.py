"""The fault-tree model ``T = (BE, IE, t, ch)`` of the paper's Def. 1.

A :class:`FaultTree` is an immutable, validated directed acyclic graph with
a unique top element reachable from every other element (the paper's
well-formedness condition).  Shared subtrees and repeated basic events are
allowed — the COVID-19 tree of Fig. 2 uses both.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from ..errors import (
    StatusVectorError,
    UnknownElementError,
    WellFormednessError,
)
from .elements import BasicEvent, Gate, GateType

#: A status vector maps each basic-event name to True (failed) / False
#: (operational) — the paper's ``b`` with the usual 1 = failed convention.
StatusVector = Mapping[str, bool]


class FaultTree:
    """Immutable fault tree (Def. 1) with validation and graph queries.

    Args:
        basic_events: The leaves, in declaration order (this order is the
            default BDD variable order and the order of status vectors).
        gates: The intermediate elements.
        top: Name of the top element ``e_top``; must be a gate.

    Raises:
        WellFormednessError: If names clash, children are missing, the graph
            has a cycle, or some element cannot reach the top.
    """

    def __init__(
        self,
        basic_events: Sequence[BasicEvent],
        gates: Sequence[Gate],
        top: str,
    ) -> None:
        self._basic: Dict[str, BasicEvent] = {}
        for be in basic_events:
            if be.name in self._basic:
                raise WellFormednessError(f"duplicate basic event {be.name!r}")
            self._basic[be.name] = be
        self._gates: Dict[str, Gate] = {}
        for gate in gates:
            if gate.name in self._gates:
                raise WellFormednessError(f"duplicate gate {gate.name!r}")
            if gate.name in self._basic:
                raise WellFormednessError(
                    f"{gate.name!r} is both a basic event and a gate "
                    "(Def. 1 requires BE and IE disjoint)"
                )
            self._gates[gate.name] = gate
        if top not in self._gates:
            raise WellFormednessError(
                f"top element {top!r} must be a declared gate"
            )
        self._top = top
        self._be_order: Tuple[str, ...] = tuple(be.name for be in basic_events)
        self._validate()
        parents: Dict[str, List[str]] = {name: [] for name in self.elements}
        for gate in self._gates.values():
            for child in gate.children:
                parents[child].append(gate.name)
        self._parents = {name: tuple(ps) for name, ps in parents.items()}
        self._depth_cache: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Validation (well-formedness condition of Def. 1)
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        """Def. 1's well-formedness in one depth-first walk from the top:
        every child met must be known and not on the walk's path (a
        cycle, or a parent of the top); whatever the walk misses cannot
        reach the top (faults inside it are reported as that)."""
        gates = self._gates
        basic = self._basic
        top = self._top
        # Colour marking: True while a gate is on the walk's path, False
        # once done; a gate's child iterator resumes where it stopped.
        on_path: Dict[str, bool] = {top: True}
        reached_basic = set()
        stack = [(top, iter(gates[top].children))]
        while stack:
            name, children = stack[-1]
            for child in children:
                gate = gates.get(child)
                if gate is None:
                    if child not in basic:
                        raise WellFormednessError(
                            f"gate {name!r} references unknown child {child!r}"
                        )
                    reached_basic.add(child)
                    continue
                state = on_path.get(child)
                if state is None:
                    on_path[child] = True
                    stack.append((child, iter(gate.children)))
                    break
                if state:
                    raise WellFormednessError(
                        f"top element {top!r} has a parent" if child == top
                        else f"cycle through gate {child!r}"
                    )
            else:
                on_path[name] = False
                stack.pop()

        # The top must be reachable from every element, i.e. every element
        # must occur in the top's closure.
        if len(on_path) + len(reached_basic) != len(gates) + len(basic):
            orphans = (set(basic) - reached_basic) | (set(gates) - set(on_path))
            raise WellFormednessError(
                "elements not connected to the top: "
                + ", ".join(sorted(orphans))
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def top(self) -> str:
        """Name of the top level element ``e_top``."""
        return self._top

    @property
    def basic_events(self) -> Tuple[str, ...]:
        """Basic-event names in declaration order (``BE``)."""
        return self._be_order

    @property
    def gate_names(self) -> Tuple[str, ...]:
        """Intermediate-element names (``IE``)."""
        return tuple(self._gates)

    @property
    def elements(self) -> Tuple[str, ...]:
        """All element names (``E = BE u IE``), basic events first."""
        return self._be_order + tuple(self._gates)

    def __contains__(self, name: str) -> bool:
        return name in self._basic or name in self._gates

    def __len__(self) -> int:
        return len(self._basic) + len(self._gates)

    def is_basic(self, name: str) -> bool:
        """True iff ``name`` is a basic event."""
        if name in self._basic:
            return True
        if name in self._gates:
            return False
        raise UnknownElementError(name)

    def basic_event(self, name: str) -> BasicEvent:
        """The :class:`BasicEvent` record for ``name``."""
        try:
            return self._basic[name]
        except KeyError:
            raise UnknownElementError(name) from None

    def gate(self, name: str) -> Gate:
        """The :class:`Gate` record for ``name``."""
        try:
            return self._gates[name]
        except KeyError:
            raise UnknownElementError(name) from None

    def _require(self, name: str) -> None:
        if name not in self:
            raise UnknownElementError(name)

    def gate_type(self, name: str) -> GateType:
        """Gate type ``t(name)`` of an intermediate element."""
        return self.gate(name).gate_type

    def children(self, name: str) -> Tuple[str, ...]:
        """``ch(name)`` for gates; the empty tuple for basic events."""
        gate = self._gates.get(name)
        if gate is not None:
            return gate.children
        if name in self._basic:
            return ()
        raise UnknownElementError(name)

    def parents(self, name: str) -> Tuple[str, ...]:
        """Gates that list ``name`` among their children."""
        self._require(name)
        return self._parents[name]

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------

    def descendants(self, name: str) -> FrozenSet[str]:
        """All elements strictly below ``name`` (transitive children)."""
        self._require(name)
        seen: set = set()
        stack = list(self.children(name))
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.children(current))
        return frozenset(seen)

    def basic_descendants(self, name: str) -> FrozenSet[str]:
        """Basic events below (or equal to) ``name``.

        These are the *structural* candidates for the influencing basic
        events IBE of the element; the semantic IBE (Sec. III-B) is computed
        by :mod:`repro.checker.independence`.
        """
        self._require(name)
        if name in self._basic:
            return frozenset({name})
        return frozenset(
            e for e in self.descendants(name) if e in self._basic
        )

    def depth(self, name: str) -> int:
        """Length of the shortest path from the top to ``name``."""
        self._require(name)
        if name in self._depth_cache:
            return self._depth_cache[name]
        frontier = {self._top}
        depth = 0
        seen = set(frontier)
        while frontier:
            if name in frontier:
                self._depth_cache[name] = depth
                return depth
            nxt = set()
            for element in frontier:
                for child in self.children(element):
                    if child not in seen:
                        seen.add(child)
                        nxt.add(child)
            frontier = nxt
            depth += 1
        raise UnknownElementError(name)  # pragma: no cover - validated away

    def shared_elements(self) -> FrozenSet[str]:
        """Elements with more than one parent (the DAG sharing points)."""
        return frozenset(
            name for name, parents in self._parents.items() if len(parents) > 1
        )

    # ------------------------------------------------------------------
    # Status vectors
    # ------------------------------------------------------------------

    def vector_from_failed(self, failed: Iterable[str]) -> Dict[str, bool]:
        """Status vector with exactly ``failed`` set to 1 (failed)."""
        failed_set = set(failed)
        unknown = failed_set - set(self._be_order)
        if unknown:
            raise StatusVectorError(
                "not basic events of this tree: " + ", ".join(sorted(unknown))
            )
        return {name: name in failed_set for name in self._be_order}

    def vector_from_operational(self, operational: Iterable[str]) -> Dict[str, bool]:
        """Status vector with exactly ``operational`` set to 0 (the MPS view)."""
        operational_set = set(operational)
        unknown = operational_set - set(self._be_order)
        if unknown:
            raise StatusVectorError(
                "not basic events of this tree: " + ", ".join(sorted(unknown))
            )
        return {name: name not in operational_set for name in self._be_order}

    def vector_from_bits(self, bits: Sequence[int]) -> Dict[str, bool]:
        """Status vector from 0/1 bits in basic-event declaration order,
        matching the paper's tuple notation ``b = (b1, ..., bk)``."""
        if len(bits) != len(self._be_order):
            raise StatusVectorError(
                f"expected {len(self._be_order)} bits, got {len(bits)}"
            )
        return {name: bool(bit) for name, bit in zip(self._be_order, bits)}

    def failed_set(self, vector: StatusVector) -> FrozenSet[str]:
        """The failed basic events of ``vector`` (the cut-set view)."""
        self.check_vector(vector)
        return frozenset(n for n in self._be_order if vector[n])

    def operational_set(self, vector: StatusVector) -> FrozenSet[str]:
        """The operational basic events of ``vector`` (the path-set view)."""
        self.check_vector(vector)
        return frozenset(n for n in self._be_order if not vector[n])

    def check_vector(self, vector: StatusVector) -> None:
        """Raise unless ``vector`` assigns exactly this tree's basic events.

        Extra keys are tolerated (evidence may mention auxiliary variables);
        missing ones are not.
        """
        missing = [n for n in self._be_order if n not in vector]
        if missing:
            raise StatusVectorError(
                "status vector misses basic events: " + ", ".join(missing)
            )

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def describe(self, name: str) -> str:
        """Human-readable description of an element (falls back to name)."""
        self._require(name)
        if name in self._basic:
            return self._basic[name].description or name
        return self._gates[name].description or name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultTree top={self._top!r} "
            f"|BE|={len(self._basic)} |IE|={len(self._gates)}>"
        )

    def stats(self) -> Dict[str, int]:
        """Simple size statistics (used by the CLI and reports)."""
        return {
            "basic_events": len(self._basic),
            "gates": len(self._gates),
            "and_gates": sum(
                1 for g in self._gates.values() if g.gate_type is GateType.AND
            ),
            "or_gates": sum(
                1 for g in self._gates.values() if g.gate_type is GateType.OR
            ),
            "vot_gates": sum(
                1 for g in self._gates.values() if g.gate_type is GateType.VOT
            ),
            "shared_elements": len(self.shared_elements()),
        }
