"""Edit scripts over fault trees — the "what-if" delta language.

A variant scenario is the base tree plus a short list of edits (swap a
gate type, replace a subtree, add/remove an event, change a failure
probability).  Each edit is a small frozen dataclass with a JSON
round-trip, so variant definitions can live in query files next to the
queries they parameterise (``bfl batch --variants``).

:func:`apply_edits` materialises the edited :class:`FaultTree`;
:func:`changed_elements_from_edits` reads off the edit script which
elements' structure functions may have changed, and :func:`splice_site`
finds the one subtree that absorbs them, if any.  A variant fork
(:meth:`repro.service.batch.AnalysisSession.fork_variant`) uses both to
keep every untouched ``Psi_FT`` BDD instead of rebuilding the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import ReproError
from .elements import BasicEvent, Gate, GateType
from .galileo import loads
from .tree import FaultTree


class EditError(ReproError):
    """An edit does not apply to the tree it was aimed at."""


@dataclass(frozen=True)
class GateSwap:
    """Change a gate's connective (children are kept as-is).

    ``threshold`` is required for VOT and forbidden otherwise, mirroring
    :class:`repro.ft.elements.Gate` validation.
    """

    gate: str
    gate_type: Union[GateType, str]
    threshold: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        kind = (
            self.gate_type.value
            if isinstance(self.gate_type, GateType)
            else str(self.gate_type)
        )
        data: Dict[str, Any] = {
            "op": "gate-swap", "gate": self.gate, "type": kind,
        }
        if self.threshold is not None:
            data["threshold"] = self.threshold
        return data


@dataclass(frozen=True)
class SubtreeReplace:
    """Replace the subtree rooted at ``element`` with a Galileo fragment.

    The fragment's ``toplevel`` takes over the *name* ``element`` (so
    formulae and parents keep referring to it); its other gates must be
    fresh names, while fragment basic events may either be fresh or
    reuse existing basic events (sharing them with the rest of the
    tree — a fragment ``prob=`` value overrides the base one).
    """

    element: str
    fragment: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": "subtree-replace",
            "element": self.element,
            "fragment": self.fragment,
        }


@dataclass(frozen=True)
class EventAdd:
    """Declare a new basic event and append it to ``gate``'s children."""

    gate: str
    event: str
    probability: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "op": "event-add", "gate": self.gate, "event": self.event,
        }
        if self.probability is not None:
            data["probability"] = self.probability
        return data


@dataclass(frozen=True)
class EventRemove:
    """Remove a basic event from the tree (and from every parent gate)."""

    event: str

    def to_dict(self) -> Dict[str, Any]:
        return {"op": "event-remove", "event": self.event}


@dataclass(frozen=True)
class WeightChange:
    """Change a basic event's failure probability (structure untouched)."""

    event: str
    probability: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": "weight-change",
            "event": self.event,
            "probability": self.probability,
        }


Edit = Union[GateSwap, SubtreeReplace, EventAdd, EventRemove, WeightChange]

_OPS = {
    "gate-swap": GateSwap,
    "subtree-replace": SubtreeReplace,
    "event-add": EventAdd,
    "event-remove": EventRemove,
    "weight-change": WeightChange,
}


def edit_from_dict(data: Mapping[str, Any]) -> Edit:
    """Build one edit from its JSON-style mapping (inverse of ``to_dict``)."""
    op = data.get("op")
    if op not in _OPS:
        raise EditError(
            f"unknown edit op {op!r} (expected one of {', '.join(sorted(_OPS))})"
        )
    fields = dict(data)
    fields.pop("op")
    try:
        if op == "gate-swap":
            fields["gate_type"] = fields.pop("type")
            return GateSwap(**fields)
        return _OPS[op](**fields)
    except TypeError as exc:
        raise EditError(f"malformed {op!r} edit: {exc}") from exc


def edits_from_any(items: Iterable[Union[Edit, Mapping[str, Any]]]) -> List[Edit]:
    """Normalise a heterogeneous edit list (ready edits and/or mappings)."""
    edits: List[Edit] = []
    for item in items:
        if isinstance(item, tuple(_OPS.values())):
            edits.append(item)  # type: ignore[arg-type]
        elif isinstance(item, Mapping):
            edits.append(edit_from_dict(item))
        else:
            raise EditError(f"cannot interpret {item!r} as a tree edit")
    return edits


def _coerce_gate_type(value: Union[GateType, str]) -> GateType:
    if isinstance(value, GateType):
        return value
    try:
        return GateType(str(value).lower())
    except ValueError as exc:
        raise EditError(f"unknown gate type {value!r}") from exc


def apply_edits(tree: FaultTree, edits: Sequence[Edit]) -> FaultTree:
    """Apply an edit script, returning a new validated :class:`FaultTree`.

    Edits apply in order; elements that become unreachable from the top
    (e.g. a replaced subtree's private gates) are dropped, matching the
    well-formedness requirement of Def. 1.  The input tree is never
    mutated.  Each entry may be an :class:`Edit` or the mapping form
    accepted by :func:`edit_from_dict`.
    """
    edits = edits_from_any(edits)
    bes: Dict[str, BasicEvent] = {
        name: tree.basic_event(name) for name in tree.basic_events
    }
    gates: Dict[str, Gate] = {
        name: tree.gate(name) for name in tree.gate_names
    }
    top = tree.top
    for edit in edits:
        if isinstance(edit, GateSwap):
            _apply_gate_swap(gates, edit)
        elif isinstance(edit, SubtreeReplace):
            _apply_subtree_replace(bes, gates, edit)
        elif isinstance(edit, EventAdd):
            _apply_event_add(bes, gates, edit)
        elif isinstance(edit, EventRemove):
            _apply_event_remove(bes, gates, edit)
        elif isinstance(edit, WeightChange):
            _apply_weight_change(bes, edit)
        else:
            raise EditError(f"cannot interpret {edit!r} as a tree edit")
    if top not in gates:
        raise EditError(f"edit script removed the top gate {top!r}")
    # Prune to the top's closure; declaration order of surviving basic
    # events is preserved (it is the default variable order).
    reachable = _reachable(gates, bes, top)
    return FaultTree(
        basic_events=[be for name, be in bes.items() if name in reachable],
        gates=[gate for name, gate in gates.items() if name in reachable],
        top=top,
    )


def _apply_gate_swap(gates: Dict[str, Gate], edit: GateSwap) -> None:
    old = gates.get(edit.gate)
    if old is None:
        raise EditError(f"gate-swap targets unknown gate {edit.gate!r}")
    kind = _coerce_gate_type(edit.gate_type)
    try:
        gates[edit.gate] = Gate(
            name=old.name,
            gate_type=kind,
            children=old.children,
            threshold=edit.threshold,
            description=old.description,
        )
    except ReproError as exc:
        raise EditError(f"gate-swap on {edit.gate!r}: {exc}") from exc


def _apply_subtree_replace(
    bes: Dict[str, BasicEvent],
    gates: Dict[str, Gate],
    edit: SubtreeReplace,
) -> None:
    if edit.element not in bes and edit.element not in gates:
        raise EditError(
            f"subtree-replace targets unknown element {edit.element!r}"
        )
    # The replaced name must stay the same kind of element the fragment
    # top is — a BE name cannot silently become a gate (status vectors
    # and probability profiles index basic events by name).
    if edit.element in bes:
        raise EditError(
            f"subtree-replace target {edit.element!r} is a basic event; "
            "replace its parent gate instead"
        )
    try:
        fragment = loads(edit.fragment)
    except ReproError as exc:
        raise EditError(
            f"subtree-replace fragment for {edit.element!r} "
            f"does not parse: {exc}"
        ) from exc
    rename = {fragment.top: edit.element}
    for name in fragment.gate_names:
        target = rename.get(name, name)
        if target != edit.element and (target in bes or target in gates):
            raise EditError(
                f"subtree-replace fragment gate {target!r} collides with "
                "an existing element"
            )
    for name in fragment.basic_events:
        if name in gates:
            raise EditError(
                f"subtree-replace fragment event {name!r} collides with "
                f"existing gate {name!r}"
            )
    del gates[edit.element]
    for name in fragment.basic_events:
        be = fragment.basic_event(name)
        existing = bes.get(name)
        if existing is None:
            bes[name] = be
        elif be.probability is not None:
            bes[name] = BasicEvent(
                name=name,
                description=existing.description,
                probability=be.probability,
            )
    for name in fragment.gate_names:
        gate = fragment.gate(name)
        target = rename.get(name, name)
        gates[target] = Gate(
            name=target,
            gate_type=gate.gate_type,
            children=tuple(rename.get(c, c) for c in gate.children),
            threshold=gate.threshold,
            description=gate.description,
        )


def _apply_event_add(
    bes: Dict[str, BasicEvent], gates: Dict[str, Gate], edit: EventAdd
) -> None:
    if edit.event in bes or edit.event in gates:
        raise EditError(f"event-add name {edit.event!r} already exists")
    parent = gates.get(edit.gate)
    if parent is None:
        raise EditError(f"event-add targets unknown gate {edit.gate!r}")
    bes[edit.event] = BasicEvent(edit.event, probability=edit.probability)
    gates[edit.gate] = Gate(
        name=parent.name,
        gate_type=parent.gate_type,
        children=parent.children + (edit.event,),
        threshold=parent.threshold,
        description=parent.description,
    )


def _apply_event_remove(
    bes: Dict[str, BasicEvent], gates: Dict[str, Gate], edit: EventRemove
) -> None:
    if edit.event not in bes:
        raise EditError(f"event-remove targets unknown event {edit.event!r}")
    for name, gate in list(gates.items()):
        if edit.event not in gate.children:
            continue
        remaining = tuple(c for c in gate.children if c != edit.event)
        if not remaining:
            raise EditError(
                f"event-remove would leave gate {name!r} childless"
            )
        threshold = gate.threshold
        if threshold is not None:
            # Keep VOT well-formed: k may not exceed the new arity.
            threshold = min(threshold, len(remaining))
        gates[name] = Gate(
            name=gate.name,
            gate_type=gate.gate_type,
            children=remaining,
            threshold=threshold,
            description=gate.description,
        )
    del bes[edit.event]


def _apply_weight_change(
    bes: Dict[str, BasicEvent], edit: WeightChange
) -> None:
    old = bes.get(edit.event)
    if old is None:
        raise EditError(f"weight-change targets unknown event {edit.event!r}")
    try:
        bes[edit.event] = BasicEvent(
            name=old.name,
            description=old.description,
            probability=edit.probability,
        )
    except ReproError as exc:
        raise EditError(f"weight-change on {edit.event!r}: {exc}") from exc


def _reachable(
    gates: Mapping[str, Gate], bes: Mapping[str, BasicEvent], top: str
) -> FrozenSet[str]:
    seen = {top}
    stack = [top]
    while stack:
        name = stack.pop()
        gate = gates.get(name)
        if gate is None:
            continue
        for child in gate.children:
            if child not in seen:
                if child not in gates and child not in bes:
                    raise EditError(
                        f"gate {name!r} references unknown child {child!r}"
                    )
                seen.add(child)
                stack.append(child)
    return frozenset(seen)


# ----------------------------------------------------------------------
# Structural diffing (what a variant fork keys on)
# ----------------------------------------------------------------------

Signature = Tuple[Any, ...]


def changed_elements_from_edits(
    old: FaultTree, new: FaultTree, edits: Sequence[Any]
) -> FrozenSet[str]:
    """Element names whose structure function may differ between ``old``
    and ``new``, read off the edit script that produced ``new``.

    Includes names present in only one of the trees.  The guarantee is
    one-directional and that is the direction caches need: every element
    whose local record (connective, threshold, children by name) an edit
    can touch is seeded — the edit's target gate, plus every name
    present in only one of the trees (fragment elements, added/removed
    events; parents of a removed event join through the ancestor
    closure) — so an element outside the result has an identical
    subtree in both trees, and any BDD computed for it against ``old``
    answers for ``new`` as well.  The price is mild over-approximation:
    a no-op edit (a ``GateSwap`` to the connective the gate already
    has) dirties its target anyway, which merely re-lowers a still-valid
    cache entry.  Cost is O(edits + name sets + closure), independent of
    the tree's size.
    """
    edit_list = edits_from_any(edits)
    seeds: Set[str] = set()
    for edit in edit_list:
        if isinstance(edit, WeightChange):
            continue  # structure untouched by construction
        if isinstance(edit, GateSwap):
            seeds.add(edit.gate)
        elif isinstance(edit, SubtreeReplace):
            seeds.add(edit.element)
        elif isinstance(edit, EventAdd):
            seeds.add(edit.gate)
            seeds.add(edit.event)
        elif isinstance(edit, EventRemove):
            seeds.add(edit.event)
    old_names = set(old.basic_events) | set(old.gate_names)
    new_names = set(new.basic_events) | set(new.gate_names)
    changed = seeds | (old_names ^ new_names)
    stack = list(changed)
    while stack:
        name = stack.pop()
        for tree in (old, new):
            if name in tree:
                for parent in tree.parents(name):
                    if parent not in changed:
                        changed.add(parent)
                        stack.append(parent)
    return frozenset(changed)


def _record(tree: FaultTree, name: str) -> Optional[Signature]:
    """One element's local record: its own definition, children by name
    (``None`` for names not in the tree)."""
    if name not in tree:
        return None
    if tree.is_basic(name):
        return ("be", name)
    gate = tree.gate(name)
    return (gate.gate_type.value, gate.threshold, gate.children)


def _ancestors(tree: FaultTree, name: str) -> FrozenSet[str]:
    seen: set = set()
    stack = [name]
    while stack:
        for parent in tree.parents(stack.pop()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return frozenset(seen)


def splice_site(
    old: FaultTree, new: FaultTree, dirty: FrozenSet[str]
) -> Optional[str]:
    """The unique element whose subtree absorbs the whole diff, if any.

    ``dirty`` is the :func:`changed_elements_from_edits` result for the
    two trees.  When this returns a name ``X``, the two trees are
    identical outside the subtree rooted at ``X``: every
    locally-redefined element lies inside ``X``'s subtree and every
    other dirty element is an (unchanged-record) ancestor of ``X``,
    dirty only transitively.  Then the new top equals the old *abstract*
    top with ``Psi(X)`` substituted for the placeholder — the
    precondition of :meth:`repro.ft.to_bdd.TreeTranslator.splice`.
    Returns ``None`` when the diff is empty or has no single covering
    site (the fork then re-lowers the dirty elements, still reusing
    every unchanged one).
    """
    if not dirty:
        return None
    record_changed = {
        name for name in dirty if _record(old, name) != _record(new, name)
    }
    candidates = sorted(
        name for name in record_changed if name in old and name in new
    )
    for site in candidates:
        # Redefined elements must be private to the site's subtree.
        # Descendant membership is NOT privacy on a sharing DAG: a gate
        # can sit under the site *and* be referenced from outside it, in
        # which case substituting Psi(site) leaves stale occurrences.
        # The exact condition is that no redefined element is reachable
        # from the top without passing through the site, in either tree.
        old_outside = _reachable_avoiding(old, site)
        new_outside = _reachable_avoiding(new, site)
        if any(
            name in old_outside or name in new_outside
            for name in record_changed
            if name != site
        ):
            continue
        ancestors = _ancestors(new, site)
        if all(name in ancestors for name in dirty - record_changed):
            return site
    return None


def _reachable_avoiding(tree: FaultTree, site: str) -> Set[str]:
    """Elements reachable from the top without expanding ``site`` (the
    part of the tree a ``splice(site, ...)`` leaves untouched)."""
    seen: Set[str] = set()
    stack = [tree.top]
    while stack:
        name = stack.pop()
        if name in seen or name == site:
            continue
        seen.add(name)
        if not tree.is_basic(name):
            stack.extend(tree.gate(name).children)
    return seen
