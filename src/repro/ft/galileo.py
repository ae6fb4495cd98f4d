"""Galileo-style fault-tree exchange format.

The Galileo ``.dft`` dialect is the de-facto interchange format of the
fault-tree community (used by Storm, the model checker the paper's authors
employ for the case study).  We support its static subset::

    toplevel "IWoS";
    "IWoS" and "CP/R" "MoT" "SH";
    "CP/R" or "CP" "CR";
    "V"    2of3 "a" "b" "c";
    "IW"   prob=0.1;
    "H1";

* ``and`` / ``or`` / ``<k>of<N>`` introduce gates;
* any other line declares a basic event, optionally with ``prob=`` (a
  number in [0, 1]; other attributes such as ``lambda=`` or ``dorm=``
  are accepted and ignored);
* names may be quoted (needed for ``"CP/R"``); a quoted name may hold
  any character but ``"`` (``;``, ``#`` and ``//`` included) and must
  not be empty;
* ``//``, ``#`` and ``/* ... */`` comments are skipped outside quotes.

:func:`loads` reads the text in one pass: a single scanner yields quoted
names, bare words, statement ends and comments in document order, so a
comment marker inside a quoted name is part of the name.  Every rejected
document raises :class:`~repro.errors.GalileoFormatError`, including
structural faults of the tree it describes (the
:class:`~repro.errors.WellFormednessError` or
:class:`~repro.errors.GateArityError` is chained as the cause).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from ..errors import GalileoFormatError, GateArityError, WellFormednessError
from .elements import BasicEvent, Gate, GateType
from .tree import FaultTree

_VOT_RE = re.compile(r"^(\d+)of(\d+)$")

#: The characters ``str.splitlines`` breaks at: a line comment ends there.
_EOL = r"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: The one-pass scanner.  Each match skips leading whitespace and
#: captures one item as a plain string: a quoted name with its quotes (so
#: ``""`` is told apart from a comment), ``;``, a bare word (it stops
#: where a comment or statement end begins), or the opening ``"`` /
#: ``/*`` of an unterminated quote or block comment.  Comments and the
#: end of the text capture ``""``.  A block comment opened inside a line
#: comment runs to its ``*/`` and the line comment on to the end of that
#: line, so such documents keep the parse they had when block comments
#: were stripped before line comments.  Every non-blank character starts
#: one of the branches, and the loops end their branch, so a match never
#: backtracks; each loop is unrolled around a run of one character class,
#: which the regex engine matches in one step.
_SCAN = re.compile(
    rf"\s*(?:(?://|#)[^{_EOL}/]*(?:(?:/\*.*?\*/|/)[^{_EOL}/]*)*|/\*.*?\*/"
    r'|("[^"]*"|;|(?:[^\s;#/"]|/(?![/*]))[^\s;#/]*(?:/(?![/*])[^\s;#/]*)*'
    r'|/\*|")'
    r"|\Z)",
    re.DOTALL,
)


def _items(text: str) -> List[str]:
    """``_SCAN.findall(text)``, in time linear in the text.

    A ``/*`` past the last ``*/`` cannot close, and the scanner would
    rescan to the end of the text at each one inside a line comment.
    Such markers are disarmed in a same-length copy that is matched, and
    the items are read off the text.
    """
    cut = text.rfind("*/") + 2 if "*/" in text else 0
    if text.find("/*", cut) < 0:
        return _SCAN.findall(text)
    probe = text[:cut] + text[cut:].replace("/*", "/\0")
    items = []
    for match in _SCAN.finditer(probe):
        item = text[match.start(1):match.end(1)]
        if item[:1] != '"' and "/*" in item:
            # A disarmed marker in running text: the scanner ends
            # the word before it and reports it unterminated.
            word = item[:item.index("/*")]
            items.extend([word, "/*"] if word else ["/*"])
            break
        items.append(item)
    return items


def _statements(text: str) -> List[List[str]]:
    """The document's non-empty statements, each a list of tokens."""
    statements: List[List[str]] = []
    tokens: List[str] = []
    for item in _items(text):
        if not item:  # a comment, or the end of the text
            continue
        if item[0] == '"':
            if len(item) == 1:
                raise GalileoFormatError("unterminated quoted name")
            if len(item) == 2:
                raise GalileoFormatError("empty quoted name")
            tokens.append(item[1:-1])
        elif item == ";":
            if tokens:
                statements.append(tokens)
                tokens = []
        elif item == "/*":
            raise GalileoFormatError("unterminated /* comment")
        else:
            tokens.append(item)
    if tokens:
        statements.append(tokens)
    return statements


def _probability(head: str, value: str) -> float:
    try:
        probability = float(value)
    except ValueError:
        raise GalileoFormatError(
            f"bad probability {value!r} for {head!r}"
        ) from None
    if not 0.0 <= probability <= 1.0:  # also rejects nan
        raise GalileoFormatError(
            f"probability of {head!r} must lie in [0, 1], got {value!r}"
        )
    return probability


def loads(text: str) -> FaultTree:
    """Parse Galileo text into a validated :class:`FaultTree`.

    Raises:
        GalileoFormatError: On any syntactic problem (missing ``toplevel``,
            malformed statement, bad VOT arity, a probability outside
            [0, 1], an empty name, ...) and on a tree that is not
            well-formed.
    """
    statements = _statements(text)
    if not statements:
        raise GalileoFormatError("empty Galileo document")
    top: Optional[str] = None
    gates: List[Gate] = []
    basic: Dict[str, BasicEvent] = {}
    gate_names = set()
    try:
        for tokens in statements:
            head = tokens[0]
            kind = tokens[1] if len(tokens) >= 2 else None
            if head == "toplevel":
                if len(tokens) != 2:
                    raise GalileoFormatError(
                        f"malformed toplevel statement: {' '.join(tokens)!r}"
                    )
                if top is not None:
                    raise GalileoFormatError("duplicate toplevel statement")
                top = kind
                continue
            if kind == "and" or kind == "or":
                children = tuple(tokens[2:])
                if not children:
                    raise GalileoFormatError(
                        f"gate {head!r} has no children"
                    )
                gate_type = GateType.AND if kind == "and" else GateType.OR
                gates.append(Gate(head, gate_type, children))
                gate_names.add(head)
                continue
            vot = _VOT_RE.match(kind) if kind is not None else None
            if vot:
                k, n = int(vot.group(1)), int(vot.group(2))
                children = tuple(tokens[2:])
                if len(children) != n:
                    raise GalileoFormatError(
                        f"VOT gate {head!r} declares {n} children "
                        f"but lists {len(children)}"
                    )
                gates.append(Gate(head, GateType.VOT, children, threshold=k))
                gate_names.add(head)
                continue
            # Anything else declares a basic event with key=value
            # attributes.
            probability: Optional[float] = None
            for attr in tokens[1:]:
                key, eq, value = attr.partition("=")
                if not eq:
                    raise GalileoFormatError(
                        f"unrecognised statement: {' '.join(tokens)!r}"
                    )
                if key == "prob":
                    probability = _probability(head, value)
            if head in basic:
                raise GalileoFormatError(f"duplicate basic event {head!r}")
            basic[head] = BasicEvent(head, probability=probability)

        if top is None:
            raise GalileoFormatError("missing toplevel statement")

        # Children that were never declared are implicit basic events (a
        # common shorthand in circulated .dft files).
        for gate in gates:
            for child in gate.children:
                if child not in basic and child not in gate_names:
                    basic[child] = BasicEvent(child)

        return FaultTree(basic_events=list(basic.values()), gates=gates, top=top)
    except (GateArityError, WellFormednessError) as exc:
        raise GalileoFormatError(str(exc)) from exc


def _quote(name: str) -> str:
    return f'"{name}"'


def dumps(tree: FaultTree) -> str:
    """Serialise a tree to Galileo text (inverse of :func:`loads`)."""
    lines = [f"toplevel {_quote(tree.top)};"]
    for name in tree.gate_names:
        gate = tree.gate(name)
        children = " ".join(_quote(child) for child in gate.children)
        if gate.gate_type is GateType.VOT:
            kind = f"{gate.threshold}of{gate.arity}"
        else:
            kind = gate.gate_type.value
        lines.append(f"{_quote(name)} {kind} {children};")
    for name in tree.basic_events:
        be = tree.basic_event(name)
        if be.probability is not None:
            lines.append(f"{_quote(name)} prob={be.probability};")
        else:
            lines.append(f"{_quote(name)};")
    return "\n".join(lines) + "\n"


def load(path: str) -> FaultTree:
    """Parse a Galileo file from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dump(tree: FaultTree, path: str) -> None:
    """Write ``tree`` to ``path`` in Galileo format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(tree))
