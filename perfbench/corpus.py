"""Seeded Galileo corpus for the benchmark, built by structure.

Every tree is drawn from a fixed structural template.  The seed chooses
the element names, the failure probabilities and the order in which
gate statements appear in the text; it never chooses the shape.  Basic
events are declared in template-position order (declaration order is
the default BDD variable order), so two seeds give isomorphic trees with
the same variable order, and therefore the same kernel work.  That is
what keeps a workload's cost independent of seed luck.

Two size classes, chosen by template (never by a measured kernel size):

* ``paper`` -- trees shaped like the COVID-19 tree of the paper
  (Fig. 2): two or three wards of the COVID structure under an OR,
  sharing the host events across wards.  Kernels of a few thousand
  nodes.
* ``large`` -- redundant banks: k-of-n votes over primary/backup pairs
  whose primaries are declared before their backups, so the kernel grows
  into the tens of thousands of nodes.

This module imports nothing from the program under test: the program
receives only the Galileo text.
"""

from __future__ import annotations

import hashlib
import random
import string
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

PAPER = "paper"
LARGE = "large"


@dataclass(frozen=True)
class CorpusTree:
    """One generated tree: its scenario name, class, Galileo text and top."""

    name: str
    size_class: str
    template: str
    text: str
    top: str
    events: int
    gates: int


class _Names:
    """Seeded, collision-free DSL-safe identifiers."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set = set()

    def fresh(self, prefix: str) -> str:
        while True:
            token = "".join(
                self._rng.choice(string.ascii_uppercase) for _ in range(5)
            )
            name = f"{prefix}_{token}"
            if name not in self._used:
                self._used.add(name)
                return name


class _Builder:
    """Collects gate and basic-event statements of one tree."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.names = _Names(rng)
        self.events: List[str] = []
        self.gates: List[Tuple[str, str, Tuple[str, ...]]] = []

    def event(self) -> str:
        name = self.names.fresh("E")
        self.events.append(name)
        return name

    def gate(self, kind: str, children: Sequence[str]) -> str:
        name = self.names.fresh("G")
        self.gates.append((name, kind, tuple(children)))
        return name

    def text(self, top: str) -> str:
        lines = [f'toplevel "{top}";']
        gate_lines = [
            f'"{name}" {kind} ' + " ".join(f'"{c}"' for c in children) + ";"
            for name, kind, children in self.gates
        ]
        # Gate statement order carries no meaning for the analysis; the
        # seed shuffles it so the texts of two seeds differ beyond names.
        self.rng.shuffle(gate_lines)
        lines.extend(gate_lines)
        for name in self.events:
            probability = round(self.rng.uniform(1e-4, 5e-2), 6)
            lines.append(f'"{name}" prob={probability};')
        return "\n".join(lines) + "\n"


def _covid_ward(b: _Builder, host: Dict[str, str]) -> str:
    """One ward with the gate structure of the paper's COVID-19 tree.

    ``host`` holds the host events (H1, VW) shared between wards.
    """
    iw, h3, it, h2, pp = (b.event() for _ in range(5))
    h4, is_, h5, ab, mv, ut = (b.event() for _ in range(6))
    h1, vw = host["H1"], host["VW"]
    cp = b.gate("and", (iw, h3))
    cr = b.gate("and", (it, h2))
    cpr = b.gate("or", (cp, cr))
    ciw = b.gate("and", (iw, pp, h1))
    mh1 = b.gate("and", (h1, h4))
    cio = b.gate("and", (it, mh1))
    mh2 = b.gate("and", (h1, h5))
    cis = b.gate("and", (is_, mh2))
    ct = b.gate("or", (ciw, cio, cis))
    dt = b.gate("and", (iw, pp))
    am = b.gate("or", (ab, mv))
    at = b.gate("and", (iw, am))
    cvt = b.gate("or", (ut,))
    mot = b.gate("or", (ct, dt, at, cvt))
    sh = b.gate("and", (vw, h1))
    return b.gate("and", (cpr, mot, sh))


def paper_tree(b: _Builder, wards: int) -> str:
    """``wards`` COVID-shaped wards under an OR; returns the top gate."""
    host = {"H1": b.event(), "VW": b.event()}
    return b.gate("or", [_covid_ward(b, host) for _ in range(wards)])


def large_tree(b: _Builder, banks: int, pairs: int, threshold: int) -> str:
    """``banks`` k-of-n votes over primary/backup pairs, OR-ed at the top.

    Each bank declares all its primaries before any of its backups, so a
    pair's two variables sit far apart in the order: the vote's BDD has
    to remember which primaries failed, which is what makes the kernel
    large.  Banks are declared one after another, so the kernel grows
    with the number of banks rather than exponentially in it.
    """
    primaries, backups = [], []
    for _ in range(banks):
        primaries.append([b.event() for _ in range(pairs)])
        backups.append([b.event() for _ in range(pairs)])
    bank_gates = []
    for bank in range(banks):
        units = [
            b.gate("and", (primaries[bank][i], backups[bank][i]))
            for i in range(pairs)
        ]
        bank_gates.append(b.gate(f"{threshold}of{pairs}", units))
    return b.gate("or", bank_gates)


_COVID_2 = ("covid-2or", PAPER, paper_tree, {"wards": 2})
_COVID_3 = ("covid-3or", PAPER, paper_tree, {"wards": 3})
_BANK_2 = ("bank-2x10", LARGE, large_tree, {"banks": 2, "pairs": 10, "threshold": 5})
_BANK_3 = ("bank-3x10", LARGE, large_tree, {"banks": 3, "pairs": 10, "threshold": 5})

#: (template id, class, builder, kwargs) per tree.  Paper-scale: two and
#: three COVID wards (about 2x apart in cold time); large: two and three
#: banks of 10 pairs (about 1.6x apart).  The 7 paper : 3 large mix puts
#: p50 inside the three-ward trees (ranks 0.4-0.7) and p90 inside the
#: three-bank trees (ranks 0.8-1.0), away from any class boundary.
TEMPLATES = (
    _COVID_2, _COVID_3, _COVID_2, _COVID_3, _COVID_2, _COVID_3, _COVID_2,
    _BANK_2, _BANK_3, _BANK_3,
)

#: churn-serve: same-size scenarios, so p50 and p90 fall in one template.
CHURN_TEMPLATES = (_BANK_2,) * 4


def build_corpus(seed: int, templates=TEMPLATES) -> List[CorpusTree]:
    """The corpus for ``seed``: one tree per template, in template order."""
    rng = random.Random(seed)
    corpus = []
    for index, (template, size_class, builder, kwargs) in enumerate(templates):
        b = _Builder(random.Random(rng.getrandbits(64)))
        top = builder(b, **kwargs)
        corpus.append(
            CorpusTree(
                name=f"t{index:02d}_{template}",
                size_class=size_class,
                template=template,
                text=b.text(top),
                top=top,
                events=len(b.events),
                gates=len(b.gates),
            )
        )
    return corpus


def corpus_sha256(corpus: Sequence[CorpusTree]) -> str:
    """Digest of every tree's name and Galileo text, in corpus order."""
    digest = hashlib.sha256()
    for tree in corpus:
        digest.update(tree.name.encode())
        digest.update(b"\0")
        digest.update(tree.text.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def battery(tree: CorpusTree) -> List[Dict[str, str]]:
    """The fixed query battery for one tree (scenario name = tree name).

    check/exists and probability on every tree; minimal cut sets only on
    paper-scale trees, whose MCS families stay small.
    """
    queries = [
        {"id": "exists", "kind": "check", "formula": f"exists {tree.top}"},
        {
            "id": "prob",
            "kind": "probability",
            "formula": tree.top,
        },
    ]
    if tree.size_class == PAPER:
        queries.insert(1, {"id": "mcs", "kind": "mcs", "element": tree.top})
    for query in queries:
        query["tree"] = tree.name
    return queries
