"""Probabilistic importance measures (classical quantitative FTA).

These complement BFL's qualitative ``SUP`` operator with the standard
quantitative rankings (Birnbaum, improvement potential, Fussell-Vesely,
criticality), all computed from the same BDD used by the model checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from ..bdd.manager import BDDManager
from ..bdd.ordering import resolve_order
from ..ft.analysis import minimal_cut_sets
from ..ft.to_bdd import tree_to_bdd
from ..ft.tree import FaultTree
from .measure import bdd_probability, event_probabilities


@dataclass(frozen=True)
class ImportanceRow:
    """All measures for one basic event."""

    name: str
    probability: float
    birnbaum: float
    improvement_potential: float
    criticality: float
    fussell_vesely: float


def importance_table(
    tree: FaultTree,
    element: Optional[str] = None,
    overrides: Optional[Mapping[str, float]] = None,
) -> List[ImportanceRow]:
    """Compute every importance measure for every basic event.

    * Birnbaum: ``P(top | e failed) - P(top | e operational)`` — how much
      the event's state moves the top probability;
    * improvement potential: ``P(top) - P(top | e operational)``;
    * criticality: Birnbaum scaled by ``p(e) / P(top)`` — the probability
      the event is *the* critical one given system failure;
    * Fussell-Vesely: probability-weighted share of the MCSs containing
      the event (rare-event form).

    Rows are sorted by descending Birnbaum importance.

    All ``2n + 1`` probability queries (top plus two restrictions per
    event) run against one manager, so the kernel's weighted-evaluation
    cache shares every subgraph value between them — the restricted BDDs
    differ near the root but agree below, and only the new nodes are
    ever valued.
    """
    probabilities = event_probabilities(tree, overrides)
    manager = BDDManager(resolve_order(tree))
    root = tree_to_bdd(tree, manager, element)
    top_probability = bdd_probability(manager, root, probabilities)
    cuts = minimal_cut_sets(tree, element)

    rows: List[ImportanceRow] = []
    for name in tree.basic_events:
        p = probabilities[name]
        failed = bdd_probability(
            manager, manager.restrict(root, name, True), probabilities
        )
        operational = bdd_probability(
            manager, manager.restrict(root, name, False), probabilities
        )
        birnbaum = failed - operational
        improvement = top_probability - operational
        criticality = (
            birnbaum * p / top_probability if top_probability > 0 else 0.0
        )
        fv_numerator = 0.0
        for cut in cuts:
            if name not in cut:
                continue
            product = 1.0
            for member in cut:
                product *= probabilities[member]
            fv_numerator += product
        fussell_vesely = (
            fv_numerator / top_probability if top_probability > 0 else 0.0
        )
        rows.append(
            ImportanceRow(
                name=name,
                probability=p,
                birnbaum=birnbaum,
                improvement_potential=improvement,
                criticality=criticality,
                fussell_vesely=fussell_vesely,
            )
        )
    rows.sort(key=lambda row: (-row.birnbaum, row.name))
    return rows


def render_importance_table(rows: List[ImportanceRow]) -> str:
    """Fixed-width text table for reports and the CLI."""
    header = (
        f"{'event':12} {'p':>8} {'Birnbaum':>10} {'ImprPot':>10} "
        f"{'Crit':>8} {'F-V':>8}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.name:12} {row.probability:>8.4f} {row.birnbaum:>10.5f} "
            f"{row.improvement_potential:>10.5f} {row.criticality:>8.4f} "
            f"{row.fussell_vesely:>8.4f}"
        )
    return "\n".join(lines)
