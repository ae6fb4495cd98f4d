"""The small example fault trees that appear in the paper.

* :func:`figure1_tree` — Fig. 1, the CP/R excerpt of the COVID-19 tree
  (two AND gates under an OR top);
* :func:`figure3_or_tree` — Fig. 3 / Examples 2-3, a single OR gate with
  two basic events;
* :func:`table1_tree` — the tree of Sec. VI / Table I: ``e1 = AND(e2, e3)``
  with ``e3 = OR(e4, e5)`` (reconstructed from the example/counterexample
  vectors, see DESIGN.md);
* :func:`example_vot_tree` — a VOT(2/3) specimen used throughout the tests.

The full COVID-19 tree of Fig. 2 lives in :mod:`repro.casestudy.covid`.
"""

from __future__ import annotations

from .builder import FaultTreeBuilder
from .tree import FaultTree


def figure1_tree() -> FaultTree:
    """Fig. 1: Existence of COVID-19 Pathogens/Reservoir.

    MCSs: {IW, H3}, {IT, H2}.
    MPSs: {IW, IT}, {IW, H2}, {H3, IT}, {H3, H2}.
    """
    return (
        FaultTreeBuilder()
        .basic_event("IW", "Infected worker joining the team")
        .basic_event("H3", "Detection error")
        .basic_event("IT", "Infected object used by the team")
        .basic_event("H2", "General disinfection error")
        .and_gate("CP", "IW", "H3", description="Existence of COVID-19 Pathogens")
        .and_gate("CR", "IT", "H2", description="Existence of COVID-19 Reservoir")
        .or_gate(
            "CP/R",
            "CP",
            "CR",
            description="Existence of COVID-19 Pathogens/Reservoir",
        )
        .build("CP/R")
    )


def figure3_or_tree() -> FaultTree:
    """Fig. 3: a single OR gate over ``e1`` and ``e2``.

    Used by the paper's Examples 2 and 3: for ``MCS(e_top)``, ``b = (0, 1)``
    satisfies, and AllSat yields exactly ``(0, 1)`` and ``(1, 0)``.
    """
    return (
        FaultTreeBuilder()
        .basic_events("e1", "e2")
        .or_gate("Top", "e1", "e2")
        .build("Top")
    )


def table1_tree() -> FaultTree:
    """The Sec. VI / Table I tree: ``e1 = AND(e2, OR(e4, e5))``.

    Vectors in Table I order the basic events ``(e2, e4, e5)``.
    MCSs of e1: {e2, e4}, {e2, e5};  MPSs of e1: {e2}, {e4, e5}.
    """
    return (
        FaultTreeBuilder()
        .basic_events("e2", "e4", "e5")
        .or_gate("e3", "e4", "e5")
        .and_gate("e1", "e2", "e3")
        .build("e1")
    )


def example_vot_tree() -> FaultTree:
    """A VOT(2/3) gate over three basic events (the paper's Def. 1
    GateTypes extension); MCSs are the three pairs."""
    return (
        FaultTreeBuilder()
        .basic_events("a", "b", "c")
        .vot_gate("V", 2, "a", "b", "c")
        .build("V")
    )
