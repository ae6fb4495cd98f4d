#!/usr/bin/env python3
"""Quantitative analysis — the paper's future-work extension, implemented.

The paper closes with: "it makes sense to extend BFL to model
probabilities ... system reliability, availability and mean time to
failure".  This example runs the quantitative layer on the COVID-19 tree:

1. top-event unreliability (exact BDD computation vs bounds);
2. PBFL-lite queries ``P(phi) |><| c`` over full BFL formulae —
   including evidence and MCS operators;
3. the importance-measure table (Birnbaum, criticality, Fussell-Vesely),
   which quantifies the qualitative Sec. VII findings (H1 and VW sit in
   every minimal cut set, so their criticality is 1.0).

Run with:  python examples/quantitative_analysis.py
"""

from repro.casestudy import BASIC_EVENT_DESCRIPTIONS, build_covid_tree
from repro.logic import parse
from repro.prob import (
    ProbabilityChecker,
    enumeration_probability,
    importance_table,
    min_cut_upper_bound,
    rare_event_approximation,
    render_importance_table,
)

#: Illustrative failure probabilities (the paper's tree is qualitative).
PROBABILITIES = {
    "IW": 0.05,   # infected worker joins
    "IT": 0.04,   # infected object in use
    "IS": 0.06,   # infected surface
    "PP": 0.30,   # physical proximity on a construction site
    "VW": 0.15,   # vulnerable worker on site
    "UT": 0.20,   # shared transport
    "AB": 0.10,   # air blowing
    "MV": 0.10,   # mechanical ventilation
    "H1": 0.10,   # procedures not respected
    "H2": 0.08,   # general disinfection error
    "H3": 0.12,   # detection error
    "H4": 0.08,   # object disinfection error
    "H5": 0.08,   # surface disinfection error
}


def main():
    tree = build_covid_tree()
    checker = ProbabilityChecker(tree, overrides=PROBABILITIES)

    exact = checker.unreliability()
    reference = enumeration_probability(tree, overrides=PROBABILITIES)
    rare = rare_event_approximation(tree, overrides=PROBABILITIES)
    mcub = min_cut_upper_bound(tree, overrides=PROBABILITIES)
    print("Top-event unreliability P(IWoS):")
    print(f"   exact (BDD Shannon)          {exact:.8f}")
    print(f"   exact (2^13 enumeration)     {reference:.8f}")
    print(f"   min-cut upper bound          {mcub:.8f}")
    print(f"   rare-event approximation     {rare:.8f}")
    print()

    print("PBFL-lite queries:")
    queries = [
        "P(IWoS) <= 0.001",
        "P(MoT) >= 0.05",
        "P(IWoS[H1 := 0]) = 0",          # respecting procedures prevents TLE
        "P(MCS(IWoS) & H4) <= 0.0001",   # H4-involving minimal cuts are rare
    ]
    for text in queries:
        outcome = checker.evaluate(parse(text))
        verdict = "holds" if outcome.holds else "fails"
        print(f"   {text:35} P = {outcome.value:.6g}  -> {verdict}")
    print()

    print("Conditional risk (evidence lifted to probabilities):")
    for given in ("H1", "H1 & VW", "H1 & VW & IW"):
        print(
            f"   P(IWoS | {given:12}) = "
            f"{checker.conditional('IWoS', given):.6f}"
        )
    print()

    print("Importance measures:")
    rows = importance_table(tree, overrides=PROBABILITIES)
    print(render_importance_table(rows))
    print()
    top = rows[0]
    print(
        f"Most Birnbaum-important event: {top.name} "
        f"({BASIC_EVENT_DESCRIPTIONS[top.name]})"
    )


if __name__ == "__main__":
    main()
