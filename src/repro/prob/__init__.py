"""Quantitative extension (the paper's future work #1): probabilities,
importance measures and PFL queries over BFL formulae, served by the
kernel's weighted-evaluation pass."""

from .importance import ImportanceRow, importance_table, render_importance_table
from .measure import (
    PROBABILITY_RTOL,
    MissingProbabilityError,
    ZeroProbabilityEvidenceError,
    bdd_probability,
    bdd_probability_many,
    conditional_probability,
    enumeration_probability,
    event_probabilities,
    min_cut_upper_bound,
    probabilities_agree,
    rare_event_approximation,
    recursive_probability,
)
from .queries import ProbabilityChecker, ProbabilityOutcome

__all__ = [
    "PROBABILITY_RTOL",
    "ImportanceRow",
    "MissingProbabilityError",
    "ProbabilityChecker",
    "ProbabilityOutcome",
    "ZeroProbabilityEvidenceError",
    "bdd_probability",
    "bdd_probability_many",
    "conditional_probability",
    "enumeration_probability",
    "event_probabilities",
    "importance_table",
    "min_cut_upper_bound",
    "probabilities_agree",
    "rare_event_approximation",
    "recursive_probability",
    "render_importance_table",
]
