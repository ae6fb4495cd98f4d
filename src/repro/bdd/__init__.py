"""From-scratch ROBDD engine (the paper's Sec. V substrate).

Public surface:

* :class:`BDDManager` / :class:`Ref` — complement-edge reduced ordered
  BDDs (integer-handle kernel) with Apply, Restrict, Compose, Rename and
  inspection helpers; ``Node`` remains as a deprecated alias of ``Ref``;
* :mod:`quantify <repro.bdd.quantify>` — existential/universal quantification
  (textbook and one-pass variants);
* :mod:`allsat <repro.bdd.allsat>` — cube and total-model enumeration
  (Algorithm 3);
* :mod:`minimal <repro.bdd.minimal>` — minimal/maximal satisfying vectors
  (the MCS/MPS machinery of Algorithm 1: the minimal-solutions recursion,
  and the paper's primed-relation construction as its reference);
* :mod:`ordering <repro.bdd.ordering>` / :mod:`reorder <repro.bdd.reorder>` —
  static variable-ordering heuristics (sifting seeds), manager-to-manager
  transfer, and Rudell sifting on the in-place swap kernel (the
  historical rebuild-based search survives as ``sift_rebuild``);
* :mod:`dot <repro.bdd.dot>` — Graphviz export.
"""

from .allsat import all_models, any_model, count_cubes, iter_cubes, iter_models
from .dot import to_dot
from .manager import (
    BDDManager,
    OperationCacheStats,
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
)
from .minimal import (
    maximal_assignments,
    maximal_solutions,
    minimal_assignments,
    minimal_solutions,
    prime_name,
)
from .ordering import (
    DEFAULT_ORDER,
    HEURISTICS,
    bfs_order,
    dfs_order,
    random_order,
    resolve_order,
    weight_order,
)
from .quantify import exists, exists_textbook, forall, is_satisfiable, is_tautology
from .ref import TERMINAL_LEVEL, Node, Ref
from .reorder import sift, sift_rebuild, transfer

__all__ = [
    "BDDManager",
    "Node",
    "Ref",
    "TERMINAL_LEVEL",
    "OperationCacheStats",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "all_models",
    "any_model",
    "count_cubes",
    "iter_cubes",
    "iter_models",
    "to_dot",
    "maximal_assignments",
    "maximal_solutions",
    "minimal_assignments",
    "minimal_solutions",
    "prime_name",
    "DEFAULT_ORDER",
    "HEURISTICS",
    "bfs_order",
    "dfs_order",
    "random_order",
    "resolve_order",
    "weight_order",
    "exists",
    "exists_textbook",
    "forall",
    "is_satisfiable",
    "is_tautology",
    "sift",
    "sift_rebuild",
    "transfer",
]
