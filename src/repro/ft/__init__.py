"""Fault-tree formalism (paper Sec. II): model, structure function,
qualitative analysis, BDD translation, Galileo I/O and generators."""

from .analysis import (
    is_cut_set,
    is_minimal_cut_set,
    is_minimal_path_set,
    is_path_set,
    iter_vectors,
    minimal_cut_sets,
    minimal_cut_sets_enum,
    minimal_path_sets,
    minimal_path_sets_enum,
    minimize_sets,
    structural_importance,
)
from .builder import FaultTreeBuilder
from .dual import dual_tree
from .edits import (
    Edit,
    EditError,
    EventAdd,
    EventRemove,
    GateSwap,
    SubtreeReplace,
    WeightChange,
    apply_edits,
    changed_elements_from_edits,
    edit_from_dict,
    edits_from_any,
    splice_site,
)
from .elements import BasicEvent, Gate, GateType
from .examples import (
    example_vot_tree,
    figure1_tree,
    figure3_or_tree,
    table1_tree,
)
from .galileo import dump, dumps, load, loads
from .modules import is_module, modularization_report, modules
from .simplify import simplification_stats, simplify
from .random_trees import RandomTreeConfig, random_tree
from .structure import evaluate_all, structure_function
from .to_bdd import TreeTranslator, tree_to_bdd
from .tree import FaultTree, StatusVector

__all__ = [
    "BasicEvent",
    "Edit",
    "EditError",
    "EventAdd",
    "EventRemove",
    "FaultTree",
    "FaultTreeBuilder",
    "Gate",
    "GateSwap",
    "GateType",
    "RandomTreeConfig",
    "StatusVector",
    "SubtreeReplace",
    "TreeTranslator",
    "WeightChange",
    "apply_edits",
    "changed_elements_from_edits",
    "dual_tree",
    "dump",
    "dumps",
    "edit_from_dict",
    "edits_from_any",
    "evaluate_all",
    "example_vot_tree",
    "figure1_tree",
    "figure3_or_tree",
    "is_cut_set",
    "is_minimal_cut_set",
    "is_minimal_path_set",
    "is_module",
    "is_path_set",
    "modularization_report",
    "modules",
    "iter_vectors",
    "load",
    "loads",
    "minimal_cut_sets",
    "minimal_cut_sets_enum",
    "minimal_path_sets",
    "minimal_path_sets_enum",
    "minimize_sets",
    "random_tree",
    "splice_site",
    "simplification_stats",
    "simplify",
    "structural_importance",
    "structure_function",
    "table1_tree",
    "tree_to_bdd",
]
