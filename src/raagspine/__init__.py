"""Whitehead-partition combinatorics for RAAG defining graphs.

Given a finite simplicial graph, this package enumerates its Whitehead
partitions, decides compatibility, computes the principal rank M(L) and the
spine dimension M(V) by exact clique search, evaluates the graph predicates
(conditions 1 and 2, spiky, barbed, P(k)), detects hugged partitions, and
builds and retracts the finite cube complex of compatible-set pairs at a
single Salvetti vertex.
"""

from .graph import SimplicialGraph, VertexClassification, parse_graph, graph_to_text
from .partitions import (
    Partition,
    all_partitions,
    enumerate_partitions,
    make_partition,
    whitehead_images,
)
from .compat import CompatibilityGraph, compatibility_graph, is_adjacent, is_compatible
from .search import (
    CapExceededError,
    MaxSetResult,
    enumerate_compatible_sets,
    is_inextendible,
    max_compatible,
)
from .conditions import (
    ConditionReport,
    check_condition1,
    check_condition2,
    condition_report,
    is_barbed,
    is_spiky,
    p_k_value,
)
from .hugging import (
    HugOracle,
    HugWitness,
    cube_survives,
    is_hugged_in,
    verify_hug_compat,
    verify_oversize_hugged,
    verify_replacement,
)
from .retraction import (
    StarComplex,
    StructuralAssertionError,
    build_star,
    complex_stats,
    crosscheck_survivors,
    retract,
)
from .report import AnalysisReport, analyze

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CapExceededError",
    "CompatibilityGraph",
    "ConditionReport",
    "HugOracle",
    "HugWitness",
    "MaxSetResult",
    "Partition",
    "SimplicialGraph",
    "StarComplex",
    "StructuralAssertionError",
    "VertexClassification",
    "all_partitions",
    "analyze",
    "build_star",
    "check_condition1",
    "check_condition2",
    "compatibility_graph",
    "complex_stats",
    "condition_report",
    "crosscheck_survivors",
    "cube_survives",
    "enumerate_compatible_sets",
    "enumerate_partitions",
    "graph_to_text",
    "is_adjacent",
    "is_barbed",
    "is_compatible",
    "is_hugged_in",
    "is_inextendible",
    "is_spiky",
    "make_partition",
    "max_compatible",
    "p_k_value",
    "parse_graph",
    "retract",
    "verify_hug_compat",
    "verify_oversize_hugged",
    "verify_replacement",
    "whitehead_images",
]
