"""Packings and decompositions of transitive tournaments into two-arc motifs.

The library answers, constructively and with an independent exact
search as cross-check, how many arc-disjoint chains (a -> b -> c),
colliders (a -> c <- b), or forks (b <- a -> c) fit into the transitive
tournament TT_n, and how TT_n splits completely into such motifs when
its arc count allows it.
"""

from .analysis import (
    COVERAGE_GAP,
    DUPLICATE_ARC,
    FOREIGN_ARC,
    MISCLASSIFIED_MOTIF,
    PackingNumberTable,
    VerificationReport,
    Violation,
    capacity_sum,
    center_capacity,
    is_admissible,
    mixed_counts,
    packing_number,
    packing_number_table,
    verify,
)
from .constructions import (
    STRATEGIES,
    MotifCollection,
    MotifCounts,
    construct_chain_max,
    construct_collider_max,
    construct_fork_max,
    construct_mixed,
)
from .core import (
    CHAIN,
    COLLIDER,
    FORK,
    MOTIF_KINDS,
    Arc,
    Motif,
    TransitiveTournament,
    chain,
    classify_arcs,
    collider,
    fork,
    motif_arcs,
    motif_center,
)
from .diagram import Cell, Diagram
from .oracle import (
    OracleResult,
    SearchBudget,
    max_p3_packing_undirected,
    max_packing,
    pure_decomposition_exists,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "CHAIN",
    "COLLIDER",
    "COVERAGE_GAP",
    "Cell",
    "DUPLICATE_ARC",
    "Diagram",
    "FOREIGN_ARC",
    "FORK",
    "MISCLASSIFIED_MOTIF",
    "MOTIF_KINDS",
    "Motif",
    "MotifCollection",
    "MotifCounts",
    "OracleResult",
    "PackingNumberTable",
    "STRATEGIES",
    "SearchBudget",
    "TransitiveTournament",
    "VerificationReport",
    "Violation",
    "capacity_sum",
    "center_capacity",
    "chain",
    "classify_arcs",
    "collider",
    "construct_chain_max",
    "construct_collider_max",
    "construct_fork_max",
    "construct_mixed",
    "fork",
    "is_admissible",
    "max_p3_packing_undirected",
    "max_packing",
    "mixed_counts",
    "motif_arcs",
    "motif_center",
    "packing_number",
    "packing_number_table",
    "pure_decomposition_exists",
    "verify",
]
