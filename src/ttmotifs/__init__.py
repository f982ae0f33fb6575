"""Packings and decompositions of transitive tournaments into two-arc motifs.

The library answers, constructively and with an independent exact
search as cross-check, how many arc-disjoint chains (a -> b -> c),
colliders (a -> c <- b), or forks (b <- a -> c) fit into the transitive
tournament TT_n, and how TT_n splits completely into such motifs when
its arc count allows it.
"""

from .analysis import (
    PackingNumberTable,
    capacity_sum,
    center_capacity,
    is_admissible,
    mixed_counts,
    packing_number,
    packing_number_table,
)
from .constructions import (
    STRATEGIES,
    construct_chain_max,
    construct_collider_max,
    construct_fork_max,
    construct_mixed,
)
from .core import (
    CHAIN,
    COLLIDER,
    COVERAGE_GAP,
    DUPLICATE_ARC,
    FOREIGN_ARC,
    FORK,
    MISCLASSIFIED_MOTIF,
    MOTIF_KINDS,
    Arc,
    Motif,
    MotifCollection,
    MotifCounts,
    TransitiveTournament,
    VerificationReport,
    Violation,
    chain,
    classify_arcs,
    collider,
    fork,
    motif_arcs,
    motif_center,
    verify,
)
from .diagram import Diagram
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
