"""Deciding and certifying the three-perfect-matching intersection
property on matching covered graphs."""

from .budget import DEFAULT_BUDGET, Budget, BudgetExhausted, as_budget
from .certificates import (
    ADMISSIBLE,
    INELIGIBLE,
    NOT_ADMISSIBLE,
    UNKNOWN,
    CertificateFormatError,
    StructuralCertificate,
    TripleCertificate,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    verify_certificate,
    verify_triple,
)
from .formats import (
    GraphFormatError,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .gallai import GallaiEdmonds, gallai_edmonds, verify_decomposition
from .graph import (
    Graph,
    connected_components,
    is_connected,
    is_k_connected,
    make_graph,
)
from .matching import (
    count_perfect_matchings,
    enumerate_perfect_matchings,
    exposable_vertices,
    is_factor_critical,
    is_matching,
    is_matching_covered,
    is_perfect_matching,
    matched_vertices,
    max_matching,
    max_matching_size,
    perfect_matching_with_forced,
)
from .skeleton import (
    SkeletonExtractionError,
    StructuralSplit,
    color_cubic_3,
    structural_witness,
    triple_from_structural,
    verify_structural,
)
from .twofactor import factor_cycles, find_even_2factor
from .admissible import (
    check,
    find_triple_direct,
    structural_check,
)
from . import generators

__version__ = "0.1.0"

__all__ = [
    "ADMISSIBLE",
    "INELIGIBLE",
    "NOT_ADMISSIBLE",
    "UNKNOWN",
    "Budget",
    "BudgetExhausted",
    "as_budget",
    "CertificateFormatError",
    "DEFAULT_BUDGET",
    "GallaiEdmonds",
    "Graph",
    "GraphFormatError",
    "SkeletonExtractionError",
    "StructuralCertificate",
    "StructuralSplit",
    "TripleCertificate",
    "Verdict",
    "certificate_from_json",
    "certificate_to_json",
    "check",
    "color_cubic_3",
    "connected_components",
    "count_perfect_matchings",
    "enumerate_perfect_matchings",
    "exposable_vertices",
    "factor_cycles",
    "find_even_2factor",
    "find_triple_direct",
    "gallai_edmonds",
    "generators",
    "is_connected",
    "is_factor_critical",
    "is_k_connected",
    "is_matching",
    "is_matching_covered",
    "is_perfect_matching",
    "make_graph",
    "matched_vertices",
    "max_matching",
    "max_matching_size",
    "parse_edge_list",
    "parse_graph6",
    "perfect_matching_with_forced",
    "structural_check",
    "structural_witness",
    "triple_from_structural",
    "verify_certificate",
    "verify_decomposition",
    "verify_structural",
    "verify_triple",
    "write_edge_list",
    "write_graph6",
]
