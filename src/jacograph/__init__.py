"""Jaco graphs: incidence-rule construction, structural invariants, and
exact chromatic-sum statistics.

A Jaco graph on vertices v1..vn, driven by an incidence polynomial
f(x) = a*x^2 + b*x + c, has the arc (v_i, v_j) for i < j exactly when
i + f(i) - indeg(i) >= j.  This package builds the graphs in an
interval-compressed O(n) form, computes their invariants (Jaconian set,
Hope subgraph, completeness thresholds), and performs exact minimum- and
maximum-sum colouring analysis with rational mean/variance statistics,
including braided complete graphs.
"""

from .braided import (
    BraidedString,
    complete_graph_stats,
    mu_max_two_block,
    mu_max_two_block_superseded,
    mu_min_two_block,
    realize,
)
from .builder import (
    JacoGraph,
    arcs,
    build,
    root_stream,
)
from .chroma import (
    ChromaticReport,
    ProperColouring,
    SimpleGraph,
    chroma_report,
    chromatic_number,
    chromatic_stats,
    colour_sum,
    min_sum_colouring,
    reverse_colouring,
    underlying_graph,
)
from .errors import (
    ArcBudgetExceededError,
    ArithmeticOverflowError,
    HopeNotCompleteError,
    InvalidBraidError,
    InvalidOrderError,
    JacoError,
    OrderTooLargeError,
    PolynomialParseError,
    SearchBudgetExceededError,
)
from .incidence import (
    FamilyClass,
    IncidencePolynomial,
    classify,
    evaluate,
    format_polynomial,
    forward_difference_bound,
    parse,
)
from .invariants import (
    ConstructionRow,
    InvariantReport,
    completeness_threshold,
    component_decomposition,
    construction_table,
    hope_subgraph,
    jaconian,
    smallest_with_max_degree,
    underlying_degrees,
)

__version__ = "0.1.0"

__all__ = [
    "ArcBudgetExceededError",
    "ArithmeticOverflowError",
    "BraidedString",
    "ChromaticReport",
    "ConstructionRow",
    "FamilyClass",
    "HopeNotCompleteError",
    "IncidencePolynomial",
    "InvalidBraidError",
    "InvalidOrderError",
    "InvariantReport",
    "JacoError",
    "JacoGraph",
    "OrderTooLargeError",
    "PolynomialParseError",
    "ProperColouring",
    "SearchBudgetExceededError",
    "SimpleGraph",
    "arcs",
    "build",
    "chroma_report",
    "chromatic_number",
    "chromatic_stats",
    "classify",
    "colour_sum",
    "complete_graph_stats",
    "completeness_threshold",
    "component_decomposition",
    "construction_table",
    "evaluate",
    "format_polynomial",
    "forward_difference_bound",
    "hope_subgraph",
    "jaconian",
    "min_sum_colouring",
    "mu_max_two_block",
    "mu_max_two_block_superseded",
    "mu_min_two_block",
    "parse",
    "realize",
    "reverse_colouring",
    "root_stream",
    "smallest_with_max_degree",
    "underlying_degrees",
    "underlying_graph",
]
