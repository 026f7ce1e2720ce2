"""Friendly and internal partitions of projective plane incidence graphs."""

from .constructions import (
    OvalData,
    Partition,
    classify_conic,
    construct_algebraic_1mod4,
    construct_algebraic_3mod4,
    construct_baer_partition,
    construct_combinatorial,
    construct_denniston,
    construct_even,
    construct_oval,
    verify_maximal_arc,
)
from .fields import Field, field_of_order, least_irreducible, make_field
from .graphs import Graph
from .plane import (
    Plane,
    baer_decomposition,
    incidence_graph,
    plane_of_order,
    singer_cycle,
    verify_subplane,
)
from .search import (
    AnnealParams,
    SearchResult,
    anneal_search,
    brute_force_exists,
    exhaustive_exists,
    exhaustive_max_intimacy,
)
from .spectral import (
    MixingBound,
    SpectralReport,
    check_mixing,
    edges_between,
    intimacy_upper_bound,
    mixing_bound,
    parity_intimacy_bound,
    singular_spectrum,
)
from .verify import MarginReport, is_internal, is_strict, margins

__version__ = "0.1.0"

__all__ = [
    "AnnealParams",
    "Field",
    "Graph",
    "MarginReport",
    "MixingBound",
    "OvalData",
    "Partition",
    "Plane",
    "SearchResult",
    "SpectralReport",
    "anneal_search",
    "baer_decomposition",
    "brute_force_exists",
    "check_mixing",
    "classify_conic",
    "construct_algebraic_1mod4",
    "construct_algebraic_3mod4",
    "construct_baer_partition",
    "construct_combinatorial",
    "construct_denniston",
    "construct_even",
    "construct_oval",
    "edges_between",
    "exhaustive_exists",
    "exhaustive_max_intimacy",
    "field_of_order",
    "incidence_graph",
    "intimacy_upper_bound",
    "is_internal",
    "is_strict",
    "least_irreducible",
    "make_field",
    "margins",
    "mixing_bound",
    "parity_intimacy_bound",
    "plane_of_order",
    "singer_cycle",
    "singular_spectrum",
    "verify_maximal_arc",
    "verify_subplane",
    "__version__",
]
