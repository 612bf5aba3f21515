"""chibind: exhaustive desk-scale verification and certified colouring for
hereditary graph classes defined by small forbidden induced subgraphs."""

from .errors import PreconditionError, SearchExhaustedError, StructureAssertionError
from .graphs import (
    BindingError,
    CapacityError,
    Graph,
    GraphError,
    VertexSet,
    complement,
    components,
    disjoint_union,
    distances_from,
    from_edge_list,
    induced,
    is_anticomplete_to,
    is_clique,
    is_complete_to,
    is_connected,
    is_independent,
    join,
)
from .invariants import (
    Coloring,
    PerfectDivision,
    chromatic_number,
    clique_number,
    find_perfect_division,
    independence_number,
    is_perfectly_divisible,
    is_proper_coloring,
)
from .patterns import (
    Embedding,
    Pattern,
    PATTERN_CATALOG,
    find_induced,
    find_odd_antihole,
    find_odd_hole,
    is_free,
    is_perfect,
    odd_antihole_not_two_cliques,
    pattern,
)
from .colorers import (
    BoundCertificate,
    color_divisible,
    color_k1_union_k3_free,
    color_p5_k1_2k2,
    color_p5_k1_k1k3,
    color_p5_k23,
    color_sumner,
    color_wagon_2k2_free,
)
from .enumeration import (
    canonical_form,
    canonical_key,
    decode_graph6,
    encode_graph6,
    representatives,
)
from .harness import analyze_one, color_one, verify
from .structure import (
    CutsetReport,
    FiveHoleDecomposition,
    decompose_five_hole,
    find_clique_cutset,
    find_dominating_clique_or_p3,
    find_five_hole,
    find_homogeneous_set,
    is_bad_pair,
    minimal_cutsets,
)

__version__ = "0.1.0"
