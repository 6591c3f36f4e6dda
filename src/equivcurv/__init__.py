"""Structural and regular equivalences of graphs and hypergraphs via
Ollivier-Ricci curvature and n-neighbourhood graphs, with exact arithmetic."""

from .core import (
    Bipartition,
    Graph,
    Hypergraph,
    Partition,
    parse_graph,
    parse_hypergraph,
)
from .equivalence import (
    EquivalenceWitness,
    HierarchyLevel,
    ee_lemma_check,
    hierarchy_level,
    is_regular_partition,
    is_strong_regular_partition,
    is_strong_structural,
    is_strong_structural_partition,
    is_structural_partition,
    is_weak_regular_partition,
    is_weak_structural,
    is_weak_structural_partition,
    structural_classes,
)
from .errors import (
    EquivCurvError,
    ParseError,
    PreconditionError,
    ResourceCapError,
    UnknownVertexError,
)
from .neighborhood import (
    NeighborhoodGraph,
    WalkMode,
    hyper_neighborhood_graph,
    inclusion_check,
    neighborhood_graph,
)
from .partitions import (
    ConstructionReport,
    RemovalSet,
    enumerate_removal_sets,
    regular_from_curvature_subcliques,
    regular_from_g2,
    regular_from_gn,
    regular_from_kcycle_removal,
    regular_from_triangle_removal,
    structural_from_curvature,
    weak_regular_from_h2,
    weak_regular_from_hn,
)
from .similarity import (
    CosineData,
    SimilarityReport,
    bounds_hold,
    cosine_similarity,
    curvature_bounds,
    similarity_report,
)
from .transport import (
    Coupling,
    CurvatureResult,
    Measure,
    SimilarityWalk,
    ee_measure,
    ee_orc,
    en_measure,
    en_orc,
    fraction_str,
    measures_equal,
    neighbor_measure,
    orc,
    wasserstein1,
)

__version__ = "0.1.0"
