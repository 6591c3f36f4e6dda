"""Structural and regular equivalences of graphs and hypergraphs via
Ollivier-Ricci curvature and n-neighbourhood graphs, with exact arithmetic.

Importing the package runs none of its modules: each public name below is
looked up in its module on first use (PEP 562), so a caller pays only for
the layers it touches.
"""

import importlib

_EXPORTS = {
    "core": (
        "Graph",
        "Hypergraph",
        "Partition",
        "parse_graph",
        "parse_hypergraph",
    ),
    "equivalence": (
        "EquivalenceWitness",
        "HierarchyLevel",
        "ee_lemma_check",
        "hierarchy_level",
        "is_regular_partition",
        "is_strong_regular_partition",
        "is_strong_structural",
        "is_strong_structural_partition",
        "is_structural_partition",
        "is_weak_regular_partition",
        "is_weak_structural",
        "is_weak_structural_partition",
        "structural_classes",
    ),
    "errors": (
        "EquivCurvError",
        "ParseError",
        "PreconditionError",
        "ResourceCapError",
        "UnknownVertexError",
    ),
    "neighborhood": (
        "NeighborhoodGraph",
        "WalkMode",
        "hyper_neighborhood_graph",
        "inclusion_check",
        "neighborhood_graph",
    ),
    "partitions": (
        "ConstructionReport",
        "RemovalSet",
        "enumerate_removal_sets",
        "regular_from_curvature_subcliques",
        "regular_from_g2",
        "regular_from_gn",
        "regular_from_kcycle_removal",
        "regular_from_triangle_removal",
        "structural_from_curvature",
        "weak_regular_from_h2",
        "weak_regular_from_hn",
    ),
    "similarity": (
        "CosineData",
        "SimilarityReport",
        "bounds_hold",
        "cosine_similarity",
        "curvature_bounds",
        "similarity_report",
        "similarity_reports",
    ),
    "transport": (
        "Coupling",
        "CurvatureResult",
        "Measure",
        "SimilarityWalk",
        "curvatures",
        "ee_measure",
        "ee_orc",
        "en_measure",
        "en_orc",
        "fraction_str",
        "neighbor_measure",
        "orc",
        "wasserstein1",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, read from its module; a submodule, imported."""
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
