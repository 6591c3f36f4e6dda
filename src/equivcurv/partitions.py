"""Constructive regular and structural partitions from neighbourhood graphs.

Each construction emits a ConstructionReport carrying the component partition,
the named preconditions it checked, and a post-hoc verification verdict. When
a precondition fails but the input is still processable, the construction
emits the partition anyway and lets the verdict speak (the degree conditions
are sufficient, not necessary). The structural and curvature-subclique
constructions decide from neighbour sets alone and build no neighbourhood
graph. The others take one cap, `path_cap` on the order of the graph they
build; that build and every cycle or removal-set enumeration spend one
default work budget each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .core import DEFAULT_WORK_BUDGET, Budget, Graph, Hypergraph, Partition
from .equivalence import (
    is_regular_partition,
    is_weak_regular_partition,
    structural_classes,
)
from .errors import PreconditionError
from .neighborhood import DEFAULT_PATH_CAP, hyper_neighborhood_graph, neighborhood_graph


@dataclass(frozen=True)
class RemovalSet:
    """Graph edges to delete, as vertex-id pairs."""

    edges: frozenset

    @classmethod
    def of(cls, pairs):
        return cls(frozenset(frozenset(p) for p in pairs))

    def __len__(self):
        return len(self.edges)

    def pairs(self):
        return [tuple(sorted(e)) for e in sorted(self.edges, key=sorted)]


@dataclass
class ConstructionReport:
    partition: Partition
    method: str
    preconditions: list  # (name, met) pairs
    verified: bool
    witness: dict | None = None
    notes: list = field(default_factory=list)

    @property
    def preconditions_met(self):
        return all(met for _, met in self.preconditions)

    def to_json(self):
        out = {
            "method": self.method,
            "preconditions": [
                {"name": name, "met": met} for name, met in self.preconditions
            ],
            "verified": self.verified,
            "blocks": [list(b) for b in self.partition.blocks],
        }
        if self.witness is not None:
            out["violation"] = dict(self.witness)
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def _report(verify, structure, partition, method, preconditions, notes=()):
    """Construction report whose verdict and witness come from `verify`."""
    witness = verify(structure, partition)
    return ConstructionReport(
        partition=partition,
        method=method,
        preconditions=preconditions,
        verified=witness.verdict,
        witness=witness.violation,
        notes=list(notes),
    )


def _require(structure, disconnected=None):
    """Refuse loops; with a message, also refuse a disconnected input."""
    if structure.has_loops():
        raise PreconditionError(
            "construction requires a loop-free graph"
            if isinstance(structure, Graph)
            else "construction requires |e| >= 2 for all hyperedges"
        )
    if disconnected is not None and not structure.is_connected():
        raise PreconditionError(disconnected)


def _components_report(structure, base, n, method, preconditions, path_cap,
                       two_note=False):
    """Report the components of base's G_n (H_n) as classes of `structure`.

    A graph is verified as a regular partition, a hypergraph as a weak
    regular one. With `two_note`, two components get the maximality note.
    """
    if isinstance(base, Graph):
        built = neighborhood_graph(base, n, path_cap=path_cap)
        verify, notion = is_regular_partition, "regular"
    else:
        built = hyper_neighborhood_graph(base, n, path_cap=path_cap)
        verify, notion = is_weak_regular_partition, "weak regular"
    partition = built.graph.connected_components()
    notes = []
    if two_note and len(partition.blocks) == 2:
        notes.append(
            f"two components: maximal {notion} partition below the trivial one"
        )
    return _report(verify, structure, partition, method, preconditions, notes)


def regular_from_g2(g: Graph, path_cap: int = DEFAULT_PATH_CAP) -> ConstructionReport:
    """Components of G_2 as regular classes of a connected loop-free graph."""
    _require(g, "graph must be connected; apply per component")
    return _components_report(
        g, g, 2, "g2-components", [("connected", True)], path_cap, two_note=True
    )


def regular_from_gn(
    g: Graph, n: int, path_cap: int = DEFAULT_PATH_CAP
) -> ConstructionReport:
    """Components of G_n as regular classes; sound when min degree >= 2."""
    _require(g)
    preconditions = [("min-degree-2", g.min_degree() >= 2)]
    return _components_report(g, g, n, "gn-components", preconditions, path_cap)


def structural_from_curvature(g: Graph) -> ConstructionReport:
    """Structural classes as maximal curvature-1 complete subgraphs of G_2.

    Classes are identical-neighbourhood groups; ungrouped vertices stay
    singletons. No G_2 is built: in a connected loop-free graph, two distinct
    vertices with one neighbour set share a neighbour w distinct from both,
    so a-w-b is a simple 2-step path and every class is complete in G_2.
    """
    _require(g, "graph must be connected; apply per component")
    partition = structural_classes(g)
    preconditions = [("connected", True)]
    return _report(
        is_regular_partition, g, partition, "curvature-structural", preconditions
    )


def regular_from_curvature_subcliques(g: Graph, chosen) -> ConstructionReport:
    """Chosen curvature-1 sub-cliques of G_2 as blocks, rest singletons.

    Each chosen set must be complete in G_2 with pairwise curvature 1, i.e.
    all its vertices share one neighbour set in g. In a loop-free graph, two
    distinct vertices with one neighbour set are joined in G_2 exactly when
    that set is not empty, so no G_2 is built.
    """
    _require(g)
    chosen = [tuple(sorted(c, key=g._idx)) for c in chosen]
    taken = set()
    for block in chosen:
        for v in block:
            if v in taken:
                raise PreconditionError(f"vertex {v!r} appears in two chosen sets")
            taken.add(v)
    for block in chosen:
        for a, b in combinations(block, 2):
            if g.neighbors(a) != g.neighbors(b):
                raise PreconditionError(
                    f"pair ({a!r}, {b!r}) does not have curvature 1"
                )
            if not g.degree(a):
                raise PreconditionError(
                    f"pair ({a!r}, {b!r}) is not an edge of G_2"
                )
    blocks = list(chosen)
    blocks.extend((v,) for v in g.vertices if v not in taken)
    blocks.sort(key=lambda b: g.index[b[0]])
    partition = Partition(blocks)
    preconditions = [("curvature-1-subcliques", True)]
    return _report(
        is_regular_partition, g, partition, "curvature-subcliques", preconditions
    )


def _validate_removal_against_cycles(cycles, removal: RemovalSet, what):
    removed = removal.edges
    for cycle in cycles:
        k = len(cycle)
        cycle_edges = {
            frozenset((cycle[i], cycle[(i + 1) % k])) for i in range(k)
        }
        if len(cycle_edges & removed) > 1:
            raise PreconditionError(
                f"removal set hits {what} {cycle!r} more than once"
            )


def regular_from_triangle_removal(
    g: Graph, removal: RemovalSet, path_cap: int = DEFAULT_PATH_CAP
) -> ConstructionReport:
    """Components of (g - removal)_2 as regular classes of the original g.

    The removal set may delete at most one edge per triangle of g.
    """
    _require(g)
    _validate_removal_against_cycles(g.triangles(), removal, "triangle")
    pruned = g.without_edges(removal.pairs())
    return _components_report(
        g, pruned, 2, "triangle-removal", [("one-edge-per-triangle", True)], path_cap
    )


def regular_from_kcycle_removal(
    g: Graph, k: int, removal: RemovalSet, path_cap: int = DEFAULT_PATH_CAP
) -> ConstructionReport:
    """Components of (g - removal)_{k-1} as regular classes of the original g.

    Requires a connected graph with min degree >= 2, at most one removed edge
    per k-cycle, and min degree >= 2 surviving the removal. The k-cycles and
    the G_{k-1} build are each enumerated under the default work budget, and
    the build also under `path_cap` on k - 1.
    """
    if k < 3:
        raise PreconditionError("k-cycle removal requires k >= 3")
    _require(g, "graph must be connected")
    if g.min_degree() < 2:
        raise PreconditionError("graph must have min degree >= 2")
    _validate_removal_against_cycles(g.k_cycles(k), removal, f"{k}-cycle")
    pruned = g.without_edges(removal.pairs())
    if pruned.min_degree() < 2:
        raise PreconditionError("removal creates a vertex of degree < 2")
    preconditions = [
        ("connected", True),
        ("min-degree-2", True),
        ("one-edge-per-cycle", True),
        ("pruned-min-degree-2", True),
    ]
    return _components_report(
        g, pruned, k - 1, "kcycle-removal", preconditions, path_cap
    )


def weak_regular_from_h2(
    h: Hypergraph, path_cap: int = DEFAULT_PATH_CAP
) -> ConstructionReport:
    """Components of H_2 as weak regular classes of a connected hypergraph."""
    _require(h, "hypergraph must be connected; apply per component")
    return _components_report(
        h, h, 2, "h2-components", [("connected", True)], path_cap, two_note=True
    )


def weak_regular_from_hn(
    h: Hypergraph, n: int, path_cap: int = DEFAULT_PATH_CAP
) -> ConstructionReport:
    """Components of H_n; sound when every vertex has >= 2 neighbours."""
    _require(h)
    preconditions = [
        ("min-2-neighbours", all(len(h.neighbors(v)) >= 2 for v in h.vertices))
    ]
    return _components_report(h, h, n, "hn-components", preconditions, path_cap)


def enumerate_removal_sets(g: Graph, max_size: int = 3):
    """All triangle-valid removal sets up to `max_size` edges, for exploration.

    Exponential in `max_size`. Each candidate set costs 1 + (number of
    triangles) units of a removal-set `Budget` of the default work budget.
    """
    edges = [tuple(e) for e in g.edge_ids() if e[0] != e[1]]
    triangles = g.triangles()
    charge = Budget("removal-set", DEFAULT_WORK_BUDGET).charge
    out = []
    for size in range(max_size + 1):
        for combo in combinations(edges, size):
            charge(1 + len(triangles))
            removal = RemovalSet.of(combo)
            try:
                _validate_removal_against_cycles(triangles, removal, "triangle")
            except PreconditionError:
                continue
            out.append(removal)
    return out
