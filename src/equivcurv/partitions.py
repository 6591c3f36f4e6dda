"""Constructive regular and structural partitions from neighbourhood graphs.

Each construction emits a ConstructionReport carrying the component partition,
the named preconditions it checked, and a post-hoc verification verdict. When
a precondition fails but the input is still processable, the construction
emits the partition anyway and lets the verdict speak (the degree conditions
are sufficient, not necessary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .core import Graph, Hypergraph, Partition
from .equivalence import (
    is_regular_partition,
    is_weak_regular_partition,
    structural_classes,
)
from .errors import PreconditionError, ResourceCapError
from .neighborhood import WalkMode, hyper_neighborhood_graph, neighborhood_graph


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


def regular_from_g2(g: Graph, **nbh_kwargs) -> ConstructionReport:
    """Components of G_2 as regular classes of a connected loop-free graph."""
    if g.has_loops():
        raise PreconditionError("construction requires a loop-free graph")
    if not g.is_connected():
        raise PreconditionError("graph must be connected; apply per component")
    g2 = neighborhood_graph(g, 2, WalkMode.PATH, **nbh_kwargs).graph
    partition = g2.connected_components()
    notes = []
    if len(partition.blocks) == 2:
        notes.append(
            "two components: maximal regular partition below the trivial one"
        )
    preconditions = [("connected", True)]
    return _report(
        is_regular_partition, g, partition, "g2-components", preconditions, notes
    )


def regular_from_gn(g: Graph, n: int, **nbh_kwargs) -> ConstructionReport:
    """Components of G_n as regular classes; sound when min degree >= 2."""
    if g.has_loops():
        raise PreconditionError("construction requires a loop-free graph")
    gn = neighborhood_graph(g, n, WalkMode.PATH, **nbh_kwargs).graph
    partition = gn.connected_components()
    preconditions = [("min-degree-2", g.min_degree() >= 2)]
    return _report(is_regular_partition, g, partition, "gn-components", preconditions)


def structural_from_curvature(g: Graph, **nbh_kwargs) -> ConstructionReport:
    """Structural classes as maximal curvature-1 complete subgraphs of G_2.

    Classes are computed as identical-neighbourhood groups and cross-checked
    for completeness inside G_2; ungrouped vertices stay singletons.
    """
    if g.has_loops():
        raise PreconditionError("construction requires a loop-free graph")
    if not g.is_connected():
        raise PreconditionError("graph must be connected; apply per component")
    partition = structural_classes(g)
    g2 = neighborhood_graph(g, 2, WalkMode.PATH, **nbh_kwargs).graph
    for block in partition.blocks:
        for a, b in combinations(block, 2):
            if not g2.has_edge(a, b):
                raise PreconditionError(
                    f"structural class {block!r} is not complete in G_2"
                )
    preconditions = [("connected", True)]
    return _report(
        is_regular_partition, g, partition, "curvature-structural", preconditions
    )


def regular_from_curvature_subcliques(
    g: Graph, chosen, **nbh_kwargs
) -> ConstructionReport:
    """Chosen curvature-1 sub-cliques of G_2 as blocks, rest singletons.

    Each chosen set must be complete in G_2 with pairwise curvature 1, i.e.
    all its vertices share one neighbour set in g.
    """
    if g.has_loops():
        raise PreconditionError("construction requires a loop-free graph")
    chosen = [tuple(sorted(c, key=g.index.__getitem__)) for c in chosen]
    taken = set()
    for block in chosen:
        for v in block:
            if v in taken:
                raise PreconditionError(f"vertex {v!r} appears in two chosen sets")
            taken.add(v)
    g2 = neighborhood_graph(g, 2, WalkMode.PATH, **nbh_kwargs).graph
    for block in chosen:
        for a, b in combinations(block, 2):
            if g.neighbors(a) != g.neighbors(b):
                raise PreconditionError(
                    f"pair ({a!r}, {b!r}) does not have curvature 1"
                )
            if not g2.has_edge(a, b):
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
    g: Graph, removal: RemovalSet, **nbh_kwargs
) -> ConstructionReport:
    """Components of (g - removal)_2 as regular classes of the original g.

    The removal set may delete at most one edge per triangle of g.
    """
    if g.has_loops():
        raise PreconditionError("construction requires a loop-free graph")
    _validate_removal_against_cycles(g.triangles(), removal, "triangle")
    pruned = g.without_edges(removal.pairs())
    g2 = neighborhood_graph(pruned, 2, WalkMode.PATH, **nbh_kwargs).graph
    partition = g2.connected_components()
    return _report(
        is_regular_partition,
        g,
        partition,
        "triangle-removal",
        [("one-edge-per-triangle", True)],
    )


def regular_from_kcycle_removal(
    g: Graph, k: int, removal: RemovalSet, **nbh_kwargs
) -> ConstructionReport:
    """Components of (g - removal)_{k-1} as regular classes of the original g.

    Requires a connected graph with min degree >= 2, at most one removed edge
    per k-cycle, and min degree >= 2 surviving the removal.
    """
    if k < 3:
        raise PreconditionError("k-cycle removal requires k >= 3")
    if g.has_loops():
        raise PreconditionError("construction requires a loop-free graph")
    if not g.is_connected():
        raise PreconditionError("graph must be connected")
    if g.min_degree() < 2:
        raise PreconditionError("graph must have min degree >= 2")
    _validate_removal_against_cycles(g.k_cycles(k), removal, f"{k}-cycle")
    pruned = g.without_edges(removal.pairs())
    if pruned.min_degree() < 2:
        raise PreconditionError("removal creates a vertex of degree < 2")
    gk = neighborhood_graph(pruned, k - 1, WalkMode.PATH, **nbh_kwargs).graph
    partition = gk.connected_components()
    return _report(
        is_regular_partition,
        g,
        partition,
        "kcycle-removal",
        [
            ("connected", True),
            ("min-degree-2", True),
            ("one-edge-per-cycle", True),
            ("pruned-min-degree-2", True),
        ],
    )


def weak_regular_from_h2(h: Hypergraph, **nbh_kwargs) -> ConstructionReport:
    """Components of H_2 as weak regular classes of a connected hypergraph."""
    if h.has_loops():
        raise PreconditionError("construction requires |e| >= 2 for all hyperedges")
    if not h.is_connected():
        raise PreconditionError("hypergraph must be connected; apply per component")
    h2 = hyper_neighborhood_graph(h, 2, **nbh_kwargs).graph
    partition = h2.connected_components()
    notes = []
    if len(partition.blocks) == 2:
        notes.append(
            "two components: maximal weak regular partition below the trivial one"
        )
    preconditions = [("connected", True)]
    return _report(
        is_weak_regular_partition, h, partition, "h2-components", preconditions, notes
    )


def weak_regular_from_hn(h: Hypergraph, n: int, **nbh_kwargs) -> ConstructionReport:
    """Components of H_n; sound when every vertex has >= 2 neighbours."""
    if h.has_loops():
        raise PreconditionError("construction requires |e| >= 2 for all hyperedges")
    hn = hyper_neighborhood_graph(h, n, **nbh_kwargs).graph
    partition = hn.connected_components()
    preconditions = [
        ("min-2-neighbours", all(len(h.neighbors(v)) >= 2 for v in h.vertices))
    ]
    return _report(
        is_weak_regular_partition, h, partition, "hn-components", preconditions
    )


def enumerate_removal_sets(g: Graph, max_size: int = 3, max_vertices: int = 9):
    """All triangle-valid removal sets up to `max_size` edges, for exploration.

    Exponential; restricted to small graphs.
    """
    if g.n_vertices() > max_vertices:
        raise ResourceCapError(
            f"removal-set enumeration is limited to {max_vertices} vertices"
        )
    edges = [tuple(e) for e in g.edge_ids() if e[0] != e[1]]
    triangles = g.triangles()
    out = []
    for size in range(max_size + 1):
        for combo in combinations(edges, size):
            removal = RemovalSet.of(combo)
            try:
                _validate_removal_against_cycles(triangles, removal, "triangle")
            except PreconditionError:
                continue
            out.append(removal)
    return out
