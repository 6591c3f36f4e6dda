"""Constructive regular and structural partitions from neighbourhood graphs.

Each construction emits a ConstructionReport carrying the component partition,
the named preconditions it checked, and a post-hoc verification verdict. When
a precondition fails but the input is still processable, the construction
emits the partition anyway and lets the verdict speak (the degree conditions
are sufficient, not necessary). The structural and curvature-subclique
constructions decide from neighbour sets alone and build no neighbourhood
graph. The others build one, of any order; that build and every cycle or
removal-set enumeration are each bounded by one default work budget, the
only resource guard.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .core import DEFAULT_WORK_BUDGET, Budget, Graph, Hypergraph, Partition
from .equivalence import (
    is_regular_partition,
    is_weak_regular_partition,
    structural_classes,
)
from .errors import PreconditionError
from .neighborhood import hyper_neighborhood_graph, neighborhood_graph


class RemovalSet(namedtuple("RemovalSet", "edges")):
    """Graph edges to delete, as a frozenset of vertex-id pairs (frozensets)."""

    __slots__ = ()

    @classmethod
    def of(cls, pairs):
        """The removal set of `pairs`; each entry must be two distinct vertices."""
        pairs = [tuple(p) for p in pairs]
        for p in pairs:
            if len(p) != 2 or p[0] == p[1]:
                raise PreconditionError(
                    f"removal entry {p!r} is not two distinct vertices"
                )
        return cls(frozenset(map(frozenset, pairs)))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own `_make`, which `_replace` calls, checks the field
        # count with `len`, and `len` here counts edges.
        (edges,) = iterable
        return cls(edges)

    def __len__(self):
        return len(self.edges)

    def pairs(self):
        return [tuple(sorted(e)) for e in sorted(self.edges, key=sorted)]


class ConstructionReport(namedtuple(
    "ConstructionReport", "partition method preconditions verified witness notes",
    defaults=(None, ()),
)):
    """`preconditions` holds (name, met) pairs; `witness` is None or a violation."""

    __slots__ = ()

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
        notes=tuple(notes),
    )


def _require(structure, kind, disconnected=None):
    """Refuse a structure other than a `kind` (Graph or Hypergraph), then loops;
    with a message, also refuse a disconnected input."""
    if not isinstance(structure, kind):
        raise PreconditionError(f"construction requires a {kind.__name__.lower()} input")
    if structure.has_loops():
        raise PreconditionError(
            "construction requires a loop-free graph"
            if kind is Graph
            else "construction requires |e| >= 2 for all hyperedges"
        )
    if disconnected is not None and not structure.is_connected():
        raise PreconditionError(disconnected)


def _components_report(structure, base, n, method, preconditions, two_note=False):
    """Report the components of base's G_n (H_n) as classes of `structure`.

    A graph is verified as a regular partition, a hypergraph as a weak
    regular one. With `two_note`, two components get the maximality note.
    """
    if isinstance(base, Graph):
        built = neighborhood_graph(base, n)
        verify, notion = is_regular_partition, "regular"
    else:
        built = hyper_neighborhood_graph(base, n)
        verify, notion = is_weak_regular_partition, "weak regular"
    partition = built.graph.connected_components()
    notes = []
    if two_note and len(partition.blocks) == 2:
        notes.append(
            f"two components: maximal {notion} partition below the trivial one"
        )
    return _report(verify, structure, partition, method, preconditions, notes)


def regular_from_g2(g: Graph) -> ConstructionReport:
    """Components of G_2 as regular classes of a connected loop-free graph."""
    _require(g, Graph, "graph must be connected; apply per component")
    return _components_report(
        g, g, 2, "g2-components", [("connected", True)], two_note=True
    )


def regular_from_gn(g: Graph, n: int) -> ConstructionReport:
    """Components of G_n as candidate regular classes; `verified` decides.

    `min-degree-2` sufficed for n <= 3 on every graph of at most 7 vertices,
    but not for n = 4: a triangle and a 4-cycle sharing a vertex fail.
    """
    _require(g, Graph)
    preconditions = [("min-degree-2", g.min_degree() >= 2)]
    return _components_report(g, g, n, "gn-components", preconditions)


def structural_from_curvature(g: Graph) -> ConstructionReport:
    """Structural classes as maximal curvature-1 complete subgraphs of G_2.

    Classes are identical-neighbourhood groups; ungrouped vertices stay
    singletons. No G_2 is built: in a connected loop-free graph, two distinct
    vertices with one neighbour set share a neighbour w distinct from both,
    so a-w-b is a simple 2-step path and every class is complete in G_2.
    """
    _require(g, Graph, "graph must be connected; apply per component")
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
    _require(g, Graph)
    chosen = [tuple(sorted(c, key=g._idx)) for c in chosen]
    taken = set()
    for block in chosen:
        for v in block:
            if v in taken:
                raise PreconditionError(
                    f"vertex {v!r} appears more than once in the chosen sets"
                )
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


def _cycle_edges(cycles):
    """Each cycle with its edge set, built once for every check that follows."""
    return [(c, {frozenset((c[i - 1], c[i])) for i in range(len(c))}) for c in cycles]


def _hit_twice(cycle_edges, removed):
    """The first cycle, in cycle order, with two or more edges in `removed`."""
    return next((c for c, edges in cycle_edges if len(edges & removed) > 1), None)


def _prune(g, cycles, removal, what):
    """g less `removal`, which may delete at most one edge of each cycle."""
    if (hit := _hit_twice(_cycle_edges(cycles), removal.edges)) is not None:
        raise PreconditionError(f"removal set hits {what} {hit!r} more than once")
    return g.without_edges(removal.pairs())


def regular_from_triangle_removal(g: Graph, removal: RemovalSet) -> ConstructionReport:
    """Components of (g - removal)_2 as regular classes of the original g.

    The removal set may delete at most one edge per triangle of g.
    """
    _require(g, Graph)
    pruned = _prune(g, g.triangles(), removal, "triangle")
    return _components_report(
        g, pruned, 2, "triangle-removal", [("one-edge-per-triangle", True)]
    )


def regular_from_kcycle_removal(
    g: Graph, k: int, removal: RemovalSet
) -> ConstructionReport:
    """Components of (g - removal)_{k-1} as regular classes of the original g.

    Requires a connected graph with min degree >= 2, at most one removed edge
    per k-cycle, and min degree >= 2 surviving the removal. The k-cycles and
    the G_{k-1} build are each enumerated under the default work budget.
    """
    if k < 3:
        raise PreconditionError("k-cycle removal requires k >= 3")
    _require(g, Graph, "graph must be connected")
    if g.min_degree() < 2:
        raise PreconditionError("graph must have min degree >= 2")
    pruned = _prune(g, g.k_cycles(k), removal, f"{k}-cycle")
    if pruned.min_degree() < 2:
        raise PreconditionError("removal creates a vertex of degree < 2")
    preconditions = [
        ("connected", True),
        ("min-degree-2", True),
        ("one-edge-per-cycle", True),
        ("pruned-min-degree-2", True),
    ]
    return _components_report(g, pruned, k - 1, "kcycle-removal", preconditions)


def weak_regular_from_h2(h: Hypergraph) -> ConstructionReport:
    """Components of H_2 of a connected hypergraph; `verified` decides whether
    they are weak regular (hyperedges {a, d}, {a, b, c} give {a}, {b, c, d}: not)."""
    _require(h, Hypergraph, "hypergraph must be connected; apply per component")
    return _components_report(
        h, h, 2, "h2-components", [("connected", True)], two_note=True
    )


def weak_regular_from_hn(h: Hypergraph, n: int) -> ConstructionReport:
    """Components of H_n; `verified` decides whether they are weak regular
    (n = 3 on {a, b}, {a, c}, {b, c, d}: not, with `min-2-neighbours` met)."""
    _require(h, Hypergraph)
    preconditions = [
        ("min-2-neighbours", all(len(h.neighbors(v)) >= 2 for v in h.vertices))
    ]
    return _components_report(h, h, n, "hn-components", preconditions)


def enumerate_removal_sets(g: Graph, max_size: int = 3):
    """All triangle-valid removal sets up to `max_size` edges, for exploration.

    Exponential in `max_size`. Each candidate set costs 1 + (number of
    triangles) units of a removal-set `Budget` of the default work budget.
    """
    edges = [e for e in g.edge_ids() if e[0] != e[1]]
    triangles = _cycle_edges(g.triangles())
    charge = Budget("removal-set", DEFAULT_WORK_BUDGET).charge
    out = []
    for size in range(max_size + 1):
        for combo in combinations(edges, size):
            charge(1 + len(triangles))
            removed = frozenset(map(frozenset, combo))
            if _hit_twice(triangles, removed) is None:
                out.append(RemovalSet(removed))
    return out
