"""Verification of structural and regular equivalences.

Graphs get the classical structural/regular partition checks; hypergraphs get
weak and strong variants plus the four-level equivalence hierarchy driven by
the equal-edges random walk. Verifiers return a witness explaining the first
violation found (deterministic iteration order).
"""

from __future__ import annotations

import enum
from collections import Counter, namedtuple

from .core import Graph, Hypergraph, Partition
from .errors import PreconditionError


class EquivalenceWitness(
    namedtuple("EquivalenceWitness", "verdict violation", defaults=(None,))
):
    """`violation` is None or a dict with keys pair, neighbor and block."""

    __slots__ = ()

    def __bool__(self):
        return self.verdict

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.violation is not None:
            out["violation"] = dict(self.violation)
        return out


class HierarchyLevel(enum.Enum):
    """Hypergraph structural-equivalence strength, weakest to strongest."""

    EE_MEASURE = "ee-measure"
    WEIGHTED_NEIGHBOURHOOD = "weighted-neighbourhood"
    MULTISET = "multiset"
    STRONG = "strong"


def _signature_check(structure, p: Partition, signature, violation):
    """Verify that same-block vertices have equal signatures.

    Each vertex, in dense-index order within each block, is compared with its
    block's first vertex f. The first v that differs gives the witness
    violation(structure, p, f, v, signature(f), signature(v)). Signature
    equality is an equivalence, so (f, v) is also the first pair an all-pairs
    scan in the same order would reject, found with O(sum |B|) signatures.
    """
    if not p.covers(structure.vertices):
        raise PreconditionError("partition does not cover the vertex set exactly")
    for block in p.blocks:
        first, *rest = sorted(block, key=structure.index.__getitem__)
        sig = signature(first)
        for v in rest:
            other = signature(v)
            if other != sig:
                return EquivalenceWitness(
                    False, violation(structure, p, first, v, sig, other)
                )
    return EquivalenceWitness(True)


def _pair_violation(structure, p, a, b, sig_a, sig_b):
    return {"pair": [a, b]}


def _neighbor_violation(g, p, a, b, na, nb):
    """The first vertex adjacent to exactly one of a and b, with its block."""
    c = min(na ^ nb, key=g.index.__getitem__)
    return {"pair": [a, b], "neighbor": c, "block": p.block_of[c]}


def _block_violation(structure, p, a, b, sig_a, sig_b):
    """For signatures of (neighbour block, ...) tuples.

    `having` holds the smallest tuple the other vertex lacks, beta is that
    tuple's block and `neighbor` is having's first neighbour in beta.
    """
    if sig_b - sig_a:
        lacking, having, beta = a, b, min(sig_b - sig_a)[0]
    else:
        lacking, having, beta = b, a, min(sig_a - sig_b)[0]
    c = min(
        (w for w in structure.neighbors(having) if p.block_of[w] == beta),
        key=structure.index.__getitem__,
    )
    return {"pair": [lacking, having], "neighbor": c, "block": beta}


def _neighbor_blocks(structure, p, v):
    return {(p.block_of[w],) for w in structure.neighbors(v)}


def is_structural_partition(g: Graph, p: Partition) -> EquivalenceWitness:
    """Same-block vertices must have identical neighbour sets.

    A loop at v puts v in its own neighbour set and is compared verbatim.
    """
    return _signature_check(g, p, g.neighbors, _neighbor_violation)


def is_regular_partition(g: Graph, p: Partition) -> EquivalenceWitness:
    """Same-block vertices must see the same set of neighbour blocks.

    Checked symmetrically in each pair: both directions of the existential
    condition are required.
    """
    return _signature_check(
        g, p, lambda v: _neighbor_blocks(g, p, v), _block_violation
    )


def structural_classes(g: Graph) -> Partition:
    """Group vertices with identical neighbour sets.

    Equals the grouping by pairwise curvature 1 on connected loop-free graphs.
    Blocks are ordered by their smallest dense index.
    """
    if g.has_loops():
        raise PreconditionError("structural classes require a loop-free graph")
    groups = {}
    for v in g.vertices:
        groups.setdefault(frozenset(g.neighbors(v)), []).append(v)
    blocks = sorted(groups.values(), key=lambda b: g.index[b[0]])
    return Partition([tuple(b) for b in blocks])


# -- hypergraph equivalences -------------------------------------------------


def is_weak_structural(h: Hypergraph, x, y) -> bool:
    """Weak structural equivalence: identical neighbour sets."""
    return h.neighbors(x) == h.neighbors(y)


def _star(h, v):
    """Multiset of (neighbour, |e|) over the hyperedges e through v."""
    return Counter(
        (w, len(h.hyperedges[ei]))
        for ei in h.incident_hyperedges(v)
        for w in h.hyperedges[ei]
        if w != v
    )


def is_strong_structural(h: Hypergraph, x, y) -> bool:
    """Strong structural equivalence, existential cardinality matching.

    Same neighbours, and for every common neighbour a, each hyperedge through
    {x, a} has some hyperedge through {y, a} of equal cardinality, and
    symmetrically. (The hierarchy level STRONG is the stricter bijective
    star-matching notion; see `hierarchy_level`.)
    """
    return _star(h, x).keys() == _star(h, y).keys()


def is_weak_structural_partition(h: Hypergraph, p: Partition) -> EquivalenceWitness:
    """Every block weak structurally equivalent; the witness names the pair."""
    return _signature_check(h, p, h.neighbors, _pair_violation)


def is_strong_structural_partition(h: Hypergraph, p: Partition) -> EquivalenceWitness:
    """Every block strong structurally equivalent; the witness names the pair."""
    return _signature_check(h, p, lambda v: _star(h, v).keys(), _pair_violation)


def is_weak_regular_partition(h: Hypergraph, p: Partition) -> EquivalenceWitness:
    """Weak regular equivalence: neighbour blocks match, cardinalities ignored."""
    return _signature_check(
        h, p, lambda v: _neighbor_blocks(h, p, v), _block_violation
    )


def is_strong_regular_partition(h: Hypergraph, p: Partition) -> EquivalenceWitness:
    """Strong regular equivalence: witnessing hyperedges must match in |e|."""

    def signature(v):
        return {(p.block_of[w], card) for w, card in _star(h, v)}

    return _signature_check(h, p, signature, _block_violation)


# -- equivalence hierarchy ---------------------------------------------------


def _star_multiset(h, v, other):
    """Multiset of hyperedge contents seen from v, with v mapped onto `other`."""
    return Counter(
        frozenset(other if w == v else w for w in h.hyperedges[ei])
        for ei in h.incident_hyperedges(v)
    )


def hierarchy_level(h: Hypergraph, x, y) -> set:
    """Every hierarchy level whose predicate holds for the pair (x, y).

    EE_MEASURE: equal equal-edges transition measures.
    WEIGHTED_NEIGHBOURHOOD: equal unnormalised per-neighbour weights
    sum 1/(|e|-1).
    MULTISET: same neighbours and equal per-neighbour cardinality multisets
    (with multiplicity).
    STRONG: a bijection of the incidence stars of x and y preserving hyperedge
    contents (hence cardinalities with multiplicity).
    """
    # Imported here, so that loading the verifiers does not load transport.
    from .transport import ee_measure, ee_weights

    if h.has_loops():
        raise PreconditionError("hierarchy levels require a loop-free hypergraph")
    levels = set()

    mu_x, mu_y = (ee_measure(h, v).masses if h.degree(v) else {} for v in (x, y))
    if mu_x == mu_y:
        levels.add(HierarchyLevel.EE_MEASURE)
    if ee_weights(h, x) == ee_weights(h, y):
        levels.add(HierarchyLevel.WEIGHTED_NEIGHBOURHOOD)

    if _star(h, x) == _star(h, y):
        levels.add(HierarchyLevel.MULTISET)
    if _star_multiset(h, x, y) == _star_multiset(h, y, y):
        levels.add(HierarchyLevel.STRONG)
    return levels


def ee_lemma_check(h: Hypergraph, x, y) -> bool:
    """Hypotheses under which EE-curvature 1 forces strong structural equivalence.

    True iff every common neighbour of x and y is reached through exactly one
    hyperedge on each side, and the degrees of x and y agree.
    """
    if h.degree(x) != h.degree(y):
        return False
    # Per neighbour w, the number of hyperedges through both w and x (y).
    through_x = Counter(w for w, _ in _star(h, x).elements())
    through_y = Counter(w for w, _ in _star(h, y).elements())
    common = through_x.keys() & through_y.keys()
    return all(through_x[z] == through_y[z] == 1 for z in common)

