"""Shared helpers for the test suite: random structures and oracles.

The W1 oracle enumerates basic couplings by recursive cell saturation, which
is exponential but exact and entirely independent of the library solver.
"""

import math
import random
from itertools import combinations
from fractions import Fraction
from functools import lru_cache
from math import lcm

import networkx as nx

from equivcurv import (
    Graph,
    Hypergraph,
    Partition,
    PreconditionError,
    SimilarityWalk,
    ee_measure,
    en_measure,
    neighbor_measure,
    wasserstein1,
)


def random_connected_graph(rng: random.Random, max_vertices=10, min_vertices=2):
    """Connected loop-free graph: random spanning tree plus extra edges."""
    n = rng.randint(min_vertices, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((names[rng.randrange(i)], names[i]))
    extra = rng.randint(0, n)
    for _ in range(extra):
        a, b = rng.sample(range(n), 2)
        edges.append((names[a], names[b]))
    return Graph(names, edges)


def random_min_degree_2_graph(rng: random.Random, max_vertices=10):
    """Connected graph with min degree >= 2: cycle plus chords."""
    n = rng.randint(3, max_vertices)
    names = [f"v{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = [(names[order[i]], names[order[(i + 1) % n]]) for i in range(n)]
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.append((names[a], names[b]))
    return Graph(names, edges)


def random_hypergraph(rng: random.Random, max_vertices=8, max_hyperedges=10):
    """Loop-free connected-ish hypergraph with hyperedge sizes 2..4."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    m = rng.randint(1, max_hyperedges)
    hyperedges = []
    for _ in range(m):
        size = rng.randint(2, min(4, n))
        hyperedges.append(tuple(rng.sample(names, size)))
    # make sure every vertex appears somewhere
    covered = {v for e in hyperedges for v in e}
    for v in names:
        if v not in covered:
            other = rng.choice([w for w in names if w != v])
            hyperedges.append((v, other))
    return Hypergraph(names, hyperedges)


def reference_curvature(structure, x, y, walk):
    """(kappa, w1, distance, coupling entries) of one pair, nothing shared.

    Written as the per-pair routine was before pairs were batched: both
    measures, the same error order, a point-to-point distance and one full
    `distances_from` row per source vertex.
    """
    measure = {
        SimilarityWalk.GRAPH: neighbor_measure,
        SimilarityWalk.EN: en_measure,
        SimilarityWalk.EE: ee_measure,
    }[walk]
    mu, nu = measure(structure, x), measure(structure, y)
    if x == y:
        raise PreconditionError("curvature requires two distinct vertices")
    d = structure.distance(x, y)
    if d is None:
        raise PreconditionError(f"{x!r} and {y!r} lie in different connected components")
    rows = {u: structure.distances_from(u) for u in mu.support()}
    w1, coupling = wasserstein1(mu, nu, lambda u, v: rows[u].get(v))
    return 1 - w1 / d, w1, d, coupling.entries


def random_structure(rng: random.Random, walk, max_vertices=7):
    """Graph (graph walk) or hypergraph (EN/EE) of one to three random parts.

    Parts share no vertex, so pairs across them lie in different components.
    One input in twenty also gets a loop (a singleton hyperedge), which every
    walk refuses.
    """
    parts = rng.randint(1, 3)
    names, edges = [], []
    for k in range(parts):
        if walk is SimilarityWalk.GRAPH:
            part = random_connected_graph(rng, max_vertices=max_vertices)
            part_edges = part.edge_ids()
        else:
            part = random_hypergraph(rng, max_vertices=max_vertices)
            part_edges = part.hyperedges
        names += [f"p{k}{v}" for v in part.vertices]
        edges += [tuple(f"p{k}{v}" for v in e) for e in part_edges]
    if rng.random() < 0.05:
        edges.append((rng.choice(names),))
    if walk is SimilarityWalk.GRAPH:
        return Graph(names, edges)
    return Hypergraph(names, edges)


def random_pair_list(rng: random.Random, structure, max_pairs=12):
    """Random vertex pairs with repeats and reversals, mostly within a component.

    About one pair in ten is bad: across components, the same vertex twice or
    an unknown vertex, so that some lists fail after several good pairs.
    """
    graph = structure if isinstance(structure, Graph) else structure.associated_graph()
    blocks = graph.connected_components().blocks
    pairs = []
    for _ in range(rng.randint(1, max_pairs)):
        roll = rng.random()
        if pairs and roll < 0.25:
            x, y = rng.choice(pairs)
            pairs.append((y, x) if roll < 0.12 else (x, y))
        elif roll > 0.97:
            pairs.append((rng.choice(graph.vertices), "zz"))
        elif roll > 0.94:
            x = rng.choice(graph.vertices)
            pairs.append((x, x))
        elif roll > 0.9 and len(blocks) > 1:
            a, b = rng.sample(blocks, 2)
            pairs.append((rng.choice(a), rng.choice(b)))
        else:
            block = rng.choice([b for b in blocks if len(b) > 1] or [graph.vertices])
            pairs.append(tuple(rng.sample(block, 2)))
    return pairs


def random_partition(rng: random.Random, vertices):
    """Uniformly random assignment of vertices into 1..|V| labelled blocks."""
    vertices = list(vertices)
    k = rng.randint(1, len(vertices))
    assignment = {}
    for v in vertices:
        assignment[v] = rng.randrange(k)
    blocks = {}
    for v, b in assignment.items():
        blocks.setdefault(b, []).append(v)
    return Partition([tuple(b) for b in blocks.values()])


def brute_force_w1(mu, nu, dist):
    """Optimal transport cost by enumerating basic couplings.

    Every extreme point of the transportation polytope arises from some order
    of cell saturations, so the minimum over all saturation orders is exact.
    """
    sources = mu.support()
    targets = nu.support()
    scale = lcm(
        *[m.denominator for m in mu.masses.values()],
        *[m.denominator for m in nu.masses.values()],
    )
    supply = tuple(int(mu[u] * scale) for u in sources)
    demand = tuple(int(nu[v] * scale) for v in targets)
    cost = tuple(
        tuple(0 if u == v else dist(u, v) for v in targets) for u in sources
    )

    @lru_cache(maxsize=None)
    def best(rem_s, rem_d):
        if not any(rem_s):
            return 0
        out = None
        for i, s in enumerate(rem_s):
            if not s:
                continue
            for j, d in enumerate(rem_d):
                if not d:
                    continue
                q = min(s, d)
                ns = rem_s[:i] + (s - q,) + rem_s[i + 1 :]
                nd = rem_d[:j] + (d - q,) + rem_d[j + 1 :]
                sub = q * cost[i][j] + best(ns, nd)
                if out is None or sub < out:
                    out = sub
        return out

    total = best(supply, demand)
    best.cache_clear()
    return Fraction(total, scale)


def networkx_w1(mu, nu, dist):
    """W1 by networkx's min-cost flow on the lcm-scaled transportation problem."""
    scale = lcm(
        *[m.denominator for m in mu.masses.values()],
        *[m.denominator for m in nu.masses.values()],
    )
    net = nx.DiGraph()
    for u in mu.support():
        net.add_node(("s", u), demand=-int(mu[u] * scale))
    for v in nu.support():
        net.add_node(("t", v), demand=int(nu[v] * scale))
    for u in mu.support():
        for v in nu.support():
            net.add_edge(("s", u), ("t", v), weight=0 if u == v else dist(u, v))
    return Fraction(nx.min_cost_flow_cost(net), scale)


# The curvature bounds as Fraction formulas, as similarity.py computed them
# before it decided them in integers; the integer versions are tested against
# these.
SQRT_SCALE_BITS = 64  # rational sqrt enclosure denominator 2**64


def _sqrt_lower(n: int) -> Fraction:
    """Largest multiple of 2**-SQRT_SCALE_BITS that is at most sqrt(n)."""
    scale = 1 << SQRT_SCALE_BITS
    return Fraction(math.isqrt(n * scale * scale), scale)


def _lower_bound(sigma) -> Fraction:
    return Fraction(3 * sigma.eta, max(sigma.d_x, sigma.d_y)) - 2


def fraction_curvature_bounds(sigma, distance: int):
    """Exact lower bound and certified upper bound for the pair's curvature.

    lower = 3*eta/(d_x v d_y) - 2 (exact; uses sigma*sqrt(d_x d_y) = eta).
    upper = 1 - (1 - sigma)/distance, exact when sigma is 0 or 1 and
    otherwise certified from above through a rational sqrt enclosure.
    """
    if distance is None or distance < 1:
        raise PreconditionError("curvature bounds require a finite distance >= 1")
    lower = _lower_bound(sigma)
    if sigma.is_zero():
        upper = 1 - Fraction(1, distance)
    elif sigma.is_one():
        upper = Fraction(1)
    else:
        # sigma <= eta / sqrt_lo, so this over-estimates the true bound.
        sqrt_lo = _sqrt_lower(sigma.d_x * sigma.d_y)
        upper = 1 - (1 - Fraction(sigma.eta) / sqrt_lo) / distance
    return lower, upper


def fraction_bounds_hold(sigma, distance: int, kappa: Fraction) -> bool:
    """Exact check of lower <= kappa <= upper, with no interval slack.

    The upper comparison kappa <= 1 - (1 - sigma)/d is cleared to
    sigma >= 1 - d(1 - kappa) and squared, so the decision is rational.
    """
    if kappa < _lower_bound(sigma):
        return False
    threshold = 1 - distance * (1 - kappa)  # sigma must be >= this
    if threshold <= 0:
        return True
    return Fraction(sigma.eta) ** 2 >= threshold**2 * sigma.d_x * sigma.d_y


def _pairs_in_order(structure, p):
    for block in p.blocks:
        ordered = sorted(block, key=structure.index.__getitem__)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                yield a, b


def _block_witness(structure, p, a, b, items_a, items_b):
    if items_b - items_a:
        lacking, having, beta = a, b, min(items_b - items_a)
    else:
        lacking, having, beta = b, a, min(items_a - items_b)
    if isinstance(beta, tuple):
        beta = beta[0]
    c = min(
        (w for w in structure.neighbors(having) if p.block_of[w] == beta),
        key=structure.index.__getitem__,
    )
    return {"pair": [lacking, having], "neighbor": c, "block": beta}


def _cardinality_sets(h, x, z):
    return {
        len(h.hyperedges[ei])
        for ei in h.incident_hyperedges(x)
        if z in h.hyperedges[ei]
    }


def _block_cardinality_pairs(h, p, v):
    return {
        (p.block_of[w], len(h.hyperedges[ei]))
        for ei in h.incident_hyperedges(v)
        for w in h.hyperedges[ei]
        if w != v
    }


def brute_force_witness(notion, structure, p):
    """to_json() of the verifier for `notion`, by scanning every same-block pair.

    Pairs are scanned block by block, in dense-index order within a block, and
    each pair's neighbourhoods are rebuilt from scratch; the first failing pair
    gives the witness. `notion` is a CLI `verify --notion` name.
    """
    for a, b in _pairs_in_order(structure, p):
        na, nb = structure.neighbors(a), structure.neighbors(b)
        if notion == "structural":
            if na != nb:
                c = min(na ^ nb, key=structure.index.__getitem__)
                violation = {"pair": [a, b], "neighbor": c, "block": p.block_of[c]}
                return {"verdict": False, "violation": violation}
        elif notion in ("regular", "weak-regular"):
            blocks_a = {p.block_of[w] for w in na}
            blocks_b = {p.block_of[w] for w in nb}
            if blocks_a != blocks_b:
                violation = _block_witness(structure, p, a, b, blocks_a, blocks_b)
                return {"verdict": False, "violation": violation}
        elif notion == "strong-regular":
            pairs_a = _block_cardinality_pairs(structure, p, a)
            pairs_b = _block_cardinality_pairs(structure, p, b)
            if pairs_a != pairs_b:
                violation = _block_witness(structure, p, a, b, pairs_a, pairs_b)
                return {"verdict": False, "violation": violation}
        elif notion == "weak-structural":
            if na != nb:
                return {"verdict": False, "violation": {"pair": [a, b]}}
        elif notion == "strong-structural":
            if na != nb or any(
                _cardinality_sets(structure, a, z) != _cardinality_sets(structure, b, z)
                for z in na
            ):
                return {"verdict": False, "violation": {"pair": [a, b]}}
        else:
            raise ValueError(f"unknown notion {notion!r}")
    return {"verdict": True}


def _hyperedge_neighbors(h, v):
    """Every vertex sharing a hyperedge with v, v itself excluded."""
    return {w for e in h.hyperedges if v in e for w in e} - {v}


def multiset_oracle(h, x, y):
    """The MULTISET level of `hierarchy_level`, from its docstring.

    x and y have the same neighbours, and for every neighbour z the multiset
    of |e| over the hyperedges through x and z equals that over the
    hyperedges through y and z. Each hyperedge is scanned per neighbour.
    """
    if _hyperedge_neighbors(h, x) != _hyperedge_neighbors(h, y):
        return False
    return all(
        sorted(len(e) for e in h.hyperedges if x in e and z in e)
        == sorted(len(e) for e in h.hyperedges if y in e and z in e)
        for z in _hyperedge_neighbors(h, x)
    )


def ee_lemma_oracle(h, x, y):
    """`ee_lemma_check`, from its docstring.

    The degrees of x and y agree, and every common neighbour z lies in
    exactly one hyperedge with x and in exactly one hyperedge with y.
    """
    if sum(x in e for e in h.hyperedges) != sum(y in e for e in h.hyperedges):
        return False
    common = _hyperedge_neighbors(h, x) & _hyperedge_neighbors(h, y)
    return all(
        sum(v in e and z in e for e in h.hyperedges) == 1
        for z in common
        for v in (x, y)
    )


def removal_sets_oracle(g, max_size):
    """`enumerate_removal_sets(g, max_size)` as edge sets, by brute force.

    Every combination of up to `max_size` non-loop edges, by size and then in
    `itertools.combinations` order over the edges sorted by vertex index. A
    set is kept unless some triangle, found by a scan of all vertex triples,
    has two of its edges in it.
    """
    vertices = g.vertices
    edges = [
        (u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1:]
        if g.has_edge(u, v)
    ]
    triangles = [
        {frozenset((a, b)), frozenset((b, c)), frozenset((a, c))}
        for a, b, c in combinations(vertices, 3)
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
    ]
    out = []
    for size in range(max_size + 1):
        for combo in combinations(edges, size):
            removed = {frozenset(e) for e in combo}
            if all(len(t & removed) < 2 for t in triangles):
                out.append(removed)
    return out
