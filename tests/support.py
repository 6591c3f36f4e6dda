"""Shared helpers for the test suite: random structures and oracles.

The W1 oracle enumerates basic couplings by recursive cell saturation, which
is exponential but exact and entirely independent of the library solver.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from equivcurv import Graph, Hypergraph, Partition


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
