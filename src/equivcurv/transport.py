"""Exact discrete optimal transport and Ollivier-Ricci curvature.

All masses and costs are exact rationals (`fractions.Fraction`); no floating
point enters any equality decision. W1 is solved by scaling both measures to
integers with the lcm of their mass denominators and running an integer
min-cost transportation solver (successive shortest paths) on the bipartite
support graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import Graph, Hypergraph
from .errors import PreconditionError

INF = float("inf")


def fraction_str(q) -> str:
    """Render an exact rational as 'p' or 'p/q'."""
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class Measure:
    """Finitely supported probability measure with exact rational masses."""

    def __init__(self, masses):
        self.masses = {v: Fraction(m) for v, m in masses.items() if m != 0}
        if any(m < 0 for m in self.masses.values()):
            raise PreconditionError("measure has a negative mass")
        if sum(self.masses.values(), Fraction(0)) != 1:
            raise PreconditionError("measure masses must sum to exactly 1")

    def support(self):
        return sorted(self.masses)

    def __getitem__(self, v):
        return self.masses.get(v, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Measure):
            return NotImplemented
        return self.masses == other.masses

    def __repr__(self):
        inner = ", ".join(f"{v}: {fraction_str(m)}" for v, m in sorted(self.masses.items()))
        return f"Measure({{{inner}}})"


def measures_equal(mu: Measure, nu: Measure) -> bool:
    """Exact equality of supports and masses (equivalent to W1 = 0)."""
    return mu.masses == nu.masses


class Coupling:
    """Joint rational mass on vertex pairs with prescribed marginals."""

    def __init__(self, entries, mu: Measure, nu: Measure):
        self.entries = {
            (u, v): Fraction(m) for (u, v), m in entries.items() if m != 0
        }
        row = {}
        col = {}
        for (u, v), m in self.entries.items():
            if m < 0:
                raise PreconditionError("coupling has a negative entry")
            row[u] = row.get(u, Fraction(0)) + m
            col[v] = col.get(v, Fraction(0)) + m
        if row != mu.masses or col != nu.masses:
            raise PreconditionError("coupling marginals do not match the measures")

    def cost(self, dist) -> Fraction:
        total = Fraction(0)
        for (u, v), m in self.entries.items():
            d = dist(u, v)
            if d is None:
                raise PreconditionError("coupling moves mass across components")
            total += m * d
        return total


@dataclass(frozen=True)
class CurvatureResult:
    kappa: Fraction
    w1: Fraction
    distance: int
    coupling: Coupling


def neighbor_measure(g: Graph, x) -> Measure:
    """Uniform mass 1/d_x on the neighbours of x."""
    if g.has_loops():
        raise PreconditionError("neighbour measures require a loop-free graph")
    nbrs = g.neighbors(x)
    if not nbrs:
        raise PreconditionError(f"vertex {x!r} is isolated")
    share = Fraction(1, len(nbrs))
    return Measure({z: share for z in nbrs})


def en_measure(h: Hypergraph, x) -> Measure:
    """Equal-nodes walk: the neighbour measure of the associated graph.

    Singleton hyperedges are loops there, so they are refused the same way.
    """
    return neighbor_measure(h.associated_graph(), x)


def ee_weights(h: Hypergraph, x):
    """Per-neighbour weights sum_{e containing x,z} 1/(|e|-1), unnormalised."""
    weights = {}
    for ei in h.incident_hyperedges(x):
        e = h.hyperedges[ei]
        if len(e) < 2:
            raise PreconditionError("EE weights require all hyperedges with |e| >= 2")
        w = Fraction(1, len(e) - 1)
        for z in e:
            if z != x:
                weights[z] = weights.get(z, Fraction(0)) + w
    return weights


def ee_measure(h: Hypergraph, x) -> Measure:
    """Equal-edges walk: pick an incident hyperedge, then a vertex inside it."""
    if h.has_loops():
        raise PreconditionError("EE measures require a loop-free hypergraph")
    d = h.degree(x)
    if d == 0:
        raise PreconditionError(f"vertex {x!r} has degree 0")
    return Measure({z: w / d for z, w in ee_weights(h, x).items()})


def _solve_transport(supply, demand, cost):
    """Integer min-cost transportation by successive shortest paths.

    supply/demand are positive integers with equal totals; cost is an integer
    matrix. Returns (flow matrix, total cost). Deterministic: relaxations scan
    nodes in a fixed order, so the optimal witness is reproducible.
    """
    m, k = len(supply), len(demand)
    flow = [[0] * k for _ in range(m)]
    rem_s = list(supply)
    rem_d = list(demand)
    while any(rem_d):
        # Bellman-Ford on the residual bipartite graph.
        dist_s = [0 if rem_s[i] > 0 else INF for i in range(m)]
        dist_d = [INF] * k
        par_d = [None] * k  # source feeding each sink
        par_s = [None] * m  # sink feeding each source (via residual arc)
        for _ in range(m + k):
            changed = False
            for i in range(m):
                di = dist_s[i]
                if di == INF:
                    continue
                ci = cost[i]
                for j in range(k):
                    nd = di + ci[j]
                    if nd < dist_d[j]:
                        dist_d[j] = nd
                        par_d[j] = i
                        changed = True
            for j in range(k):
                dj = dist_d[j]
                if dj == INF:
                    continue
                for i in range(m):
                    if flow[i][j] > 0 and dj - cost[i][j] < dist_s[i]:
                        dist_s[i] = dj - cost[i][j]
                        par_s[i] = j
                        changed = True
            if not changed:
                break
        j = min(
            (jj for jj in range(k) if rem_d[jj] > 0),
            key=lambda jj: (dist_d[jj], jj),
        )
        if dist_d[j] == INF:
            raise PreconditionError("transportation problem is infeasible")
        # Trace the augmenting path back to a source with remaining supply.
        path = []  # forward arcs (i, j) along the path
        back = []  # residual arcs (i, j) whose flow is reduced
        jj = j
        while True:
            i = par_d[jj]
            path.append((i, jj))
            if rem_s[i] > 0 and dist_s[i] == 0 and par_s[i] is None:
                break
            if par_s[i] is None:
                break
            jj = par_s[i]
            back.append((i, jj))
        amount = min(rem_s[path[-1][0]], rem_d[j])
        for i, jj in back:
            amount = min(amount, flow[i][jj])
        for i, jj in path:
            flow[i][jj] += amount
        for i, jj in back:
            flow[i][jj] -= amount
        rem_s[path[-1][0]] -= amount
        rem_d[j] -= amount
    total = sum(
        flow[i][j] * cost[i][j] for i in range(m) for j in range(k) if flow[i][j]
    )
    return flow, total


def wasserstein1(mu: Measure, nu: Measure, dist):
    """Exact 1-Wasserstein distance and an optimal coupling witness.

    `dist` maps a vertex-id pair to a nonnegative integer distance or None
    for unreachable pairs. Supports must lie in one connected component.
    """
    sources = mu.support()
    targets = nu.support()
    cost = []
    for u in sources:
        row = []
        for v in targets:
            d = 0 if u == v else dist(u, v)
            if d is None:
                raise PreconditionError(
                    "fully dissimilar supports span components: "
                    f"no path between {u!r} and {v!r}"
                )
            row.append(d)
        cost.append(row)
    scale = lcm(
        *[m.denominator for m in mu.masses.values()],
        *[m.denominator for m in nu.masses.values()],
    )
    supply = [int(mu[u] * scale) for u in sources]
    demand = [int(nu[v] * scale) for v in targets]
    flow, total = _solve_transport(supply, demand, cost)
    entries = {
        (u, v): Fraction(flow[i][j], scale)
        for i, u in enumerate(sources)
        for j, v in enumerate(targets)
        if flow[i][j]
    }
    coupling = Coupling(entries, mu, nu)
    return Fraction(total, scale), coupling


def _curvature(mu, nu, structure, x, y) -> CurvatureResult:
    if x == y:
        raise PreconditionError("curvature requires two distinct vertices")
    d = structure.distance(x, y)
    if d is None:
        raise PreconditionError(
            f"{x!r} and {y!r} lie in different connected components"
        )
    dists = {}  # BFS rows on demand; the measures are loop-free, so never x's

    def dist(u, v):
        if u not in dists:
            dists[u] = structure.distances_from(u)
        return dists[u].get(v)

    w1, coupling = wasserstein1(mu, nu, dist)
    return CurvatureResult(
        kappa=1 - Fraction(w1, d), w1=w1, distance=d, coupling=coupling
    )


def orc(g: Graph, x, y) -> CurvatureResult:
    """Ollivier-Ricci curvature of a vertex pair under neighbour measures."""
    return _curvature(neighbor_measure(g, x), neighbor_measure(g, y), g, x, y)


def en_orc(h: Hypergraph, x, y) -> CurvatureResult:
    """EN-walk curvature with hyperedge-hop shortest-path distances."""
    return _curvature(en_measure(h, x), en_measure(h, y), h, x, y)


def ee_orc(h: Hypergraph, x, y) -> CurvatureResult:
    """EE-walk curvature with hyperedge-hop shortest-path distances."""
    return _curvature(ee_measure(h, x), ee_measure(h, y), h, x, y)
