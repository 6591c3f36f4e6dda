"""Exact discrete optimal transport and Ollivier-Ricci curvature.

All masses and costs are exact: masses are `fractions.Fraction`, costs and
flows are `int`. W1 is solved by scaling both measures to integers with the
lcm of their mass denominators and running the primal-dual (Hungarian)
method for the transportation problem on the bipartite support graph. The
solver keeps integer duals u (sources) and v (sinks) with u_i + v_j <= c_ij
and moves mass only along cells where equality holds, so its final duals
certify the optimum. The coupling witness is deterministic: supports are in
sorted vertex-id order and every scan takes the lowest source index first,
then the lowest sink index. Every coupling's marginals are checked against
its measures. W1 and kappa are unique; the coupling is one optimal coupling
among possibly many.

`curvatures` is the one place where a walk (`SimilarityWalk`) becomes
measures and curvatures; `orc`, `en_orc` and `ee_orc` are its one-pair
calls, and `curv` and `sim` hand it their whole pair list. Within one call it
builds each vertex's measure at most once and each BFS row at most once. A
row is expanded only as far as the current pair needs (y for d(x, y), supp
mu_y for the costs), resumed by later pairs, and dropped once no later pair
reads it.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import BfsRow, Graph, Hypergraph
from .errors import PreconditionError


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
    return mu == nu


def _scaled(mu: Measure, scale: int):
    """Masses of mu times `scale`, as integers; scale is a common denominator."""
    return {v: m.numerator * (scale // m.denominator) for v, m in mu.masses.items()}


class Coupling:
    """Joint rational mass on vertex pairs with prescribed marginals."""

    def __init__(self, entries, mu: Measure, nu: Measure):
        self.entries = {
            (u, v): Fraction(m) for (u, v), m in entries.items() if m != 0
        }
        # Marginals are compared as integers: every mass times the lcm of all
        # denominators, entries' and measures' alike.
        scale = lcm(
            *[m.denominator for m in self.entries.values()],
            *[m.denominator for m in mu.masses.values()],
            *[m.denominator for m in nu.masses.values()],
        )
        row = {}
        col = {}
        for (u, v), m in self.entries.items():
            if m < 0:
                raise PreconditionError("coupling has a negative entry")
            q = m.numerator * (scale // m.denominator)
            row[u] = row.get(u, 0) + q
            col[v] = col.get(v, 0) + q
        if row != _scaled(mu, scale) or col != _scaled(nu, scale):
            raise PreconditionError("coupling marginals do not match the measures")

    def cost(self, dist) -> Fraction:
        total = Fraction(0)
        for (u, v), m in self.entries.items():
            d = dist(u, v)
            if d is None:
                raise PreconditionError("coupling moves mass across components")
            total += m * d
        return total


class SimilarityWalk(enum.Enum):
    """The random walk whose measures define a curvature."""

    GRAPH = "graph"
    EN = "en"
    EE = "ee"


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
    """Integer min-cost transportation by the primal-dual (Hungarian) method.

    supply/demand are positive integers with equal totals; cost is a matrix of
    nonnegative integers. Returns (flow, total, u, v): an optimal flow matrix,
    its cost, and integer duals with u[i] + v[j] <= cost[i][j] everywhere,
    equality wherever flow[i][j] > 0, and sum(supply*u) + sum(demand*v) =
    total. Flow only ever moves along tight cells (reduced cost 0). Each phase
    saturates tight cells greedily, then augments along shortest paths of the
    tight network until no sink with demand left is reachable, then raises the
    duals of the reachable part by the least reduced cost that leaves it.
    Every scan runs in index order, lowest index first, so the witness is
    reproducible.
    """
    m, k = len(supply), len(demand)
    u = [min(row) for row in cost]
    v = [min(cost[i][j] - u[i] for i in range(m)) for j in range(k)]
    flow = [[0] * k for _ in range(m)]
    rem_s, rem_d = list(supply), list(demand)
    left = sum(supply)
    while left:
        tight = [[j for j in range(k) if cost[i][j] - u[i] == v[j]] for i in range(m)]
        for i, row in enumerate(tight):
            for j in row:
                q = min(rem_s[i], rem_d[j])
                if q:
                    flow[i][j] += q
                    rem_s[i] -= q
                    rem_d[j] -= q
                    left -= q
        while left:
            sink, pred_s, pred_d = _search(tight, flow, rem_s, rem_d)
            if sink is None:
                break
            left -= _augment(sink, pred_s, pred_d, flow, rem_s, rem_d)
        if left:
            reached = [i for i in range(m) if pred_s[i] is not None]
            unreached = [j for j in range(k) if pred_d[j] is None]
            delta = min(cost[i][j] - u[i] - v[j] for i in reached for j in unreached)
            for i in reached:
                u[i] += delta
            for j in range(k):
                if pred_d[j] is not None:
                    v[j] -= delta
    total = sum(
        flow[i][j] * cost[i][j] for i in range(m) for j in range(k) if flow[i][j]
    )
    return flow, total, u, v


def _search(tight, flow, rem_s, rem_d):
    """Breadth-first search of the tight residual network.

    Starts from every source with supply left, goes forward over tight cells
    and backward over cells that carry flow. Returns (sink, pred_s, pred_d):
    the first sink reached with demand left (None if there is none), and the
    predecessor of every reached source (-1 for a start) and sink.
    """
    pred_s = [-1 if r else None for r in rem_s]
    pred_d = [None] * len(rem_d)
    queue = [i for i, r in enumerate(rem_s) if r]
    for i in queue:  # the list grows while it is read: a FIFO queue
        for j in tight[i]:
            if pred_d[j] is not None:
                continue
            pred_d[j] = i
            if rem_d[j]:
                return j, pred_s, pred_d
            for i2, row in enumerate(flow):
                if pred_s[i2] is None and row[j]:
                    pred_s[i2] = j
                    queue.append(i2)
    return None, pred_s, pred_d


def _augment(sink, pred_s, pred_d, flow, rem_s, rem_d):
    """Push the path's bottleneck from its start source to `sink`; return it."""
    amount = rem_d[sink]
    j = sink
    while True:
        i = pred_d[j]
        if pred_s[i] == -1:
            break
        j = pred_s[i]
        amount = min(amount, flow[i][j])
    amount = min(amount, rem_s[i])
    j = sink
    while True:
        i = pred_d[j]
        flow[i][j] += amount
        if pred_s[i] == -1:
            break
        j = pred_s[i]
        flow[i][j] -= amount
    rem_s[i] -= amount
    rem_d[sink] -= amount
    return amount


def wasserstein1(mu: Measure, nu: Measure, dist=None, *, cost=None):
    """Exact 1-Wasserstein distance and an optimal coupling witness.

    `dist` maps a vertex-id pair to a nonnegative integer distance or None
    for unreachable pairs. Supports must lie in one connected component.
    A caller that already holds the distances passes `cost` instead: the
    integer matrix over mu.support() x nu.support(), one row per source.
    """
    sources = mu.support()
    targets = nu.support()
    if cost is None:
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
    scaled_mu, scaled_nu = _scaled(mu, scale), _scaled(nu, scale)
    supply = [scaled_mu[u] for u in sources]
    demand = [scaled_nu[v] for v in targets]
    flow, total, _, _ = _solve_transport(supply, demand, cost)
    entries = {
        (u, v): Fraction(flow[i][j], scale)
        for i, u in enumerate(sources)
        for j, v in enumerate(targets)
        if flow[i][j]
    }
    coupling = Coupling(entries, mu, nu)
    return Fraction(total, scale), coupling


def _walk_measure(structure, v, walk) -> Measure:
    """v's measure under `walk`; the measure functions are looked up per call."""
    if walk is SimilarityWalk.GRAPH:
        return neighbor_measure(structure, v)
    if walk is SimilarityWalk.EN:
        return en_measure(structure, v)
    return ee_measure(structure, v)


class _Batch:
    """Measures and BFS rows shared by the pairs of one call.

    Pair (x, y) reads x's row for d(x, y) and the row of every u in supp mu_x
    for the costs. For the graph, EN and EE walks alike supp mu_x = N(x) in
    the (associated) graph, so the pairs that read a row are counted before
    the first one runs, and a row is kept only while a later pair reads it.
    Nothing here raises before a pair does: every error belongs to a pair.
    """

    def __init__(self, structure, pairs, walk):
        self.structure = structure
        self.pairs = list(pairs)
        self.walk = walk
        graph = structure
        if isinstance(structure, Hypergraph):
            graph = structure.associated_graph()
        self.adj = graph.adjacency()
        self.index = structure.index
        self.measures = {}  # vertex id -> (measure, its support as dense indices)
        self.rows = {}  # dense index -> BfsRow, while a later pair reads it
        self.readers = Counter()  # dense index -> pairs left that read its row
        for x, _ in self.pairs:
            s = self.index.get(x)
            if s is not None:  # an unknown x fails at its own pair
                self.readers[s] += 1
                self.readers.update(self.adj[s])

    def __iter__(self):
        """The pairs in order; after each, drop the rows no later pair reads."""
        for x, y in self.pairs:
            yield x, y
            s = self.index[x]
            for r in (s, *self.adj[s]):
                self.readers[r] -= 1
                if not self.readers[r]:
                    self.rows.pop(r, None)

    def _row(self, s):
        row = self.rows.get(s)
        if row is None:
            row = BfsRow(s)
            if self.readers[s] > 1:
                self.rows[s] = row
        return row

    def measure(self, v):
        """v's measure and its support as dense indices, in sorted vertex-id order."""
        got = self.measures.get(v)
        if got is None:
            mu = _walk_measure(self.structure, v, self.walk)
            got = self.measures[v] = (mu, [self.index[u] for u in mu.support()])
        return got

    def distance(self, x, y):
        """d(x, y) for known vertices; None when they lie in different components."""
        s, t = self.index[x], self.index[y]
        if s not in self.rows and self.readers[s] <= 1:
            # No later pair reads x's row, so none is kept: the structure's own
            # query answers, and shows as a BFS span in bench/tracing.py traces.
            return self.structure.distance(x, y)
        return self._row(s).reach(self.adj, (t,)).get(t)

    def curvature(self, x, y, d=None) -> CurvatureResult:
        """Curvature of (x, y); d is their distance, if known.

        Errors come in a fixed order: measure errors (x's, then y's), then
        x == y, then x and y in different components.
        """
        (mu, sources), (nu, targets) = self.measure(x), self.measure(y)
        if x == y:
            raise PreconditionError("curvature requires two distinct vertices")
        if d is None:
            d = self.distance(x, y)
            if d is None:
                raise PreconditionError(
                    f"{x!r} and {y!r} lie in different connected components"
                )
        cost = []
        for s in sources:
            dist = self._row(s).reach(self.adj, targets)
            cost.append([dist[t] for t in targets])
        w1, coupling = wasserstein1(mu, nu, cost=cost)
        return CurvatureResult(
            kappa=1 - Fraction(w1, d), w1=w1, distance=d, coupling=coupling
        )


def curvatures(structure, pairs, walk):
    """Curvature of every vertex pair in `pairs` under `walk`, yielded in order.

    Each pair raises as a one-pair call would, in the order of
    `_Batch.curvature`; the first failing pair in list order raises and ends
    the run. Measures and BFS rows are shared across the pairs.
    """
    batch = _Batch(structure, pairs, walk)
    for x, y in batch:
        yield batch.curvature(x, y)


def _curvature(structure, x, y, walk) -> CurvatureResult:
    """Curvature of the pair (x, y) under `walk`."""
    return next(curvatures(structure, [(x, y)], walk))


def orc(g: Graph, x, y) -> CurvatureResult:
    """Ollivier-Ricci curvature of a vertex pair under neighbour measures."""
    return _curvature(g, x, y, SimilarityWalk.GRAPH)


def en_orc(h: Hypergraph, x, y) -> CurvatureResult:
    """EN-walk curvature with hyperedge-hop shortest-path distances."""
    return _curvature(h, x, y, SimilarityWalk.EN)


def ee_orc(h: Hypergraph, x, y) -> CurvatureResult:
    """EE-walk curvature with hyperedge-hop shortest-path distances."""
    return _curvature(h, x, y, SimilarityWalk.EE)
