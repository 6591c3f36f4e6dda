"""Exact discrete optimal transport and Ollivier-Ricci curvature.

All masses and costs are exact: masses are `fractions.Fraction`, costs and
flows are `int`. W1 is solved by scaling both measures to integers with the
lcm of their mass denominators. The costs are a distance, so W1 depends only
on mu - nu: every vertex v in both supports keeps min(mu(v), nu(v)) on the
cell (v, v), and only the rest is transported. The shared mass is cancelled
on the integers before any cost is read; only the costs of the rows and
columns that still hold mass are read, and that block goes to the
primal-dual (Hungarian) method for the transportation problem on their
bipartite support graph. The solver keeps integer duals u (sources) and v
(sinks) with u_i + v_j <= c_ij and moves mass only along cells where
equality holds, so its final duals certify the optimum of the transported
part. The coupling witness is deterministic: supports are in sorted
vertex-id order, and within the transported part every scan takes the lowest
source index first, then the lowest sink index. A coupling is kept as the
solver's block plus the shared diagonal; the block's marginals are checked
against the masses left after cancellation, and the full flow and its
`Fraction` entries are built when first read. W1 = total/scale and kappa =
(d*scale - total)/(d*scale) are each one `Fraction` of two integers. W1 and
kappa are unique; the coupling is one optimal coupling among possibly many.

`curvatures` is the one place where a walk (`SimilarityWalk`) becomes
measures and curvatures; `orc`, `en_orc` and `ee_orc` are its one-pair
calls, and `curv` and `sim` hand it their whole pair list. A walk that does
not fit the structure is refused before any measure is built. Within one
call it builds each vertex's measure at most once and each BFS row at most
once. A row grows whole levels, only as far as the current pair needs (y for
d(x, y), supp mu_y for the costs), is resumed by later pairs, and is dropped
once no later pair reads it. A row no later pair reads searches d + 1 hops,
not d + 2: r1 = (d + 2) // 2 from its source, then r2 = d + 1 - r1 around
each target it misses. Every cost lies in [d - 2, d + 2], and r2 <= r1, so
a shortest path to a missed target crosses that target's ring at r2 hops; a
cell the two searches do not meet is d + 2. A one-off d(x, y) is met from
both ends. A source whose whole mass is shared gets no row and no cost cell
for its pair.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import Counter, namedtuple
from fractions import Fraction
from functools import partial
from itertools import compress
from math import lcm
from operator import mul, sub

from .core import BfsRow, Graph, Hypergraph, require
from .errors import PreconditionError


def fraction_str(q) -> str:
    """Render an exact rational as 'p' or 'p/q'."""
    if type(q) is not Fraction and type(q) is not int:
        q = Fraction(q)
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


class Measure:
    """Finitely supported probability measure with exact rational masses."""

    def __init__(self, masses):
        self.masses = {v: Fraction(m) for v, m in masses.items() if m != 0}
        # Integer form: sorted support, lcm of the denominators, masses times it.
        self._support = sorted(self.masses)
        self._den = lcm(*[m.denominator for m in self.masses.values()])
        self._nums = [int(self.masses[v] * self._den) for v in self._support]
        if any(q < 0 for q in self._nums):
            raise PreconditionError("measure has a negative mass")
        if sum(self._nums) != self._den:
            raise PreconditionError("measure masses must sum to exactly 1")

    def support(self):
        return list(self._support)

    def _integers(self, scale):
        """Masses times `scale` as integers in support order."""
        factor = scale // self._den
        return [q * factor for q in self._nums]

    def __getitem__(self, v):
        return self.masses.get(v, Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, Measure):
            return NotImplemented
        return self.masses == other.masses

    def __repr__(self):
        inner = ", ".join(f"{v}: {fraction_str(m)}" for v, m in sorted(self.masses.items()))
        return f"Measure({{{inner}}})"


def _check_marginals(flow, supply, demand):
    """Refuse an integer flow with a negative cell or sums other than supply/demand."""
    if flow and min(map(min, flow)) < 0:  # an empty flow has no cell to check
        raise PreconditionError("coupling has a negative entry")
    if list(map(sum, flow)) != supply or list(map(sum, zip(*flow))) != demand:
        raise PreconditionError("coupling marginals do not match the measures")


class Coupling:
    """Joint rational mass on vertex pairs with prescribed marginals."""

    def __init__(self, entries, mu: Measure, nu: Measure):
        self._entries = {
            (u, v): Fraction(m) for (u, v), m in entries.items() if m != 0
        }
        if any(m < 0 for m in self._entries.values()):
            raise PreconditionError("coupling has a negative entry")
        # Every entry is positive, so each vertex with mass has a positive sum.
        rows, cols = {}, {}
        for (u, v), m in self._entries.items():
            rows[u] = rows.get(u, 0) + m
            cols[v] = cols.get(v, 0) + m
        if rows != mu.masses or cols != nu.masses:
            raise PreconditionError("coupling marginals do not match the measures")

    @classmethod
    def _from_block(cls, sources, targets, diagonal, rows, cols, block, scale):
        """A solve over sources x targets, masses over `scale`: the (i, j, q)
        `diagonal` cells of shared mass, and the checked `block` over the
        source positions `rows` and target positions `cols`."""
        coupling = cls.__new__(cls)
        coupling._entries = None
        coupling._parts = (sources, targets, diagonal, rows, cols, block, scale)
        return coupling

    @property
    def entries(self):
        """Mass per vertex pair, row-major in support order; a solve's diagonal
        and block become one flow, then Fractions, on first read."""
        if self._entries is None:
            sources, targets, diagonal, rows, cols, block, scale = self._parts
            flow = [[0] * len(targets) for _ in sources]
            for i, j, q in diagonal:
                flow[i][j] = q
            for i, got in zip(rows, block):
                row = flow[i]
                for j, q in zip(cols, got):
                    row[j] = q
            self._entries = {
                (u, v): Fraction(q, scale)
                for u, row in zip(sources, flow)
                for v, q in zip(targets, row)
                if q
            }
        return self._entries


class SimilarityWalk(enum.Enum):
    """The random walk whose measures define a curvature."""

    GRAPH = "graph"
    EN = "en"
    EE = "ee"


class CurvatureResult(namedtuple("CurvatureResult", "kappa w1 distance coupling")):
    __slots__ = ()


def neighbor_measure(g: Graph, x) -> Measure:
    """Uniform mass 1/d_x on the neighbours of x."""
    require(g, Graph, "neighbour measures require", "a loop-free graph")
    nbrs = g.neighbors(x)
    if not nbrs:
        raise PreconditionError(f"vertex {x!r} is isolated")
    share = Fraction(1, len(nbrs))
    return Measure({z: share for z in nbrs})


def en_measure(h: Hypergraph, x) -> Measure:
    """Equal-nodes walk: the neighbour measure of the associated graph.

    Singleton hyperedges are loops there, so they are refused the same way.
    """
    require(h, Hypergraph, "EN measures require")
    return neighbor_measure(h.associated_graph(), x)


def _ee_weights(h: Hypergraph, x):
    """Per-neighbour weights sum_{e containing x,z} 1/(|e|-1), unnormalised.

    Every caller refuses singleton hyperedges first.
    """
    weights = {}
    for ei in h.incident_hyperedges(x):
        e = h.hyperedges[ei]
        w = Fraction(1, len(e) - 1)
        for z in e:
            if z != x:
                weights[z] = weights.get(z, Fraction(0)) + w
    return weights


def ee_measure(h: Hypergraph, x) -> Measure:
    """Equal-edges walk: pick an incident hyperedge, then a vertex inside it."""
    require(h, Hypergraph, "EE measures require", "a loop-free hypergraph")
    d = h.degree(x)
    if d == 0:
        raise PreconditionError(f"vertex {x!r} has degree 0")
    return Measure({z: w / d for z, w in _ee_weights(h, x).items()})


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
    sinks = range(k)
    u = list(map(min, cost))
    v = [min(map(sub, col, u)) for col in zip(*cost)]
    flow = [[0] * k for _ in range(m)]
    rem_s, rem_d = list(supply), list(demand)
    left = sum(supply)
    while left:
        tight = [[j for j in sinks if row[j] - v[j] == a] for row, a in zip(cost, u)]
        for i, row in enumerate(tight):
            s = rem_s[i]
            if not s:
                continue
            f = flow[i]
            for j in row:
                d = rem_d[j]
                if d:
                    q = s if s < d else d
                    f[j] += q
                    s -= q
                    rem_d[j] = d - q
                    left -= q
                    if not s:
                        break
            rem_s[i] = s
        while left:
            # Breadth-first search of the tight residual network from every
            # source with supply left (pred_s -1), forward over tight cells and
            # backward over cells that carry flow, up to the first sink j
            # reached with demand left.
            pred_s = [-1 if r else None for r in rem_s]
            pred_d = [None] * k
            queue = list(compress(range(m), rem_s))
            for i in queue:  # the list grows while it is read: a FIFO queue
                for j in tight[i]:
                    if pred_d[j] is not None:
                        continue
                    pred_d[j] = i
                    if rem_d[j]:
                        break
                    for i2, row in enumerate(flow):
                        if row[j] and pred_s[i2] is None:
                            pred_s[i2] = j
                            queue.append(i2)
                else:
                    continue
                break  # sink j has demand left
            else:
                break  # no sink with demand left is reachable: raise the duals
            # Push the path's bottleneck from its start source to sink j.
            sink, amount = j, rem_d[j]
            while True:
                i = pred_d[j]
                if pred_s[i] == -1:
                    break
                j = pred_s[i]
                if flow[i][j] < amount:
                    amount = flow[i][j]
            if rem_s[i] < amount:
                amount = rem_s[i]
            rem_s[i] -= amount
            rem_d[sink] -= amount
            left -= amount
            j = sink
            while True:
                i = pred_d[j]
                flow[i][j] += amount
                if pred_s[i] == -1:
                    break
                j = pred_s[i]
                flow[i][j] -= amount
        if left:
            reached = [i for i, p in enumerate(pred_s) if p is not None]
            unreached = [j for j, p in enumerate(pred_d) if p is None]
            delta = min([cost[i][j] - u[i] - v[j] for i in reached for j in unreached])
            for i in reached:
                u[i] += delta
            for j, p in enumerate(pred_d):
                if p is not None:
                    v[j] -= delta
    total = sum([sum(map(mul, f, row)) for f, row in zip(flow, cost)])
    return flow, total, u, v


def _hops(d, u, v):
    """The distance d(u, v), refused when None (u and v in different components)."""
    if d is None:
        raise PreconditionError(
            f"fully dissimilar supports span components: no path between {u!r} and {v!r}"
        )
    return d


def _matrix_block(cost, sources, targets, shared):
    """Check a caller's cost matrix over sources x targets; return its block reader."""
    if len(cost) != len(sources) or any(len(row) != len(targets) for row in cost):
        shape = f"{len(sources)} x {len(targets)}"
        raise PreconditionError(f"cost matrix must be |supp mu| x |supp nu| = {shape}")
    for v in shared:
        if cost[bisect_left(sources, v)][bisect_left(targets, v)]:
            raise PreconditionError(f"cost matrix must be 0 at shared vertex {v!r}")
    return lambda rows, cols: [[cost[i][j] for j in cols] for i in rows]


def wasserstein1(mu: Measure, nu: Measure, dist=None, *, cost=None):
    """Exact 1-Wasserstein distance and an optimal coupling witness.

    `dist` maps a vertex-id pair to a nonnegative integer distance or None
    for unreachable pairs; every cell is asked, and supports must lie in one
    connected component. A caller that already holds the distances passes
    `cost` instead: the integer matrix over mu.support() x nu.support(), one
    row per source; a matrix of any other shape is refused. Or `cost` is a
    callable `cost(rows, cols)` that returns the block of costs for those
    source and target positions in support order, one row per source; it is
    called once, after the shared mass is cancelled, with only the positions
    that still hold mass.

    `dist` or `cost` must be a distance: 0 from a vertex to itself, and
    obeying the triangle inequality. Then W1 depends only on mu - nu, so the
    mass min(mu(v), nu(v)) of every shared vertex v stays on (v, v) and the
    solver moves only the rest. A `cost` matrix that is not 0 at a shared
    vertex is refused; the triangle inequality is not checked.
    """
    sources, targets = mu._support, nu._support
    # Support order, so that a refusal names the same vertex under any hash seed.
    shared = sorted(mu.masses.keys() & nu.masses.keys())
    if cost is None:
        cost = [[0 if a == b else _hops(dist(a, b), a, b) for b in targets] for a in sources]
    if not callable(cost):
        cost = _matrix_block(cost, sources, targets, shared)
    scale = lcm(mu._den, nu._den)
    rest_s, rest_d = mu._integers(scale), nu._integers(scale)
    # Shared mass stays on (v, v), by construction min(mu(v), nu(v)) there;
    # the solver moves the rest and its block is checked against the rest.
    diagonal = []
    for v in shared:
        i, j = bisect_left(sources, v), bisect_left(targets, v)
        s, d = rest_s[i], rest_d[j]
        q = s if s < d else d
        rest_s[i], rest_d[j] = s - q, d - q
        diagonal.append((i, j, q))
    rows = list(compress(range(len(sources)), rest_s))
    cols = list(compress(range(len(targets)), rest_d))
    supply, demand = list(filter(None, rest_s)), list(filter(None, rest_d))
    block, total, _, _ = _solve_transport(supply, demand, cost(rows, cols))
    _check_marginals(block, supply, demand)
    coupling = Coupling._from_block(sources, targets, diagonal, rows, cols, block, scale)
    return Fraction(total, scale), coupling


def _check_walk(structure, walk):
    """Refuse a walk that does not fit: graph needs a `Graph`, EN/EE a `Hypergraph`."""
    if walk is SimilarityWalk.GRAPH:
        require(structure, Graph, "graph walk requires")
    else:
        require(structure, Hypergraph, "EN/EE walks require")


def _walk_measure(structure, v, walk) -> Measure:
    """v's measure under `walk`; the measure functions are looked up per call."""
    _check_walk(structure, walk)
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
        """s's BfsRow; kept in `rows` exactly while a later pair reads it."""
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
        w1, coupling = wasserstein1(mu, nu, cost=partial(self._costs, sources, targets, d))
        # kappa = 1 - w1/d over one denominator, normalised once.
        p, q = w1.numerator, d * w1.denominator
        return CurvatureResult(
            kappa=Fraction(q - p, q), w1=w1, distance=d, coupling=coupling
        )

    def _costs(self, sources, targets, d, rows, cols):
        """Costs from the sources at positions `rows` to the targets at `cols`.

        `wasserstein1` asks only for the positions that still hold mass, so a
        source whose whole mass is shared gets no BFS row and no cost cell.
        """
        adj = self.adj
        kept = [targets[j] for j in cols]
        # Every cost lies in [d - 2, d + 2], so a row no later pair reads
        # searches d + 1 hops in all: r1 from s, then r2 = d + 1 - r1 <= r1
        # around each target v it misses. Such a v lies beyond r1 >= r2 hops,
        # so a shortest path to it crosses v's ring at exactly r2 hops, and
        # d(s, v) = r2 + min(dist_s over that ring) when the ring meets the
        # row; when it does not, d(s, v) > d + 1, so it is d + 2. Far costs
        # stay out of `dist`, whose entries are all hop counts of at most r1.
        far = d + 2
        r1 = far // 2
        r2 = far - 1 - r1
        rings = {}  # target -> the vertices exactly r2 hops from it
        cost = []
        for i in rows:
            s = sources[i]
            row = self._row(s)
            dist = row.dist  # `reach` grows it in place
            if s in self.rows:  # a later pair reads it: expand as far as needed
                if not all(map(dist.__contains__, kept)):
                    row.reach(adj, kept)
                cost.append(list(map(dist.__getitem__, kept)))
            else:  # dropped after this pair
                row.reach(adj, kept, r1)
                got = []
                for t in kept:
                    c = dist.get(t)
                    if c is None:
                        ring = rings.get(t)
                        if ring is None:
                            around = BfsRow(t)
                            around.reach(adj, radius=r2)
                            ring = rings[t] = around.level
                        c = min([dist[w] + r2 for w in ring if w in dist], default=far)
                    got.append(c)
                cost.append(got)
        return cost


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
