"""Construction of n-neighbourhood graphs.

Three graph variants are supported: simple paths of length exactly n,
non-backtracking walks of length exactly n, and unrestricted walks of length
exactly n. Hypergraphs get the path variant over hyperedge paths. For n <= 3
the paths meet in the middle, in polynomial time; for n >= 4 the exponential
DFS `simple_paths` enumerates them. Either way the work charged is the DFS's.
Both walk variants are exact-length reachability over a successor table: the
vertex adjacency for walks; for non-backtracking walks, the oriented edges,
each followed by those leaving its head except its reverse. All outputs are
loop-free: a closed length-n walk never produces a self-edge. Each output is
built on its base's dense vertex index.
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .core import DEFAULT_WORK_BUDGET, Budget, Graph, Hypergraph, require, simple_paths
from .errors import PreconditionError


class WalkMode(enum.Enum):
    PATH = "path"
    NON_BACKTRACKING = "nb"
    WALK = "walk"


class NeighborhoodGraph(namedtuple("NeighborhoodGraph", "base n mode graph")):
    """The n-neighbourhood `graph` of `base` (a Graph or Hypergraph) in `mode`."""

    __slots__ = ()


def _path_nbrs(structure, n, work_budget):
    """Per vertex, the set of others joined to it by a simple path of n steps.

    n <= 3 meets in the middle; longer paths are enumerated by the DFS,
    unless n >= |V|: a path of n steps has n + 1 distinct vertices, so there
    is none, and no work is charged.
    """
    steps = structure.path_steps()
    if n <= 3:
        return _short_path_nbrs(steps, n, work_budget)
    if n >= len(steps):
        return [set() for _ in steps]
    near = [set() for _ in steps]
    for start, _, ends in simple_paths(steps, n, work_budget):
        near[start].update(ends)
        for v in ends:
            near[v].add(start)
    return near


def _repeats(groups):
    return sum(len(g) * (len(g) - 1) for g in groups)


def _short_path_nbrs(steps, n, work_budget):
    """`_path_nbrs` for n <= 3 over `simple_paths` steps, in polynomial time.

    A step is an (edge id, vertex) pair; a graph is the case where every edge
    has two members. n = 2 joins the targets u != v of each middle vertex w,
    unless both reach w through one and the same single edge. n = 3 joins,
    over each middle step (a, e, b) with a < b, the targets u != b of a to
    the targets v != a of b, through edges other than e, with u != v, unless
    u's edges and v's edges are one and the same single edge.

    Each middle is charged to a path `Budget`, before its pairs are emitted,
    exactly the units the DFS spends on the paths through it: one per second
    step taken and one per last step counted, by inclusion-exclusion over
    repeated vertices and edges. With the first steps this is the DFS's
    total, so the same inputs are refused with the same message.
    """
    charge = Budget("path", work_budget).charge
    charge(sum(map(len, steps)))
    # reach[w][v]: the edges of w's steps to v; via[w][e]: the targets through e
    reach, via = [], []
    for row in steps:
        r, t = {}, {}
        for e, v in row:
            r.setdefault(v, []).append(e)
            t.setdefault(e, []).append(v)
        reach.append(r)
        via.append(t)
    near = [set() for _ in steps]  # symmetric; self-pairs dropped at the end
    if n == 1:
        for u, r in enumerate(reach):
            near[u].update(r)
    elif n == 2:
        for w, r in enumerate(reach):
            k = len(steps[w])
            charge(k * (k - 1) - _repeats(r.values()) - _repeats(via[w].values()))
            lone = {}  # target -> the targets that reach w by its one edge only
            for vs in via[w].values():
                if len(vs) > 1:
                    group = {v for v in vs if len(r[v]) == 1}
                    lone.update(dict.fromkeys(group, group))
            for u in r:
                near[u].update(r.keys() - lone[u] if u in lone else r)
    else:
        for a, ra in enumerate(reach):
            va = via[a]
            for e, b in steps[a]:
                if b < a:
                    continue
                rb, vb = reach[b], via[b]
                inside = va[e]  # e's members other than a; x in e iff x in inside
                n_u = len(steps[a]) - len(inside) - len(ra[b]) + 1  # steps in U
                n_v = len(steps[b]) - len(inside) - len(rb[a]) + 1  # steps in V
                # other edges holding a and b: the only edges both sides share
                parallel = [f for f in ra[b] if f != e]
                # step pairs meeting at one vertex or sharing an edge, each once
                clash = sum(
                    (len(ra[x]) - (x in inside)) * (len(rb[x]) - (x in inside))
                    for x in ra.keys() & rb.keys()
                ) + sum((len(va[f]) - 1) * (len(va[f]) - 2) for f in parallel)
                charge(n_u + n_v + 2 * (n_u * n_v - clash))
                us = ra.keys() - {x for x in inside if len(ra[x]) == 1}
                us.discard(b)
                vs = rb.keys() - {x for x in vb[e] if len(rb[x]) == 1}
                vs.discard(a)
                lone_u, lone_v = {}, {}  # target -> far targets of its one edge
                for f in parallel:
                    gu = {u for u in va[f] if len(ra[u]) - (u in inside) == 1}
                    gv = {v for v in vb[f] if len(rb[v]) - (v in inside) == 1}
                    gu.discard(b)
                    gv.discard(a)
                    lone_u.update(dict.fromkeys(gu, gv))
                    lone_v.update(dict.fromkeys(gv, gu))
                for u in us:
                    near[u] |= vs - lone_u[u] if u in lone_u else vs
                for v in vs:
                    near[v] |= us - lone_v[v] if v in lone_v else us
    for u, vs in enumerate(near):
        vs.discard(u)
    return near


def _walk_nbrs(first, succ, head, n, work_budget):
    """Per vertex, the set of others joined to it by a walk of n steps over states.

    `first[i]` lists the states one step from vertex i, `succ[s]` the states
    one step after state s, and `head[s]` the vertex state s stands at. The
    states of a step form a set; each costs one unit of a walk `Budget` of
    `work_budget` units, at every step from every start. A reversed walk is
    a walk too, so the sets come out symmetric.
    """
    charge = Budget("walk", work_budget).charge
    near = []
    for start, states in enumerate(first):
        states = set(states)
        charge(len(states))
        for _ in range(n - 1):
            states = set().union(*map(succ.__getitem__, states))
            charge(len(states))
        ends = {head[s] for s in states}
        ends.discard(start)
        near.append(ends)
    return near


def _nb_table(adj, work_budget):
    """(first, succ, head) of the non-backtracking walk over darts.

    A dart is an oriented edge; a dart's successors leave its head, except
    its own reverse. The table has sum deg(v)(deg(v) - 1) entries, exactly
    the work of the second step summed over all starts, so for n >= 2 a
    table larger than the budget is refused before it is built.
    """
    Budget("walk", work_budget).charge(sum(len(a) * (len(a) - 1) for a in adj))
    leaving, head = [], []
    for nbrs in adj:
        leaving.append(list(range(len(head), len(head) + len(nbrs))))
        head.extend(nbrs)
    succ = [
        [e for e in leaving[head[d]] if head[e] != u]
        for u, darts in enumerate(leaving)
        for d in darts
    ]
    return leaving, succ, head


def _from_nbrs(base, n, mode, nbrs):
    graph = Graph._from_sets(base, nbrs)
    return NeighborhoodGraph(base=base, n=n, mode=mode, graph=graph)


def neighborhood_graph(
    g: Graph,
    n: int,
    mode: WalkMode = WalkMode.PATH,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> NeighborhoodGraph:
    """Build the n-neighbourhood graph of g in the requested mode.

    Path mode enumerates simple paths and is exponential in n. Every mode
    spends at most `work_budget` units and is refused past it, whatever n.
    """
    if n < 1:
        raise PreconditionError("neighbourhood order n must be >= 1")
    require(g, Graph, "neighbourhood graphs require", "a loop-free input")
    if mode is WalkMode.PATH:
        nbrs = _path_nbrs(g, n, work_budget)
    elif mode is WalkMode.WALK or n == 1:  # one step never backtracks
        adj = g.adjacency()
        succ = [set(a) for a in adj]  # set unions merge sets fastest
        nbrs = _walk_nbrs(adj, succ, range(len(adj)), n, work_budget)
    else:
        table = _nb_table(g.adjacency(), work_budget)
        nbrs = _walk_nbrs(*table, n, work_budget)
    return _from_nbrs(g, n, mode, nbrs)


def hyper_neighborhood_graph(
    h: Hypergraph,
    n: int,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> NeighborhoodGraph:
    """Build H_n: edges between vertices joined by a path of n hyperedges.

    A hyperedge path has all vertices and all hyperedges distinct. H_1 is the
    associated graph minus loops. Bounded by `work_budget` like path mode in
    `neighborhood_graph`.
    """
    if n < 1:
        raise PreconditionError("neighbourhood order n must be >= 1")
    require(h, Hypergraph, "H_n requires", "all hyperedges to have |e| >= 2")
    return _from_nbrs(h, n, WalkMode.PATH, _path_nbrs(h, n, work_budget))


class InclusionReport(
    namedtuple("InclusionReport", "n path_in_nb nb_in_walk counterexample")
):
    """`counterexample` is (edge, relation) on violation, else None."""

    __slots__ = ()

    @property
    def holds(self):
        return self.path_in_nb and self.nb_in_walk


def inclusion_check(
    g: Graph, n: int, work_budget: int = DEFAULT_WORK_BUDGET
) -> InclusionReport:
    """Verify E_n <= E_n^NB <= E_n^walk by building all three modes.

    Each build spends at most `work_budget` units of its own.
    """
    path, nb, walk = (  # all on g's dense index, in WalkMode's chain order
        neighborhood_graph(g, n, mode, work_budget=work_budget).graph._edges
        for mode in WalkMode
    )
    counterexample = None
    path_in_nb = path <= nb
    nb_in_walk = nb <= walk
    if not path_in_nb:
        counterexample = (_smallest_ids(g, path - nb), "path not in nb")
    elif not nb_in_walk:
        counterexample = (_smallest_ids(g, nb - walk), "nb not in walk")
    return InclusionReport(n, path_in_nb, nb_in_walk, counterexample)


def _smallest_ids(g, pairs):
    """The least (u, v), u < v as ids, of dense-index pairs of g."""
    return min(tuple(sorted((g.vertices[i], g.vertices[j]))) for i, j in pairs)
