"""Construction of n-neighbourhood graphs.

Three graph variants are supported: simple paths of length exactly n,
non-backtracking walks of length exactly n, and unrestricted walks of length
exactly n. Hypergraphs get the path variant over hyperedge paths. All outputs
are loop-free: a closed length-n walk never produces a self-edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat

from .core import DEFAULT_WORK_BUDGET, Graph, Hypergraph, simple_paths
from .errors import PreconditionError, ResourceCapError

DEFAULT_PATH_CAP = 8


class WalkMode(enum.Enum):
    PATH = "path"
    NON_BACKTRACKING = "nb"
    WALK = "walk"


@dataclass(frozen=True)
class NeighborhoodGraph:
    base: object  # source Graph or Hypergraph
    n: int
    mode: WalkMode
    graph: Graph


def _check_input(structure, n, loop_message):
    if n < 1:
        raise PreconditionError("neighbourhood order n must be >= 1")
    if structure.has_loops():
        raise PreconditionError(loop_message)


def _check_path_cap(n, path_cap, override_caps):
    if n > path_cap and not override_caps:
        raise ResourceCapError(
            f"path length n={n} exceeds cap {path_cap} (override to proceed)"
        )


def _path_pairs(structure, n, work_budget):
    """Pairs (i, j), i < j, joined by a simple path of exactly n steps."""
    pairs = set()
    for start, _, ends in simple_paths(structure.path_steps(), n, work_budget):
        pairs.update(zip(repeat(start), ends))
    return pairs


def _charge(work, work_budget):
    """Return work; raise ResourceCapError once it exceeds the budget."""
    if work > work_budget:
        raise ResourceCapError(f"walk enumeration exceeded work budget {work_budget}")
    return work


def _nb_edges(g, n, work_budget):
    """Pairs joined by a non-backtracking walk of length exactly n.

    Reachability in exactly n steps on the directed state graph of oriented
    edges, forbidding immediate reversal. Each state produced at each step
    costs one unit of work.
    """
    adj = g.adjacency()
    pairs = set()
    work = 0
    for start in range(g.n_vertices()):
        states = {(start, nxt) for nxt in adj[start]}  # after one step
        work = _charge(work + len(states), work_budget)
        for _ in range(n - 1):
            states = {
                (cur, nxt)
                for prev, cur in states
                for nxt in adj[cur]
                if nxt != prev
            }
            work = _charge(work + len(states), work_budget)
        for _, end in states:
            if end != start:
                pairs.add((min(start, end), max(start, end)))
    return pairs


def _walk_edges(g, n, work_budget):
    """Pairs joined by any walk of length exactly n (boolean relation power).

    Each (start, end) state produced at each step costs one unit of work.
    """
    adj = [set(a) for a in g.adjacency()]
    reach = adj
    work = _charge(sum(map(len, reach)), work_budget)
    for _ in range(n - 1):
        reach = [set().union(*(adj[w] for w in r)) if r else set() for r in reach]
        work = _charge(work + sum(map(len, reach)), work_budget)
    pairs = set()
    for u, r in enumerate(reach):
        for v in r:
            if v != u:
                pairs.add((min(u, v), max(u, v)))
    return pairs


def _from_pairs(base, n, mode, pairs):
    edges = [(base.vertices[i], base.vertices[j]) for i, j in sorted(pairs)]
    return NeighborhoodGraph(
        base=base, n=n, mode=mode, graph=Graph(base.vertices, edges)
    )


def neighborhood_graph(
    g: Graph,
    n: int,
    mode: WalkMode = WalkMode.PATH,
    path_cap: int = DEFAULT_PATH_CAP,
    override_caps: bool = False,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> NeighborhoodGraph:
    """Build the n-neighbourhood graph of g in the requested mode.

    Path mode enumerates simple paths and is exponential; it is guarded by
    `path_cap` on n unless `override_caps` is set. A hard work budget always
    applies, in every mode.
    """
    _check_input(g, n, "neighbourhood graphs require a loop-free input")
    if mode is WalkMode.PATH:
        _check_path_cap(n, path_cap, override_caps)
        pairs = _path_pairs(g, n, work_budget)
    elif mode is WalkMode.NON_BACKTRACKING:
        pairs = _nb_edges(g, n, work_budget)
    else:
        pairs = _walk_edges(g, n, work_budget)
    return _from_pairs(g, n, mode, pairs)


def hyper_neighborhood_graph(
    h: Hypergraph,
    n: int,
    path_cap: int = DEFAULT_PATH_CAP,
    override_caps: bool = False,
    work_budget: int = DEFAULT_WORK_BUDGET,
) -> NeighborhoodGraph:
    """Build H_n: edges between vertices joined by a path of n hyperedges.

    A hyperedge path has all vertices and all hyperedges distinct. H_1 is the
    associated graph minus loops. Guarded like path mode in
    `neighborhood_graph`.
    """
    _check_input(h, n, "H_n requires all hyperedges to have |e| >= 2")
    _check_path_cap(n, path_cap, override_caps)
    return _from_pairs(h, n, WalkMode.PATH, _path_pairs(h, n, work_budget))


@dataclass(frozen=True)
class InclusionReport:
    n: int
    path_in_nb: bool
    nb_in_walk: bool
    counterexample: tuple | None  # (edge, relation) on violation

    @property
    def holds(self):
        return self.path_in_nb and self.nb_in_walk


def inclusion_check(g: Graph, n: int, **kwargs) -> InclusionReport:
    """Verify E_n <= E_n^NB <= E_n^walk by building all three modes."""
    path = neighborhood_graph(g, n, WalkMode.PATH, **kwargs).graph
    nb = neighborhood_graph(g, n, WalkMode.NON_BACKTRACKING, **kwargs).graph
    walk = neighborhood_graph(g, n, WalkMode.WALK, **kwargs).graph
    path_edges = set(map(frozenset, path.edge_ids()))
    nb_edges = set(map(frozenset, nb.edge_ids()))
    walk_edges = set(map(frozenset, walk.edge_ids()))
    counterexample = None
    path_in_nb = path_edges <= nb_edges
    nb_in_walk = nb_edges <= walk_edges
    if not path_in_nb:
        bad = sorted(tuple(sorted(e)) for e in path_edges - nb_edges)[0]
        counterexample = (bad, "path not in nb")
    elif not nb_in_walk:
        bad = sorted(tuple(sorted(e)) for e in nb_edges - walk_edges)[0]
        counterexample = (bad, "nb not in walk")
    return InclusionReport(n, path_in_nb, nb_in_walk, counterexample)
