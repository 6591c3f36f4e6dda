"""Graph and hypergraph representations plus basic combinatorics.

Vertex identity is string-based at the boundary and dense-integer internally;
every public result is expressed in the original string ids so output does not
depend on hash order. Structures are immutable after construction.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

from .errors import ParseError, PreconditionError, ResourceCapError, UnknownVertexError

DEFAULT_WORK_BUDGET = 5_000_000


class Partition:
    """Disjoint blocks covering a vertex set, with a membership index."""

    def __init__(self, blocks):
        blocks = [tuple(b) for b in blocks]
        if any(not b for b in blocks):
            raise PreconditionError("partition contains an empty block")
        self.blocks = blocks
        self.block_of = {}
        for i, block in enumerate(blocks):
            for v in block:
                if v in self.block_of:
                    raise PreconditionError(f"vertex {v!r} appears in two blocks")
                self.block_of[v] = i

    def covers(self, vertices):
        return set(self.block_of) == set(vertices)

    def to_json(self):
        return {"blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, data):
        blocks = data.get("blocks") if isinstance(data, dict) else None
        if not isinstance(blocks, list) or not all(
            isinstance(b, list) and all(isinstance(v, str) for v in b) for b in blocks
        ):
            raise ParseError(
                "partition JSON must be an object whose 'blocks' is a list of "
                "lists of vertex-id strings"
            )
        try:
            return cls(blocks)
        except PreconditionError as exc:
            raise ParseError(f"invalid partition: {exc}") from None

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return sorted(map(sorted, self.blocks)) == sorted(map(sorted, other.blocks))

    def __repr__(self):
        return f"Partition({self.blocks!r})"


class BfsRow:
    """Resumable dense-index BFS from one source, grown a whole level at a time.

    `dist` maps every index reached so far to its hop count from the source.
    `level` lists the indices `depth` hops away, the deepest level reached;
    `dist` holds exactly the indices within `depth` hops, so a later call
    resumes from `level`.
    """

    __slots__ = ("dist", "level", "depth")

    def __init__(self, s):
        self.dist = {s: 0}
        self.level = [s]
        self.depth = 0

    def reach(self, adj, targets=None, radius=None):
        """Expand until every target has a hop count; return `dist`.

        With targets None the whole component is expanded. Otherwise expansion
        stops at the end of the level that holds the last missing target; a
        target in another component leaves the component exhausted. A
        `radius` also stops it once every vertex within `radius` hops has its
        hop count.
        """
        dist = self.dist
        missing = [] if targets is None else [t for t in targets if t not in dist]
        last = len(adj) if radius is None else radius  # the last hop count needed
        level, d = self.level, self.depth
        while level and d < last and (targets is None or missing):
            d += 1
            found = []
            for x in level:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = d
                        found.append(y)
            level = found
            missing = [t for t in missing if t not in dist]
        self.level, self.depth = level, d
        return dist


def _meet_distance(adj, s, t):
    """BFS hop count from s to t, or None when t lies in another component.

    Two rows grow a full level at a time, the one with the smaller frontier
    first, until a new level meets the other row. While rows of depths a and
    b are disjoint, d(s, t) > a + b; so when level a + 1 meets the other row,
    d(s, t) = a + 1 + b.
    """
    if s == t:
        return 0
    rows = BfsRow(s), BfsRow(t)
    while True:
        row, other = sorted(rows, key=lambda r: len(r.level))
        if not row.level:
            return None
        row.reach(adj, radius=row.depth + 1)
        if any(w in other.dist for w in row.level):
            return row.depth + other.depth


class Budget:
    """The units of work one enumeration may spend, charged as it goes."""

    def __init__(self, kind, limit):
        self.kind, self.limit, self.used = kind, limit, 0

    def charge(self, units):
        """Spend `units`; past `limit` in all, refuse with ResourceCapError."""
        self.used += units
        if self.used > self.limit:
            message = f"{self.kind} enumeration exceeded work budget {self.limit}"
            raise ResourceCapError(message, self.kind, self.limit, self.used)


def simple_paths(steps, n, work_budget, above_start=False):
    """Yield (start, taken, ends) once per simple path of n - 1 steps.

    `steps[v]` lists every (edge id, next vertex) leaving v; a simple path has
    distinct vertices and distinct edges. `taken` lists the path's (edge,
    vertex) steps after `start`; it is reused, so read it before resuming.
    `ends` lists each vertex above `start` that an n-th step reaches, so a
    path of n steps is met from its lower end only. With `above_start` the
    DFS never enters a vertex below its start, so every path it walks lies
    above its start, its least vertex. Iterative DFS with one iterator per
    open vertex; each step taken or counted costs one unit of a path
    `Budget` of `work_budget` units.
    """
    charge = Budget("path", work_budget).charge
    for start in range(len(steps)):
        floor = start if above_start else -1  # only vertices above it are entered
        visited = {start}
        used = set()
        taken = []
        frames = [iter(steps[start])]
        while frames:
            if len(frames) == n:  # n - 1 steps taken: count every last step
                last = [v for e, v in frames[-1]
                        if v > floor and v not in visited and e not in used]
                charge(len(last))
                yield start, taken, [v for v in last if v > start]
            for e, v in frames[-1]:  # exhausted right after a yield
                if v <= floor or v in visited or e in used:
                    continue
                charge(1)
                visited.add(v)
                used.add(e)
                taken.append((e, v))
                frames.append(iter(steps[v]))
                break
            else:
                frames.pop()
                if taken:
                    e, v = taken.pop()
                    visited.remove(v)
                    used.remove(e)


def _strip_comments(text):
    """Yield (lineno, tokens) for non-comment, non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield lineno, tokens


def _link(nbrs):
    """Replace each neighbour set in `nbrs` by its sorted list; return `nbrs`.

    Each set is freed as soon as its list is made, so all the sets and all
    the lists are never held at once.
    """
    for i, s in enumerate(nbrs):
        nbrs[i] = sorted(s)
    return nbrs


class _Indexed:
    """Vertex ids in first-seen order, each with its dense index."""

    def __init__(self, vertices):
        self.vertices = list(dict.fromkeys(vertices))
        self.index = {v: i for i, v in enumerate(self.vertices)}

    def _idx(self, v):
        try:
            return self.index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None


class Graph(_Indexed):
    """Loop-permitting simple undirected graph.

    Edges are unordered pairs; an edge of cardinality one is a loop and makes
    the vertex its own neighbour. Duplicate edges are deduplicated.
    """

    def __init__(self, vertices, edges):
        super().__init__(vertices)
        nbrs = [set() for _ in self.vertices]
        for e in edges:
            e = tuple(e)
            ids = {self._idx(v) for v in e}
            if not 1 <= len(ids) <= 2:
                raise PreconditionError(f"edge {e!r} has more than two endpoints")
            for i in ids:
                nbrs[i].update(ids - {i} or ids)  # a one-vertex edge is a loop
        self._adj = _link(nbrs)

    @classmethod
    def _from_lists(cls, vertices, index, adj):
        """Graph from its vertex list, its index and its adjacency lists.

        `adj[i]` lists the dense indices joined to i, ascending and each once,
        symmetric, with i itself for a loop; the graph takes the lists over.
        No id is looked up; every edge view is read off these lists.
        """
        g = cls.__new__(cls)
        g.vertices, g.index, g._adj = vertices, index, adj
        return g

    @classmethod
    def _from_sets(cls, base, nbrs):
        """Graph on `base`'s vertex list and index from neighbour sets.

        `nbrs[i]` is the set of dense indices joined to i, symmetric, with i
        itself for a loop; the graph takes the list over (see `_link`).
        """
        return cls._from_lists(base.vertices, base.index, _link(nbrs))

    # -- edges, read off the adjacency lists, the only edge table ----------

    def upper_rows(self):
        """Per vertex i in dense order, (i, row): the ascending indices j >= i joined
        to i, so each edge once, from its lower end. This fixes the edge order."""
        for i, row in enumerate(self._adj):
            yield i, row[bisect_left(row, i):]

    @cached_property
    def _has_loops(self):
        return any(i in row for i, row in enumerate(self._adj))

    def edge_pairs(self):
        """Edges as sorted (i, j) dense-index pairs; loops as (i, i)."""
        return [(i, j) for i, upper in self.upper_rows() for j in upper]

    def edge_ids(self):
        """Edges as sorted pairs of vertex ids (loops as (v, v))."""
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edge_pairs()]

    def has_loops(self):
        return self._has_loops

    def n_edges(self):
        return sum(len(upper) for _, upper in self.upper_rows())

    def without_edges(self, removed):
        """New graph on the same vertex set with the given edges deleted; a pair
        named twice, or in both orientations, deletes its edge once."""
        nbrs = [set(a) for a in self._adj]
        for u, v in removed:
            i, j = self._idx(u), self._idx(v)
            if j not in self._adj[i]:
                raise PreconditionError(f"edge ({u!r}, {v!r}) not present in graph")
            nbrs[i].discard(j)
            nbrs[j].discard(i)
        return Graph._from_sets(self, nbrs)

    # -- local structure ----------------------------------------------------

    def degree(self, v):
        return len(self._adj[self._idx(v)])

    def min_degree(self):
        return min((len(a) for a in self._adj), default=0)

    def neighbors(self, v):
        return {self.vertices[w] for w in self._adj[self._idx(v)]}

    def adjacency(self):
        """Dense-index adjacency lists (read-only view)."""
        return self._adj

    # -- distances and components -------------------------------------------

    def distance(self, u, v):
        """BFS shortest-path distance, met from both ends; None when unreachable."""
        return _meet_distance(self._adj, self._idx(u), self._idx(v))

    def distances_from(self, u):
        """Dict vertex id -> BFS distance, reachable vertices only."""
        dist = BfsRow(self._idx(u)).reach(self._adj)
        return {self.vertices[i]: d for i, d in dist.items()}

    def connected_components(self):
        """Partition into maximal connected sets, ordered by smallest index."""
        seen = set()
        blocks = []
        for start in range(len(self.vertices)):
            if start not in seen:
                comp = BfsRow(start).reach(self._adj)
                seen.update(comp)
                blocks.append(tuple(self.vertices[i] for i in sorted(comp)))
        return Partition(blocks)

    def is_connected(self):
        return len(self.vertices) <= 1 or len(self.connected_components().blocks) == 1

    # -- paths and small cycles --------------------------------------------

    def path_steps(self):
        """Per vertex, every (edge id, other endpoint) step, for `simple_paths`."""
        steps = [[] for _ in self.vertices]
        for e, (i, j) in enumerate(self.edge_pairs()):
            steps[i].append((e, j))
            steps[j].append((e, i))
        return steps

    def triangles(self):
        """Every 3-clique exactly once, lexicographic by dense index."""
        return self.k_cycles(3)

    def k_cycles(self, k, work_budget=DEFAULT_WORK_BUDGET):
        """All simple cycles on exactly k distinct vertices, canonicalised.

        Each cycle is listed once up to rotation and reflection, as a tuple
        starting at its minimum-index vertex with the smaller of its two
        neighbours second, and the list is sorted by dense index. The DFS
        enters no vertex below its start, so each cycle is rooted at its least
        vertex (Johnson, 1975); every path of k - 1 steps is closed by an edge
        back to the start. The enumeration is charged to `work_budget` as in
        `simple_paths`: one unit per path that lies above its start. With
        k > |V| no k-cycle exists, so the answer is [] with no search.
        """
        if k < 3:
            raise PreconditionError("k-cycles require k >= 3")
        if k > len(self.vertices):
            return []
        adjsets = [set(a) for a in self._adj]
        cycles = []
        paths = simple_paths(self.path_steps(), k - 1, work_budget, above_start=True)
        for start, taken, ends in paths:
            closing = [v for v in ends if v in adjsets[start]]
            if closing:
                path = (start, *(v for _, v in taken))
                cycles.extend(path + (v,) for v in closing if v > path[1])
        cycles.sort()
        return [tuple(self.vertices[i] for i in c) for c in cycles]


class Hypergraph(_Indexed):
    """Vertex set plus a multiset of hyperedges (duplicates kept)."""

    def __init__(self, vertices, hyperedges):
        super().__init__(vertices)
        self.hyperedges = []
        self._members = []  # per hyperedge, its members' dense indices
        self._incidence = [[] for _ in self.vertices]
        self._has_loops = False
        for e in hyperedges:
            e = tuple(e)
            if not e:
                raise PreconditionError("empty hyperedge")
            if len(e) == 1:
                self._has_loops = True
            ids = [self._idx(v) for v in e]
            if len(set(ids)) != len(ids):
                raise PreconditionError(f"duplicate vertex inside hyperedge {e!r}")
            for i in ids:
                self._incidence[i].append(len(self.hyperedges))
            self.hyperedges.append(e)
            self._members.append(ids)
        self._graph = None

    def has_loops(self):
        return self._has_loops

    def path_steps(self):
        """Per vertex, every (hyperedge id, other member) step, for `simple_paths`."""
        steps = [[] for _ in self.vertices]
        for e, ids in enumerate(self._members):
            for i in ids:
                steps[i].extend((e, j) for j in ids if j != i)
        return steps

    def incident_hyperedges(self, v):
        """Indices of hyperedges containing v, with multiplicity."""
        return list(self._incidence[self._idx(v)])

    def degree(self, v):
        return len(self._incidence[self._idx(v)])

    def neighbors(self, v):
        """All vertices sharing a hyperedge with v, excluding v itself."""
        return self.associated_graph().neighbors(v) - {v}

    def distance(self, u, v):
        """Hyperedge-hop distance, by BFS on the associated graph."""
        return _meet_distance(self.associated_graph().adjacency(), self._idx(u), self._idx(v))

    def distances_from(self, u):
        """Dict vertex id -> hyperedge-hop distance, reachable vertices only."""
        dist = BfsRow(self._idx(u)).reach(self.associated_graph().adjacency())
        return {self.vertices[i]: d for i, d in dist.items()}

    def associated_graph(self):
        """The graph with an edge wherever two vertices share a hyperedge.

        Singleton hyperedges become loops; BFS distances ignore them. Built on
        first use and kept, so parsing does not pay for it.
        """
        if self._graph is None:
            nbrs = [set() for _ in self.vertices]
            for ids in map(set, self._members):
                for i in ids:
                    nbrs[i].update(ids - {i} or ids)  # a singleton is a loop
            self._graph = Graph._from_sets(self, nbrs)
        return self._graph

    def is_connected(self):
        return self.associated_graph().is_connected()


def require(structure, kind, subject, loop_free=None):
    """Refuse a structure other than a `kind` (Graph or Hypergraph) with
    "{subject} a graph input" (or "a hypergraph input"); given `loop_free`,
    then refuse loops with "{subject} {loop_free}"."""
    if not isinstance(structure, kind):
        raise PreconditionError(f"{subject} a {kind.__name__.lower()} input")
    if loop_free is not None and structure.has_loops():
        raise PreconditionError(f"{subject} {loop_free}")


def parse_graph(text):
    """Parse edge-list text: one edge per line, 1 token = loop, '#' comments.

    Lines break where `str.splitlines` breaks them, tokens split on any
    whitespace, and a line is a comment when its first token starts with '#'.
    A text with no '#' whose lines all hold 0 or 2 tokens takes a fast path
    that reads the edges off one `text.split()`: every line break is
    whitespace to `str.split`, so it gives the same tokens in the same order.
    Every other text takes the line-by-line loop, the only path that raises
    ParseError.
    """
    if "#" not in text and set(map(len, map(str.split, text.splitlines()))) <= {0, 2}:
        return _parse_pairs(text)
    edges = []
    for lineno, tokens in _strip_comments(text):
        if len(tokens) > 2:
            raise ParseError(
                f"expected 1 or 2 tokens, got {len(tokens)}", line=lineno
            )
        edges.append(tokens)
    return Graph([v for e in edges for v in e], edges)


def _parse_pairs(text):
    """`parse_graph`'s fast path: whitespace-separated tokens, two per edge."""
    index = {}  # a new token gets the next dense index
    ids = [index.setdefault(v, len(index)) for v in text.split()]
    adj = [[] for _ in index]
    pairs = iter(ids)
    for i, j in zip(pairs, pairs):
        adj[i].append(j)
        adj[j].append(i)
    for i, row in enumerate(adj):  # repeated and reversed edges, and loops, once
        adj[i] = sorted(set(row))
    return Graph._from_lists(list(index), index, adj)


def parse_hypergraph(text):
    """Parse hyperedge-list text: one hyperedge per line, '#' comments."""
    hyperedges = []
    for lineno, tokens in _strip_comments(text):
        if len(set(tokens)) != len(tokens):
            raise ParseError("duplicate vertex within hyperedge", line=lineno)
        hyperedges.append(tuple(tokens))
    return Hypergraph([v for e in hyperedges for v in e], hyperedges)
