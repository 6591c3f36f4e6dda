"""Graph and hypergraph representations plus basic combinatorics.

Vertex identity is string-based at the boundary and dense-integer internally;
every public result is expressed in the original string ids so output does not
depend on hash order. Structures are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, PreconditionError, ResourceCapError, UnknownVertexError

K_CYCLE_VERTEX_CAP = 64


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

    def vertex_set(self):
        return set(self.block_of)

    def covers(self, vertices):
        return self.vertex_set() == set(vertices)

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


@dataclass(frozen=True)
class Bipartition:
    is_bipartite: bool
    parts: tuple | None  # (part0, part1) as tuples of vertex ids, or None


def _bfs(adj, s, t=None):
    """Dense-index BFS: dict index -> hop count from s, reachable vertices only.

    Expands level by level and stops as soon as t, if given, is reached.
    """
    dist = {s: 0}
    frontier = [] if s == t else [s]
    d = 0
    while frontier:
        d += 1
        reached = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = d
                    if y == t:
                        return dist
                    reached.append(y)
        frontier = reached
    return dist


def _strip_comments(text):
    """Yield (lineno, tokens) for non-comment, non-blank lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


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

    def __contains__(self, v):
        return v in self.index

    def n_vertices(self):
        return len(self.vertices)


class Graph(_Indexed):
    """Loop-permitting simple undirected graph.

    Edges are unordered pairs; an edge of cardinality one is a loop and makes
    the vertex its own neighbour. Duplicate edges are deduplicated.
    """

    def __init__(self, vertices, edges):
        super().__init__(vertices)
        edge_idx = set()
        self._has_loops = False
        for e in edges:
            e = tuple(e)
            ids = sorted({self._idx(v) for v in e})
            if len(ids) == 1:
                edge_idx.add((ids[0], ids[0]))
                self._has_loops = True
            elif len(ids) == 2:
                edge_idx.add((ids[0], ids[1]))
            else:
                raise PreconditionError(f"edge {e!r} has more than two endpoints")
        self._edges = frozenset(edge_idx)
        adj = [[] for _ in self.vertices]
        for i, j in sorted(self._edges):
            if i == j:
                adj[i].append(i)
            else:
                adj[i].append(j)
                adj[j].append(i)
        self._adj = [sorted(a) for a in adj]

    # -- edges --------------------------------------------------------------

    def edge_pairs(self):
        """Edges as sorted (i, j) dense-index pairs; loops as (i, i)."""
        return sorted(self._edges)

    def edge_ids(self):
        """Edges as sorted pairs of vertex ids (loops as (v, v))."""
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edge_pairs()]

    def has_edge(self, u, v):
        i, j = self._idx(u), self._idx(v)
        return (min(i, j), max(i, j)) in self._edges

    def has_loops(self):
        return self._has_loops

    def n_edges(self):
        return len(self._edges)

    def without_edges(self, removed):
        """New graph on the same vertex set with the given edges deleted."""
        removed_idx = set()
        for u, v in removed:
            i, j = self._idx(u), self._idx(v)
            key = (min(i, j), max(i, j))
            if key not in self._edges:
                raise PreconditionError(f"edge ({u!r}, {v!r}) not present in graph")
            removed_idx.add(key)
        kept = [
            (self.vertices[i], self.vertices[j])
            for i, j in self._edges
            if (i, j) not in removed_idx
        ]
        return Graph(self.vertices, kept)

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
        """BFS shortest-path distance; None when unreachable."""
        s, t = self._idx(u), self._idx(v)
        return _bfs(self._adj, s, t).get(t)

    def distances_from(self, u):
        """Dict vertex id -> BFS distance, reachable vertices only."""
        dist = _bfs(self._adj, self._idx(u))
        return {self.vertices[i]: d for i, d in dist.items()}

    def connected_components(self):
        """Partition into maximal connected sets, ordered by smallest index."""
        seen = set()
        blocks = []
        for start in range(len(self.vertices)):
            if start not in seen:
                comp = _bfs(self._adj, start)
                seen.update(comp)
                blocks.append(tuple(self.vertices[i] for i in sorted(comp)))
        return Partition(blocks)

    def is_connected(self):
        return len(self.vertices) <= 1 or len(self.connected_components().blocks) == 1

    def bipartition(self):
        """2-colouring by BFS parity; requires a connected graph."""
        if not self.is_connected():
            raise PreconditionError(
                "bipartition requires a connected graph; apply per component"
            )
        # Connected, so bipartite iff no edge (a loop included) joins two
        # vertices of equal BFS-depth parity.
        depth = _bfs(self._adj, 0) if self.vertices else {}
        if any(depth[i] % 2 == depth[j] % 2 for i, j in self._edges):
            return Bipartition(False, None)
        parts = tuple(
            tuple(v for i, v in enumerate(self.vertices) if depth[i] % 2 == side)
            for side in (0, 1)
        )
        return Bipartition(True, parts)

    # -- small cycles --------------------------------------------------------

    def triangles(self):
        """Every 3-clique exactly once, lexicographic by dense index."""
        out = []
        n = len(self.vertices)
        adjsets = [set(a) for a in self._adj]
        for i in range(n):
            for j in self._adj[i]:
                if j <= i:
                    continue
                for k in adjsets[i] & adjsets[j]:
                    if k > j:
                        out.append(
                            (self.vertices[i], self.vertices[j], self.vertices[k])
                        )
        return out

    def k_cycles(self, k, max_vertices=K_CYCLE_VERTEX_CAP):
        """All simple cycles on exactly k distinct vertices, canonicalised.

        Each cycle is listed once up to rotation and reflection, as a tuple
        starting at its minimum-index vertex with the smaller of its two
        neighbours second. Exhaustive DFS; refuses graphs above the vertex cap.
        """
        if k < 3:
            raise PreconditionError("k-cycles require k >= 3")
        if len(self.vertices) > max_vertices:
            raise ResourceCapError(
                f"k_cycles vertex cap {max_vertices} exceeded "
                f"({len(self.vertices)} vertices)"
            )
        cycles = []
        n = len(self.vertices)
        adjsets = [set(a) for a in self._adj]

        def extend(start, path, visited):
            cur = path[-1]
            if len(path) == k:
                if start in adjsets[cur] and path[1] < path[-1]:
                    cycles.append(tuple(self.vertices[i] for i in path))
                return
            for nxt in self._adj[cur]:
                if nxt > start and nxt not in visited:
                    visited.add(nxt)
                    path.append(nxt)
                    extend(start, path, visited)
                    path.pop()
                    visited.remove(nxt)

        for start in range(n):
            extend(start, [start], {start})
        return sorted(cycles, key=lambda c: tuple(self.index[v] for v in c))


class Hypergraph(_Indexed):
    """Vertex set plus a multiset of hyperedges (duplicates kept)."""

    def __init__(self, vertices, hyperedges):
        super().__init__(vertices)
        self.hyperedges = []
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
            self.hyperedges.append(e)
        self._incidence = [[] for _ in self.vertices]
        for ei, e in enumerate(self.hyperedges):
            for v in e:
                self._incidence[self.index[v]].append(ei)
        self._graph = None

    def has_loops(self):
        return self._has_loops

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
        s, t = self._idx(u), self._idx(v)
        return _bfs(self.associated_graph().adjacency(), s, t).get(t)

    def distances_from(self, u):
        """Dict vertex id -> hyperedge-hop distance, reachable vertices only."""
        dist = _bfs(self.associated_graph().adjacency(), self._idx(u))
        return {self.vertices[i]: d for i, d in dist.items()}

    def associated_graph(self):
        """The graph with an edge wherever two vertices share a hyperedge.

        Singleton hyperedges become loops; BFS distances ignore them. Built on
        first use and kept, so parsing does not pay for it.
        """
        if self._graph is None:
            edges = []
            for e in self.hyperedges:
                if len(e) == 1:
                    edges.append((e[0],))
                else:
                    edges.extend((a, b) for i, a in enumerate(e) for b in e[i + 1 :])
            self._graph = Graph(self.vertices, edges)
        return self._graph

    def is_connected(self):
        return self.associated_graph().is_connected()


def parse_graph(text):
    """Parse edge-list text: one edge per line, 1 token = loop, '#' comments."""
    edges = []
    for lineno, tokens in _strip_comments(text):
        if len(tokens) > 2:
            raise ParseError(
                f"expected 1 or 2 tokens, got {len(tokens)}", line=lineno
            )
        edges.append(tuple(tokens))
    return Graph([v for e in edges for v in e], edges)


def parse_hypergraph(text):
    """Parse hyperedge-list text: one hyperedge per line, '#' comments."""
    hyperedges = []
    for lineno, tokens in _strip_comments(text):
        if len(set(tokens)) != len(tokens):
            raise ParseError("duplicate vertex within hyperedge", line=lineno)
        hyperedges.append(tuple(tokens))
    return Hypergraph([v for e in hyperedges for v in e], hyperedges)
