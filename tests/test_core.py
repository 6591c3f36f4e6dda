"""Graph/hypergraph construction, parsing, and basic combinatorics."""

import random
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import (
    Graph,
    Hypergraph,
    ParseError,
    Partition,
    PreconditionError,
    ResourceCapError,
    UnknownVertexError,
    WalkMode,
    enumerate_removal_sets,
    neighborhood_graph,
    parse_graph,
    parse_hypergraph,
)
from equivcurv import fixtures
import equivcurv.partitions as partitions_module
from equivcurv.core import BfsRow, Budget

from support import random_connected_graph, random_hypergraph


def to_networkx(g):
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edge_ids())
    return out


class TestParsing:
    def test_simple_edge_list(self):
        g = parse_graph("a b\nb c\n")
        assert g.vertices == ["a", "b", "c"]
        assert g.edge_ids() == [("a", "b"), ("b", "c")]

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\na b\n  # inline comment line\nb c\n")
        assert g.n_edges() == 2

    def test_single_token_is_loop(self):
        g = parse_graph("a\na b\n")
        assert g.has_loops()
        assert "a" in g.neighbors("a")

    def test_three_tokens_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("a b\na b c\n")
        assert exc.value.line == 2

    def test_duplicate_edges_collapse(self):
        g = parse_graph("a b\nb a\na b\n")
        assert g.n_edges() == 1

    def test_hypergraph_duplicate_vertex_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_hypergraph("a b a\n")
        assert exc.value.line == 1

    def test_hypergraph_keeps_duplicate_hyperedges(self):
        h = parse_hypergraph("a b c\na b c\n")
        assert len(h.hyperedges) == 2
        assert h.degree("a") == 2

    def test_vertex_order_is_first_appearance(self):
        g = parse_graph("z y\ny x\n")
        assert g.vertices == ["z", "y", "x"]


class TestGraphBasics:
    def test_unknown_vertex(self):
        g = parse_graph("a b\n")
        with pytest.raises(UnknownVertexError):
            g.degree("c")

    def test_degree_and_neighbors(self):
        g = fixtures.graph("fig3")
        assert g.degree("q") == 3
        assert g.neighbors("q") == {"a", "b", "c"}

    def test_loop_makes_self_neighbor(self):
        g = parse_graph("a\na b\n")
        assert "a" in g.neighbors("a")
        assert g.degree("a") == 2

    def test_without_edges(self):
        g = fixtures.graph("c6")
        pruned = g.without_edges([("1", "2")])
        assert pruned.n_edges() == 5
        assert "2" not in pruned.neighbors("1")
        with pytest.raises(PreconditionError):
            g.without_edges([("1", "3")])

    @pytest.mark.parametrize("removed", [
        [("1", "2"), ("1", "2")], [("1", "2"), ("2", "1")], [("2", "1"), ("1", "2")],
    ])
    def test_without_edges_removes_a_repeated_pair_once(self, removed):
        pruned = fixtures.graph("c6").without_edges(removed)
        assert pruned.edge_ids() == [
            ("1", "6"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"),
        ]

    @pytest.mark.parametrize("pair", [("1", "3"), ("3", "1"), ("1", "1")])
    def test_without_edges_refuses_a_non_edge(self, pair):
        g = fixtures.graph("c6")
        message = f"edge ({pair[0]!r}, {pair[1]!r}) not present in graph"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            g.without_edges([("1", "2"), pair])

    def test_counting_edges_builds_no_edge_table(self):
        rng = random.Random(3)
        n = 250
        names = [f"v{i}" for i in range(n)]
        edges = {frozenset((names[i], names[(i + 1) % n])) for i in range(n)}
        while len(edges) < 1000:
            edges.add(frozenset(rng.sample(names, 2)))
        g3 = neighborhood_graph(Graph(names, map(tuple, edges)), 3).graph
        m = sum(j >= i for i, row in enumerate(g3.adjacency()) for j in row)
        assert m > 20_000
        tracemalloc.start()
        try:
            assert g3.n_edges() == m
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m  # under one byte per edge

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_handshake(self, seed):
        g = random_connected_graph(random.Random(seed))
        loops = sum(1 for u, v in g.edge_ids() if u == v)
        assert sum(g.degree(v) for v in g.vertices) == 2 * (g.n_edges() - loops) + loops

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_neighbor_symmetry(self, seed):
        g = random_connected_graph(random.Random(seed))
        for v in g.vertices:
            for w in g.neighbors(v):
                assert v in g.neighbors(w)


class TestDistances:
    def test_c6_distances(self):
        g = fixtures.graph("c6")
        assert g.distance("1", "4") == 3
        assert g.distance("1", "1") == 0

    def test_disconnected_distance_none(self):
        g = parse_graph("a b\nc d\n")
        assert g.distance("a", "c") is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bfs_matches_networkx(self, seed):
        g = random_connected_graph(random.Random(seed))
        lengths = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        for u in g.vertices:
            du = g.distances_from(u)
            assert du == lengths[u]


class TestResumableRows:
    """A BfsRow resumed over any sequence of target sets keeps exact hop counts."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_resumed_row_matches_networkx(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=14)
        if rng.random() < 0.5:  # a second component, never reached
            g = Graph(g.vertices + ["u", "w"], g.edge_ids() + [("u", "w")])
        lengths = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        n = len(g.vertices)
        s = rng.randrange(n)
        want = {g.index[v]: d for v, d in lengths[g.vertices[s]].items()}
        row = BfsRow(s)
        for _ in range(rng.randint(1, 5)):
            targets = rng.sample(range(n), rng.randint(1, min(3, n)))
            dist = row.reach(g.adjacency(), targets)
            assert all(dist[i] == want[i] for i in dist)
            assert all(t in dist for t in targets if t in want)
            # Only the last level reached may be partly expanded.
            deepest = max(dist.values())
            assert all(i in dist for i, d in want.items() if d < deepest)
        assert row.reach(g.adjacency()) == want

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_rows_grow_whole_levels(self, seed):
        """After any sequence of calls, `dist` holds exactly the vertices
        within `depth` hops, and `level` those exactly `depth` hops away."""
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=14)
        if rng.random() < 0.5:  # a second component, never reached
            g = Graph(g.vertices + ["u", "w"], g.edge_ids() + [("u", "w")])
        lengths = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
        n = len(g.vertices)
        s = rng.randrange(n)
        want = {g.index[v]: d for v, d in lengths[g.vertices[s]].items()}
        row = BfsRow(s)
        for _ in range(rng.randint(1, 5)):
            sample = rng.sample(range(n), rng.randint(0, min(3, n)))
            targets = rng.choice([None, sample])
            radius = rng.choice([None, rng.randint(0, 4)])
            before = row.depth
            dist = row.reach(g.adjacency(), targets, radius)
            assert dist == {i: d for i, d in want.items() if d <= row.depth}
            at_depth = sorted(i for i, d in want.items() if d == row.depth)
            assert sorted(row.level) == at_depth
            if radius is None or row.depth < radius:  # not stopped by the radius
                assert all(t in dist for t in want if targets is None or t in targets)
            if row.depth > before and row.level and row.depth != radius:
                # grown for its targets: the last level grown holds one of them
                assert any(dist[t] == row.depth for t in targets if t in dist)

    def test_stops_at_the_last_target(self):
        g = fixtures.graph("p9")
        row = BfsRow(g.index["1"])
        row.reach(g.adjacency(), [g.index["3"]])
        assert len(row.dist) < len(g.vertices)


class TestComponentsAndBipartition:
    def test_components_partition(self):
        g = parse_graph("a b\nc d\nd e\n")
        p = g.connected_components()
        assert p.blocks == [("a", "b"), ("c", "d", "e")]


class TestBudget:
    def test_charges_up_to_the_limit_then_refuses(self):
        budget = Budget("path", 5)
        budget.charge(2)
        budget.charge(3)  # exactly the limit is still allowed
        with pytest.raises(ResourceCapError) as info:
            budget.charge(1)
        assert str(info.value) == "path enumeration exceeded work budget 5"

    def test_refusal_names_the_budget_its_limit_and_the_units_used(self):
        with pytest.raises(ResourceCapError) as info:
            Budget("walk", 5).charge(7)
        exc = info.value
        assert (exc.cap, exc.limit, exc.used) == ("walk", 5, 7)
        assert str(exc) == "walk enumeration exceeded work budget 5"
        with pytest.raises(ResourceCapError) as info:
            fixtures.graph("two5").k_cycles(5, work_budget=3)
        exc = info.value
        assert (exc.cap, exc.limit) == ("path", 3) and exc.used > 3
        assert str(exc) == "path enumeration exceeded work budget 3"

    @pytest.mark.parametrize("kind", ["path", "walk", "removal-set"])
    def test_each_kind_is_refused_past_its_limit(self, kind, monkeypatch):
        g = fixtures.graph("two5")
        if kind == "removal-set":
            monkeypatch.setattr(partitions_module, "DEFAULT_WORK_BUDGET", 3)
            run = lambda: enumerate_removal_sets(g)
        else:
            mode = WalkMode.PATH if kind == "path" else WalkMode.NON_BACKTRACKING
            run = lambda: neighborhood_graph(g, 5, mode, work_budget=3)
        with pytest.raises(ResourceCapError) as info:
            run()
        exc = info.value
        assert (exc.cap, exc.limit) == (kind, 3) and exc.used > 3
        assert str(exc) == f"{kind} enumeration exceeded work budget 3"

    def test_refusal_requires_the_kind_the_limit_and_the_use(self):
        with pytest.raises(TypeError):
            ResourceCapError("path enumeration exceeded work budget 3")
        exc = ResourceCapError("m", "walk", 3, 4)
        assert (exc.cap, exc.limit, exc.used, exc.exit_code) == ("walk", 3, 4, 4)


class TestCycles:
    def test_c6_six_cycle(self):
        g = fixtures.graph("c6")
        assert len(g.k_cycles(6)) == 1
        assert g.k_cycles(3) == []

    def test_p9_six_cycle(self):
        g = fixtures.graph("p9")
        cycles = g.k_cycles(6)
        assert len(cycles) == 1
        assert set(cycles[0]) == {"4", "5", "6", "9", "8", "7"}

    def test_triangle_enumeration(self):
        g = parse_graph("a b\nb c\nc a\nc d\nd a\n")
        assert g.triangles() == [("a", "b", "c"), ("a", "c", "d")]

    def test_k_cycles_k_too_small(self):
        with pytest.raises(PreconditionError):
            fixtures.graph("c6").k_cycles(2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 6))
    def test_cycle_count_matches_networkx(self, seed, k):
        g = random_connected_graph(random.Random(seed), max_vertices=8)
        simple = [c for c in nx.simple_cycles(to_networkx(g)) if len(c) == k]
        assert len(g.k_cycles(k)) == len(simple)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_triangles_sorted_and_match_networkx(self, seed):
        rng = random.Random(seed)
        n, p = rng.randint(3, 40), rng.uniform(0.05, 0.5)
        names = [f"v{i}" for i in range(n)]
        g = Graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]
                          if rng.random() < p])
        keys = [tuple(g.index[v] for v in t) for t in g.triangles()]
        assert all(a < b < c for a, b, c in keys)
        assert keys == sorted(keys)
        expected = {frozenset(c) for c in nx.simple_cycles(to_networkx(g), length_bound=3)}
        assert {frozenset(t) for t in g.triangles()} == expected
        assert len(keys) == len(expected)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 6))
    def test_k_cycles_above_64_vertices_match_networkx(self, seed, k):
        # A ring with short chords: 65-100 vertices, many cycles of length <= 6.
        rng = random.Random(seed)
        n = rng.randint(65, 100)
        edges = [(f"v{i}", f"v{(i + 1) % n}") for i in range(n)]
        for _ in range(n // 3):
            i = rng.randrange(n)
            edges.append((f"v{i}", f"v{(i + rng.randint(2, 4)) % n}"))
        g = Graph([f"v{i}" for i in range(n)], edges)

        def canonical(cycle):
            idx = [g.index[v] for v in cycle]
            at = idx.index(min(idx))
            idx = idx[at:] + idx[:at]
            return tuple(idx if idx[1] < idx[-1] else idx[:1] + idx[:0:-1])

        expected = sorted(
            canonical(c)
            for c in nx.simple_cycles(to_networkx(g), length_bound=k)
            if len(c) == k
        )
        assert [tuple(g.index[v] for v in c) for c in g.k_cycles(k)] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 5))
    def test_k_cycles_budget_is_one_unit_per_directed_path(self, seed, k):
        # One unit per directed path of at most k - 1 steps whose vertices
        # all lie above its start: the DFS enters no vertex below its start.
        # With k > |V| no k-cycle exists, and the answer costs nothing.
        g = random_connected_graph(random.Random(seed), max_vertices=8)
        if k > len(g.vertices):
            assert g.k_cycles(k, work_budget=0) == []
            return
        nxg = to_networkx(g)
        cost = sum(
            1
            for s in nxg
            for t in nxg
            if s != t
            for path in nx.all_simple_paths(nxg, s, t, cutoff=k - 1)
            if all(g.index[v] > g.index[s] for v in path[1:])
        )
        assert g.k_cycles(k, work_budget=cost) == g.k_cycles(k)
        with pytest.raises(ResourceCapError, match="path enumeration exceeded work budget"):
            g.k_cycles(k, work_budget=cost - 1)


class TestHypergraph:
    def test_neighbors_and_degree(self):
        h = fixtures.hypergraph("hx")
        assert h.neighbors("x") == {"a", "b", "c"}
        assert h.neighbors("y") == {"a", "b", "c"}
        assert h.degree("x") == 1
        assert h.degree("y") == 3

    def test_associated_graph(self):
        h = fixtures.hypergraph("hx")
        g = h.associated_graph()
        assert "b" in g.neighbors("a")
        assert "a" in g.neighbors("y")
        assert "y" not in g.neighbors("x")

    def test_singleton_hyperedge_is_loop(self):
        h = Hypergraph(["a", "b"], [("a",), ("a", "b")])
        assert h.has_loops()
        assert h.associated_graph().has_loops()

    def test_distance_counts_hyperedge_hops(self):
        h = fixtures.hypergraph("h1")
        assert h.distance("x", "y") == 2
        assert h.distance("x", "a") == 1

    def test_duplicate_vertex_in_hyperedge_rejected(self):
        with pytest.raises(PreconditionError):
            Hypergraph(["a"], [("a", "a")])


class TestDerivedGraphs:
    """`without_edges` and `associated_graph` build on the base's dense index;
    they must equal a graph built from vertex ids."""

    @staticmethod
    def same_graph(derived, expected):
        assert derived.vertices == expected.vertices
        assert derived.edge_pairs() == expected.edge_pairs()
        assert derived._adj == expected._adj
        assert derived.has_loops() == expected.has_loops()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_without_edges(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        if rng.random() < 0.3:
            g = Graph(g.vertices, g.edge_ids() + [(rng.choice(g.vertices),)])
        edges = g.edge_ids()
        removed = rng.sample(edges, rng.randint(0, len(edges)))
        kept = [e for e in edges if e not in removed]
        removed = [e[::-1] if rng.random() < 0.5 else e for e in removed]
        self.same_graph(g.without_edges(removed), Graph(g.vertices, kept))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_associated_graph(self, seed):
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(rng.randint(1, 8))]
        hyperedges = [
            tuple(rng.sample(names, rng.randint(1, min(4, len(names)))))
            for _ in range(rng.randint(1, 10))
        ]
        hyperedges += [rng.choice(hyperedges) for _ in range(rng.randint(0, 3))]
        h = Hypergraph(names, hyperedges)
        id_edges = [
            (a, b) for e in hyperedges for a in e for b in e if a != b or len(e) == 1
        ]
        self.same_graph(h.associated_graph(), Graph(names, id_edges))


def _without_edges(g, removed):
    h = g.without_edges(removed)
    return h.edge_pairs(), h.adjacency(), h.has_loops()


# Each edge query, as a function of the graph and a list of edges to remove.
EDGE_QUERIES = {
    "edge_pairs": lambda g, removed: g.edge_pairs(),
    "edge_ids": lambda g, removed: g.edge_ids(),
    "n_edges": lambda g, removed: g.n_edges(),
    "has_loops": lambda g, removed: g.has_loops(),
    "without_edges": _without_edges,
}


class TestLazyEdgeTables:
    """A graph keeps only its adjacency lists and reads every edge view off
    them when asked. Every edge query must answer the same as the first read
    of a fresh graph, after `adjacency()`, and after every other query."""

    @staticmethod
    def check(make, rng):
        """`make()` builds a fresh copy of one graph."""
        edges = make().edge_ids()
        removed = rng.sample(edges, rng.randint(0, len(edges)))
        removed = [e[::-1] if rng.random() < 0.5 else e for e in removed]
        for name, query in EDGE_QUERIES.items():
            first = query(make(), removed)
            g = make()
            g.adjacency()
            assert query(g, removed) == first, name
            g = make()
            for other in EDGE_QUERIES.values():
                other(g, removed)
            assert query(g, removed) == first, name
        # The tables read the same edges as the adjacency lists hold.
        g = make()
        adj = g.adjacency()
        pairs = sorted({(min(i, j), max(i, j))
                        for i, row in enumerate(adj) for j in row})
        assert g.edge_pairs() == pairs
        assert g.n_edges() == len(pairs)
        assert g.has_loops() == any(i == j for i, j in pairs)

    @pytest.mark.parametrize("name", sorted(fixtures.GRAPHS))
    def test_fixtures(self, name):
        rng = random.Random(name)
        base = fixtures.graph(name)
        self.check(lambda: fixtures.graph(name), rng)
        self.check(lambda: neighborhood_graph(fixtures.graph(name), 2).graph, rng)
        removed = rng.sample(base.edge_ids(), rng.randint(0, base.n_edges()))
        self.check(lambda: fixtures.graph(name).without_edges(removed), rng)

    @pytest.mark.parametrize("name", sorted(fixtures.HYPERGRAPHS))
    def test_associated_graphs_of_fixtures(self, name):
        rng = random.Random(name)
        self.check(lambda: fixtures.hypergraph(name).associated_graph(), rng)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        vertices, edges = g.vertices, g.edge_ids()
        self.check(lambda: neighborhood_graph(Graph(vertices, edges), 2).graph, rng)
        if rng.random() < 0.3:
            edges.append((rng.choice(vertices),))
        self.check(lambda: Graph(vertices, edges), rng)
        text = "".join(" ".join(e) + "\n" for e in edges)
        self.check(lambda: parse_graph(text), rng)
        edge_ids = Graph(vertices, edges).edge_ids()
        removed = rng.sample(edge_ids, rng.randint(0, len(edge_ids)))
        self.check(lambda: Graph(vertices, edges).without_edges(removed), rng)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_associated_graphs(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng)
        self.check(lambda: Hypergraph(h.vertices, h.hyperedges).associated_graph(), rng)


class TestPartition:
    def test_roundtrip_json(self):
        p = Partition([("a", "b"), ("c",)])
        assert Partition.from_json(p.to_json()) == p

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(PreconditionError):
            Partition([("a", "b"), ("b",)])

    def test_empty_block_rejected(self):
        with pytest.raises(PreconditionError):
            Partition([()])

    def test_covers(self):
        p = Partition([("a",), ("b",)])
        assert p.covers({"a", "b"})
        assert not p.covers({"a", "b", "c"})

    def test_bad_json(self):
        with pytest.raises(ParseError):
            Partition.from_json(["a"])
