"""Graph/hypergraph construction, parsing, and basic combinatorics."""

import random

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
    UnknownVertexError,
    parse_graph,
    parse_hypergraph,
)
from equivcurv import fixtures
from equivcurv.core import BfsRow

from support import random_connected_graph


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
        assert g.has_edge("a", "a")

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
        assert not pruned.has_edge("1", "2")
        with pytest.raises(PreconditionError):
            g.without_edges([("1", "3")])

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
        n = g.n_vertices()
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

    def test_stops_at_the_last_target(self):
        g = fixtures.graph("p9")
        row = BfsRow(g.index["1"])
        row.reach(g.adjacency(), [g.index["3"]])
        assert len(row.dist) < g.n_vertices()


class TestComponentsAndBipartition:
    def test_components_partition(self):
        g = parse_graph("a b\nc d\nd e\n")
        p = g.connected_components()
        assert p.blocks == [("a", "b"), ("c", "d", "e")]

    def test_bipartition_even_cycle(self):
        g = fixtures.graph("c6")
        b = g.bipartition()
        assert b.is_bipartite
        assert set(b.parts[0]) == {"1", "3", "5"}
        assert set(b.parts[1]) == {"2", "4", "6"}

    def test_bipartition_odd_cycle(self):
        g = parse_graph("a b\nb c\nc a\n")
        assert not g.bipartition().is_bipartite

    def test_bipartition_loop(self):
        g = parse_graph("a\na b\n")
        assert not g.bipartition().is_bipartite

    def test_bipartition_disconnected_rejected(self):
        g = parse_graph("a b\nc d\n")
        with pytest.raises(PreconditionError):
            g.bipartition()

    def test_p9_bipartite(self):
        b = fixtures.graph("p9").bipartition()
        assert b.is_bipartite

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bipartition_matches_networkx(self, seed):
        g = random_connected_graph(random.Random(seed))
        assert g.bipartition().is_bipartite == nx.is_bipartite(to_networkx(g))


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
        assert g.has_edge("a", "b")
        assert g.has_edge("y", "a")
        assert not g.has_edge("x", "y")

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
