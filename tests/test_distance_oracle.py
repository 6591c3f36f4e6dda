"""Every distance the library computes equals networkx shortest-path lengths.

One-off distances are met from both ends. A cost row that no later pair reads
searches d + 1 hops, not d + 2: r1 = (d + 2) // 2 from its source, then
r2 = d + 1 - r1 <= r1 around each target it misses, so a shortest path to
that target crosses its ring. Every cost is at most d + 2, so a cell the two
searches do not meet is d + 2. Rows kept for a later pair expand as far as
they need. All of them must stay exact.
"""

import random
from contextlib import contextmanager

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equivcurv.transport as transport
from equivcurv import Graph, Hypergraph, SimilarityWalk, curvatures

from support import random_connected_graph, random_hypergraph


def lengths_of(structure):
    """networkx all-pairs lengths of a graph or of a hypergraph's member pairs."""
    out = nx.Graph()
    out.add_nodes_from(structure.vertices)
    if isinstance(structure, Graph):
        out.add_edges_from(e for e in structure.edge_ids() if e[0] != e[1])
    else:
        for e in structure.hyperedges:
            out.add_edges_from((a, b) for a in e for b in e if a < b)
    return dict(nx.all_pairs_shortest_path_length(out))


def with_second_component(structure, rng):
    """The structure plus, half of the time, a disjoint path of 2 or 3 vertices."""
    if rng.random() < 0.5:
        return structure
    extra = [f"w{i}" for i in range(rng.randint(2, 3))]
    links = list(zip(extra, extra[1:]))
    if isinstance(structure, Graph):
        return Graph(structure.vertices + extra, structure.edge_ids() + links)
    return Hypergraph(structure.vertices + extra, structure.hyperedges + links)


def pairs_repeating_x(rng, lengths, count):
    """Pairs within a component; about half reuse an earlier x, so rows get kept."""
    pairs = []
    for _ in range(count):
        if pairs and rng.random() < 0.5:
            x = rng.choice(pairs)[0]
        else:
            x = rng.choice(sorted(lengths))
        others = sorted(v for v in lengths[x] if v != x)
        if others:
            pairs.append((x, rng.choice(others)))
    return pairs


@contextmanager
def costs_seen():
    """Record (supp mu, supp nu, cost) of every `wasserstein1` call given a cost."""
    seen = []
    solve = transport.wasserstein1

    def recording(mu, nu, dist=None, *, cost=None):
        if callable(cost):  # the block reader, over every position
            seen.append((mu.support(), nu.support(),
                         cost(range(len(mu.support())), range(len(nu.support())))))
        elif cost is not None:
            seen.append((mu.support(), nu.support(), [list(r) for r in cost]))
        return solve(mu, nu, dist, cost=cost)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "wasserstein1", recording)
        yield seen


def check_batch(structure, pairs, walk, lengths, seen):
    """Every curvature's d and every cost cell equal networkx lengths.

    Returns each cost cell's offset d(u, v) - d(x, y).
    """
    del seen[:]
    results = list(curvatures(structure, pairs, walk))
    assert len(seen) == len(pairs)
    offsets = set()
    for (x, y), result, (sources, targets, cost) in zip(pairs, results, seen):
        assert result.distance == lengths[x][y]
        for u, costs in zip(sources, cost):
            assert costs == [lengths[u][v] for v in targets]
            offsets.update(c - result.distance for c in costs)
    return offsets


class TestDistanceOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_graph_distances_and_costs(self, seed):
        rng = random.Random(seed)
        g = with_second_component(random_connected_graph(rng, max_vertices=14), rng)
        lengths = lengths_of(g)
        for x in g.vertices:
            for y in g.vertices:
                assert g.distance(x, y) == lengths[x].get(y)
        pairs = pairs_repeating_x(rng, lengths, rng.randint(1, 12))
        with costs_seen() as seen:
            check_batch(g, pairs, SimilarityWalk.GRAPH, lengths, seen)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000),
           st.sampled_from([SimilarityWalk.EN, SimilarityWalk.EE]))
    def test_hypergraph_distances_and_costs(self, seed, walk):
        rng = random.Random(seed)
        h = random_hypergraph(rng, max_vertices=12, max_hyperedges=8)
        h = with_second_component(h, rng)
        lengths = lengths_of(h)
        for x in h.vertices:
            for y in h.vertices:
                assert h.distance(x, y) == lengths[x].get(y)
        pairs = pairs_repeating_x(rng, lengths, rng.randint(1, 12))
        with costs_seen() as seen:
            check_batch(h, pairs, walk, lengths, seen)

    @pytest.mark.parametrize("n", [3, 4, 7, 12, 14, 25])
    @pytest.mark.parametrize("closed", [False, True])
    def test_paths_and_cycles_reach_both_extremes(self, n, closed):
        names = [str(i) for i in range(n)]
        edges = list(zip(names, names[1:]))
        if closed:
            edges.append((names[-1], names[0]))
        g = Graph(names, edges)
        lengths = lengths_of(g)
        walk = SimilarityWalk.GRAPH
        offsets = set()
        with costs_seen() as seen:
            for x in names:
                for y in names:
                    assert g.distance(x, y) == lengths[x][y]
                    if x != y:  # one pair per call: every row is one-off
                        offsets |= check_batch(g, [(x, y)], walk, lengths, seen)
            # every pair at once: most rows are kept for a later pair
            pairs = [(x, y) for x in names for y in names if x != y]
            offsets |= check_batch(g, pairs, walk, lengths, seen)
        if n >= 7:  # long enough for d(u, v) = d + 2
            assert {-2, 2} <= offsets


def gnm_graph(n, m, seed):
    """networkx's G(n, m) on ids '0', '1', ..., cut to its largest component."""
    nxg = nx.gnm_random_graph(n, m, seed=seed)
    nxg = nxg.subgraph(max(nx.connected_components(nxg), key=len))
    return Graph([str(v) for v in nxg], [(str(a), str(b)) for a, b in nxg.edges()])


def check_far_pairs(g, pairs, lengths):
    """Each pair in its own call, so every row is one-off; every cell is exact."""
    with costs_seen() as seen:
        for pair in pairs:
            check_batch(g, [pair], SimilarityWalk.GRAPH, lengths, seen)


class TestOneOffRows:
    """A row no later pair reads searches d + 1 hops; an unmet cell is d + 2."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(10, 30).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(n - 1, n * 8 // 5), st.integers(0, 10_000))
    ))
    def test_sparse_graph_pairs_at_distance_3_or_more(self, drawn):
        g = gnm_graph(*drawn)
        lengths = lengths_of(g)
        pairs = [(x, y) for x in g.vertices for y in g.vertices if lengths[x][y] >= 3]
        check_far_pairs(g, pairs, lengths)

    def test_far_cost_is_not_read_as_a_ring_distance(self):
        # d('0', '2') = 3, so r1 = 2 and r2 = 2. Source '9' reaches no target
        # within 2 hops. Cell ('9', '11') is 5 = d + 2: no vertex of 11's ring
        # lies within 2 hops of '9'. Targets '1' and '10' come first in the row
        # and lie on that ring; read back as ring distances, their costs (5 and
        # 4) would give 6.
        g = gnm_graph(14, 17, 13)
        assert len(g.vertices) == 14
        check_far_pairs(g, [("0", "2")], lengths_of(g))
