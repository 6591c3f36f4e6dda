"""n-neighbourhood graphs in all three modes, plus caps and inclusions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import (
    Graph,
    Hypergraph,
    PreconditionError,
    ResourceCapError,
    WalkMode,
    fixtures,
    hyper_neighborhood_graph,
    inclusion_check,
    neighborhood_graph,
    parse_graph,
)
import equivcurv.neighborhood as neighborhood_module
from equivcurv.core import simple_paths

from support import random_connected_graph, random_hypergraph


def path_oracle(g, n):
    """Edge set of G_n by brute force over vertex sequences (small graphs)."""
    pairs = set()
    for seq in itertools.permutations(range(g.n_vertices()), n + 1):
        if all(
            g.has_edge(g.vertices[seq[i]], g.vertices[seq[i + 1]])
            for i in range(n)
        ):
            a, b = seq[0], seq[-1]
            pairs.add(frozenset((g.vertices[a], g.vertices[b])))
    return pairs


def walk_oracle(g, n):
    """Edge set of G_n^walk via adjacency-matrix boolean powers."""
    size = g.n_vertices()
    adj = [[False] * size for _ in range(size)]
    for u, v in g.edge_ids():
        i, j = g.index[u], g.index[v]
        adj[i][j] = adj[j][i] = True
    reach = adj
    for _ in range(n - 1):
        reach = [
            [any(reach[i][k] and adj[k][j] for k in range(size)) for j in range(size)]
            for i in range(size)
        ]
    return {
        frozenset((g.vertices[i], g.vertices[j]))
        for i in range(size)
        for j in range(i + 1, size)
        if reach[i][j]
    }


def edge_set(ng):
    return {frozenset(e) for e in ng.graph.edge_ids()}


class TestPathMode:
    def test_c6_sequence(self):
        g = fixtures.graph("c6")
        counts = [
            len(neighborhood_graph(g, n).graph.connected_components().blocks)
            for n in range(1, 7)
        ]
        assert counts == [1, 2, 3, 2, 1, 6]

    def test_c6_g2_equals_g4(self):
        g = fixtures.graph("c6")
        assert edge_set(neighborhood_graph(g, 2)) == edge_set(neighborhood_graph(g, 4))
        assert edge_set(neighborhood_graph(g, 1)) == edge_set(neighborhood_graph(g, 5))

    def test_g1_is_base_graph(self):
        g = fixtures.graph("p9")
        assert edge_set(neighborhood_graph(g, 1)) == {
            frozenset(e) for e in g.edge_ids()
        }

    def test_no_self_pairs(self):
        g = fixtures.graph("c6")
        for n in range(1, 7):
            assert not neighborhood_graph(g, n).graph.has_loops()

    def test_p9_g4_components_are_parity_classes(self):
        g = fixtures.graph("p9")
        p = neighborhood_graph(g, 4).graph.connected_components()
        assert sorted(map(sorted, p.blocks)) == [
            ["1", "3", "5", "7", "9"],
            ["2", "4", "6", "8"],
        ]

    def test_loop_input_rejected(self):
        g = parse_graph("a\na b\n")
        with pytest.raises(PreconditionError):
            neighborhood_graph(g, 2)

    def test_n_zero_rejected(self):
        with pytest.raises(PreconditionError):
            neighborhood_graph(fixtures.graph("c6"), 0)

    def test_path_cap(self):
        """No cap on n: past the vertex count, G_n is edgeless on the same vertices."""
        g = fixtures.graph("c6")
        built = neighborhood_graph(g, 9).graph
        assert built.vertices == g.vertices
        assert built.n_edges() == 0
        with pytest.raises(TypeError):
            neighborhood_graph(g, 9, override_caps=True)

    def test_n_at_least_the_vertex_count_spends_no_work(self):
        """A path of n steps has n + 1 vertices: for n >= |V| there is none,
        and the answer comes with no unit of work spent."""
        names = [str(i) for i in range(12)]
        pairs = list(itertools.combinations(names, 2))
        g12 = neighborhood_graph(Graph(names, pairs), 12, work_budget=1)
        assert g12.graph.vertices == names
        assert g12.graph.n_edges() == 0
        h12 = hyper_neighborhood_graph(Hypergraph(names, pairs), 12, work_budget=1)
        assert h12.graph.vertices == names
        assert h12.graph.n_edges() == 0

    def test_path_cap_refusal_names_the_cap_its_limit_and_n(self):
        """The work budget is the one guard; its refusal names kind, limit and use."""
        with pytest.raises(ResourceCapError) as info:
            neighborhood_graph(fixtures.graph("c6"), 5, work_budget=3)
        exc = info.value
        assert (exc.cap, exc.limit, exc.used) == ("path", 3, 4)
        assert str(exc) == "path enumeration exceeded work budget 3"

    def test_work_budget(self):
        g = fixtures.graph("two5")
        with pytest.raises(ResourceCapError):
            neighborhood_graph(g, 5, work_budget=10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4))
    def test_matches_brute_force(self, seed, n):
        g = random_connected_graph(random.Random(seed), max_vertices=7)
        assert edge_set(neighborhood_graph(g, n)) == path_oracle(g, n)


class TestModes:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 3))
    def test_path_equals_nb_for_small_n(self, seed, n):
        g = random_connected_graph(random.Random(seed))
        assert edge_set(neighborhood_graph(g, n, WalkMode.PATH)) == edge_set(
            neighborhood_graph(g, n, WalkMode.NON_BACKTRACKING)
        )

    def test_nb_differs_from_path_at_larger_n(self):
        # triangle with a pendant: the NB walk can loop the triangle
        g = parse_graph("a b\nb c\nc a\nc d\n")
        path = edge_set(neighborhood_graph(g, 4, WalkMode.PATH))
        nb = edge_set(neighborhood_graph(g, 4, WalkMode.NON_BACKTRACKING))
        assert path < nb

    def test_walk_differs_from_nb(self):
        # a backtracking walk of length 3 exists along any path graph
        g = fixtures.graph("l3")
        nb = edge_set(neighborhood_graph(g, 3, WalkMode.NON_BACKTRACKING))
        walk = edge_set(neighborhood_graph(g, 3, WalkMode.WALK))
        assert nb < walk

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_walk_matches_matrix_power(self, seed, n):
        g = random_connected_graph(random.Random(seed), max_vertices=8)
        assert edge_set(neighborhood_graph(g, n, WalkMode.WALK)) == walk_oracle(g, n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_inclusion_chain(self, seed, n):
        g = random_connected_graph(random.Random(seed), max_vertices=8)
        report = inclusion_check(g, n)
        assert report.holds, report.counterexample

    @pytest.mark.parametrize(
        "dropped, relation",
        [
            (WalkMode.NON_BACKTRACKING, "path not in nb"),
            (WalkMode.WALK, "nb not in walk"),
        ],
    )
    def test_counterexample_is_smallest_by_id(self, monkeypatch, dropped, relation):
        # Dense order 6, 5, ..., 1 reverses the sorted order of the ids. G_3 of
        # this c6 joins opposite vertices; with every edge of one mode dropped,
        # the smallest missing pair is (6, 3) by dense index, ("1", "4") by id.
        g = parse_graph("6 5\n5 4\n4 3\n3 2\n2 1\n1 6\n")
        build = neighborhood_module.neighborhood_graph

        def dropping(g, n, mode, **kwargs):
            built = build(g, n, mode, **kwargs)
            if mode is not dropped:
                return built
            empty = built.graph.without_edges(built.graph.edge_ids())
            return built._replace(graph=empty)

        monkeypatch.setattr(neighborhood_module, "neighborhood_graph", dropping)
        report = inclusion_check(g, 3)
        assert not report.holds
        assert report.counterexample == (("1", "4"), relation)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 5))
    def test_component_count_monotone_along_chain(self, seed, n):
        g = random_connected_graph(random.Random(seed), max_vertices=8)
        counts = {
            mode: len(
                neighborhood_graph(g, n, mode).graph.connected_components().blocks
            )
            for mode in WalkMode
        }
        assert counts[WalkMode.WALK] <= counts[WalkMode.NON_BACKTRACKING]
        assert counts[WalkMode.NON_BACKTRACKING] <= counts[WalkMode.PATH]


class TestG2Lemma:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000))
    def test_g2_components(self, seed):
        g = random_connected_graph(random.Random(seed))
        p = neighborhood_graph(g, 2).graph.connected_components()
        bip = g.bipartition()
        if bip.is_bipartite and all(bip.parts):
            assert len(p.blocks) == 2
            assert sorted(map(sorted, p.blocks)) == sorted(
                map(sorted, bip.parts)
            )
        else:
            assert len(p.blocks) == 1 or g.n_vertices() == 1


class TestHypergraphNeighborhood:
    def test_h1_is_associated_graph_without_loops(self):
        h = fixtures.hypergraph("h1")
        h1 = hyper_neighborhood_graph(h, 1).graph
        assoc = h.associated_graph()
        expected = {frozenset(e) for e in assoc.edge_ids() if e[0] != e[1]}
        assert {frozenset(e) for e in h1.edge_ids()} == expected

    def test_hx_h2_edge_x_y(self):
        h = fixtures.hypergraph("hx")
        h2 = hyper_neighborhood_graph(h, 2).graph
        assert h2.has_edge("x", "y")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_h2_matches_brute_force(self, seed):
        h = random_hypergraph(random.Random(seed), max_vertices=6, max_hyperedges=6)
        h2 = hyper_neighborhood_graph(h, 2).graph
        expected = set()
        m = len(h.hyperedges)
        for e1 in range(m):
            for e2 in range(m):
                if e1 == e2:
                    continue
                for v0 in h.hyperedges[e1]:
                    for v1 in h.hyperedges[e1]:
                        if v1 == v0 or v1 not in h.hyperedges[e2]:
                            continue
                        for v2 in h.hyperedges[e2]:
                            if v2 not in (v0, v1):
                                expected.add(frozenset((v0, v2)))
        assert {frozenset(e) for e in h2.edge_ids()} == expected

    def test_cap(self):
        """No cap on n: H_9 of a 6-vertex hypergraph has no edge."""
        h = fixtures.hypergraph("h1")
        built = hyper_neighborhood_graph(h, 9).graph
        assert built.vertices == h.vertices
        assert built.n_edges() == 0


def hyper_path_oracle(h, n):
    """Edge set of H_n by brute force: vertex sequences v_0..v_n, all distinct,
    joined by n distinct hyperedges with {v_(i-1), v_i} inside the i-th."""
    pairs = set()
    for seq in itertools.permutations(h.vertices, n + 1):
        options = [
            [ei for ei, e in enumerate(h.hyperedges) if a in e and b in e]
            for a, b in zip(seq, seq[1:])
        ]
        if any(len(set(chosen)) == n for chosen in itertools.product(*options)):
            pairs.add(frozenset((seq[0], seq[-1])))
    return pairs


class TestHypergraphPathOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 3))
    def test_hn_matches_brute_force(self, seed, n):
        h = random_hypergraph(random.Random(seed), max_vertices=6, max_hyperedges=6)
        assert edge_set(hyper_neighborhood_graph(h, n)) == hyper_path_oracle(h, n)


class TestLongPaths:
    """Past n = 8 as below it, G_n and H_n are exact; n >= |V| leaves no edge."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.integers(5, 10), st.booleans())
    def test_matches_brute_force(self, seed, n, hyper):
        rng = random.Random(seed)
        if hyper:
            s = random_hypergraph(rng, max_vertices=7, max_hyperedges=6)
            built, expected = hyper_neighborhood_graph(s, n), hyper_path_oracle(s, n)
        else:
            s = random_connected_graph(rng, max_vertices=8)
            built, expected = neighborhood_graph(s, n), path_oracle(s, n)
        assert edge_set(built) == expected
        if n >= len(s.vertices):
            assert built.graph.n_edges() == 0


class TestWalkModeBudget:
    """nb and walk modes charge one unit of work per state produced per step."""

    # c6, n = 3: nb keeps 2 states per start at each of 3 steps (6 x 6 = 36);
    # walk reaches 2, then 3, then 3 vertices from each of 6 starts (6 x 8 = 48).
    @pytest.mark.parametrize(
        "mode, cost", [(WalkMode.NON_BACKTRACKING, 36), (WalkMode.WALK, 48)]
    )
    def test_budget_boundary(self, mode, cost):
        g = fixtures.graph("c6")
        full = neighborhood_graph(g, 3, mode)
        assert edge_set(neighborhood_graph(g, 3, mode, work_budget=cost)) == edge_set(full)
        with pytest.raises(ResourceCapError, match="exceeded work budget"):
            neighborhood_graph(g, 3, mode, work_budget=cost - 1)

    def test_inclusion_check_charges_every_mode(self):
        # On c6 at n = 3, path and nb modes each cost 36 and walk mode 48.
        g = fixtures.graph("c6")
        assert inclusion_check(g, 3, work_budget=48).holds
        with pytest.raises(ResourceCapError):
            inclusion_check(g, 3, work_budget=47)


def walk_sequences(g, n, backtrack):
    """Every vertex sequence of n steps along edges, from every start;
    without `backtrack`, no step returns to the vertex just left."""
    adj = {v: sorted(g.neighbors(v)) for v in g.vertices}
    seqs = [(v,) for v in g.vertices]
    levels = []
    for _ in range(n):
        seqs = [
            s + (w,)
            for s in seqs
            for w in adj[s[-1]]
            if backtrack or len(s) < 2 or w != s[-2]
        ]
        levels.append(seqs)
    return levels


def nb_oracle(g, n):
    """Edge set of G_n^NB by brute force over non-backtracking sequences."""
    return {
        frozenset((s[0], s[-1]))
        for s in walk_sequences(g, n, backtrack=False)[-1]
        if s[0] != s[-1]
    }


def state_count(g, n, mode):
    """Sum over starts and steps of the distinct states reached: the last
    vertex of a walk, or the last (vertex, vertex) step of an nb walk."""
    backtrack = mode is WalkMode.WALK
    total = 0
    for seqs in walk_sequences(g, n, backtrack):
        states = {(s[0], s[-1]) if backtrack else s[:1] + s[-2:] for s in seqs}
        total += len(states)
    return total


class TestWalkOracles:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_nb_matches_brute_force(self, seed, n):
        g = random_connected_graph(random.Random(seed), max_vertices=8)
        got = edge_set(neighborhood_graph(g, n, WalkMode.NON_BACKTRACKING))
        assert got == nb_oracle(g, n)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(1, 4),
        st.sampled_from([WalkMode.NON_BACKTRACKING, WalkMode.WALK]),
    )
    def test_work_budget_is_the_state_count(self, seed, n, mode):
        g = random_connected_graph(random.Random(seed), max_vertices=8)
        cost = state_count(g, n, mode)
        full = edge_set(neighborhood_graph(g, n, mode))
        assert edge_set(neighborhood_graph(g, n, mode, work_budget=cost)) == full
        message = "walk enumeration exceeded work budget"
        with pytest.raises(ResourceCapError, match=message):
            neighborhood_graph(g, n, mode, work_budget=cost - 1)


def random_multi_hypergraph(rng: random.Random, max_vertices=7, max_hyperedges=8):
    """Loop-free hypergraph whose hyperedges repeat and overlap often."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    hyperedges = []
    for _ in range(rng.randint(1, max_hyperedges)):
        roll = rng.random()
        if hyperedges and roll < 0.2:
            hyperedges.append(rng.choice(hyperedges))  # a repeat
        elif hyperedges and roll < 0.45:
            base = rng.choice(hyperedges)  # an overlap in two or more members
            keep = rng.sample(base, 2)
            others = [v for v in names if v not in keep]
            extra = rng.sample(others, rng.randint(0, min(2, len(others))))
            hyperedges.append(tuple(keep + extra))
        else:
            hyperedges.append(tuple(rng.sample(names, rng.randint(2, min(5, n)))))
    return Hypergraph(names, hyperedges)


def random_short_path_input(seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        return random_connected_graph(rng, max_vertices=9)
    return random_multi_hypergraph(rng)


def dfs_pairs(structure, n):
    """Pairs (i, j), i < j, joined by a simple path of n steps, by the DFS."""
    pairs = set()
    for start, _, ends in simple_paths(structure.path_steps(), n, 10**9):
        pairs.update((start, v) for v in ends)
    return pairs


def dfs_units(structure, n):
    """The least work budget under which the DFS finishes, by bisection."""

    def finishes(budget):
        try:
            for _ in simple_paths(structure.path_steps(), n, budget):
                pass
        except ResourceCapError:
            return False
        return True

    low, high = -1, 1
    while not finishes(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if finishes(mid) else (mid, high)
    return high


def build(structure, n, **kwargs):
    if isinstance(structure, Hypergraph):
        return hyper_neighborhood_graph(structure, n, **kwargs)
    return neighborhood_graph(structure, n, **kwargs)


class TestShortPathsAgainstDfs:
    """n <= 3 meets in the middle; the DFS `simple_paths` is the oracle for
    its pairs and for its work units, hence for its refusals."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 3))
    def test_pairs_match_dfs(self, seed, n):
        s = random_short_path_input(seed)
        assert set(build(s, n).graph.edge_pairs()) == dfs_pairs(s, n)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000), st.integers(1, 3))
    def test_budget_is_the_dfs_unit_count(self, seed, n):
        s = random_short_path_input(seed)
        units = dfs_units(s, n)
        assert build(s, n, work_budget=units).graph.edge_pairs() == sorted(
            dfs_pairs(s, n)
        )
        message = f"path enumeration exceeded work budget {units - 1}$"
        with pytest.raises(ResourceCapError, match=message):
            build(s, n, work_budget=units - 1)

    @pytest.mark.parametrize(
        "text, n, units",
        [
            # c6: 12 first steps; each of the 6 edges is the middle of 2
            # directed paths of 3 steps plus their 2 second steps.
            ("1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n", 3, 36),
            # K4: 12 first steps, then 3 x 2 two-step paths through each of 4
            # middles.
            ("a b\na c\na d\nb c\nb d\nc d\n", 2, 36),
        ],
    )
    def test_hand_counted_units(self, text, n, units):
        g = parse_graph(text)
        assert dfs_units(g, n) == units
        neighborhood_graph(g, n, work_budget=units)
        with pytest.raises(ResourceCapError):
            neighborhood_graph(g, n, work_budget=units - 1)

    def test_repeated_hyperedges_are_distinct_edges(self):
        # One hyperedge {a, b, c} gives no path of two hyperedges; its
        # repeat gives a-b-c through the two copies.
        once = Hypergraph("abc", ["abc"])
        twice = Hypergraph("abc", ["abc", "abc"])
        assert hyper_neighborhood_graph(once, 2).graph.n_edges() == 0
        assert hyper_neighborhood_graph(twice, 2).graph.n_edges() == 3
        assert dfs_pairs(twice, 2) == {(0, 1), (0, 2), (1, 2)}

    def test_overlapping_hyperedges_at_n3(self):
        # f = {a, b, u, v} holds both ends of the middle step e = {a, b}, so
        # u-a-b-v would use f twice; g = {b, v} gives u-a-b-v by f, e, g.
        h = Hypergraph("abuv", [("a", "b"), ("a", "b", "u", "v")])
        assert edge_set(hyper_neighborhood_graph(h, 3)) == set()
        h = Hypergraph("abuv", [("a", "b"), ("a", "b", "u", "v"), ("b", "v")])
        expected = {frozenset("uv"), frozenset("au")}  # a-b-v-u by e, g, f
        assert edge_set(hyper_neighborhood_graph(h, 3)) == expected
        assert hyper_path_oracle(h, 3) == expected
