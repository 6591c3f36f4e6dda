"""Exact W1 / curvature machinery against brute-force and networkx oracles."""

import random
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import (
    Coupling,
    SimilarityWalk,
    curvatures,
    Graph,
    Hypergraph,
    Measure,
    PreconditionError,
    ee_measure,
    ee_orc,
    en_measure,
    en_orc,
    fixtures,
    fraction_str,
    measures_equal,
    neighbor_measure,
    orc,
    parse_graph,
    wasserstein1,
)

from equivcurv.transport import _solve_transport

from support import (
    brute_force_w1,
    networkx_w1,
    random_connected_graph,
    random_hypergraph,
    random_pair_list,
    random_structure,
    reference_curvature,
)


def random_measure(rng, points):
    """Random rational probability measure on a nonempty subset of points."""
    support = rng.sample(points, rng.randint(1, min(6, len(points))))
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    return Measure({p: Fraction(w, total) for p, w in zip(support, weights)})


class TestFractionStr:
    def test_integer(self):
        assert fraction_str(Fraction(2)) == "2"

    def test_ratio(self):
        assert fraction_str(Fraction(19, 24)) == "19/24"

    def test_negative(self):
        assert fraction_str(Fraction(-1, 2)) == "-1/2"


class TestMeasure:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(PreconditionError):
            Measure({"a": Fraction(1, 2)})

    def test_negative_mass_rejected(self):
        with pytest.raises(PreconditionError):
            Measure({"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_zero_mass_dropped(self):
        m = Measure({"a": Fraction(1), "b": Fraction(0)})
        assert m.support() == ["a"]

    def test_neighbor_measure(self):
        g = fixtures.graph("fig3")
        m = neighbor_measure(g, "q")
        assert m["a"] == m["b"] == m["c"] == Fraction(1, 3)

    def test_en_measure(self):
        h = fixtures.hypergraph("hx")
        assert en_measure(h, "x").masses == en_measure(h, "y").masses

    def test_ee_measure_h1(self):
        h = fixtures.hypergraph("h1")
        mx = ee_measure(h, "x")
        assert mx["a"] == mx["b"] == mx["c"] == Fraction(1, 6)
        assert mx["d"] == Fraction(1, 2)
        my = ee_measure(h, "y")
        assert all(my[z] == Fraction(1, 4) for z in "abcd")

    def test_isolated_vertex_rejected(self):
        from equivcurv import Graph

        g0 = Graph(["a", "b", "c"], [("a", "b")])
        with pytest.raises(PreconditionError):
            neighbor_measure(g0, "c")


class TestCoupling:
    def test_marginals_validated(self):
        mu = Measure({"a": Fraction(1)})
        nu = Measure({"b": Fraction(1)})
        Coupling({("a", "b"): Fraction(1)}, mu, nu)
        with pytest.raises(PreconditionError):
            Coupling({("a", "b"): Fraction(1, 2)}, mu, nu)

    def test_cost(self):
        mu = Measure({"a": Fraction(1)})
        nu = Measure({"b": Fraction(1)})
        c = Coupling({("a", "b"): Fraction(1)}, mu, nu)
        assert c.cost(lambda u, v: 3) == 3


class TestWassersteinOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=8)
        mu = random_measure(rng, g.vertices)
        nu = random_measure(rng, g.vertices)
        dist = lambda u, v: g.distance(u, v)
        w1, coupling = wasserstein1(mu, nu, dist)
        assert w1 == brute_force_w1(mu, nu, dist)
        assert coupling.cost(dist) == w1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_networkx_min_cost_flow(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=8)
        mu = random_measure(rng, g.vertices)
        nu = random_measure(rng, g.vertices)
        dist = lambda u, v: g.distance(u, v)
        w1, _ = wasserstein1(mu, nu, dist)
        from math import lcm

        scale = lcm(
            *[m.denominator for m in mu.masses.values()],
            *[m.denominator for m in nu.masses.values()],
        )
        flow_net = nx.DiGraph()
        for u in mu.support():
            flow_net.add_node(("s", u), demand=-int(mu[u] * scale))
        for v in nu.support():
            flow_net.add_node(("t", v), demand=int(nu[v] * scale))
        for u in mu.support():
            for v in nu.support():
                d = 0 if u == v else dist(u, v)
                flow_net.add_edge(("s", u), ("t", v), weight=d)
        assert Fraction(nx.min_cost_flow_cost(flow_net), scale) == w1

    def test_zero_for_equal_measures(self):
        g = fixtures.graph("c6")
        mu = neighbor_measure(g, "2")
        w1, _ = wasserstein1(mu, mu, lambda u, v: g.distance(u, v))
        assert w1 == 0

    def test_infinite_distance_rejected(self):
        g = parse_graph("a b\nc d\n")
        mu = Measure({"a": Fraction(1)})
        nu = Measure({"c": Fraction(1)})
        with pytest.raises(PreconditionError):
            wasserstein1(mu, nu, lambda u, v: g.distance(u, v))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_metric_properties(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=7)
        dist = lambda u, v: g.distance(u, v)
        a = random_measure(rng, g.vertices)
        b = random_measure(rng, g.vertices)
        c = random_measure(rng, g.vertices)
        ab, _ = wasserstein1(a, b, dist)
        ba, _ = wasserstein1(b, a, dist)
        assert ab == ba
        assert ab >= 0
        assert (ab == 0) == measures_equal(a, b)
        ac, _ = wasserstein1(a, c, dist)
        cb, _ = wasserstein1(c, b, dist)
        assert ab <= ac + cb


class TestCurvature:
    def test_c6_adjacent(self):
        g = fixtures.graph("c6")
        r = orc(g, "1", "2")
        assert r.kappa == 0
        assert r.w1 == 1
        assert r.distance == 1

    def test_fig3_structural_pair(self):
        g = fixtures.graph("fig3")
        assert orc(g, "a", "b").kappa == 1

    def test_h1_curvatures(self):
        h = fixtures.hypergraph("h1")
        assert en_orc(h, "x", "y").kappa == 1
        assert ee_orc(h, "x", "y").kappa == Fraction(19, 24)
        assert ee_orc(h, "x", "y").w1 == Fraction(5, 12)

    def test_same_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            orc(fixtures.graph("c6"), "1", "1")

    def test_cross_component_rejected(self):
        g = parse_graph("a b\nc d\n")
        with pytest.raises(PreconditionError):
            orc(g, "a", "c")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_kappa_range_and_symmetry(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=8)
        x, y = rng.sample(g.vertices, 2)
        r = orc(g, x, y)
        assert r.kappa <= 1
        assert r.kappa == orc(g, y, x).kappa

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_kappa_one_iff_equal_measures(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=8)
        x, y = rng.sample(g.vertices, 2)
        r = orc(g, x, y)
        assert (r.kappa == 1) == measures_equal(
            neighbor_measure(g, x), neighbor_measure(g, y)
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_hypergraph_curvature_defined(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, max_vertices=7, max_hyperedges=7)
        if not h.is_connected():
            return
        x, y = rng.sample(h.vertices, 2)
        for fn, measure in ((en_orc, en_measure), (ee_orc, ee_measure)):
            r = fn(h, x, y)
            assert r.kappa <= 1
            assert (r.kappa == 1 and r.distance == 1) or r.w1 >= 0
            assert (r.w1 == 0) == measures_equal(measure(h, x), measure(h, y))


def composition(rng, total, parts):
    """Random split of `total` into `parts` positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def chain_hypergraph(rng, max_vertices=20):
    """Connected hypergraph: a spanning chain plus hyperedges of size 2..5."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    hyperedges = [(names[i], names[i + 1]) for i in range(n - 1)]
    for _ in range(rng.randint(0, 2 * n)):
        hyperedges.append(tuple(rng.sample(names, rng.randint(2, min(5, n)))))
    return Hypergraph(names, hyperedges)


def dense_connected_graph(rng, max_vertices=20):
    """Random spanning tree plus each other pair with one random probability."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    p = rng.random()
    for i, a in enumerate(names):
        edges += [(a, b) for b in names[i + 1 :] if rng.random() < p]
    return Graph(names, edges)


def wide_measure(rng, points, max_support=15):
    """Random measure whose scaled masses run into the thousands."""
    support = rng.sample(points, rng.randint(1, min(max_support, len(points))))
    weights = [rng.randint(1, 999) for _ in support]
    total = sum(weights)
    return Measure({p: Fraction(w, total) for p, w in zip(support, weights)})


class TestNetworkxAtBenchmarkSize:
    """wasserstein1 against networkx min-cost flow on supports up to ~15-19."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_hypergraph_walk_measures(self, seed):
        rng = random.Random(seed)
        h = chain_hypergraph(rng)
        x, y = rng.sample(h.vertices, 2)
        for measure in (en_measure, ee_measure):
            mu, nu = measure(h, x), measure(h, y)
            w1, coupling = wasserstein1(mu, nu, h.distance)
            assert w1 == networkx_w1(mu, nu, h.distance)
            assert coupling.cost(h.distance) == w1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_graph_neighbour_measures(self, seed):
        rng = random.Random(seed)
        g = dense_connected_graph(rng)
        x, y = rng.sample(g.vertices, 2)
        mu, nu = neighbor_measure(g, x), neighbor_measure(g, y)
        w1, coupling = wasserstein1(mu, nu, g.distance)
        assert w1 == networkx_w1(mu, nu, g.distance)
        assert coupling.cost(g.distance) == w1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_scaled_masses_in_the_thousands(self, seed):
        rng = random.Random(seed)
        h = chain_hypergraph(rng)
        mu, nu = wide_measure(rng, h.vertices), wide_measure(rng, h.vertices)
        w1, coupling = wasserstein1(mu, nu, h.distance)
        assert w1 == networkx_w1(mu, nu, h.distance)
        assert coupling.cost(h.distance) == w1


class TestDualCertificate:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_duals_certify_the_optimum(self, seed):
        rng = random.Random(seed)
        m, k = rng.randint(1, 15), rng.randint(1, 15)
        total = rng.randint(max(m, k, 2), 5000)
        supply, demand = composition(rng, total, m), composition(rng, total, k)
        top = rng.choice((0, 1, 2, 5, 40))
        cost = [[rng.randint(0, top) for _ in range(k)] for _ in range(m)]
        flow, w, u, v = _solve_transport(supply, demand, cost)
        assert [sum(row) for row in flow] == supply
        assert [sum(col) for col in zip(*flow)] == demand
        for i in range(m):
            for j in range(k):
                assert flow[i][j] >= 0
                assert u[i] + v[j] <= cost[i][j]
                if flow[i][j]:
                    assert u[i] + v[j] == cost[i][j]
        assert w == sum(flow[i][j] * cost[i][j] for i in range(m) for j in range(k))
        assert sum(s * a for s, a in zip(supply, u)) + sum(
            d * b for d, b in zip(demand, v)
        ) == w


class TestDegenerateShapes:
    def test_single_source(self):
        g = fixtures.graph("p9")
        mu = Measure({"1": Fraction(1)})
        nu = neighbor_measure(g, "5")
        w1, coupling = wasserstein1(mu, nu, g.distance)
        assert w1 == sum(nu[v] * g.distance("1", v) for v in nu.support())
        assert coupling.entries == {("1", v): nu[v] for v in nu.support()}

    def test_single_sink(self):
        g = fixtures.graph("p9")
        mu = neighbor_measure(g, "4")
        nu = Measure({"9": Fraction(1)})
        w1, coupling = wasserstein1(mu, nu, g.distance)
        assert w1 == sum(mu[u] * g.distance(u, "9") for u in mu.support())
        assert coupling.entries == {(u, "9"): mu[u] for u in mu.support()}

    def test_identical_measures_stay_on_the_diagonal(self):
        h = fixtures.hypergraph("h1")
        mu = ee_measure(h, "x")
        w1, coupling = wasserstein1(mu, Measure(mu.masses), h.distance)
        assert w1 == 0
        assert coupling.entries == {(v, v): mu[v] for v in mu.support()}

    def test_all_equal_costs(self):
        mu = Measure({"a": Fraction(1, 2), "b": Fraction(1, 3), "c": Fraction(1, 6)})
        nu = Measure({"p": Fraction(1, 4), "q": Fraction(3, 4)})
        w1, coupling = wasserstein1(mu, nu, lambda u, v: 3)
        assert w1 == 3
        assert coupling.cost(lambda u, v: 3) == 3

    def test_ties_go_to_the_lowest_index(self):
        flow, total, _, _ = _solve_transport([2, 1], [1, 2], [[0, 0], [0, 0]])
        assert flow == [[1, 1], [0, 1]]
        assert total == 0

    def test_repeated_calls_give_the_same_coupling(self):
        h = fixtures.hypergraph("hw")
        mu, nu = ee_measure(h, "x"), ee_measure(h, "y")
        w1_a, a = wasserstein1(mu, nu, h.distance)
        w1_b, b = wasserstein1(mu, nu, h.distance)
        assert w1_a == w1_b
        assert list(a.entries.items()) == list(b.entries.items())


def _fraction_marginals_ok(entries, mu, nu):
    """Reference check: nonnegative entries whose Fraction sums are mu and nu."""
    row, col = {}, {}
    for (u, v), m in entries.items():
        if m < 0:
            return False
        if m:
            row[u] = row.get(u, 0) + Fraction(m)
            col[v] = col.get(v, 0) + Fraction(m)
    return row == mu.masses and col == nu.masses


def _accepted(entries, mu, nu):
    try:
        Coupling(entries, mu, nu)
    except PreconditionError:
        return False
    return True


class TestCouplingMarginals:
    """Coupling checks its marginals in scaled integers, exactly as strictly."""

    def test_column_mismatch(self):
        mu = Measure({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        nu = Measure({"c": Fraction(1, 2), "d": Fraction(1, 2)})
        entries = {("a", "c"): Fraction(1, 2), ("b", "c"): Fraction(1, 2)}
        with pytest.raises(PreconditionError, match="marginals do not match"):
            Coupling(entries, mu, nu)

    def test_negative_entry(self):
        mu = Measure({"a": Fraction(1)})
        nu = Measure({"c": Fraction(1, 2), "d": Fraction(1, 2)})
        entries = {("a", "c"): Fraction(3, 2), ("a", "d"): Fraction(-1, 2)}
        with pytest.raises(PreconditionError, match="negative entry"):
            Coupling(entries, mu, nu)

    def test_mixed_denominators_and_ints(self):
        mu = Measure({"a": Fraction(1, 2), "b": Fraction(1, 2)})
        nu = Measure({"c": Fraction(1, 3), "d": Fraction(2, 3)})
        entries = {
            ("a", "c"): Fraction(1, 6),
            ("a", "d"): Fraction(1, 3),
            ("b", "c"): Fraction(1, 6),
            ("b", "d"): Fraction(1, 3),
            ("b", "a"): 0,
        }
        assert Coupling(entries, mu, nu).entries == {
            k: m for k, m in entries.items() if m
        }
        one = Measure({"a": 1})
        assert Coupling({("a", "a"): 1}, one, one).entries == {("a", "a"): 1}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=4),
        st.lists(st.integers(1, 12), min_size=1, max_size=4),
        st.integers(0, 10_000),
    )
    def test_same_verdict_as_fraction_sums(self, mu_weights, nu_weights, seed):
        rng = random.Random(seed)
        mu = Measure({f"u{i}": Fraction(w, sum(mu_weights)) for i, w in enumerate(mu_weights)})
        nu = Measure({f"v{j}": Fraction(w, sum(nu_weights)) for j, w in enumerate(nu_weights)})
        entries = {(u, v): mu[u] * nu[v] for u in mu.masses for v in nu.masses}
        for _ in range(rng.randint(0, 2)):  # shift a small mass between two cells
            a, b = rng.choice(list(entries)), rng.choice(list(entries))
            q = Fraction(rng.randint(1, 3), rng.randint(1, 40))
            entries[a] -= q
            entries[b] += q
        assert _accepted(entries, mu, nu) == _fraction_marginals_ok(entries, mu, nu)


def _outcomes(results, pairs):
    """Per pair: (kappa, w1, distance, entries), or the exception that ends the run."""
    out = []
    try:
        for _ in pairs:
            r = next(results)
            out.append((r.kappa, r.w1, r.distance, r.coupling.entries))
    except Exception as exc:  # compared by type and message
        out.append((type(exc), str(exc)))
    return out


def _reference_outcomes(structure, pairs, walk):
    out = []
    for x, y in pairs:
        try:
            out.append(reference_curvature(structure, x, y, walk))
        except Exception as exc:
            out.append((type(exc), str(exc)))
            break
    return out


class TestBatchedCurvatures:
    """`curvatures` over a pair list equals a per-pair computation sharing nothing."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from(list(SimilarityWalk)))
    def test_equals_per_pair_reference(self, seed, walk):
        rng = random.Random(seed)
        structure = random_structure(rng, walk)
        pairs = random_pair_list(rng, structure)
        got = _outcomes(curvatures(structure, pairs, walk), pairs)
        assert got == _reference_outcomes(structure, pairs, walk)

    def test_first_failing_pair_raises(self):
        g = parse_graph("a b\nb c\nc a\nd e\n")
        pairs = [("a", "b"), ("b", "a"), ("a", "d"), ("b", "b")]
        got = _outcomes(curvatures(g, pairs, SimilarityWalk.GRAPH), pairs)
        assert got[:2] == _reference_outcomes(g, pairs[:2], SimilarityWalk.GRAPH)
        assert got[2:] == [
            (PreconditionError, "'a' and 'd' lie in different connected components")
        ]

    def test_each_measure_built_once(self, monkeypatch):
        import equivcurv.transport as transport

        calls = []
        original = transport.neighbor_measure

        def counting(g, v):
            calls.append(v)
            return original(g, v)

        monkeypatch.setattr(transport, "neighbor_measure", counting)
        g = fixtures.graph("p9")
        pairs = [(x, y) for x in g.vertices for y in g.vertices if x != y]
        list(curvatures(g, pairs, SimilarityWalk.GRAPH))
        assert sorted(calls) == sorted(g.vertices)

    def test_rows_are_dropped_after_their_last_reader(self):
        from equivcurv.transport import _Batch

        g = parse_graph("a b\nb c\nc d\nd e\ne f\n")
        pairs = [("b", "c"), ("b", "e"), ("e", "f")]
        batch = _Batch(g, pairs, SimilarityWalk.GRAPH)
        kept = []
        for x, y in batch:
            batch.curvature(x, y)
            kept.append(sorted(g.vertices[s] for s in batch.rows))
        # Rows of b and its neighbours a, c serve the first two pairs only;
        # the last pair's rows are read by no later pair, so none is kept.
        assert kept == [["a", "b", "c"], ["a", "b", "c"], []]
        assert not batch.rows
