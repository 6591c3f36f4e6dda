"""Exact W1 / curvature machinery against brute-force and networkx oracles."""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from pathlib import Path

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
    UnknownVertexError,
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
    similarity_report,
    similarity_reports,
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


ONE_PAIR = {SimilarityWalk.GRAPH: orc, SimilarityWalk.EN: en_orc, SimilarityWalk.EE: ee_orc}


def _call(entry, structure, walk):
    """Run one curvature entry point on the first two vertices under `walk`."""
    x, y = structure.vertices[:2]
    if entry == "curvatures":
        return next(curvatures(structure, [(x, y)], walk))
    if entry == "similarity_reports":
        return next(similarity_reports(structure, [(x, y)], walk))
    if entry == "similarity_report":
        return similarity_report(structure, x, y, walk)
    return ONE_PAIR[walk](structure, x, y)


class TestWalkFitsStructure:
    """Every curvature entry point refuses a walk that does not fit the structure:
    the graph walk needs a Graph, the EN and EE walks a Hypergraph."""

    @pytest.mark.parametrize("walk", list(SimilarityWalk), ids=lambda w: w.value)
    @pytest.mark.parametrize(
        "entry", ["one-pair", "curvatures", "similarity_report", "similarity_reports"]
    )
    def test_mismatch_is_refused(self, entry, walk):
        if walk is SimilarityWalk.GRAPH:
            structure = fixtures.hypergraph("h1")
            message = "^graph walk requires a graph input$"
        else:
            structure = fixtures.graph("c6")
            message = "^EN/EE walks require a hypergraph input$"
        with pytest.raises(PreconditionError, match=message):
            _call(entry, structure, walk)


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


class TestCostMatrixShape:
    """A caller's cost matrix must be |supp mu| x |supp nu|, one row per source."""

    MU = Measure({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    NU = Measure({"c": Fraction(1)})

    @pytest.mark.parametrize(
        "cost",
        [[[1], [2], [3]], [[1, 2], [2, 3]], [[1]]],
        ids=["extra-row", "extra-column", "missing-row"],
    )
    def test_wrong_shape_refused(self, cost):
        with pytest.raises(PreconditionError) as info:
            wasserstein1(self.MU, self.NU, cost=cost)
        assert str(info.value) == "cost matrix must be |supp mu| x |supp nu| = 2 x 1"

    def test_right_shape_accepted(self):
        w1, coupling = wasserstein1(self.MU, self.NU, cost=[[1], [2]])
        assert w1 == Fraction(3, 2)
        assert coupling.entries == {("a", "c"): Fraction(1, 2), ("b", "c"): Fraction(1, 2)}


class TestDistanceContract:
    """wasserstein1's costs must be a distance; what it refuses, and where."""

    HALF = Fraction(1, 2)

    def test_cost_not_zero_at_a_shared_vertex_is_refused(self):
        mu = Measure({"a": self.HALF, "b": self.HALF})
        nu = Measure({"b": self.HALF, "c": self.HALF})
        with pytest.raises(PreconditionError) as info:
            wasserstein1(mu, nu, cost=[[1, 2], [1, 1]])
        assert str(info.value) == "cost matrix must be 0 at shared vertex 'b'"

    def test_supports_across_components_name_the_first_pair(self):
        g = parse_graph("a b\nb c\nd e\n")
        mu = Measure({"a": self.HALF, "b": self.HALF})
        nu = Measure({"b": self.HALF, "d": self.HALF})
        asked = []

        def dist(u, v):
            asked.append((u, v))
            return g.distance(u, v)

        with pytest.raises(PreconditionError) as info:
            wasserstein1(mu, nu, dist)
        assert str(info.value) == (
            "fully dissimilar supports span components: no path between 'a' and 'd'"
        )
        assert asked == [("a", "b"), ("a", "d")]  # row-major, (v, v) not asked

    def test_equal_measures_across_components_are_refused(self):
        # All mass is shared, so nothing moves; every cell is still evaluated.
        g = parse_graph("a b\nd e\n")
        mu = Measure({"a": self.HALF, "d": self.HALF})
        with pytest.raises(PreconditionError, match="no path between 'a' and 'd'"):
            wasserstein1(mu, Measure(mu.masses), g.distance)


class TestSharedMass:
    """Shared mass stays on (v, v), and W1 is still the full problem's optimum."""

    MEASURE = {
        SimilarityWalk.GRAPH: neighbor_measure,
        SimilarityWalk.EN: en_measure,
        SimilarityWalk.EE: ee_measure,
    }

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from(list(SimilarityWalk)))
    def test_equals_the_full_solve(self, seed, walk):
        rng = random.Random(seed)
        if walk is SimilarityWalk.GRAPH:
            structure = random_connected_graph(rng, max_vertices=9, min_vertices=3)
        else:
            structure = random_hypergraph(rng, max_vertices=9)
        vertices = structure.vertices
        pairs = [  # at distance 1 or 2, measures often share vertices
            (x, y)
            for i, x in enumerate(vertices)
            for y in vertices[i + 1 :]
            if structure.distance(x, y) in (1, 2)
        ]
        batched = dict(zip(pairs, curvatures(structure, pairs, walk)))
        shared_seen = 0
        for x, y in pairs:
            mu = self.MEASURE[walk](structure, x)
            nu = self.MEASURE[walk](structure, y)
            sources, targets = mu.support(), nu.support()
            scale = lcm(
                *[m.denominator for m in mu.masses.values()],
                *[m.denominator for m in nu.masses.values()],
            )
            supply = [int(mu[u] * scale) for u in sources]
            demand = [int(nu[v] * scale) for v in targets]
            cost = [[structure.distance(u, v) for v in targets] for u in sources]
            w1, coupling = wasserstein1(mu, nu, structure.distance)
            assert w1 == Fraction(_solve_transport(supply, demand, cost)[1], scale)
            entries = coupling.entries
            for v in mu.masses.keys() & nu.masses.keys():
                shared_seen += 1
                assert entries[(v, v)] == min(mu[v], nu[v])
            assert Coupling(entries, mu, nu).entries == entries
            # The batched engine passes a cost matrix and gets the same witness.
            assert batched[(x, y)].w1 == w1
            assert list(batched[(x, y)].coupling.entries.items()) == list(entries.items())
        if walk is SimilarityWalk.GRAPH:
            assert shared_seen  # a connected graph on >= 3 vertices has one

    def test_coupling_does_not_depend_on_the_hash_seed(self):
        script = (
            "from equivcurv import SimilarityWalk, curvatures, fixtures\n"
            "h = fixtures.hypergraph('hw')\n"
            "vs = h.vertices\n"
            "pairs = [(x, y) for i, x in enumerate(vs) for y in vs[i + 1:]]\n"
            "for r in curvatures(h, pairs, SimilarityWalk.EE):\n"
            "    print(list(r.coupling.entries.items()))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        n = len(fixtures.hypergraph("hw").vertices)
        assert outputs[0].count("\n") == n * (n - 1) // 2
        assert outputs[0] == outputs[1]


@st.composite
def transport_problems(draw):
    """Positive integer supply and demand with equal totals, costs 0..5."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    supply = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    demand = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    supply, demand = [s * sum(demand) for s in supply], [d * sum(supply) for d in demand]
    row = st.lists(st.integers(0, 5), min_size=k, max_size=k)
    cost = draw(st.lists(row, min_size=m, max_size=m))
    return supply, demand, cost


class TestSolverDuals:
    """The solver's own duals certify every solve; no enumeration needed."""

    @settings(max_examples=300, deadline=None)
    @given(transport_problems())
    def test_duals_certify_every_solve(self, problem):
        supply, demand, cost = problem
        flow, total, u, v = _solve_transport(supply, demand, cost)
        cells = [(i, j) for i in range(len(supply)) for j in range(len(demand))]
        assert all(u[i] + v[j] <= cost[i][j] for i, j in cells)
        assert all(u[i] + v[j] == cost[i][j] for i, j in cells if flow[i][j] > 0)
        assert sum(s * a for s, a in zip(supply, u)) + sum(
            d * b for d, b in zip(demand, v)
        ) == total
        assert [sum(row) for row in flow] == supply
        assert [sum(col) for col in zip(*flow)] == demand


def _bench_module(name):
    """The benchmark's module bench/<name>.py, loaded by its path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _flow_entries(mu, nu, dist):
    """Coupling entries as Fractions, in row-major support order: each shared
    vertex keeps min(mu(v), nu(v)) on (v, v), and the solver's flow covers the
    rows and columns with mass left."""
    sources, targets = mu.support(), nu.support()
    scale = lcm(
        *[m.denominator for m in mu.masses.values()],
        *[m.denominator for m in nu.masses.values()],
    )
    supply = [int((mu[u] - min(mu[u], nu[u])) * scale) for u in sources]
    demand = [int((nu[v] - min(mu[v], nu[v])) * scale) for v in targets]
    rows = [i for i, q in enumerate(supply) if q]
    cols = [j for j, q in enumerate(demand) if q]
    cost = [[dist(sources[i], targets[j]) for j in cols] for i in rows]
    part = _solve_transport(
        [supply[i] for i in rows], [demand[j] for j in cols], cost
    )[0]
    flow = [[0] * len(targets) for _ in sources]
    for i, u in enumerate(sources):
        if u in nu.masses:
            flow[i][targets.index(u)] = int(min(mu[u], nu[u]) * scale)
    for i, got in zip(rows, part):
        for j, q in zip(cols, got):
            flow[i][j] = q
    return [
        ((u, v), Fraction(flow[i][j], scale))
        for i, u in enumerate(sources)
        for j, v in enumerate(targets)
        if flow[i][j]
    ]


def _walk_structures():
    """(structure, walk) for every fixture and seed-1 benchmark graph1.edges."""
    out = [(fixtures.graph(name), SimilarityWalk.GRAPH) for name in fixtures.GRAPHS]
    for name in fixtures.HYPERGRAPHS:
        h = fixtures.hypergraph(name)
        out += [(h, SimilarityWalk.EN), (h, SimilarityWalk.EE)]
    graph1 = _bench_module("workloads").graph_all_pairs(1).inputs[0]
    assert graph1.filename == "graph1.edges"
    return out + [(parse_graph(graph1.text), SimilarityWalk.GRAPH)]


class TestIntegerMarginalCheck:
    """wasserstein1 checks every solver block's integer marginals against the
    masses left once the shared mass is cancelled."""

    MU = Measure({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    NU = Measure({"c": Fraction(1, 2), "d": Fraction(1, 2)})

    def _solve_with(self, monkeypatch, change, mu=MU, nu=NU, cost=((0, 1), (1, 0))):
        import equivcurv.transport as transport

        original = transport._solve_transport

        def tampered(supply, demand, cost):
            flow, total, u, v = original(supply, demand, cost)
            change(flow)
            return flow, total, u, v

        monkeypatch.setattr(transport, "_solve_transport", tampered)
        return wasserstein1(mu, nu, cost=[list(row) for row in cost])

    def test_unit_moved_between_columns(self, monkeypatch):
        def move(flow):
            assert flow == [[1, 0], [0, 1]]
            flow[0][0] -= 1
            flow[0][1] += 1

        with pytest.raises(PreconditionError, match="coupling marginals do not match the measures"):
            self._solve_with(monkeypatch, move)

    def test_negative_cell(self, monkeypatch):
        def negate(flow):  # the marginals still match; only the sign is wrong
            flow[:] = [[2, -1], [-1, 2]]

        with pytest.raises(PreconditionError, match="coupling has a negative entry"):
            self._solve_with(monkeypatch, negate)

    # b is shared: min(1/2, 1/4) stays on (b, b), so over the scale 4 the solver
    # moves supply [2, 1] from a, b to demand [1, 2] at c, d, at costs
    # [[2, 1], [1, 2]]; its one optimal block is [[0, 2], [1, 0]].
    SHARED_MU = Measure({"a": Fraction(1, 2), "b": Fraction(1, 2)})
    SHARED_NU = Measure({"b": Fraction(1, 4), "c": Fraction(1, 4), "d": Fraction(1, 2)})
    SHARED_COST = ((1, 2, 1), (0, 1, 2))

    def _solve_shared(self, monkeypatch, change):
        def checked(block):
            assert block == [[0, 2], [1, 0]]
            change(block)

        return self._solve_with(
            monkeypatch, checked, self.SHARED_MU, self.SHARED_NU, self.SHARED_COST
        )

    def test_shared_vertex_block_as_solved(self, monkeypatch):
        w1, coupling = self._solve_shared(monkeypatch, lambda block: None)
        assert w1 == Fraction(3, 4)
        assert list(coupling.entries.items()) == [
            (("a", "d"), Fraction(1, 2)),
            (("b", "b"), Fraction(1, 4)),
            (("b", "c"), Fraction(1, 4)),
        ]

    def test_shared_vertex_unit_moved_between_columns(self, monkeypatch):
        def move(block):
            block[0][0] += 1
            block[0][1] -= 1

        with pytest.raises(PreconditionError, match="coupling marginals do not match the measures"):
            self._solve_shared(monkeypatch, move)

    def test_shared_vertex_negative_cell(self, monkeypatch):
        def negate(block):  # the marginals still match; only the sign is wrong
            block[:] = [[-1, 3], [2, -1]]

        with pytest.raises(PreconditionError, match="coupling has a negative entry"):
            self._solve_shared(monkeypatch, negate)

    def test_shared_vertex_block_with_the_shared_mass(self, monkeypatch):
        def full(block):  # b's row sums to its whole mass, not to what is left
            block[1][0] += 1

        with pytest.raises(PreconditionError, match="coupling marginals do not match the measures"):
            self._solve_shared(monkeypatch, full)

    def test_all_shared_block_is_empty(self, monkeypatch):
        seen = []

        def record(block):
            seen.append([list(row) for row in block])

        mu = self.MU
        w1, coupling = self._solve_with(monkeypatch, record, mu, Measure(mu.masses))
        assert seen == [[]]
        assert w1 == 0
        assert coupling.entries == {("a", "a"): Fraction(1, 2), ("b", "b"): Fraction(1, 2)}

    def test_all_shared_block_with_a_cell(self, monkeypatch):
        def add(block):  # no row or column is left to carry mass
            block.append([1])

        mu = self.MU
        with pytest.raises(PreconditionError, match="coupling marginals do not match the measures"):
            self._solve_with(monkeypatch, add, mu, Measure(mu.masses))

    def test_entries_are_the_flow_over_scale(self):
        for structure, walk in _walk_structures():
            vertices = structure.vertices
            pairs = [
                (x, y)
                for i, x in enumerate(vertices)
                for y in vertices[i + 1 :]
                if structure.distance(x, y) is not None
            ]
            measure = {
                SimilarityWalk.GRAPH: neighbor_measure,
                SimilarityWalk.EN: en_measure,
                SimilarityWalk.EE: ee_measure,
            }[walk]
            for (x, y), r in zip(pairs, curvatures(structure, pairs, walk)):
                mu, nu = measure(structure, x), measure(structure, y)
                entries = r.coupling.entries
                assert list(entries.items()) == _flow_entries(mu, nu, structure.distance)
                assert r.coupling.entries is entries  # built once, on first read
                assert Coupling(entries, mu, nu).entries == entries


def _witness_problems(count=2000, seed=2718):
    """Transportation problems of shape 1..12 x 1..12 with costs 0..40. Most
    draw their costs from a narrow range, so ties between cells are common."""
    rng = random.Random(seed)
    for _ in range(count):
        m, k = rng.randint(1, 12), rng.randint(1, 12)
        top = rng.choice((0, 1, 2, 3, 5, 40))
        supply = [rng.randint(1, 9) for _ in range(m)]
        demand = [rng.randint(1, 9) for _ in range(k)]
        supply, demand = [s * sum(demand) for s in supply], [d * sum(supply) for d in demand]
        yield supply, demand, [[rng.randint(0, top) for _ in range(k)] for _ in range(m)]


def _solver_digest():
    """sha256 of repr((flow, total, u, v)) of every witness problem's solve."""
    digest = hashlib.sha256()
    for problem in _witness_problems():
        digest.update(repr(_solve_transport(*problem)).encode())
    return digest.hexdigest()


def _coupling_digest():
    """sha256 of every coupling's entries, in order, for every connected pair
    of every fixture and of seed-1 benchmark graph1.edges."""
    digest = hashlib.sha256()
    for structure, walk in _walk_structures():
        vertices = structure.vertices
        pairs = [
            (x, y)
            for i, x in enumerate(vertices)
            for y in vertices[i + 1 :]
            if structure.distance(x, y) is not None
        ]
        for r in curvatures(structure, pairs, walk):
            digest.update(repr(list(r.coupling.entries.items())).encode())
    return digest.hexdigest()


class TestPinnedWitnesses:
    """Every flow, total, dual and coupling entry, order included, is pinned.

    The digests were taken while the solver still searched and augmented in
    helper functions and every coupling was copied into a full flow, so they
    show that neither the one-loop solver nor the block-plus-diagonal
    coupling changed a witness.
    """

    def test_solver_flows_and_duals(self):
        assert _solver_digest() == (
            "5757ddcbeaed0265c66828c4f528977961af56f7fc7c43ef93542b8f1ab7cabc"
        )

    def test_coupling_entries(self):
        assert _coupling_digest() == (
            "c6f24f45704eb61fc10511854944195f1c22e50f01f9c5a571a3418cd773fdef"
        )


def _fraction_verdict(masses):
    """Reference: the refusal message for `masses` from Fraction sums, or None."""
    kept = {v: Fraction(m) for v, m in masses.items() if m != 0}
    if any(m < 0 for m in kept.values()):
        return "measure has a negative mass"
    if sum(kept.values(), Fraction(0)) != 1:
        return "measure masses must sum to exactly 1"
    return None


class TestMeasureIntegerChecks:
    """Measure's integer checks give the Fraction sums' verdicts."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=5),
        st.sampled_from(["exact", "plus", "minus", "negative"]),
        st.integers(1, 40),
        st.integers(0, 100_000),
    )
    def test_same_verdict_as_fraction_sums(self, weights, shape, q, seed):
        rng = random.Random(seed)
        total = sum(weights)
        masses = {f"v{i}": Fraction(w, total) for i, w in enumerate(weights)}
        key = rng.choice(list(masses))
        if shape == "plus":
            masses[key] += Fraction(1, q)
        elif shape == "minus":
            masses[key] -= Fraction(1, q)
        elif shape == "negative":
            masses[key] = -masses[key]
        for i in range(rng.randint(0, 2)):  # zero masses are dropped
            masses[f"z{i}"] = rng.choice([0, Fraction(0)])
        masses = {  # integral masses as plain ints
            v: int(m) if m.denominator == 1 and rng.random() < 0.5 else m
            for v, m in ((v, Fraction(m)) for v, m in masses.items())
        }
        want = _fraction_verdict(masses)
        try:
            mu = Measure(masses)
        except PreconditionError as exc:
            assert str(exc) == want
        else:
            assert want is None
            assert mu.masses == {v: m for v, m in masses.items() if m != 0}
            assert mu.support() == sorted(mu.masses)


@contextmanager
def batch_reads():
    """Record every `_Batch._row` source and every cost block `wasserstein1` reads.

    Yields (rows, blocks): the source ids whose BFS row was asked for, and the
    (source ids, target ids, costs) of each block read.
    """
    import equivcurv.transport as transport

    rows, blocks = [], []
    get_row, solve = transport._Batch._row, transport.wasserstein1

    def row(batch, s):
        rows.append(batch.structure.vertices[s])
        return get_row(batch, s)

    def recording(mu, nu, dist=None, *, cost=None):
        def block(kept_rows, kept_cols):
            got = cost(kept_rows, kept_cols)
            sources = [mu.support()[i] for i in kept_rows]
            blocks.append((sources, [nu.support()[j] for j in kept_cols], got))
            return got

        return solve(mu, nu, dist, cost=block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport._Batch, "_row", row)
        patch.setattr(transport, "wasserstein1", recording)
        yield rows, blocks


class TestSkippedRows:
    """A source whose whole mass is shared gets no BFS row and no cost cell."""

    def test_shared_sources_are_never_read(self, monkeypatch):
        import equivcurv.transport as transport

        created = []

        class CountingRow(transport.BfsRow):
            def __init__(self, s):
                created.append(g.vertices[s])
                super().__init__(s)

        monkeypatch.setattr(transport, "BfsRow", CountingRow)
        # x and y both have degree 3 and share a and b, whose mass cancels.
        g = parse_graph("x a\nx b\nx p\ny a\ny b\ny q\np q\n")
        with batch_reads() as (rows, blocks):
            result = orc(g, "x", "y")
        assert (result.distance, result.w1, result.kappa) == (2, Fraction(1, 3), Fraction(5, 6))
        assert blocks == [(["p"], ["q"], [[1]])]
        assert rows == ["p"]
        assert created == ["p"]  # a one-off d(x, y) is met from both ends in core

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from(list(SimilarityWalk)))
    def test_batch_reads_only_rows_and_columns_with_mass(self, seed, walk):
        rng = random.Random(seed)
        structure = random_structure(rng, walk)
        pairs = random_pair_list(rng, structure)
        measure = TestSharedMass.MEASURE[walk]
        with batch_reads() as (rows, blocks):
            results = curvatures(structure, pairs, walk)
            for x, y in pairs:  # what each pair of the batch reads
                del rows[:], blocks[:]
                try:
                    next(results)
                except (PreconditionError, UnknownVertexError):
                    break  # the first failing pair ends the run
                mu, nu = measure(structure, x), measure(structure, y)
                give = [u for u in mu.support() if mu[u] > nu[u]]
                take = [v for v in nu.support() if nu[v] > mu[v]]
                assert [(s, t) for s, t, _ in blocks] == [(give, take)]
                assert set(rows) <= {x, *give}  # x's own row may answer d(x, y)


class TestTracedSolve:
    """bench/tracing.py, loaded as the benchmark loads it, times every solve."""

    def test_every_pair_of_curv_all_is_one_traced_solve(self, capsys):
        from equivcurv.cli import main

        tracing = _bench_module("tracing")
        path = Path(__file__).resolve().parents[1] / "fixtures" / "p9.edges"
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.root(main.main, ["curv", str(path), "--all"], standalone_mode=False)
        finally:
            tracer.uninstall()
        pairs = json.loads(capsys.readouterr().out)["pairs"]
        metrics = tracing.layer_metrics(tracer)
        assert len(pairs) == 9 * 8 // 2
        assert metrics["transport.w1_calls"] == len(pairs)
        assert metrics["transport.w1_s"] > 0
