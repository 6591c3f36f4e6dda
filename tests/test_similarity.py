"""Cosine similarity and its exact curvature bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import (
    Hypergraph,
    PreconditionError,
    SimilarityWalk,
    bounds_hold,
    cosine_similarity,
    curvature_bounds,
    ee_orc,
    en_orc,
    fixtures,
    orc,
    parse_graph,
    similarity_report,
)

from support import random_connected_graph


class TestCosineData:
    def test_fig3_values(self):
        g = fixtures.graph("fig3")
        sigma = cosine_similarity(g, "a", "c")
        assert (sigma.eta, sigma.d_x, sigma.d_y) == (1, 2, 1)
        assert math.isclose(sigma.value, 1 / math.sqrt(2))

    def test_is_one(self):
        g = fixtures.graph("fig3")
        assert cosine_similarity(g, "a", "b").is_one()
        assert not cosine_similarity(g, "a", "c").is_one()

    def test_is_zero_far_pair(self):
        g = fixtures.graph("c6")
        assert cosine_similarity(g, "1", "4").is_zero()

    def test_hypergraph_similarity(self):
        h = fixtures.hypergraph("hx")
        sigma = cosine_similarity(h, "x", "y")
        assert sigma.eta == 3

    def test_degree_zero_rejected(self):
        from equivcurv import Graph

        g = Graph(["a", "b", "c"], [("a", "b")])
        with pytest.raises(PreconditionError):
            cosine_similarity(g, "a", "c")


class TestBounds:
    def test_sigma_one_upper_bound_is_one(self):
        g = fixtures.graph("fig3")
        sigma = cosine_similarity(g, "a", "b")
        lower, upper = curvature_bounds(sigma, 2)
        assert upper == 1
        assert lower == 1  # 3*eta/(d_x v d_y) - 2 with eta = d_x = d_y = 2

    def test_sigma_zero(self):
        g = fixtures.graph("c6")
        sigma = cosine_similarity(g, "1", "4")
        lower, upper = curvature_bounds(sigma, 3)
        assert lower == -2
        assert upper == Fraction(2, 3)

    def test_upper_bound_certified_from_above(self):
        g = fixtures.graph("fig3")
        sigma = cosine_similarity(g, "a", "c")
        _, upper = curvature_bounds(sigma, 2)
        true_upper = 1 - (1 - sigma.value) / 2
        assert float(upper) >= true_upper - 1e-15

    def test_invalid_distance(self):
        g = fixtures.graph("c6")
        sigma = cosine_similarity(g, "1", "2")
        with pytest.raises(PreconditionError):
            curvature_bounds(sigma, None)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_bounds_hold_random(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        x, y = rng.sample(g.vertices, 2)
        sigma = cosine_similarity(g, x, y)
        d = g.distance(x, y)
        kappa = orc(g, x, y).kappa
        assert bounds_hold(sigma, d, kappa)
        lower, upper = curvature_bounds(sigma, d)
        assert lower <= kappa <= upper

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_curvature_range_by_distance(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        x, y = rng.sample(g.vertices, 2)
        kappa = orc(g, x, y).kappa
        d = g.distance(x, y)
        if d == 1:
            assert -2 < kappa < 1
        elif d == 2:
            assert -1 < kappa <= 1

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_sigma_one_forces_kappa_one(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        x, y = rng.sample(g.vertices, 2)
        sigma = cosine_similarity(g, x, y)
        if sigma.is_one():
            assert orc(g, x, y).kappa == 1


class TestReports:
    def test_graph_report(self):
        g = fixtures.graph("fig3")
        r = similarity_report(g, "a", "c")
        assert r.distance == 2
        assert r.kappa == Fraction(1, 2)
        assert not r.fully_dissimilar
        assert r.lower_bound <= r.kappa <= r.upper_bound

    def test_fully_dissimilar(self):
        g = fixtures.graph("c6")
        r = similarity_report(g, "1", "4")
        assert r.fully_dissimilar
        assert r.eta == 0
        assert r.kappa is not None  # same component, curvature still defined

    def test_different_components(self):
        g = parse_graph("a b\nb c\nd e\ne f\n")
        r = similarity_report(g, "a", "d")
        assert r.distance is None
        assert r.kappa is None
        assert r.fully_dissimilar

    def test_hypergraph_walks(self):
        h = fixtures.hypergraph("h1")
        en = similarity_report(h, "x", "y", SimilarityWalk.EN)
        ee = similarity_report(h, "x", "y", SimilarityWalk.EE)
        assert en.kappa == 1
        assert ee.kappa == Fraction(19, 24)
        assert en.lower_bound is None  # bounds are graph-walk only

    def test_walk_type_mismatch(self):
        g = fixtures.graph("c6")
        with pytest.raises(PreconditionError):
            similarity_report(g, "1", "2", SimilarityWalk.EN)
        h = fixtures.hypergraph("hx")
        with pytest.raises(PreconditionError):
            similarity_report(h, "x", "y", SimilarityWalk.GRAPH)

    def test_same_vertex_rejected(self):
        with pytest.raises(PreconditionError):
            similarity_report(fixtures.graph("c6"), "1", "1")

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_dissimilar_iff_no_common_neighbor(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        x, y = rng.sample(g.vertices, 2)
        r = similarity_report(g, x, y)
        assert r.fully_dissimilar == (r.distance > 2)
        if r.fully_dissimilar:
            assert r.eta == 0


def random_connected_hypergraph(rng: random.Random, max_vertices=10):
    """Spanning tree of 2-element hyperedges plus random hyperedges of size 2..4."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    hyperedges = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    for _ in range(rng.randint(0, n)):
        hyperedges.append(tuple(rng.sample(names, rng.randint(2, min(4, n)))))
    return Hypergraph(names, hyperedges)


class TestSharedCurvature:
    """similarity_report computes the same curvature as orc, en_orc and ee_orc."""

    @settings(max_examples=90, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from(list(SimilarityWalk)))
    def test_report_curvature_equals_orc(self, seed, walk):
        rng = random.Random(seed)
        if walk is SimilarityWalk.GRAPH:
            structure, orc_fn = random_connected_graph(rng), orc
        else:
            structure = random_connected_hypergraph(rng)
            orc_fn = en_orc if walk is SimilarityWalk.EN else ee_orc
        x, y = rng.sample(structure.vertices, 2)
        got = similarity_report(structure, x, y, walk).curvature
        want = orc_fn(structure, x, y)
        assert got.kappa == want.kappa
        assert got.w1 == want.w1
        assert got.distance == want.distance
        assert got.coupling.entries == want.coupling.entries
