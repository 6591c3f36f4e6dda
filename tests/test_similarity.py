"""Cosine similarity and its exact curvature bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import (
    CosineData,
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
    similarity_reports,
)

from support import (
    fraction_bounds_hold,
    fraction_curvature_bounds,
    random_connected_graph,
    random_hypergraph,
    random_pair_list,
    random_structure,
    reference_curvature,
)


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


@st.composite
def bound_cases(draw):
    """(sigma, distance, kappa) with kappa near the edges of both bounds."""
    d_x, d_y = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    eta = draw(st.integers(0, min(d_x, d_y)))
    if draw(st.booleans()):  # sigma = 1 needs eta = d_x = d_y
        d_y = eta = d_x
    sigma = CosineData(eta, d_x, d_y)
    distance = draw(st.integers(1, 6))
    lower, upper = fraction_curvature_bounds(sigma, distance)
    shift = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 10**6)))
    kappa = draw(
        st.sampled_from(
            [
                lower,  # exactly at the lower bound
                upper,  # exactly at the certified upper bound
                1 - Fraction(1, distance),  # t = 0: the upper bound holds outright
                Fraction(1),
            ]
        )
        | st.fractions(min_value=-3, max_value=1, max_denominator=10**4)
    )
    return sigma, distance, kappa + shift * draw(st.sampled_from([0, 1]))


class TestIntegerBounds:
    """The integer bounds equal the Fraction formulas they replace."""

    @settings(max_examples=1000, deadline=None)
    @given(bound_cases())
    def test_equal_to_the_fraction_formulas(self, case):
        sigma, distance, kappa = case
        assert bounds_hold(sigma, distance, kappa) == fraction_bounds_hold(
            sigma, distance, kappa
        )
        got = curvature_bounds(sigma, distance)
        assert got == fraction_curvature_bounds(sigma, distance)
        assert all(type(b) is Fraction for b in got)

    @pytest.mark.parametrize(
        "eta, d_x, d_y, distance, kappa, holds",
        [
            (1, 3, 2, 3, Fraction(2, 3), True),  # t = 0
            (1, 3, 2, 3, Fraction(1, 2), True),  # t < 0
            (2, 3, 2, 1, Fraction(0), True),  # kappa exactly at the lower bound
            (2, 3, 2, 1, Fraction(-1, 10**9), False),  # just below it
            (0, 3, 2, 2, Fraction(1, 2), True),  # sigma = 0, kappa at the upper bound
            (0, 3, 2, 2, Fraction(1, 2) + Fraction(1, 10**9), False),
            (3, 3, 3, 2, Fraction(1), True),  # sigma = 1
            (2, 3, 3, 2, Fraction(5, 6), True),  # exactly at the true upper bound
            (2, 3, 3, 2, Fraction(5, 6) + Fraction(1, 10**9), False),
            (1, 2, 3, 2, Fraction(2, 3), True),  # d_x d_y = 6, not a square
            (1, 2, 3, 2, Fraction(71, 100), False),
        ],
    )
    def test_edges(self, eta, d_x, d_y, distance, kappa, holds):
        sigma = CosineData(eta, d_x, d_y)
        assert bounds_hold(sigma, distance, kappa) is holds
        assert fraction_bounds_hold(sigma, distance, kappa) is holds
        assert curvature_bounds(sigma, distance) == fraction_curvature_bounds(
            sigma, distance
        )


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


def _fields(report):
    """Every field of a report, with its curvature as comparable values."""
    c = report.curvature
    curvature = None if c is None else (c.kappa, c.w1, c.distance, c.coupling.entries)
    return (
        report.x, report.y, report.eta, report.d_x, report.d_y, report.distance,
        report.kappa, report.lower_bound, report.upper_bound,
        report.fully_dissimilar, curvature,
    )


class TestBatchedReports:
    """`similarity_reports` over a pair list equals one `similarity_report` per pair."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from(list(SimilarityWalk)))
    def test_equals_per_pair_reports(self, seed, walk):
        rng = random.Random(seed)
        structure = random_structure(rng, walk)
        pairs = random_pair_list(rng, structure)
        got, want = [], []
        try:
            for report in similarity_reports(structure, pairs, walk):
                got.append(_fields(report))
        except Exception as exc:  # compared by type and message
            got.append((type(exc), str(exc)))
        for x, y in pairs:
            try:
                report = similarity_report(structure, x, y, walk)
            except Exception as exc:
                want.append((type(exc), str(exc)))
                break
            want.append(_fields(report))
            if report.curvature is not None:
                assert _fields(report)[-1] == reference_curvature(structure, x, y, walk)
        assert got == want

    def test_cross_component_pair_in_a_list(self):
        g = parse_graph("a b\nb c\nc a\nd e\n")
        pairs = [("a", "b"), ("a", "d"), ("d", "e")]
        reports = list(similarity_reports(g, pairs))
        assert [r.kappa for r in reports] == [
            similarity_report(g, "a", "b").kappa, None, Fraction(0)
        ]
        assert reports[1].distance is None and reports[1].fully_dissimilar


class TestHypergraphCosine:
    """On a hypergraph, d_x and d_y count neighbours, not incident hyperedges."""

    def test_h1_pair(self):
        sigma = cosine_similarity(fixtures.hypergraph("h1"), "x", "y")
        assert (sigma.eta, sigma.d_x, sigma.d_y) == (4, 4, 4)
        assert sigma.is_one() and sigma.value == 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_sigma_at_most_one(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng)
        x, y = rng.sample(h.vertices, 2)
        sigma = cosine_similarity(h, x, y)
        nx_, ny_ = h.neighbors(x), h.neighbors(y)
        assert (sigma.eta, sigma.d_x, sigma.d_y) == (len(nx_ & ny_), len(nx_), len(ny_))
        assert sigma.eta <= min(sigma.d_x, sigma.d_y)
        assert sigma.is_one() == (nx_ == ny_)

    def test_vertex_without_neighbours_rejected(self):
        # z lies in a hyperedge of its own, so it has degree 1 and no neighbour.
        h = Hypergraph(["a", "b", "z"], [("a", "b"), ("z",)])
        with pytest.raises(PreconditionError, match="requires positive degrees"):
            cosine_similarity(h, "a", "z")
