"""Acceptance gate: one test per headline criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (visible with -s or in failure
reports), and the verbose test id doubles as the pass/fail line of record.
"""

import random
from fractions import Fraction

import networkx as nx
import pytest

from equivcurv import (
    HierarchyLevel,
    Partition,
    WalkMode,
    bounds_hold,
    cosine_similarity,
    ee_orc,
    en_orc,
    fixtures,
    hierarchy_level,
    is_regular_partition,
    is_strong_structural,
    is_weak_regular_partition,
    is_weak_structural,
    neighborhood_graph,
    orc,
    parse_graph,
    regular_from_g2,
    regular_from_gn,
    regular_from_triangle_removal,
    wasserstein1,
)
from equivcurv.partitions import enumerate_removal_sets
from equivcurv.transport import Measure, neighbor_measure

from support import (
    brute_force_w1,
    coupling_cost,
    random_connected_graph,
    random_hypergraph,
    random_min_degree_2_graph,
    random_partition,
)


def edge_set(ng):
    return {frozenset(e) for e in ng.graph.edge_ids()}


def test_criterion_01_component_count_sequence():
    """C6: #components of G_n for n=1..6 is [1,2,3,2,1,6], G2=G4, G1=G5."""
    g = fixtures.graph("c6")
    builds = [neighborhood_graph(g, n, WalkMode.PATH) for n in range(1, 7)]
    counts = [len(b.graph.connected_components().blocks) for b in builds]
    # antipodal pairs split G3 into three 2-vertex components
    assert counts == [1, 2, 3, 2, 1, 6]
    assert edge_set(builds[1]) == edge_set(builds[3])
    assert edge_set(builds[0]) == edge_set(builds[4])
    print("criterion 1: PASS — C6 component counts [1,2,3,2,1,6], G2=G4, G1=G5")


def test_criterion_02_g2_lemma_exhaustive():
    """All connected loop-free graphs on <= 7 vertices: G2 has <= 2 components,
    exactly 2 iff bipartite, and then the components are the bipartition parts."""
    checked = 0
    for atlas in nx.graph_atlas_g():
        if atlas.number_of_nodes() < 2 or not nx.is_connected(atlas):
            continue
        g = parse_graph(
            "\n".join(f"{u} {v}" for u, v in atlas.edges())
        )
        p = neighborhood_graph(g, 2).graph.connected_components()
        bipartite = nx.is_bipartite(atlas)
        assert len(p.blocks) <= 2
        assert (len(p.blocks) == 2) == bipartite
        if bipartite:
            parts = [sorted(map(str, part)) for part in nx.bipartite.sets(atlas)]
            assert sorted(map(sorted, p.blocks)) == sorted(parts)
        checked += 1
    assert checked > 900
    print(f"criterion 2: PASS — G2 lemma on {checked} connected graphs <= 7 vertices")


def test_criterion_03_curvature_one_iff_structural():
    """200 random connected graphs: kappa = 1 iff identical neighbour sets."""
    rng = random.Random(20_260_301)
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=10)
        for i, x in enumerate(g.vertices):
            for y in g.vertices[i + 1 :]:
                assert (orc(g, x, y).kappa == 1) == (
                    g.neighbors(x) == g.neighbors(y)
                )
    print("criterion 3: PASS — kappa=1 iff structural on 200 random graphs")


def test_criterion_04_constructions_verify():
    """G2 components on 200 random graphs and G_n components on 200 random
    min-degree-2 graphs (n in 2..5) all pass the regular-partition check."""
    rng = random.Random(20_260_302)
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=10)
        assert regular_from_g2(g).verified
    for _ in range(200):
        g = random_min_degree_2_graph(rng, max_vertices=10)
        n = rng.choice([2, 3, 4, 5])
        report = regular_from_gn(g, n)
        assert all(met for _, met in report.preconditions)
        assert report.verified
    print("criterion 4: PASS — 200 G2 + 200 G_n constructions all regular")


def test_criterion_05_p9_counterexample():
    """The {3,9}-vs-rest partition of the tail-and-cycle graph is not regular:
    the witness pair lies in the large block, unreachable block is {3, 9}."""
    g = fixtures.graph("p9")
    figure = Partition([("3", "9"), ("1", "2", "4", "5", "6", "7", "8")])
    witness = is_regular_partition(g, figure)
    assert not witness.verdict
    large = {"1", "2", "4", "5", "6", "7", "8"}
    assert set(witness.violation["pair"]) <= large
    assert witness.violation["block"] == figure.block_of["3"]
    # the partition that the G_4 construction actually produces is different:
    # 9-8-7-4-5 is a length-4 simple path, so the components are the parity
    # classes of the bipartition, and those are regular
    report = regular_from_gn(g, 4)
    assert report.partition != figure
    assert report.partition == Partition(
        [("1", "3", "5", "7", "9"), ("2", "4", "6", "8")]
    )
    assert report.verified
    assert not all(met for _, met in report.preconditions)  # vertex 1 has degree 1
    print("criterion 5: PASS — figure partition irregular with block {3,9} witness")


@pytest.mark.xfail(
    strict=True,
    reason="one-edge-per-triangle removal does not guarantee regularity for the"
    " original graph; pruned-G2 components can split a vertex from its"
    " removed neighbour's component (see the pinned counterexample in"
    " test_partitions). The components are always regular for the pruned"
    " graph, which the companion criterion checks.",
)
def test_criterion_06_triangle_removal_original_graph():
    """100 random graphs with random valid removal sets: G'2 components
    claimed regular for the original graph (fails on genuine counterexamples)."""
    rng = random.Random(20_260_303)
    failures = 0
    for _ in range(100):
        g = random_connected_graph(rng, max_vertices=9)
        removal = rng.choice(enumerate_removal_sets(g, max_size=2))
        if not regular_from_triangle_removal(g, removal).verified:
            failures += 1
    print(f"criterion 6: {failures}/100 removal instances irregular for original")
    assert failures == 0


def test_criterion_06_triangle_removal_pruned_graph():
    """Corrected reading: the same 100 instances are always regular for the
    pruned graph G', with zero failures."""
    rng = random.Random(20_260_303)
    for _ in range(100):
        g = random_connected_graph(rng, max_vertices=9)
        removal = rng.choice(enumerate_removal_sets(g, max_size=2))
        report = regular_from_triangle_removal(g, removal)
        pruned = g.without_edges(removal.pairs())
        assert is_regular_partition(pruned, report.partition).verdict
    print("criterion 6: PASS — 100 pruned-G2 partitions regular for G'")


def test_criterion_07_hypergraph_curvature_characterisation():
    """FIX-H1: EN-ORC=1, EE-ORC!=1, weak but not strong structural.
    FIX-HX: EN-ORC=EE-ORC=1 yet not strong (refuting the converse)."""
    h1 = fixtures.hypergraph("h1")
    assert en_orc(h1, "x", "y").kappa == 1
    assert ee_orc(h1, "x", "y").kappa == Fraction(19, 24)
    assert is_weak_structural(h1, "x", "y")
    assert not is_strong_structural(h1, "x", "y")
    hx = fixtures.hypergraph("hx")
    assert en_orc(hx, "x", "y").kappa == 1
    assert ee_orc(hx, "x", "y").kappa == 1
    assert is_weak_structural(hx, "x", "y")
    assert not is_strong_structural(hx, "x", "y")
    print("criterion 7: PASS — EN/EE curvature characterisation on H1 and HX")


ORDER = [
    HierarchyLevel.EE_MEASURE,
    HierarchyLevel.WEIGHTED_NEIGHBOURHOOD,
    HierarchyLevel.MULTISET,
    HierarchyLevel.STRONG,
]


def test_criterion_08_hierarchy_chain():
    """300 random hypergraphs: Strong => Multiset => Weighted => EE-measure,
    plus fixtures separating every adjacent pair of levels."""
    rng = random.Random(20_260_304)
    for _ in range(300):
        h = random_hypergraph(rng)
        x, y = rng.sample(h.vertices, 2)
        levels = hierarchy_level(h, x, y)
        for weaker, stronger in zip(ORDER, ORDER[1:]):
            if stronger in levels:
                assert weaker in levels
    # hx: EE measures agree after degree normalisation, raw weights differ
    assert hierarchy_level(fixtures.hypergraph("hx"), "x", "y") == {
        HierarchyLevel.EE_MEASURE
    }
    # hw: raw weights agree, per-neighbour cardinality multisets differ
    hw_levels = hierarchy_level(fixtures.hypergraph("hw"), "x", "y")
    assert HierarchyLevel.WEIGHTED_NEIGHBOURHOOD in hw_levels
    assert HierarchyLevel.MULTISET not in hw_levels
    # hs: multisets agree, no content-preserving star bijection exists
    hs_levels = hierarchy_level(fixtures.hypergraph("hs"), "x", "y")
    assert HierarchyLevel.MULTISET in hs_levels
    assert HierarchyLevel.STRONG not in hs_levels
    print("criterion 8: PASS — hierarchy chain on 300 hypergraphs + separators")


def test_criterion_09_bounds():
    """200 random connected graphs: lower <= kappa <= upper for every pair,
    and sigma = 1 forces kappa = 1 exactly."""
    rng = random.Random(20_260_305)
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=10)
        for i, x in enumerate(g.vertices):
            for y in g.vertices[i + 1 :]:
                sigma = cosine_similarity(g, x, y)
                kappa = orc(g, x, y).kappa
                assert bounds_hold(sigma, g.distance(x, y), kappa)
                if sigma.is_one():
                    assert kappa == 1
    print("criterion 9: PASS — curvature bounds exact on 200 random graphs")


def test_criterion_10_w1_oracle():
    """500 random measure pairs with supports <= 6: solver result equals the
    brute-force optimum over enumerated basic couplings, exactly."""
    rng = random.Random(20_260_306)
    for _ in range(500):
        g = random_connected_graph(rng, max_vertices=8)
        support_cap = min(6, len(g.vertices))
        mu = _random_measure(rng, g.vertices, support_cap)
        nu = _random_measure(rng, g.vertices, support_cap)
        dist = lambda u, v: g.distance(u, v)
        w1, coupling = wasserstein1(mu, nu, dist)
        assert w1 == brute_force_w1(mu, nu, dist)
        assert coupling_cost(coupling, dist) == w1
    print("criterion 10: PASS — 500 W1 instances match the brute-force oracle")


def _random_measure(rng, points, cap):
    support = rng.sample(points, rng.randint(1, cap))
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    return Measure({p: Fraction(w, total) for p, w in zip(support, weights)})


def test_criterion_11_weak_regular_reduction():
    """100 random hypergraphs and partitions: weak regularity on H agrees
    with regularity on the associated graph H1."""
    rng = random.Random(20_260_307)
    for _ in range(100):
        h = random_hypergraph(rng)
        p = random_partition(rng, h.vertices)
        left = is_weak_regular_partition(h, p).verdict
        right = is_regular_partition(h.associated_graph(), p).verdict
        assert left == right
    print("criterion 11: PASS — weak-regular reduction on 100 hypergraphs")
