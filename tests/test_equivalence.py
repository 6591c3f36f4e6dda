"""Structural/regular equivalence verifiers and the hypergraph hierarchy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import (
    Graph,
    HierarchyLevel,
    Hypergraph,
    Partition,
    PreconditionError,
    ee_lemma_check,
    ee_orc,
    fixtures,
    hierarchy_level,
    is_regular_partition,
    is_strong_regular_partition,
    is_strong_structural,
    is_strong_structural_partition,
    is_structural_partition,
    is_weak_regular_partition,
    is_weak_structural,
    is_weak_structural_partition,
    orc,
    parse_graph,
    parse_hypergraph,
    structural_classes,
)

from support import (
    brute_force_witness,
    ee_lemma_oracle,
    multiset_oracle,
    random_connected_graph,
    random_hypergraph,
    random_partition,
)


class TestStructuralPartition:
    def test_fig3_pair(self):
        g = fixtures.graph("fig3")
        assert is_structural_partition(
            g, Partition([("a", "b"), ("p",), ("q",), ("c",)])
        ).verdict

    def test_violation_witness(self):
        g = fixtures.graph("l3")
        w = is_structural_partition(g, Partition([("1", "2"), ("3",), ("4",)]))
        assert not w.verdict
        assert w.violation["pair"] == ["1", "2"]
        assert w.violation["neighbor"] in {"1", "2", "3"}

    def test_partition_must_cover(self):
        g = fixtures.graph("l3")
        with pytest.raises(PreconditionError):
            is_structural_partition(g, Partition([("1", "2")]))

    def test_singletons_always_structural(self):
        g = fixtures.graph("p9")
        p = Partition([(v,) for v in g.vertices])
        assert is_structural_partition(g, p).verdict


class TestRegularPartition:
    def test_l3_endpoints(self):
        g = fixtures.graph("l3")
        assert is_regular_partition(g, Partition([("1", "4"), ("2", "3")])).verdict

    def test_trivial_partition_regular(self):
        g = fixtures.graph("p9")
        assert is_regular_partition(g, Partition([tuple(g.vertices)])).verdict

    def test_p9_figure_partition_not_regular(self):
        g = fixtures.graph("p9")
        figure = Partition([("3", "9"), ("1", "2", "4", "5", "6", "7", "8")])
        w = is_regular_partition(g, figure)
        assert not w.verdict
        large = {"1", "2", "4", "5", "6", "7", "8"}
        assert set(w.violation["pair"]) <= large
        assert w.violation["block"] == figure.block_of["3"]
        assert w.violation["neighbor"] in {"3", "9"}

    def test_structural_implies_regular(self):
        g = fixtures.graph("fig3")
        p = Partition([("a", "b"), ("p",), ("q",), ("c",)])
        assert is_structural_partition(g, p).verdict
        assert is_regular_partition(g, p).verdict

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_structural_implies_regular_random(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        p = random_partition(rng, g.vertices)
        if is_structural_partition(g, p).verdict:
            assert is_regular_partition(g, p).verdict

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_witness_is_genuine(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng)
        p = random_partition(rng, g.vertices)
        w = is_regular_partition(g, p)
        if w.verdict:
            return
        lacking, having = w.violation["pair"]
        beta = w.violation["block"]
        assert p.block_of[lacking] == p.block_of[having]
        assert beta in {p.block_of[z] for z in g.neighbors(having)}
        assert beta not in {p.block_of[z] for z in g.neighbors(lacking)}


class TestStructuralClasses:
    def test_fig3(self):
        g = fixtures.graph("fig3")
        p = structural_classes(g)
        assert p == Partition([("p",), ("a", "b"), ("q",), ("c",)])
        assert p.block_of["a"] == p.block_of["b"]

    def test_loops_rejected(self):
        with pytest.raises(PreconditionError):
            structural_classes(parse_graph("a\na b\n"))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_classes_match_pairwise_curvature_one(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=8)
        p = structural_classes(g)
        for x in g.vertices:
            for y in g.vertices:
                if x >= y:
                    continue
                same = p.block_of[x] == p.block_of[y]
                assert same == (g.neighbors(x) == g.neighbors(y))
                if g.distance(x, y) is not None:
                    assert same == (orc(g, x, y).kappa == 1)


class TestHypergraphStructural:
    def test_hx_weak_not_strong(self):
        h = fixtures.hypergraph("hx")
        assert is_weak_structural(h, "x", "y")
        assert not is_strong_structural(h, "x", "y")

    def test_strong_structural_positive(self):
        h = parse_hypergraph("x a b\ny a b\n")
        assert is_strong_structural(h, "x", "y")

    def test_weak_structural_negative(self):
        h = fixtures.hypergraph("h1")
        assert not is_weak_structural(h, "x", "a")


class TestHypergraphRegular:
    def test_weak_regular_matches_h1_regular(self):
        h = fixtures.hypergraph("h1")
        p = Partition([("x", "y"), ("a", "b", "c", "d")])
        assert (
            is_weak_regular_partition(h, p).verdict
            == is_regular_partition(h.associated_graph(), p).verdict
        )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_weak_regular_reduction_random(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng)
        p = random_partition(rng, h.vertices)
        left = is_weak_regular_partition(h, p).verdict
        right = is_regular_partition(h.associated_graph(), p).verdict
        assert left == right

    def test_strong_regular_implies_weak_regular(self):
        h = fixtures.hypergraph("hs")
        p = Partition([("x", "y"), ("a", "b", "c", "d")])
        if is_strong_regular_partition(h, p).verdict:
            assert is_weak_regular_partition(h, p).verdict

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_strong_implies_weak_random(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng)
        p = random_partition(rng, h.vertices)
        if is_strong_regular_partition(h, p).verdict:
            assert is_weak_regular_partition(h, p).verdict

    def test_strong_regular_separates_cardinalities(self):
        # one pair linked by a 2-edge, the other by a 3-edge
        h = parse_hypergraph("a b\nc d e\n")
        p = Partition([("a", "c"), ("b", "d"), ("e",)])
        assert not is_strong_regular_partition(h, p).verdict


ORDER = [
    HierarchyLevel.EE_MEASURE,
    HierarchyLevel.WEIGHTED_NEIGHBOURHOOD,
    HierarchyLevel.MULTISET,
    HierarchyLevel.STRONG,
]


class TestHierarchy:
    def test_hx_levels(self):
        h = fixtures.hypergraph("hx")
        assert hierarchy_level(h, "x", "y") == {HierarchyLevel.EE_MEASURE}

    def test_hw_levels(self):
        h = fixtures.hypergraph("hw")
        levels = hierarchy_level(h, "x", "y")
        assert HierarchyLevel.WEIGHTED_NEIGHBOURHOOD in levels
        assert HierarchyLevel.MULTISET not in levels

    def test_hs_levels(self):
        h = fixtures.hypergraph("hs")
        levels = hierarchy_level(h, "x", "y")
        assert HierarchyLevel.MULTISET in levels
        assert HierarchyLevel.STRONG not in levels

    def test_identical_stars(self):
        h = parse_hypergraph("x a b\ny a b\nx c\ny c\n")
        assert hierarchy_level(h, "x", "y") == set(ORDER)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 100_000))
    def test_implication_chain(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng)
        x, y = rng.sample(h.vertices, 2)
        levels = hierarchy_level(h, x, y)
        for weaker, stronger in zip(ORDER, ORDER[1:]):
            if stronger in levels:
                assert weaker in levels

    def test_loops_rejected(self):
        h = parse_hypergraph("a\na b\n")
        with pytest.raises(PreconditionError):
            hierarchy_level(h, "a", "b")


class TestEELemma:
    def test_hx_fails_hypotheses(self):
        h = fixtures.hypergraph("hx")
        assert not ee_lemma_check(h, "x", "y")

    def test_lemma_conclusion(self):
        # when hypotheses hold and EE curvature is 1, equivalence is strong
        h = parse_hypergraph("x a b\ny a b\n")
        assert ee_lemma_check(h, "x", "y")
        assert ee_orc(h, "x", "y").kappa == 1
        assert is_strong_structural(h, "x", "y")

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_lemma_random(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng)
        x, y = rng.sample(h.vertices, 2)
        if not ee_lemma_check(h, x, y):
            return
        if h.distance(x, y) is None:
            return
        if ee_orc(h, x, y).kappa == 1 and h.distance(x, y) == 2:
            assert is_strong_structural(h, x, y)


def twin_heavy_hypergraph(rng):
    """Random loop-free hypergraph with repeated hyperedges and near-twins.

    Half the time y is given a copy of every hyperedge through x, with x
    swapped for y; some copies then lose or gain a member, or repeat, so
    pairs that agree on some levels and not others are common.
    """
    h = random_hypergraph(rng, max_vertices=6, max_hyperedges=6)
    hyperedges = list(h.hyperedges)
    hyperedges += [rng.choice(hyperedges) for _ in range(rng.randint(0, 2))]  # repeats
    if rng.random() < 0.5:
        x, y = rng.sample(h.vertices, 2)
        hyperedges = [e for e in hyperedges if y not in e]
        for e in [e for e in hyperedges if x in e]:
            copy = [y if v == x else v for v in e]
            roll = rng.random()
            others = [v for v in h.vertices if v not in copy]
            if roll < 0.15 and len(copy) > 2:
                copy.remove(rng.choice([v for v in copy if v != y]))
            elif roll < 0.3 and others:
                copy.append(rng.choice(others))
            elif roll < 0.4:
                hyperedges.append(tuple(copy))
            hyperedges.append(tuple(copy))
        covered = {v for e in hyperedges for v in e}
        hyperedges += [(v, x if v != x else y) for v in h.vertices if v not in covered]
    return Hypergraph(h.vertices, hyperedges)


class TestHyperedgeStarOracles:
    """MULTISET and the EE lemma's hypotheses against oracles that scan
    `h.hyperedges` per common neighbour."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6))
    def test_every_pair(self, seed):
        h = twin_heavy_hypergraph(random.Random(seed))
        for x in h.vertices:
            for y in h.vertices:
                multiset = HierarchyLevel.MULTISET in hierarchy_level(h, x, y)
                assert multiset == multiset_oracle(h, x, y)
                assert ee_lemma_check(h, x, y) == ee_lemma_oracle(h, x, y)

    def test_repeated_hyperedge_breaks_the_multiset(self):
        # Same neighbours and the same cardinalities, with other multiplicities.
        h = parse_hypergraph("x a b\nx a b\ny a b\n")
        assert not multiset_oracle(h, "x", "y")
        assert HierarchyLevel.MULTISET not in hierarchy_level(h, "x", "y")
        twice = parse_hypergraph("x a b\nx a b\ny a b\ny a b\n")
        assert multiset_oracle(twice, "x", "y")
        assert HierarchyLevel.MULTISET in hierarchy_level(twice, "x", "y")
        assert not ee_lemma_check(twice, "x", "y")


GRAPH_VERIFIERS = {
    "structural": is_structural_partition,
    "regular": is_regular_partition,
}
HYPERGRAPH_VERIFIERS = {
    "weak-structural": is_weak_structural_partition,
    "strong-structural": is_strong_structural_partition,
    "weak-regular": is_weak_regular_partition,
    "strong-regular": is_strong_regular_partition,
}


def _some_partition(rng, structure):
    """A random partition, or one grouped by neighbour set, possibly coarsened.

    Grouped partitions make true verdicts and late violations common.
    """
    kind = rng.randrange(4)
    if kind == 0:
        return random_partition(rng, structure.vertices)
    if kind == 1:
        return Partition([(v,) for v in structure.vertices])
    groups = {}
    for v in structure.vertices:
        groups.setdefault(frozenset(structure.neighbors(v)), []).append(v)
    blocks = list(groups.values())
    rng.shuffle(blocks)
    if kind == 3 and len(blocks) > 1:
        merged = blocks.pop()
        blocks[-1] = blocks[-1] + merged
    for block in blocks:
        rng.shuffle(block)
    return Partition(blocks)


class TestWitnessIdentity:
    """Every verifier's JSON equals the all-pairs scan's, witness included."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_graph_notions(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=9)
        vertices = g.vertices + [f"i{k}" for k in range(rng.randint(0, 2))]
        loops = [(v,) for v in rng.sample(vertices, rng.randint(0, 2))]
        g = Graph(vertices, g.edge_ids() + loops)
        p = _some_partition(rng, g)
        for notion, verify in GRAPH_VERIFIERS.items():
            assert verify(g, p).to_json() == brute_force_witness(notion, g, p)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_hypergraph_notions(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, max_vertices=8, max_hyperedges=8)
        singletons = [(v,) for v in rng.sample(h.vertices, rng.randint(0, 2))]
        h = Hypergraph(h.vertices, h.hyperedges + singletons)
        p = _some_partition(rng, h)
        for notion, verify in HYPERGRAPH_VERIFIERS.items():
            assert verify(h, p).to_json() == brute_force_witness(notion, h, p)
