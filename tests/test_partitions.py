"""Constructive partitions from neighbourhood-graph components."""

import math
import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import (
    Graph,
    Partition,
    PreconditionError,
    RemovalSet,
    ResourceCapError,
    WalkMode,
    enumerate_removal_sets,
    fixtures,
    hyper_neighborhood_graph,
    inclusion_check,
    is_regular_partition,
    is_weak_regular_partition,
    neighborhood_graph,
    parse_graph,
    parse_hypergraph,
    regular_from_curvature_subcliques,
    regular_from_g2,
    regular_from_gn,
    regular_from_kcycle_removal,
    regular_from_triangle_removal,
    structural_classes,
    structural_from_curvature,
    weak_regular_from_h2,
    weak_regular_from_hn,
)
import equivcurv.partitions as partitions_module

from support import (
    random_connected_graph,
    random_hypergraph,
    random_min_degree_2_graph,
    removal_sets_oracle,
)


class TestG2Construction:
    def test_h5_theta_graph(self):
        report = regular_from_g2(fixtures.graph("h5"))
        assert report.verified
        assert report.partition == Partition([("a", "e"), ("b", "c", "d")])
        assert report.notes  # two components: maximality note

    def test_c6(self):
        report = regular_from_g2(fixtures.graph("c6"))
        assert report.verified
        assert report.partition == Partition([("1", "3", "5"), ("2", "4", "6")])

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            regular_from_g2(parse_graph("a b\nc d\n"))

    def test_loops_rejected(self):
        with pytest.raises(PreconditionError):
            regular_from_g2(parse_graph("a\na b\n"))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_always_regular(self, seed):
        g = random_connected_graph(random.Random(seed))
        report = regular_from_g2(g)
        assert report.verified
        assert len(report.partition.blocks) <= 2

    def test_json_shape(self):
        data = regular_from_g2(fixtures.graph("h5")).to_json()
        assert data["method"] == "g2-components"
        assert data["verified"] is True
        assert {"name": "connected", "met": True} in data["preconditions"]
        assert sorted(map(sorted, data["blocks"])) == [
            ["a", "e"],
            ["b", "c", "d"],
        ]


class TestGnConstruction:
    def test_c6_n3(self):
        report = regular_from_gn(fixtures.graph("c6"), 3)
        assert report.verified
        assert len(report.partition.blocks) == 3
        assert all(len(b) == 2 for b in report.partition.blocks)

    def test_p9_n4_min_degree_flagged(self):
        report = regular_from_gn(fixtures.graph("p9"), 4)
        assert not all(met for _, met in report.preconditions)  # vertex 1 has degree 1
        # the construction still yields the parity classes, which are regular
        assert report.partition == Partition(
            [("1", "3", "5", "7", "9"), ("2", "4", "6", "8")]
        )
        assert report.verified

    def test_g3_n3_components_not_regular(self):
        # the pendant vertex a sees only block {b, g}, but its classmates in
        # {a, c, d, e, f} also have same-block neighbours, so verification fails
        report = regular_from_gn(fixtures.graph("g3"), 3)
        assert not all(met for _, met in report.preconditions)
        assert report.partition == Partition([("a", "c", "d", "e", "f"), ("b", "g")])
        assert not report.verified
        assert report.witness["pair"] == ["a", "c"]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000), st.integers(2, 5))
    def test_min_degree_2_always_regular(self, seed, n):
        g = random_min_degree_2_graph(random.Random(seed))
        report = regular_from_gn(g, n)
        assert all(met for _, met in report.preconditions)
        assert report.verified


class TestCurvatureConstructions:
    def test_structural_from_curvature_fig3(self):
        report = structural_from_curvature(fixtures.graph("fig3"))
        assert report.verified
        assert report.partition.block_of["a"] == report.partition.block_of["b"]

    def test_subcliques_fig3(self):
        report = regular_from_curvature_subcliques(
            fixtures.graph("fig3"), [("a", "b")]
        )
        assert report.verified
        assert report.partition.block_of["a"] == report.partition.block_of["b"]

    def test_subcliques_rejects_unequal_neighbourhoods(self):
        with pytest.raises(PreconditionError) as exc:
            regular_from_curvature_subcliques(fixtures.graph("fig3"), [("a", "c")])
        assert "'a'" in str(exc.value) and "'c'" in str(exc.value)

    def test_subcliques_rejects_overlap(self):
        with pytest.raises(PreconditionError):
            regular_from_curvature_subcliques(
                fixtures.graph("fig3"), [("a", "b"), ("b", "q")]
            )

    @pytest.mark.parametrize("chosen", [[("a", "a")], [("a", "b"), ("a", "q")]])
    def test_subcliques_vertex_chosen_twice(self, chosen):
        # Twice in one set or once in each of two: the message fits both.
        with pytest.raises(PreconditionError) as info:
            regular_from_curvature_subcliques(fixtures.graph("fig3"), chosen)
        assert str(info.value) == "vertex 'a' appears more than once in the chosen sets"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_structural_from_curvature_random(self, seed):
        g = random_connected_graph(random.Random(seed))
        report = structural_from_curvature(g)
        assert report.verified
        assert is_regular_partition(g, report.partition).verdict


class TestNeighbourSetsDecideG2:
    """What the removed G_2 builds of structural and subcliques asserted."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_structural_classes_are_cliques_of_g2(self, seed):
        g = random_connected_graph(random.Random(seed))
        g2 = neighborhood_graph(g, 2).graph
        for block in structural_classes(g).blocks:
            for i, a in enumerate(block):
                for b in block[i + 1 :]:
                    assert b in g2.neighbors(a), (block, a, b)

    def test_subcliques_of_isolated_vertices_are_not_g2_edges(self):
        g = Graph(["a", "b", "c", "d"], [("c", "d")])
        with pytest.raises(PreconditionError) as exc:
            regular_from_curvature_subcliques(g, [("a", "b")])
        assert str(exc.value) == "pair ('a', 'b') is not an edge of G_2"


class TestTriangleRemoval:
    def test_validation(self):
        g = parse_graph("a b\nb c\nc a\nc d\n")
        with pytest.raises(PreconditionError):
            regular_from_triangle_removal(
                g, RemovalSet.of([("a", "b"), ("b", "c")])
            )

    def test_verified_against_original(self):
        g = parse_graph("a b\nb c\nc a\nc d\n")
        report = regular_from_triangle_removal(g, RemovalSet.of([("a", "b")]))
        assert is_regular_partition(g, report.partition).verdict == report.verified

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_components_always_regular_for_pruned_graph(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=9)
        removal = rng.choice(enumerate_removal_sets(g, max_size=2))
        pruned = g.without_edges(removal.pairs())
        report = regular_from_triangle_removal(g, removal)
        assert is_regular_partition(pruned, report.partition).verdict

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_verdict_is_honest(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=9)
        removal = rng.choice(enumerate_removal_sets(g, max_size=2))
        report = regular_from_triangle_removal(g, removal)
        assert report.verified == is_regular_partition(g, report.partition).verdict

    def test_known_irregular_counterexample(self):
        # a valid one-edge-per-triangle removal whose pruned-G2 components are
        # regular for the pruned graph but not for the original one
        g = parse_graph(
            "v0 v1\nv0 v8\nv1 v2\nv1 v4\nv1 v5\nv1 v7\nv2 v3\nv2 v5\nv5 v6\n"
        )
        report = regular_from_triangle_removal(g, RemovalSet.of([("v2", "v5")]))
        assert not report.verified
        assert report.witness["pair"] == ["v0", "v2"]
        pruned = g.without_edges([("v2", "v5")])
        assert is_regular_partition(pruned, report.partition).verdict

    def test_enumerate_includes_empty(self):
        g = fixtures.graph("c6")
        options = enumerate_removal_sets(g, max_size=1)
        assert any(len(r.edges) == 0 for r in options)
        assert len(options) == 1 + g.n_edges()

    def test_enumerate_has_no_vertex_cap(self):
        # Ten vertices and no triangle: the empty set and each of the ten
        # edges are valid, and the work budget, not the vertex count, bounds
        # the enumeration.
        g = parse_graph("".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
        assert len(enumerate_removal_sets(g, max_size=1)) == 11


class TestKCycleRemoval:
    def test_c6(self):
        g = fixtures.graph("c6")
        report = regular_from_kcycle_removal(g, 6, RemovalSet.of([]))
        assert report.verified

    def test_min_degree_enforced(self):
        with pytest.raises(PreconditionError):
            regular_from_kcycle_removal(
                fixtures.graph("l3"), 3, RemovalSet.of([])
            )

    def test_removal_must_preserve_degrees(self):
        g = fixtures.graph("c6")
        with pytest.raises(PreconditionError):
            regular_from_kcycle_removal(g, 6, RemovalSet.of([("1", "2")]))

    def test_two_cycles_share_vertex(self):
        g = fixtures.graph("two5")
        report = regular_from_kcycle_removal(g, 5, RemovalSet.of([]))
        assert report.verified

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.integers(3, 5))
    def test_random_instances(self, seed, k):
        g = random_min_degree_2_graph(random.Random(seed), max_vertices=8)
        report = regular_from_kcycle_removal(g, k, RemovalSet.of([]))
        assert report.verified


class TestRemovalEntries:
    """A removal entry that is not two distinct vertices is a precondition error."""

    @pytest.mark.parametrize(
        "entry", [("a", "a"), ("a",), ("a", "b", "c")], ids=["loop", "one", "three"]
    )
    @pytest.mark.parametrize(
        "construct",
        [
            lambda entries: regular_from_triangle_removal(
                fixtures.graph("h5"), RemovalSet.of(entries)
            ),
            lambda entries: regular_from_kcycle_removal(
                fixtures.graph("c6"), 6, RemovalSet.of(entries)
            ),
        ],
        ids=["triangle-removal", "kcycle-removal"],
    )
    def test_refused(self, construct, entry):
        with pytest.raises(PreconditionError) as info:
            construct([entry])
        assert str(info.value) == f"removal entry {entry!r} is not two distinct vertices"


def _components(vertices, edges):
    """Connected components of (vertices, edges), each sorted, from networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(vertices)
    graph.add_edges_from(edges)
    return sorted(sorted(c) for c in nx.connected_components(graph))


def _regular_by_scan(neighbours, blocks):
    """Plain neighbour-block scan: every vertex of a block sees the same set of
    blocks among its neighbours."""
    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    return all(
        len({frozenset(block_of[w] for w in neighbours[v]) for v in block}) == 1
        for block in blocks
    )


def _berge_h2_edges(hyperedges):
    """H_2 from Berge paths x, e1, z, e2, y: distinct vertices, e1 != e2."""
    edges = set()
    for i1, e1 in enumerate(hyperedges):
        for i2, e2 in enumerate(hyperedges):
            if i1 != i2:
                for z in set(e1) & set(e2):
                    edges |= {(x, y) for x in e1 for y in e2 if len({x, z, y}) == 3}
    return edges


class TestConstructionScope:
    """A met precondition does not make a construction regular; `verified` says
    so, and the tests' own oracles agree."""

    def test_gn_with_min_degree_2_fails_at_n_4(self):
        # The triangle 1-3-4 and the 4-cycle 0-2-3-5 share vertex 3.
        edges = [
            ("0", "2"), ("0", "5"), ("1", "3"), ("1", "4"), ("2", "3"), ("3", "4"), ("3", "5")
        ]
        g = parse_graph("".join(f"{a} {b}\n" for a, b in edges))
        base = nx.Graph(edges)
        neighbours = {v: set(base[v]) for v in base}
        for n, regular in ((2, True), (3, True), (4, False)):
            gn = [
                (x, y)
                for x in base
                for y in base
                if x < y and any(len(p) == n + 1 for p in nx.all_simple_paths(base, x, y, n))
            ]
            blocks = _components(base, gn)
            report = regular_from_gn(g, n)
            assert report.preconditions == [("min-degree-2", True)]
            assert report.partition == Partition([tuple(b) for b in blocks])
            assert report.verified is _regular_by_scan(neighbours, blocks) is regular
        assert blocks == [["0", "1", "2", "4", "5"], ["3"]]

    def test_h2_of_a_connected_hypergraph_not_weak_regular(self):
        hyperedges = [("a", "d"), ("a", "b", "c")]
        h = parse_hypergraph("a d\na b c\n")
        vertices = {v for e in hyperedges for v in e}
        neighbours = {v: {w for e in hyperedges if v in e for w in e} - {v} for v in vertices}
        blocks = _components(vertices, _berge_h2_edges(hyperedges))
        assert blocks == [["a"], ["b", "c", "d"]]
        report = weak_regular_from_h2(h)
        assert report.preconditions == [("connected", True)]
        assert report.partition == Partition([tuple(b) for b in blocks])
        assert report.verified is _regular_by_scan(neighbours, blocks) is False


class TestHypergraphConstructions:
    def test_hx_h2(self):
        report = weak_regular_from_h2(fixtures.hypergraph("hx"))
        assert report.verified
        p = report.partition
        assert p.block_of["x"] == p.block_of["y"]

    def test_hx_hn(self):
        report = weak_regular_from_hn(fixtures.hypergraph("hx"), 2)
        assert all(met for _, met in report.preconditions)
        assert report.verified

    def test_h1_n1_trivial(self):
        report = weak_regular_from_hn(fixtures.hypergraph("h1"), 1)
        assert len(report.partition.blocks) == 1
        assert report.verified

    def test_loops_rejected(self):
        h = parse_hypergraph("a\na b\n")
        with pytest.raises(PreconditionError):
            weak_regular_from_h2(h)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_h2_verdict_is_honest(self, seed):
        h = random_hypergraph(random.Random(seed))
        if not h.is_connected():
            return
        report = weak_regular_from_h2(h)
        assert report.verified == is_weak_regular_partition(h, report.partition).verdict

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_associated_g2_components_always_weak_regular(self, seed):
        # the reduction through the associated graph: components of (H_1)_2
        # are weak regular classes, because weak regularity on the hypergraph
        # is exactly regularity on H_1
        h = random_hypergraph(random.Random(seed))
        if not h.is_connected():
            return
        from equivcurv import neighborhood_graph

        assoc = h.associated_graph()
        if assoc.has_loops():
            return
        p = neighborhood_graph(assoc, 2).graph.connected_components()
        assert is_weak_regular_partition(h, p).verdict

    def test_h2_known_irregular_counterexample(self):
        # H_2 demands two distinct hyperedges, so it can be sparser than the
        # 2-neighbourhood graph of H_1 and its components need not be regular
        h = parse_hypergraph("v4 v0 v5\nv6 v0\nv6 v2\nv1 v0\nv3 v0\n")
        report = weak_regular_from_h2(h)
        assert not report.verified
        lacking, having = report.witness["pair"]
        p = report.partition
        assert p.block_of[lacking] == p.block_of[having]
        beta = report.witness["block"]
        assert beta in {p.block_of[z] for z in h.neighbors(having)}
        assert beta not in {p.block_of[z] for z in h.neighbors(lacking)}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(2, 4))
    def test_hn_verdict_is_honest(self, seed, n):
        h = random_hypergraph(random.Random(seed))
        report = weak_regular_from_hn(h, n)
        assert report.verified == is_weak_regular_partition(h, report.partition).verdict


# Every construction, called on a structure with the arguments it needs.
GRAPH_CONSTRUCTIONS = {
    "g2": regular_from_g2,
    "gn": lambda g: regular_from_gn(g, 2),
    "structural": structural_from_curvature,
    "subcliques": lambda g: regular_from_curvature_subcliques(g, [["a"]]),
    "triangle-removal": lambda g: regular_from_triangle_removal(g, RemovalSet.of([])),
    "kcycle-removal": lambda g: regular_from_kcycle_removal(g, 3, RemovalSet.of([])),
}
HYPERGRAPH_CONSTRUCTIONS = {
    "h2": weak_regular_from_h2,
    "hn": lambda h: weak_regular_from_hn(h, 2),
}


def refusal(construct, structure):
    with pytest.raises(PreconditionError) as info:
        construct(structure)
    return str(info.value)


# Each call given the other kind of structure, with the kind it requires.
WRONG_KIND = [
    *((f"{m}(h)", c, "graph") for m, c in GRAPH_CONSTRUCTIONS.items()),
    *((f"{m}(g)", c, "hypergraph") for m, c in HYPERGRAPH_CONSTRUCTIONS.items()),
    *((f"neighborhood_graph(h, 2, {mode.value})",
       lambda s, mode=mode: neighborhood_graph(s, 2, mode), "graph") for mode in WalkMode),
    ("hyper_neighborhood_graph(g, 2)", lambda s: hyper_neighborhood_graph(s, 2), "hypergraph"),
    ("inclusion_check(h, 2)", lambda s: inclusion_check(s, 2), "graph"),
]


@pytest.mark.parametrize(
    "call, kind", [(c, k) for _, c, k in WRONG_KIND], ids=[i for i, _, _ in WRONG_KIND]
)
def test_other_kind_of_structure_refused(call, kind):
    structure = fixtures.hypergraph("h1") if kind == "graph" else fixtures.graph("c6")
    with pytest.raises(PreconditionError, match=f" a {kind} input$"):
        call(structure)


class TestRefusalMessages:
    """The exact message, and which check fires first, for each construction."""

    @pytest.mark.parametrize("method", GRAPH_CONSTRUCTIONS)
    def test_graph_loops_refused_before_connectivity(self, method):
        g = parse_graph("a\na b\nc d\n")  # a loop and two components
        assert refusal(GRAPH_CONSTRUCTIONS[method], g) == (
            "construction requires a loop-free graph"
        )

    @pytest.mark.parametrize("method", HYPERGRAPH_CONSTRUCTIONS)
    def test_hypergraph_loops_refused_before_connectivity(self, method):
        h = parse_hypergraph("a\nb c\n")
        assert refusal(HYPERGRAPH_CONSTRUCTIONS[method], h) == (
            "construction requires |e| >= 2 for all hyperedges"
        )

    @pytest.mark.parametrize(
        "method, message",
        [
            ("g2", "graph must be connected; apply per component"),
            ("structural", "graph must be connected; apply per component"),
            ("kcycle-removal", "graph must be connected"),
        ],
    )
    def test_graph_disconnected_refused(self, method, message):
        g = parse_graph("a b\nb c\nc a\nd e\ne f\nf d\n")  # two triangles
        assert refusal(GRAPH_CONSTRUCTIONS[method], g) == message

    def test_hypergraph_disconnected_refused(self):
        h = parse_hypergraph("a b\nb c\nd e\n")
        assert refusal(weak_regular_from_h2, h) == (
            "hypergraph must be connected; apply per component"
        )

    @pytest.mark.parametrize("method", ["gn", "subcliques", "triangle-removal"])
    def test_graph_disconnected_accepted(self, method):
        g = parse_graph("a b\nb c\nc a\nd e\ne f\nf d\n")
        assert len(GRAPH_CONSTRUCTIONS[method](g).partition.blocks) >= 2

    def test_hn_disconnected_accepted(self):
        h = parse_hypergraph("a b c\nd e f\n")
        assert len(weak_regular_from_hn(h, 1).partition.blocks) == 2

    def test_kcycle_min_degree_after_connectivity(self):
        kcycle = GRAPH_CONSTRUCTIONS["kcycle-removal"]
        assert refusal(kcycle, parse_graph("a b\nb c\nc a\nc d\n")) == (
            "graph must have min degree >= 2"
        )
        assert refusal(kcycle, parse_graph("a b\nb c\nc a\nc d\ne f\n")) == (
            "graph must be connected"
        )

    def test_kcycle_k_checked_before_loops(self):
        g = parse_graph("a\na b\nc d\n")
        with pytest.raises(PreconditionError) as info:
            regular_from_kcycle_removal(g, 2, RemovalSet.of([]))
        assert str(info.value) == "k-cycle removal requires k >= 3"

    def test_kcycle_cycles_checked_before_pruned_degree(self):
        g = parse_graph("a b\nb c\nc d\nd a\n")
        removal = RemovalSet.of([("a", "b"), ("c", "d")])
        with pytest.raises(PreconditionError) as info:
            regular_from_kcycle_removal(g, 4, removal)
        assert str(info.value) == (
            "removal set hits 4-cycle ('a', 'b', 'c', 'd') more than once"
        )
        with pytest.raises(PreconditionError) as info:
            regular_from_kcycle_removal(g, 4, RemovalSet.of([("a", "b")]))
        assert str(info.value) == "removal creates a vertex of degree < 2"

    def test_triangle_refusal_names_the_first_triangle(self):
        # K4: the removal hits triangles (a, b, c) and (a, b, d); the first
        # in dense-index order is named.
        g = parse_graph("a b\na c\na d\nb c\nb d\nc d\n")
        removal = RemovalSet.of([("a", "b"), ("b", "c"), ("b", "d")])
        with pytest.raises(PreconditionError) as info:
            regular_from_triangle_removal(g, removal)
        assert str(info.value) == (
            "removal set hits triangle ('a', 'b', 'c') more than once"
        )


def _complete_graph(n):
    names = [str(i) for i in range(n)]
    return Graph(names, list(combinations(names, 2)))


class TestRemovalSetOracle:
    """`enumerate_removal_sets` against a brute-force scan, order and budget included."""

    @staticmethod
    def _graph(seed):
        """A random connected graph of at most 9 vertices, sometimes with a loop."""
        rng = random.Random(seed)
        g = random_connected_graph(rng, max_vertices=9)
        if rng.random() < 0.3:
            v = rng.choice(g.vertices)
            g = Graph(g.vertices, g.edge_ids() + [(v, v)])
        return g

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000), st.integers(0, 3))
    def test_matches_oracle_in_order(self, seed, max_size):
        g = self._graph(seed)
        got = enumerate_removal_sets(g, max_size)
        assert all(isinstance(r, RemovalSet) for r in got)
        assert [r.edges for r in got] == removal_sets_oracle(g, max_size)

    def test_k8_matches_oracle_in_order(self):
        g = _complete_graph(8)
        got = enumerate_removal_sets(g, max_size=3)
        assert len(got) == 659
        assert [r.edges for r in got] == removal_sets_oracle(g, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000), st.integers(0, 3), st.integers(0, 10**6))
    def test_refusal_charges_whole_candidates(self, seed, max_size, pick):
        # Each candidate costs 1 + T units for T triangles, charged before it
        # is checked, so a budget B is refused at the first multiple of 1 + T
        # above B, and the full cost itself is allowed.
        g = self._graph(seed)
        per = 1 + sum(nx.triangles(nx.Graph(g.edge_ids())).values()) // 3
        m = sum(u != v for u, v in g.edge_ids())
        full = per * sum(math.comb(m, size) for size in range(max_size + 1))
        budget = pick % full
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(partitions_module, "DEFAULT_WORK_BUDGET", budget)
            with pytest.raises(ResourceCapError) as info:
                enumerate_removal_sets(g, max_size)
            patch.setattr(partitions_module, "DEFAULT_WORK_BUDGET", full)
            assert len(enumerate_removal_sets(g, max_size)) == len(
                removal_sets_oracle(g, max_size)
            )
        exc = info.value
        assert (exc.cap, exc.limit) == ("removal-set", budget)
        assert exc.used == per * math.ceil((budget + 1) / per)


class TestCycleLongerThanTheGraph:
    """With k > |V| no k-cycle exists, so kcycle-removal enumerates none."""

    def test_k11_with_k12_answers_within_the_budget(self):
        # Enumerating K11's paths of 11 vertices would overrun the work budget.
        g = _complete_graph(11)
        report = regular_from_kcycle_removal(g, 12, RemovalSet.of([]))
        assert report.partition.blocks == [(v,) for v in g.vertices]
        assert report.verified and all(met for _, met in report.preconditions)

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_removal_set_is_still_checked(self, n):
        g = _complete_graph(n)
        report = regular_from_kcycle_removal(g, n + 1, RemovalSet.of([("0", "1")]))
        assert report.partition.blocks == [(v,) for v in g.vertices]
        star = RemovalSet.of([("0", str(v)) for v in range(1, n - 1)])
        with pytest.raises(PreconditionError, match="vertex of degree < 2"):
            regular_from_kcycle_removal(g, n + 1, star)
