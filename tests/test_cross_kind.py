"""A graph is a 2-uniform hypergraph: the cross-kind oracle.

Every connected graph of networkx's atlas (all graphs on at most 7 vertices)
with at least 2 vertices, read as the hypergraph of its edges, must get from
each hypergraph routine the answer its graph twin gives the graph. This
guards any fold of a graph routine into its hypergraph twin. Graphs with
loops are out of scope: Hₙ and the EE walk refuse singleton hyperedges.
"""

import random
from itertools import combinations

import networkx as nx
import pytest

from equivcurv import (
    Hypergraph,
    SimilarityWalk,
    curvatures,
    hyper_neighborhood_graph,
    is_regular_partition,
    is_strong_regular_partition,
    is_strong_structural_partition,
    is_structural_partition,
    is_weak_regular_partition,
    is_weak_structural_partition,
    neighborhood_graph,
    parse_graph,
    regular_from_g2,
    regular_from_gn,
    weak_regular_from_h2,
    weak_regular_from_hn,
)

from support import random_partition


@pytest.fixture(scope="module")
def atlas():
    """(graph, the hypergraph of its edges) for each connected atlas graph."""
    pairs = []
    for graph in nx.graph_atlas_g():
        if graph.number_of_nodes() < 2 or not nx.is_connected(graph):
            continue
        g = parse_graph("".join(f"{u} {v}\n" for u, v in graph.edges()))
        pairs.append((g, Hypergraph(g.vertices, g.edge_ids())))
    assert len(pairs) == 995
    return pairs


@pytest.mark.parametrize("n", range(1, 6))
def test_hn_is_gn(atlas, n):
    for g, h in atlas:
        expected = neighborhood_graph(g, n).graph.edge_ids()
        assert hyper_neighborhood_graph(h, n).graph.edge_ids() == expected


def test_verifiers_on_random_partitions(atlas):
    """Weak- and strong-regular give regular's JSON, witness included; a
    strong-regular witness adds only "size": 2. Weak- and strong-structural
    give structural's verdict."""
    rng = random.Random(20_261_021)
    for g, h in atlas:
        for _ in range(3):
            p = random_partition(rng, g.vertices)
            regular = is_regular_partition(g, p).to_json()
            assert is_weak_regular_partition(h, p).to_json() == regular
            strong = is_strong_regular_partition(h, p).to_json()
            if "violation" in strong:
                assert strong["violation"].pop("size") == 2
            assert strong == regular
            structural = is_structural_partition(g, p).verdict
            assert is_weak_structural_partition(h, p).verdict == structural
            assert is_strong_structural_partition(h, p).verdict == structural


def test_en_and_ee_curvature_is_the_graph_walks(atlas):
    for g, h in atlas:
        pairs = list(combinations(g.vertices, 2))
        expected = [(r.kappa, r.w1) for r in curvatures(g, pairs, SimilarityWalk.GRAPH)]
        for walk in (SimilarityWalk.EN, SimilarityWalk.EE):
            assert [(r.kappa, r.w1) for r in curvatures(h, pairs, walk)] == expected


def _same_report(hyper, graph):
    """Equal blocks, verdict, witness, met preconditions and number of notes;
    the method names, precondition names and notes name each kind's notion."""
    assert hyper.partition.blocks == graph.partition.blocks
    assert hyper.verified == graph.verified
    assert hyper.witness == graph.witness
    assert [met for _, met in hyper.preconditions] == [
        met for _, met in graph.preconditions
    ]
    assert len(hyper.notes) == len(graph.notes)


def test_hypergraph_constructions_are_the_graph_ones(atlas):
    for g, h in atlas:
        _same_report(weak_regular_from_h2(h), regular_from_g2(g))
        for n in (3, 4):
            _same_report(weak_regular_from_hn(h, n), regular_from_gn(g, n))
