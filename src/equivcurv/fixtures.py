"""Bundled example corpus used by tests and the `fixtures` CLI command.

Each entry reproduces one of the small graphs and hypergraphs used throughout
the package documentation and test suite. Loaders return fresh structures.
"""

from __future__ import annotations

from .core import Partition, parse_graph, parse_hypergraph

GRAPHS = {
    # 6-cycle (hexagon)
    "c6": "1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n",
    # path 1-2-3 attached to the 6-cycle 4-5-6-9-8-7
    "p9": "1 2\n2 3\n3 4\n4 5\n5 6\n6 9\n9 8\n8 7\n7 4\n",
    # 4-cycle a-p-b-q with pendant c on q
    "fig3": "p b\nb q\nq a\na p\nq c\n",
    # theta graph: a and e joined by three length-2 paths through b, c, d
    "h5": "a b\nb e\ne d\nd a\na c\nc e\n",
    # pendant a on a 6-cycle b-c-e-g-f-d
    "g3": "a b\nb c\nb d\nc e\nd f\ne g\nf g\n",
    # line graph with three edges
    "l3": "1 2\n2 3\n3 4\n",
    # star with three leaves
    "star3": "h l1\nh l2\nh l3\n",
    # two 5-cycles sharing the vertex s
    "two5": "s a1\na1 a2\na2 a3\na3 a4\na4 s\ns b1\nb1 b2\nb2 b3\nb3 b4\nb4 s\n",
}

HYPERGRAPHS = {
    # x reaches a, b, c through one 4-ary hyperedge; y through three edges
    "hx": "x a b c\ny a\ny b\ny c\n",
    # four hyperedges; x and y share all four neighbours
    "h1": "x a b c\na b y\nc d y\nx d\n",
    # weighted-neighbourhood equal, cardinality multisets differ
    "hw": "x z u\nx z w\nx u w\ny z\ny u\ny w\n",
    # per-neighbour multisets equal, incidence stars not matchable
    "hs": "x a b\nx c d\ny a c\ny b d\n",
}


def graph(name):
    return parse_graph(GRAPHS[name])


def hypergraph(name):
    return parse_hypergraph(HYPERGRAPHS[name])


def checks():
    """Checks over the bundled corpus for the `fixtures` command; yields (name, bool)."""
    from . import equivalence, neighborhood, partitions, transport  # graph() needs none

    c6 = graph("c6")
    g_n = [neighborhood.neighborhood_graph(c6, n).graph for n in range(1, 7)]
    counts = [len(g.connected_components().blocks) for g in g_n]
    yield "c6 component counts 1,2,3,2,1,6", counts == [1, 2, 3, 2, 1, 6]
    edges = [g.edge_pairs() for g in g_n]
    yield "c6 G2 = G4 and G1 = G5", edges[1] == edges[3] and edges[0] == edges[4]
    yield "c6 adjacent curvature 0", transport.orc(c6, "1", "2").kappa == 0

    fig3 = graph("fig3")
    yield "fig3 kappa(a,b) = 1", transport.orc(fig3, "a", "b").kappa == 1
    yield "fig3 kappa(a,c) < 1", transport.orc(fig3, "a", "c").kappa < 1

    h5 = graph("h5")
    report = partitions.regular_from_g2(h5)
    expected = Partition([("a", "e"), ("b", "c", "d")])
    yield "h5 G2 blocks {a,e},{b,c,d} regular", (
        report.verified and report.partition == expected
    )

    p9 = graph("p9")
    figure = Partition([("3", "9"), ("1", "2", "4", "5", "6", "7", "8")])
    witness = equivalence.is_regular_partition(p9, figure)
    yield "p9 two-block figure partition not regular", not witness.verdict

    l3 = graph("l3")
    partition = Partition([("1", "4"), ("2", "3")])
    yield "l3 endpoint/interior partition regular", equivalence.is_regular_partition(
        l3, partition
    ).verdict

    hx = hypergraph("hx")
    yield "hx EN-ORC(x,y) = 1", transport.en_orc(hx, "x", "y").kappa == 1
    yield "hx EE-ORC(x,y) = 1", transport.ee_orc(hx, "x", "y").kappa == 1
    yield "hx weak but not strong structural", (
        equivalence.is_weak_structural(hx, "x", "y")
        and not equivalence.is_strong_structural(hx, "x", "y")
    )

    h1 = hypergraph("h1")
    yield "h1 EN-ORC(x,y) = 1", transport.en_orc(h1, "x", "y").kappa == 1
    yield "h1 EE-ORC(x,y) != 1", transport.ee_orc(h1, "x", "y").kappa != 1
    yield "h1 weak but not strong structural", (
        equivalence.is_weak_structural(h1, "x", "y")
        and not equivalence.is_strong_structural(h1, "x", "y")
    )

    for name in ("c6", "p9", "fig3", "h5", "g3"):
        g = graph(name)
        yield f"{name} inclusion chain at n=4", neighborhood.inclusion_check(g, 4).holds
