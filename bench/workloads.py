"""Seeded input generators and the benchmark's four workloads.

Every input comes from `random.Random(seed)`, so one seed always gives
byte-identical files. A workload is a fixed sequence of CLI invocations on
those files; the program sees only the files, never the seed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

DEFAULT_SEED = 1


@dataclass
class Input:
    """One generated input file and the benchmark's own view of it."""

    filename: str
    hyper: bool
    text: str
    vertices: list  # vertex ids in order of first appearance in the file
    adj: dict  # vertex id -> set of neighbours (associated graph for hypergraphs)


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy."""

    kind: str  # curv | sim | partition | neigh
    args: list  # CLI arguments after `python -m equivcurv.cli`
    input: Input
    pairs: list = field(default_factory=list)  # expected rows of curv/sim
    label: str = ""  # unique within the workload; the arguments by default

    def __post_init__(self):
        self.label = self.label or " ".join(self.args)

    @property
    def decided_pairs(self):
        """Vertex pairs the command decides: its rows, or every pair of its input."""
        if self.kind in ("curv", "sim"):
            return len(self.pairs)
        n = len(self.input.vertices)
        return n * (n - 1) // 2


@dataclass
class Plan:
    inputs: list
    commands: list

    def write(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        for inp in self.inputs:
            (directory / inp.filename).write_text(inp.text, encoding="utf-8")


# -- generators ---------------------------------------------------------------


def _add(edges, a, b):
    edges.add((min(a, b), max(a, b)))


def connected_graph(rng, n, m, spanning="tree"):
    """Random connected simple graph with exactly m edges.

    `spanning` is "tree" (random recursive tree, leaves allowed) or "cycle"
    (Hamiltonian cycle, so every degree is at least 2); the remaining edges
    are uniform over the missing vertex pairs.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    if spanning == "tree":
        for i in range(1, n):
            _add(edges, order[i], order[rng.randrange(i)])
    else:
        for i in range(n):
            _add(edges, order[i], order[(i + 1) % n])
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            _add(edges, a, b)
    return _shuffled(rng, edges)


def bipartite_graph(rng, n, m):
    """Random connected bipartite graph, n even, built on a Hamiltonian cycle."""
    order = list(range(n))
    rng.shuffle(order)
    left, right = order[0::2], order[1::2]
    edges = set()
    for i in range(n):
        _add(edges, order[i], order[(i + 1) % n])
    while len(edges) < m:
        _add(edges, rng.choice(left), rng.choice(right))
    return _shuffled(rng, edges)


def chain_hypergraph(rng, n, extra):
    """Spanning chain of 2-edges plus `extra` uniform hyperedges of size 2-5.

    The sizes 2, 3, 4 and 5 come in equal numbers, so the total incidence, and
    with it the mean EE support size, does not vary with the seed.
    """
    order = list(range(n))
    rng.shuffle(order)
    hyperedges = [(order[i], order[i + 1]) for i in range(n - 1)]
    for i in range(extra):
        hyperedges.append(tuple(rng.sample(range(n), 2 + i % 4)))
    rng.shuffle(hyperedges)
    return hyperedges


def _shuffled(rng, edges):
    edges = sorted(edges)
    rng.shuffle(edges)
    return edges


def make_input(filename, rows, hyper=False):
    """File text plus vertex order and adjacency; refuses disconnected input."""
    lines = [[str(v) for v in row] for row in rows]
    vertices = list(dict.fromkeys(v for row in lines for v in row))
    adj = {v: set() for v in vertices}
    for row in lines:
        for a, b in combinations(row, 2):
            adj[a].add(b)
            adj[b].add(a)
    if len(bfs(adj, vertices[0])) != len(vertices):
        # A disconnected input would be refused with exit 3 by curv --all,
        # partition and the similarity checks.
        raise RuntimeError(f"generated {filename} is not connected")
    text = "".join(" ".join(row) + "\n" for row in lines)
    return Input(filename, hyper, text, vertices, adj)


def bfs(adj, source):
    """Distances from source over an adjacency dict."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def _all_pairs(inp):
    return list(combinations(inp.vertices, 2))


# -- workloads ----------------------------------------------------------------


def graph_all_pairs(seed, n=45, m=135, graphs=2):
    rng = random.Random(seed)
    plan = Plan([], [])
    for i in range(graphs):
        g = make_input(f"graph{i + 1}.edges", connected_graph(rng, n, m))
        pairs = _all_pairs(g)
        plan.inputs.append(g)
        plan.commands += [
            Command("curv", ["curv", g.filename, "--all"], g, pairs),
            Command("sim", ["sim", g.filename, "--all", "--check-bounds"], g, pairs),
        ]
    return plan


def hyper_ee_all_pairs(seed, n=24, extra=48, hypergraphs=3):
    rng = random.Random(seed)
    plan = Plan([], [])
    for i in range(hypergraphs):
        h = make_input(f"hyper{i + 1}.hyper", chain_hypergraph(rng, n, extra), hyper=True)
        plan.inputs.append(h)
        args = ["curv", h.filename, "--all", "--hyper", "--walk", "ee"]
        plan.commands.append(Command("curv", args, h, _all_pairs(h)))
    return plan


def large_graph_queries(seed, n=5_000, m=15_000, commands=3, edge_pairs=22, random_pairs=8):
    rng = random.Random(seed)
    edges = connected_graph(rng, n, m)
    g = make_input("large.edges", edges)
    plan = Plan([g], [])
    for i in range(commands):
        pairs = [(str(a), str(b)) for a, b in rng.sample(edges, edge_pairs)]
        while len(pairs) < edge_pairs + random_pairs:
            a, b = rng.sample(g.vertices, 2)
            if (a, b) not in pairs:
                pairs.append((a, b))
        args = ["curv", g.filename]
        for a, b in pairs:
            args += ["--pair", a, b]
        label = f"curv {g.filename} --pair x{len(pairs)} #{i + 1}"
        plan.commands.append(Command("curv", args, g, pairs, label))
    return plan


def neighbourhood_partitions(seed, n=250, m=1000, bip_n=240, bip_m=720,
                             hyper_n=100, hyper_extra=150):
    rng = random.Random(seed)
    dense = make_input("dense.edges", connected_graph(rng, n, m, spanning="cycle"))
    bip = make_input("bipartite.edges", bipartite_graph(rng, bip_n, bip_m))
    h = make_input("hyper.hyper", chain_hypergraph(rng, hyper_n, hyper_extra), hyper=True)
    commands = []
    for g in (dense, bip):
        commands += [
            Command("partition", ["partition", g.filename, "--method", "g2"], g),
            Command("partition", ["partition", g.filename, "--method", "gn", "--n", "3"], g),
            Command("neigh", ["neigh", g.filename, "--n", "3"], g),
        ]
    commands += [
        Command("partition", ["partition", h.filename, "--method", "h2"], h),
        Command("neigh", ["neigh", h.filename, "--hyper", "--n", "3"], h),
    ]
    return Plan([dense, bip, h], commands)


# Why each workload is in the benchmark: the layers it stresses and the
# optimisations it should reveal or be blind to. README.md gives the long form.
WORKLOADS = {
    "graph-all-pairs": (
        graph_all_pairs,
        "Batch use: curv --all and sim --all on two graphs; BFS rows serve many pairs, so "
        "row caching, the transport solver, similarity and JSON emission show here",
    ),
    "hyper-ee-all-pairs": (
        hyper_ee_all_pairs,
        "curv --all --hyper --walk ee: large EE supports with uneven masses make transport "
        "and witness assembly dominate; the only workload on Hypergraph BFS and EE measures",
    ),
    "large-graph-queries": (
        large_graph_queries,
        "Three curv runs of 30 --pair queries on a 5,000-vertex graph: no reuse, a full BFS "
        "per support vertex, so bounded BFS and any all-pairs distance oracle show here",
    ),
    "neighbourhood-partitions": (
        neighbourhood_partitions,
        "partition g2/gn/h2 and neigh --n 3 on graphs and a hypergraph: path enumeration, "
        "components and verifiers only, never BFS rows or transport",
    ),
}
