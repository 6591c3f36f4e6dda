"""Output checks: every invocation's stdout must satisfy its command's invariants.

`problems()` returns a list of human-readable defects; an empty list means the
invocation is correct. A non-zero exit, a traceback on stderr, unparsable
output and any broken invariant are all defects.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import bfs


def problems_of_exit(returncode, stderr):
    """Defects visible without reading stdout: a non-zero exit or a traceback."""
    found = []
    if returncode != 0:
        found.append(f"exit code {returncode}")
    if b"Traceback" in stderr:
        found.append("traceback on stderr")
    return found


def problems(command, returncode, stdout, stderr):
    """Defects of one invocation of `command` (bytes in, list of str out)."""
    found = problems_of_exit(returncode, stderr)
    try:
        text = stdout.decode("utf-8")
        found += _CHECKS[command.kind](command, text)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        found.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return found


class _Distances:
    """The benchmark's own BFS distances, one row per source, computed lazily."""

    def __init__(self, adj):
        self.adj = adj
        self.rows = {}

    def __call__(self, x, y):
        if x not in self.rows:
            self.rows[x] = bfs(self.adj, x)
        return self.rows[x][y]


def _pair_set_problems(command, rows):
    got = [(row["x"], row["y"]) for row in rows]
    if len(got) != len(command.pairs) or set(got) != set(command.pairs):
        return [f"emitted {len(got)} pairs, expected {len(command.pairs)} pairs"]
    return []


def _check_curv(command, text):
    rows = json.loads(text)["pairs"]
    found = _pair_set_problems(command, rows)
    dist = _Distances(command.input.adj)
    for row in rows:
        x, y, d = row["x"], row["y"], row["distance"]
        w1, kappa = Fraction(row["w1"]), Fraction(row["kappa"])
        if d != dist(x, y):
            found.append(f"{x} {y}: distance {d}, BFS gives {dist(x, y)}")
        elif kappa != 1 - w1 / d:
            found.append(f"{x} {y}: kappa {kappa} != 1 - {w1}/{d}")
        if not 0 <= w1 <= d + 2:
            found.append(f"{x} {y}: W1 {w1} outside [0, {d + 2}]")
    return found


def _check_sim(command, text):
    rows = json.loads(text)["pairs"]
    found = _pair_set_problems(command, rows)
    adj = command.input.adj
    dist = _Distances(adj)
    for row in rows:
        x, y, d = row["x"], row["y"], row["distance"]
        if d != dist(x, y):
            found.append(f"{x} {y}: distance {d}, BFS gives {dist(x, y)}")
        if (row["eta"], row["d_x"], row["d_y"]) != (
            len(adj[x] & adj[y]), len(adj[x]), len(adj[y])
        ):
            found.append(f"{x} {y}: wrong eta or degrees")
        if row["fully_dissimilar"] != (d > 2):
            found.append(f"{x} {y}: fully_dissimilar disagrees with distance {d}")
        lower, kappa, upper = (
            Fraction(row[k]) for k in ("lower_bound", "kappa", "upper_bound")
        )
        if not lower <= kappa <= upper:
            found.append(f"{x} {y}: kappa {kappa} outside [{lower}, {upper}]")
    return found


def _block_problems(command, blocks):
    vertices = [v for block in blocks for v in block]
    if len(vertices) != len(set(vertices)) or set(vertices) != set(command.input.vertices):
        return ["blocks do not partition the vertex set"]
    return []


def _check_partition(command, text):
    report = json.loads(text)
    found = _block_problems(command, report["blocks"])
    if report["verified"] is not True:
        found.append("partition not verified")
    return found


def _check_neigh(command, text):
    lines = text.splitlines()
    edges = [line.split() for line in lines if not line.startswith("block ")]
    blocks = [line.split()[1:] for line in lines if line.startswith("block ")]
    found = _block_problems(command, blocks)
    adj = {v: set() for v in command.input.vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    for block in blocks:
        if set(bfs(adj, block[0])) != set(block):
            found.append(f"block of {block[0]} is not a component of the emitted edges")
    return found


_CHECKS = {
    "curv": _check_curv,
    "sim": _check_sim,
    "partition": _check_partition,
    "neigh": _check_neigh,
}
