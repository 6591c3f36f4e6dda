"""`parse_graph` reads an edge list in one pass; it must build the same graph
as `Graph(vertices, edges)` built from the tokens of the same text."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import Graph, ParseError, parse_graph


def random_edge_text(rng):
    """(text, vertices, edges): an edge list with loops, repeats, comments and CRLF.

    `vertices` are the ids in order of first appearance and `edges` the token
    tuples of the edge lines, both read off the lines as they are written.
    """
    names = [f"v{i}" for i in range(rng.randint(1, 9))] + ["a", "10", "x-y"]
    lines, edges = [], []
    for _ in range(rng.randint(0, 25)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["", "   ", "# comment", "  # a b", "#x y z"]))
            continue
        if roll < 0.2:
            edge = (rng.choice(names),)  # a one-token loop
        elif roll < 0.3:
            v = rng.choice(names)
            edge = (v, v)  # a two-token loop
        elif edges and roll < 0.5:
            edge = rng.choice(edges)
            edge = edge[::-1] if rng.random() < 0.5 else edge  # repeated or reversed
        else:
            edge = tuple(rng.sample(names, 2))
        edges.append(edge)
        pad = rng.choice(["", " ", "\t"])
        lines.append(pad + rng.choice([" ", "  ", "\t"]).join(edge) + pad)
    newline = rng.choice(["\n", "\r\n"])
    text = newline.join(lines) + (newline if rng.random() < 0.7 else "")
    vertices = list(dict.fromkeys(v for e in edges for v in e))
    return text, vertices, edges


def same_graph(parsed, built):
    assert parsed.vertices == built.vertices
    assert parsed.index == built.index
    assert parsed.edge_pairs() == built.edge_pairs()
    assert parsed.adjacency() == built.adjacency()
    assert parsed.has_loops() == built.has_loops()


class TestParserEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_parse_equals_constructor(self, seed):
        text, vertices, edges = random_edge_text(random.Random(seed))
        same_graph(parse_graph(text), Graph(vertices, edges))

    def test_loops_repeats_and_crlf(self):
        text = "# header\r\na\r\n\r\nb a\r\na b\r\n  c   c  \r\nb\tc\r\n"
        edges = [("a",), ("b", "a"), ("a", "b"), ("c", "c"), ("b", "c")]
        built = Graph(["a", "b", "c"], edges)
        same_graph(parse_graph(text), built)
        want = [("a", "a"), ("a", "b"), ("b", "c"), ("c", "c")]
        assert parse_graph(text).edge_ids() == want

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 100_000))
    def test_three_token_line_fails_at_its_line(self, seed):
        rng = random.Random(seed)
        text, _, _ = random_edge_text(rng)
        lines = text.splitlines()
        at = rng.randint(0, len(lines))
        lines.insert(at, "p q r")
        with pytest.raises(ParseError) as info:
            parse_graph("\n".join(lines))
        assert info.value.line == at + 1
        assert str(info.value) == f"line {at + 1}: expected 1 or 2 tokens, got 3"
