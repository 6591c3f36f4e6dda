"""`parse_graph` reads an edge list in one pass; it must build the same graph
as `Graph(vertices, edges)` built from the tokens of the same text."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import Graph, ParseError, parse_graph
from equivcurv import core


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


# `parse_graph` reads a text with no '#' whose lines all hold 0 or 2 tokens off
# one `text.split()`. A trailing comment line sends the same text through the
# line-by-line loop, so the two readings can be compared on any text.
GENERAL = "\n# end\n"
LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def fast_path_text(rng):
    """(lines, vertices, edges): lines of 0 or 2 tokens and no '#'.

    Loops are written `a a`; edges repeat and reverse; tokens are separated by
    spaces, tabs, `\\xa0` or `\\u3000`. Joined by `\\n` or `\\r\\n`, the lines
    make a text that takes the fast path.
    """
    names = [f"v{i}" for i in range(rng.randint(1, 9))] + ["a", "10", "x-y"]
    space = ["", " ", "\t", "\xa0", "\u3000"]
    lines, edges = [], []
    for _ in range(rng.randint(0, 25)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(space))  # a blank line
            continue
        if roll < 0.25:
            v = rng.choice(names)
            edge = (v, v)
        elif edges and roll < 0.5:
            edge = rng.choice(edges)
            edge = edge[::-1] if rng.random() < 0.5 else edge
        else:
            edge = tuple(rng.sample(names, 2))
        edges.append(edge)
        sep = rng.choice(space[1:]) * rng.randint(1, 2)
        lines.append(rng.choice(space) + sep.join(edge) + rng.choice(space))
    vertices = list(dict.fromkeys(v for e in edges for v in e))
    return lines, vertices, edges


def same_tables(a, b):
    """Compare every table that `parse_graph` builds, not only the adjacency."""
    assert a.vertices == b.vertices
    assert a.index == b.index
    assert a.adjacency() == b.adjacency()
    assert a.edge_pairs() == b.edge_pairs()
    assert a.n_edges() == b.n_edges()
    assert a.has_loops() == b.has_loops()


def read_lines(text):
    """The edge-list rules, read line by line: a Graph, or (message, line).

    Lines break where `str.splitlines` breaks them and tokens split on any
    whitespace; a line whose first token starts with '#' is a comment.
    """
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) > 2:
            return f"line {lineno}: expected 1 or 2 tokens, got {len(tokens)}", lineno
        edges.append(tuple(tokens))
    return Graph(list(dict.fromkeys(v for e in edges for v in e)), edges)


def outcome(text):
    """`parse_graph(text)`, or (message, line) of its ParseError."""
    try:
        return parse_graph(text)
    except ParseError as exc:
        return str(exc), exc.line


def same_outcome(text):
    """`text` gives what the line rules give, by either path."""
    want = read_lines(text)
    for got in outcome(text), outcome(text + GENERAL):
        if isinstance(want, tuple):
            assert got == want
        else:
            same_tables(got, want)


class TestFastPath:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_fast_path_equals_general_path(self, seed):
        rng = random.Random(seed)
        lines, vertices, edges = fast_path_text(rng)
        newline = rng.choice(["\n", "\r\n"])
        text = newline.join(lines) + (newline if rng.random() < 0.7 else "")
        with mock.patch.object(core, "_parse_pairs", wraps=core._parse_pairs) as fast:
            parsed = parse_graph(text)
            assert fast.call_count == 1
            same_tables(parsed, Graph(vertices, edges))
            same_tables(parsed, parse_graph(text + GENERAL))
            assert fast.call_count == 1

    def test_empty_and_blank_texts(self):
        for text in ["", "\n", " \r\n\t\n", "\u3000\n\n"]:
            same_tables(parse_graph(text), Graph([], []))
            same_tables(parse_graph(text), parse_graph(text + GENERAL))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 100_000))
    def test_near_misses_keep_their_reading(self, seed):
        """Lines of 1 or 3 tokens, a '#' inside a token, or a line break that
        `str.split` reads as a space: a whole-text token count misses them."""
        rng = random.Random(seed)
        lines, _, _ = fast_path_text(rng)
        at = rng.randint(0, len(lines))
        kind = rng.choice(["one", "three", "one and three", "hash", "break", "cr"])
        if kind in ("one", "one and three"):
            lines.insert(at, rng.choice(["p", " q\t"]))
        if kind in ("three", "one and three"):
            lines.insert(rng.randint(0, len(lines)), "p q r")
        elif kind == "hash":
            lines.insert(at, rng.choice(["a#b c", "c a#b", "a# #b", "a #"]))
        elif kind == "break":
            lines.insert(at, rng.choice(LINE_BREAKS).join(["p", "q"]))
        text = "\n".join(lines) + "\n"
        if kind == "cr":
            text = text.replace("\n", "\r") + "u\rv w\n"  # a lone \r ends a line
        same_outcome(text)

    def test_examples(self):
        with pytest.raises(ParseError) as info:
            parse_graph("a\nb c d\n")
        assert str(info.value) == "line 2: expected 1 or 2 tokens, got 3"
        assert parse_graph("a#b c\n").vertices == ["a#b", "c"]
        for brk in LINE_BREAKS + ["\r"]:
            g = parse_graph(f"a{brk}b\n")  # two loops, not one edge
            assert g.edge_ids() == [("a", "a"), ("b", "b")]
