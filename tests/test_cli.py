"""Command-line interface: formats, determinism, and exit codes."""

import errno
import io
import json
import os
import random
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from equivcurv import (
    ee_measure,
    en_measure,
    fixtures,
    fraction_str,
    neighbor_measure,
    parse_graph,
    parse_hypergraph,
)
from equivcurv.cli import json_text, main

from support import networkx_w1, random_connected_graph


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def c6(tmp_path):
    path = tmp_path / "c6.edges"
    path.write_text("1 2\n2 3\n3 4\n4 5\n5 6\n6 1\n")
    return str(path)


@pytest.fixture
def h1(tmp_path):
    path = tmp_path / "h1.hyper"
    path.write_text("x a b c\na b y\nc d y\nx d\n")
    return str(path)


@pytest.fixture
def fig3(tmp_path):
    path = tmp_path / "fig3.edges"
    path.write_text("p b\nb q\nq a\na p\nq c\n")
    return str(path)


class TestNeigh:
    def test_edges_and_blocks(self, runner, c6):
        result = runner.invoke(main, ["neigh", c6, "--n", "3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert "1 4" in lines
        assert "block 1 4" in lines

    def test_modes(self, runner, c6):
        path = runner.invoke(main, ["neigh", c6, "--n", "2", "--mode", "path"])
        nb = runner.invoke(main, ["neigh", c6, "--n", "2", "--mode", "nb"])
        assert path.output == nb.output

    def test_deterministic(self, runner, c6):
        a = runner.invoke(main, ["neigh", c6, "--n", "4"])
        b = runner.invoke(main, ["neigh", c6, "--n", "4"])
        assert a.output == b.output

    def test_cap_exit_code(self, runner, c6):
        result = runner.invoke(main, ["neigh", c6, "--n", "9"])
        assert result.exit_code == 4

    def test_cap_error_line(self, runner, c6):
        result = runner.invoke(main, ["neigh", c6, "--n", "9"])
        assert result.stdout == ""
        assert result.stderr == "error: path length n=9 exceeds cap 8 (override to proceed)\n"

    def test_env_cap_override(self, runner, c6, monkeypatch):
        monkeypatch.setenv("EQUIVCURV_PATH_CAP", "12")
        result = runner.invoke(main, ["neigh", c6, "--n", "9"])
        assert result.exit_code == 0

    def test_parse_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("a b c\n")
        result = runner.invoke(main, ["neigh", str(bad), "--n", "2"])
        assert result.exit_code == 2

    def test_hyper(self, runner, h1):
        result = runner.invoke(main, ["neigh", h1, "--n", "2", "--hyper"])
        assert result.exit_code == 0
        assert "x y" in result.output.splitlines()

    def test_check_inclusions(self, runner, c6):
        result = runner.invoke(
            main, ["neigh", c6, "--n", "4", "--check-inclusions"]
        )
        assert result.exit_code == 0
        assert "inclusions ok" in result.output


class TestCurv:
    def test_pair_json(self, runner, c6):
        result = runner.invoke(main, ["curv", c6, "--pair", "1", "2"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["pairs"] == [
            {"x": "1", "y": "2", "distance": 1, "w1": "1", "kappa": "0"}
        ]

    def test_all_pairs(self, runner, c6):
        result = runner.invoke(main, ["curv", c6, "--all"])
        data = json.loads(result.output)
        assert len(data["pairs"]) == 15

    def test_hyper_ee(self, runner, h1):
        result = runner.invoke(
            main, ["curv", h1, "--hyper", "--walk", "ee", "--pair", "x", "y"]
        )
        data = json.loads(result.output)
        assert data["pairs"][0]["kappa"] == "19/24"

    def test_hyper_en(self, runner, h1):
        result = runner.invoke(
            main, ["curv", h1, "--hyper", "--walk", "en", "--pair", "x", "y"]
        )
        data = json.loads(result.output)
        assert data["pairs"][0]["kappa"] == "1"

    def test_unknown_vertex_exit_code(self, runner, c6):
        result = runner.invoke(main, ["curv", c6, "--pair", "1", "zz"])
        assert result.exit_code == 3

    def test_same_vertex_exit_code(self, runner, c6):
        result = runner.invoke(main, ["curv", c6, "--pair", "1", "1"])
        assert result.exit_code == 3

    def test_missing_selection_is_usage_error(self, runner, c6):
        result = runner.invoke(main, ["curv", c6])
        assert result.exit_code == 2


class TestPartition:
    def test_g2(self, runner, c6):
        result = runner.invoke(main, ["partition", c6, "--method", "g2"])
        data = json.loads(result.output)
        assert data["method"] == "g2-components"
        assert data["verified"] is True
        assert sorted(map(sorted, data["blocks"])) == [
            ["1", "3", "5"],
            ["2", "4", "6"],
        ]

    def test_gn_requires_n(self, runner, c6):
        result = runner.invoke(main, ["partition", c6, "--method", "gn"])
        assert result.exit_code == 2

    def test_unknown_method(self, runner, c6):
        result = runner.invoke(main, ["partition", c6, "--method", "nope"])
        assert result.exit_code == 2

    def test_failed_verification_still_exits_zero(self, runner, tmp_path):
        p9 = tmp_path / "p9.edges"
        p9.write_text("1 2\n2 3\n3 4\n4 5\n5 6\n6 9\n9 8\n8 7\n7 4\n")
        result = runner.invoke(main, ["partition", str(p9), "--method", "gn", "--n", "4"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["preconditions"] == [{"name": "min-degree-2", "met": False}]

    def test_triangle_removal(self, runner, tmp_path):
        tri = tmp_path / "tri.edges"
        tri.write_text("a b\nb c\nc a\nc d\n")
        result = runner.invoke(
            main,
            ["partition", str(tri), "--method", "triangle-removal", "--remove", "a,b"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["method"] == "triangle-removal"

    def test_invalid_removal_exit_code(self, runner, tmp_path):
        tri = tmp_path / "tri.edges"
        tri.write_text("a b\nb c\nc a\nc d\n")
        result = runner.invoke(
            main,
            [
                "partition",
                str(tri),
                "--method",
                "triangle-removal",
                "--remove",
                "a,b",
                "--remove",
                "b,c",
            ],
        )
        assert result.exit_code == 3

    def test_subcliques(self, runner, fig3):
        result = runner.invoke(
            main,
            ["partition", fig3, "--method", "subcliques", "--block", "a,b"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["verified"] is True

    def test_h2(self, runner, h1):
        result = runner.invoke(main, ["partition", h1, "--method", "h2"])
        assert result.exit_code == 0
        assert json.loads(result.output)["method"] == "h2-components"


class TestVerify:
    def test_regular_true(self, runner, tmp_path):
        l3 = tmp_path / "l3.edges"
        l3.write_text("1 2\n2 3\n3 4\n")
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": [["1", "4"], ["2", "3"]]}))
        result = runner.invoke(
            main, ["verify", str(l3), str(part), "--notion", "regular"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output) == {"verdict": True}

    def test_regular_false_with_witness(self, runner, tmp_path):
        p9 = tmp_path / "p9.edges"
        p9.write_text("1 2\n2 3\n3 4\n4 5\n5 6\n6 9\n9 8\n8 7\n7 4\n")
        part = tmp_path / "p.json"
        part.write_text(
            json.dumps(
                {"blocks": [["3", "9"], ["1", "2", "4", "5", "6", "7", "8"]]}
            )
        )
        result = runner.invoke(
            main, ["verify", str(p9), str(part), "--notion", "regular"]
        )
        data = json.loads(result.output)
        assert data["verdict"] is False
        assert set(data["violation"]["pair"]) <= {"1", "2", "4", "5", "6", "7", "8"}
        assert data["violation"]["block"] == 0

    def test_weak_structural(self, runner, h1, tmp_path):
        part = tmp_path / "p.json"
        part.write_text(
            json.dumps({"blocks": [["x", "y"], ["a"], ["b"], ["c"], ["d"]]})
        )
        result = runner.invoke(
            main, ["verify", h1, str(part), "--notion", "weak-structural"]
        )
        assert json.loads(result.output)["verdict"] is True

    def test_strong_structural_false(self, runner, h1, tmp_path):
        part = tmp_path / "p.json"
        part.write_text(
            json.dumps({"blocks": [["x", "y"], ["a"], ["b"], ["c"], ["d"]]})
        )
        result = runner.invoke(
            main, ["verify", h1, str(part), "--notion", "strong-structural"]
        )
        data = json.loads(result.output)
        assert data["verdict"] is False
        assert data["violation"]["pair"] == ["x", "y"]

    def test_bad_partition_json(self, runner, tmp_path, c6):
        part = tmp_path / "p.json"
        part.write_text("not json")
        result = runner.invoke(
            main, ["verify", c6, str(part), "--notion", "regular"]
        )
        assert result.exit_code == 2

    def test_partition_not_covering(self, runner, tmp_path, c6):
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": [["1", "2"]]}))
        result = runner.invoke(
            main, ["verify", c6, str(part), "--notion", "regular"]
        )
        assert result.exit_code == 2


class TestSim:
    def test_pair_report(self, runner, fig3):
        result = runner.invoke(main, ["sim", fig3, "--pair", "a", "c"])
        data = json.loads(result.output)
        row = data["pairs"][0]
        assert row["eta"] == 1
        assert row["sigma"] == "0.707106781187"
        assert row["kappa"] == "1/2"
        assert "lower_bound" in row and "upper_bound" in row

    def test_check_bounds_all(self, runner, c6):
        result = runner.invoke(main, ["sim", c6, "--all", "--check-bounds"])
        assert result.exit_code == 0

    def test_hyper_requires_walk(self, runner, h1):
        result = runner.invoke(main, ["sim", h1, "--hyper", "--pair", "x", "y"])
        assert result.exit_code == 2

    def test_hyper_en(self, runner, h1):
        result = runner.invoke(
            main, ["sim", h1, "--hyper", "--walk", "en", "--pair", "x", "y"]
        )
        data = json.loads(result.output)
        assert data["pairs"][0]["kappa"] == "1"

    def test_deterministic(self, runner, c6):
        a = runner.invoke(main, ["sim", c6, "--all"])
        b = runner.invoke(main, ["sim", c6, "--all"])
        assert a.output == b.output


class TestFixturesCommand:
    def test_all_pass(self, runner):
        result = runner.invoke(main, ["fixtures"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "all checks passed" in result.output


class TestBadInput:
    """Malformed input exits 2 with a one-line message, never a traceback."""

    @pytest.mark.parametrize(
        "blocks", ["1234", ["1234"], [[["1"]]]], ids=["string", "strings", "nested"]
    )
    def test_malformed_partition_blocks(self, runner, tmp_path, blocks):
        l3 = tmp_path / "l3.edges"
        l3.write_text("1 2\n2 3\n3 4\n")
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": blocks}))
        result = runner.invoke(
            main, ["verify", str(l3), str(part), "--notion", "regular"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: partition JSON")

    def test_non_utf8_input(self, runner, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"a \xff\n")
        result = runner.invoke(main, ["curv", str(bad), "--all"])
        assert result.exit_code == 2
        assert "not valid UTF-8" in result.stderr
        assert len(result.stderr.splitlines()) == 1

    def test_non_integer_path_cap(self, runner, c6, monkeypatch):
        monkeypatch.setenv("EQUIVCURV_PATH_CAP", "abc")
        result = runner.invoke(main, ["neigh", c6, "--n", "2"])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            "error: EQUIVCURV_PATH_CAP must be an integer, got 'abc'"
        ]

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize(
        "command",
        [["neigh", "--n", "2"], ["partition", "--method", "g2"]],
        ids=["neigh", "partition"],
    )
    def test_non_positive_path_cap(self, runner, c6, monkeypatch, value, command):
        monkeypatch.setenv("EQUIVCURV_PATH_CAP", value)
        result = runner.invoke(main, [command[0], c6, *command[1:]])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"error: EQUIVCURV_PATH_CAP must be a positive integer, got '{value}'"
        ]

    @pytest.mark.parametrize(
        "blocks",
        [[["1", "2"], ["2", "3", "4"]], [["1", "2", "3", "4"], []]],
        ids=["repeated-vertex", "empty-block"],
    )
    def test_invalid_partition_blocks(self, runner, tmp_path, blocks):
        l3 = tmp_path / "l3.edges"
        l3.write_text("1 2\n2 3\n3 4\n")
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": blocks}))
        result = runner.invoke(
            main, ["verify", str(l3), str(part), "--notion", "regular"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: invalid partition")


class TestNoTraceback:
    """Inputs that once escaped the exit-code mapping as a traceback."""

    def test_subclique_unknown_vertex(self, runner, fig3):
        result = runner.invoke(
            main, ["partition", fig3, "--method", "subcliques", "--block", "a,zz"]
        )
        assert result.exit_code == 3
        assert result.stderr == "error: unknown vertex 'zz'\n"

    def test_removal_of_a_loop_is_usage_error(self, runner, fig3):
        result = runner.invoke(
            main,
            ["partition", fig3, "--method", "triangle-removal", "--remove", "a,a"],
        )
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)


class TestClosedPipe:
    def test_reader_gone_exits_1_quietly(self, monkeypatch, capsys, c6):
        """As with `equivcurv neigh ... | head`: exit 1, no traceback."""
        read_end, write_end = os.pipe()

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return write_end

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            with pytest.raises(SystemExit) as exited:
                main(["neigh", c6, "--n", "3"])
        finally:
            os.close(read_end)
            os.close(write_end)
        assert exited.value.code == 1
        assert capsys.readouterr().err == ""


class TestDeepPaths:
    """Path enumeration is bounded by the length cap and the work budget only."""

    @pytest.fixture
    def chain(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EQUIVCURV_PATH_CAP", "2000")
        path = tmp_path / "chain.txt"
        path.write_text("".join(f"v{i} v{i + 1}\n" for i in range(1200)))
        return str(path)

    @pytest.mark.parametrize("hyper", [False, True], ids=["graph", "hypergraph"])
    def test_chain_n_1100(self, runner, chain, hyper):
        args = ["neigh", chain, "--n", "1100"] + (["--hyper"] if hyper else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        edges = [line for line in lines if not line.startswith("block ")]
        assert edges == [f"v{i} v{i + 1100}" for i in range(101)]
        assert len(lines) - len(edges) == 1100

    def test_g2_on_300_vertices(self, runner, tmp_path):
        g = random_connected_graph(random.Random(7), 300, min_vertices=300)
        path = tmp_path / "g300.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edge_ids()))
        result = runner.invoke(main, ["partition", str(path), "--method", "g2"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["method"] == "g2-components"



class TestKCycleRemovalScale:
    """Cycle enumeration has no vertex cap; the work budget bounds it."""

    def test_ladder_of_70_vertices(self, runner, tmp_path):
        # Two rails of 35 vertices joined by rungs: min degree 2, 34 4-cycles.
        rails = [f"{r}{i} {r}{i + 1}\n" for r in "ab" for i in range(34)]
        rungs = [f"a{i} b{i}\n" for i in range(35)]
        path = tmp_path / "ladder.edges"
        path.write_text("".join(rails + rungs))
        args = ["partition", str(path), "--method", "kcycle-removal", "--k", "4",
                "--remove", "a10,b10"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        data = json.loads(result.output)
        assert data["method"] == "kcycle-removal"
        assert data["verified"] is True

    def test_budget_refusal(self, runner, tmp_path):
        # K_{35,35} has no 9-cycle, but its paths of 8 steps overrun the budget.
        path = tmp_path / "k35.edges"
        path.write_text("".join(f"a{i} b{j}\n" for i in range(35) for j in range(35)))
        result = runner.invoke(
            main, ["partition", str(path), "--method", "kcycle-removal", "--k", "9"]
        )
        assert result.exit_code == 4
        assert "path enumeration exceeded work budget 5000000" in result.output

_NAMES = ["a", "b", "c", "d", "zz"]  # "zz" never occurs in an input file
_name = st.sampled_from(_NAMES)
# Vertex pairs, with a vertex paired with itself as a production of its own.
_pair = st.one_of(st.tuples(_name, _name), _name.map(lambda v: (v, v)))
_order = st.integers(-1, 4).map(str)


def _lines(sizes):
    """Input text whose lines have a token count drawn from `sizes`."""
    tokens = st.lists(st.sampled_from(_NAMES[:4]), min_size=4, max_size=4)
    row = st.tuples(st.sampled_from(sizes), tokens).map(lambda t: t[1][: t[0]])
    return st.lists(row, max_size=6).map(
        lambda rows: "".join(" ".join(r) + "\n" for r in rows)
    )


_METHODS = ["g2", "gn", "structural", "subcliques", "triangle-removal",
            "kcycle-removal", "h2", "hn"]
_NOTIONS = ["structural", "regular", "weak-structural", "strong-structural",
            "weak-regular", "strong-regular"]


@st.composite
def _arguments(draw, command):
    """Arguments after the input file for one command of the CLI grammar.

    `command` is neigh, curv, sim, verify or "partition METHOD".
    `--check-bounds` is left out: it exits 1 by design on a violated bound.
    """
    hyper = ["--hyper"] if draw(st.booleans()) else []
    pick = st.one_of(
        st.lists(_pair, min_size=1, max_size=2).map(
            lambda ps: [arg for x, y in ps for arg in ("--pair", x, y)]
        ),
        st.just(["--all"]),
    )
    if command == "neigh":
        mode = draw(st.sampled_from(["path", "nb", "walk"]))
        inclusions = ["--check-inclusions"] if draw(st.booleans()) else []
        return ["--n", draw(_order), "--mode", mode, *inclusions, *hyper]
    if command == "curv":
        walk = draw(st.sampled_from(["en", "ee"]))
        return [*draw(pick), *hyper, "--walk", walk]
    if command == "sim":
        walk = draw(st.sampled_from(["graph", "en", "ee"]))
        return [*draw(pick), *hyper, "--walk", walk]
    if command == "verify":
        return ["P", "--notion", draw(st.sampled_from(_NOTIONS))]
    args = ["--method", command.split()[1]]
    if draw(st.booleans()):
        args += ["--n", draw(_order)]
    if draw(st.booleans()):
        args += ["--k", draw(st.integers(1, 5).map(str))]
    for u, v in draw(st.lists(_pair, max_size=2)):
        args += ["--remove", f"{u},{v}"]
    for block in draw(st.lists(st.lists(_name, min_size=1, max_size=3), max_size=2)):
        args += ["--block", ",".join(block)]
    return args


class TestFuzz:
    """Any command on small random inputs exits 0, 2, 3 or 4, never with a traceback.

    Each command, and each partition method, gets its own example budget, so
    no part of the grammar is starved.
    """

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @pytest.mark.parametrize(
        "command",
        ["neigh", "curv", "sim", "verify"] + [f"partition {m}" for m in _METHODS],
    )
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        edges=_lines([2, 2, 2, 1, 3]),
        hyperedges=_lines([2, 3, 4, 1]),
        blocks=st.lists(st.lists(_name, max_size=3), max_size=4),
        input_file=st.sampled_from(["G", "H"]),
    )
    def test_no_traceback(
        self, workdir, command, data, edges, hyperedges, blocks, input_file
    ):
        files = {"G": workdir / "g.edges", "H": workdir / "h.hyper",
                 "P": workdir / "p.json"}
        files["G"].write_text(edges)
        files["H"].write_text(hyperedges)
        files["P"].write_text(json.dumps({"blocks": blocks}))
        argv = [command.split()[0], input_file, *data.draw(_arguments(command))]
        argv = [str(files[a]) if a in files else a for a in argv]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code in (0, 2, 3, 4), (argv, result.output)
        assert result.exception is None or isinstance(
            result.exception, SystemExit
        ), (argv, result.exception)


_CURV_CASES = [(name, []) for name in sorted(fixtures.GRAPHS)] + [
    (name, ["--hyper", "--walk", walk])
    for name in sorted(fixtures.HYPERGRAPHS)
    for walk in ("en", "ee")
]


class TestCurvAgainstNetworkx:
    """Every `curv --all` row on the bundled corpus, against networkx min-cost flow."""

    @pytest.mark.parametrize("name, extra", _CURV_CASES)
    def test_rows(self, runner, tmp_path, name, extra):
        hyper = bool(extra)
        text = (fixtures.HYPERGRAPHS if hyper else fixtures.GRAPHS)[name]
        path = tmp_path / name
        path.write_text(text)
        result = runner.invoke(main, ["curv", str(path), "--all", *extra])
        assert result.exit_code == 0, result.output
        structure = parse_hypergraph(text) if hyper else parse_graph(text)
        if hyper:
            measure = {"en": en_measure, "ee": ee_measure}[extra[-1]]
        else:
            measure = neighbor_measure
        rows = json.loads(result.output)["pairs"]
        connected = [
            (x, y)
            for i, x in enumerate(structure.vertices)
            for y in structure.vertices[i + 1 :]
            if structure.distance(x, y) is not None
        ]
        assert len(rows) == len(connected) > 0
        for row in rows:
            x, y = row["x"], row["y"]
            d = structure.distance(x, y)
            mu, nu = measure(structure, x), measure(structure, y)
            w1 = networkx_w1(mu, nu, structure.distance)
            assert row["distance"] == d
            assert row["w1"] == fraction_str(w1)
            assert row["kappa"] == fraction_str(1 - w1 / d)


class TestWalkModeBudget:
    def test_long_nb_walk_exits_4(self, runner, c6):
        result = runner.invoke(main, ["neigh", c6, "--mode", "nb", "--n", "100000000"])
        assert result.exit_code == 4
        assert "exceeded work budget 5000000" in result.output


class TestSimMatchesCurv:
    """`sim --all` and `curv --all` share one curvature routine."""

    @pytest.mark.parametrize("name, extra", _CURV_CASES)
    def test_same_kappa_and_distance(self, runner, tmp_path, name, extra):
        text = (fixtures.HYPERGRAPHS if extra else fixtures.GRAPHS)[name]
        path = tmp_path / name
        path.write_text(text)
        rows = {}
        for command in ("curv", "sim"):
            result = runner.invoke(main, [command, str(path), "--all", *extra])
            assert result.exit_code == 0, result.output
            rows[command] = [
                (r["x"], r["y"], r["distance"], r["kappa"])
                for r in json.loads(result.output)["pairs"]
            ]
        assert rows["sim"] == rows["curv"]
        assert rows["curv"]


_FAILING_LATER_PAIR = [
    # (input text, extra options, a good pair, the failing pair)
    ("1 2\n2 3\n3 4\n4 1\n", [], ("1", "2"), ("3", "3")),
    ("1 2\n2 3\n3 4\n4 1\n", [], ("1", "2"), ("2", "zz")),
    ("a b\nb c\nc a\nd e\n", [], ("a", "b"), ("b", "d")),
    ("a b\nb c\nc c\n", [], ("a", "b"), ("b", "c")),
    ("x a b\na y\nb\n", ["--hyper", "--walk", "ee"], ("x", "y"), ("a", "y")),
]


class TestPairListErrors:
    """A --pair list fails exactly as its first failing pair does alone."""

    @pytest.mark.parametrize("text, extra, good, bad", _FAILING_LATER_PAIR)
    def test_later_failing_pair(self, runner, tmp_path, text, extra, good, bad):
        path = tmp_path / ("input.hyper" if extra else "input.edges")
        path.write_text(text)
        alone = runner.invoke(main, ["curv", str(path), "--pair", *bad, *extra])
        pairs = [*good, "--pair", *good[::-1], "--pair", *bad, "--pair", *good]
        listed = runner.invoke(main, ["curv", str(path), "--pair", *pairs, *extra])
        assert alone.exit_code == listed.exit_code == 3
        assert listed.stdout == ""
        assert listed.stderr == alone.stderr
        assert len(listed.stderr.splitlines()) == 1
        assert listed.stderr.startswith("error: ")

    def test_sim_across_components_is_null(self, runner, tmp_path):
        path = tmp_path / "two.edges"
        path.write_text("a b\nb c\nc a\nd e\n")
        pairs = ["--pair", "a", "b", "--pair", "b", "d", "--pair", "d", "e"]
        result = runner.invoke(main, ["sim", str(path), *pairs])
        assert result.exit_code == 0
        rows = json.loads(result.stdout)["pairs"]
        assert [r["kappa"] for r in rows] == ["1/2", None, "0"]
        assert rows[1]["distance"] is None and rows[1]["fully_dissimilar"] is True


@pytest.fixture
def star3200(tmp_path):
    path = tmp_path / "star3200.edges"
    path.write_text("".join(f"c l{i}\n" for i in range(1, 3201)))
    return str(path)


class TestNeighbourSetConstructions:
    """structural and subcliques decide from neighbour sets, building no G_2,
    so a star whose G_2 exceeds the work budget still gets an answer."""

    def test_structural_on_large_star(self, runner, star3200):
        result = runner.invoke(main, ["partition", star3200, "--method", "structural"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["verified"] is True
        assert report["blocks"][0] == ["c"]
        assert len(report["blocks"][1]) == 3200

    def test_subcliques_on_large_star(self, runner, star3200):
        result = runner.invoke(
            main, ["partition", star3200, "--method", "subcliques", "--block", "l1,l2"]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["verified"] is True
        assert report["blocks"][1] == ["l1", "l2"]
        assert len(report["blocks"]) == 3200

    def test_neigh_output_is_whole_lines(self, runner, c6):
        result = runner.invoke(main, ["neigh", c6, "--n", "2", "--check-inclusions"])
        assert result.exit_code == 0
        assert result.output == (
            "1 3\n1 5\n2 4\n2 6\n3 5\n4 6\nblock 1 3 5\nblock 2 4 6\ninclusions ok\n"
        )


class TestShortPathNeigh:
    def test_star_g2_refused_by_work_budget(self, runner, star3200):
        # The 3,200 leaves give 3,200 x 3,199 second steps through the centre.
        result = runner.invoke(main, ["neigh", star3200, "--n", "2"])
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr == "error: path enumeration exceeded work budget 5000000\n"

    def test_hyper_check_inclusions_refused(self, runner, h1):
        result = runner.invoke(
            main, ["neigh", h1, "--n", "2", "--hyper", "--check-inclusions"]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: inclusion checks apply to graphs only\n"

    def test_hyper_check_inclusions_refused_before_loading(self, runner, tmp_path):
        bad = tmp_path / "bad.hyper"
        bad.write_text("a a\n")
        result = runner.invoke(
            main, ["neigh", str(bad), "--n", "2", "--hyper", "--check-inclusions"]
        )
        assert result.exit_code == 3
        assert result.stderr == "error: inclusion checks apply to graphs only\n"


class TestVerbatimOptionValues:
    """An option's values are taken as they stand, even when they start with "-"."""

    TEXT = "-a b\nb c\nc -a\nc d\n"

    @pytest.fixture
    def dash(self, tmp_path):
        path = tmp_path / "dash.edges"
        path.write_text(self.TEXT)
        return str(path)

    @pytest.mark.parametrize("command", ["curv", "sim"])
    def test_pair_with_a_dash_vertex(self, runner, tmp_path, dash, command):
        renamed = tmp_path / "renamed.edges"
        renamed.write_text(self.TEXT.replace("-a", "a"))
        result = runner.invoke(main, [command, dash, "--pair", "-a", "b"])
        plain = runner.invoke(main, [command, str(renamed), "--pair", "a", "b"])
        assert result.exit_code == plain.exit_code == 0, result.output
        assert result.stdout == plain.stdout.replace('"x": "a"', '"x": "-a"')
        assert json.loads(result.stdout)["pairs"][0]["kappa"] == "1/2"

    def test_removal_edge_with_a_dash_vertex(self, runner, dash):
        args = ["partition", dash, "--method", "triangle-removal"]
        result = runner.invoke(main, [*args, "--remove", "-a,b"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["method"] == "triangle-removal"
        inline = runner.invoke(main, [*args, "--remove=-a,b"])
        assert (inline.exit_code, inline.stdout) == (0, result.stdout)

    def test_option_name_taken_as_a_vertex(self, runner, dash):
        result = runner.invoke(main, ["curv", dash, "--pair", "--all", "b"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: unknown vertex '--all'\n"


_USAGE_ERRORS = [
    # (arguments, with {c6}, {h1} and {dir} for paths; the one stderr line)
    ([], "missing command, one of curv, fixtures, neigh, partition, sim, verify"),
    (["curv", "{c6}"], "provide --pair X Y or --all"),
    (["sim", "{h1}", "--hyper", "--pair", "x", "y"], "use --walk en or --walk ee with --hyper"),
    (["sim", "{c6}", "--walk", "en", "--all"], "--walk en/ee requires --hyper"),
    (["partition", "{c6}", "--method", "gn"], "--n is required for method gn"),
    (["partition", "{h1}", "--method", "hn"], "--n is required for method hn"),
    (["partition", "{c6}", "--method", "kcycle-removal"],
     "--k is required for method kcycle-removal"),
    (["partition", "{c6}", "--method", "subcliques"],
     "--block is required for method subcliques"),
    (["partition", "{c6}", "--method", "triangle-removal", "--remove", "1"],
     "--remove expects 'u,v' with u != v, got '1'"),
    (["neigh", "{c6}", "--n", "2", "--bogus"], "no such option '--bogus'"),
    (["--bogus"], "no such option '--bogus'"),
    (["bogus"], "no such command 'bogus'"),
    (["partition", "{c6}", "--method", "nope"],
     "--method must be one of g2, gn, structural, subcliques, triangle-removal, "
     "kcycle-removal, h2, hn; got 'nope'"),
    (["neigh", "{c6}", "--n", "x"], "--n must be an integer, got 'x'"),
    (["neigh", "{dir}/missing.edges", "--n", "2"],
     "INPUT_FILE '{dir}/missing.edges' does not exist"),
    (["neigh", "{dir}", "--n", "2"], "INPUT_FILE '{dir}' is a directory"),
    (["curv", "{c6}", "--pair", "1"], "option --pair requires 2 value(s)"),
    (["neigh", "{c6}"], "missing option --n"),
    (["curv"], "missing argument INPUT_FILE"),
    (["curv", "{c6}", "{c6}", "--all"], "unexpected extra argument '{c6}'"),
    (["curv", "{c6}", "--all=1"], "option --all takes no value"),
]


class TestUsageErrors:
    """A command line that does not fit the command table: exit 2, nothing on
    stdout and one `error: ...` line on stderr."""

    @pytest.mark.parametrize(
        "args, message", _USAGE_ERRORS, ids=[" ".join(a) or "none" for a, _ in _USAGE_ERRORS]
    )
    def test_one_error_line(self, runner, tmp_path, c6, h1, args, message):
        paths = {"c6": c6, "h1": h1, "dir": str(tmp_path)}
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {message.format(**paths)}"]

    @pytest.mark.parametrize(
        "command", ["", "curv", "fixtures", "neigh", "partition", "sim", "verify"]
    )
    def test_help_goes_to_stdout(self, runner, command):
        result = runner.invoke(main, [*command.split(), "--help"])
        assert result.exit_code == 0
        assert result.stderr == ""
        assert result.stdout.startswith("Usage: equivcurv ")
        assert "--help" in result.stdout


_JSON_SCALARS = st.one_of(
    st.text(st.characters(blacklist_categories=())),  # controls, non-ASCII, surrogates
    st.integers(),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(st.characters(blacklist_categories=())), inner, max_size=4),
    ),
    max_leaves=40,
)


def _fixture_commands():
    for name in sorted(fixtures.GRAPHS):
        for args in (["curv", "--all"], ["sim", "--all"], ["partition", "--method", "g2"],
                     ["partition", "--method", "structural"]):
            yield name, fixtures.GRAPHS[name], args
    for name in sorted(fixtures.HYPERGRAPHS):
        for args in (["curv", "--all", "--hyper", "--walk", "ee"],
                     ["sim", "--all", "--hyper", "--walk", "en"],
                     ["partition", "--method", "h2"]):
            yield name, fixtures.HYPERGRAPHS[name], args


class TestJsonText:
    """`json_text` writes exactly what `json.dumps(data, indent=2)` writes."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "name, text, args", list(_fixture_commands()),
        ids=[f"{n}-{' '.join(a)}" for n, _, a in _fixture_commands()],
    )
    def test_fixture_reports(self, runner, tmp_path, name, text, args):
        path = tmp_path / name
        path.write_text(text)
        result = runner.invoke(main, [args[0], str(path), *args[1:]])
        assert result.exit_code == 0, result.output
        data = json.loads(result.stdout)
        assert result.stdout == json.dumps(data, indent=2) + "\n"
        assert json_text(data) == json.dumps(data, indent=2)

    @pytest.mark.parametrize("value", [{}, [], {"a": []}, [{}], {"b": {}}])
    def test_empty_containers(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError):
            json_text(value)
