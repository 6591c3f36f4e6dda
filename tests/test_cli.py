"""Command-line interface: formats, determinism, and exit codes."""

import json

import pytest
from click.testing import CliRunner

from equivcurv.cli import main


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
