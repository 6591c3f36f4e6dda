"""Lazy loading: the package runs no module on import, and each CLI command
runs only the layers it uses, with the same output as an eager load."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import equivcurv
from equivcurv import SimilarityWalk, WalkMode
from equivcurv.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"

LAYERS = (
    "equivalence", "fixtures", "neighborhood", "partitions", "similarity", "transport"
)

# Every public name of the package, under the module that defines it.
PUBLIC_API = {
    "core": ["Graph", "Hypergraph", "Partition", "parse_graph", "parse_hypergraph"],
    "equivalence": ["EquivalenceWitness", "HierarchyLevel", "ee_lemma_check",
                    "hierarchy_level", "is_regular_partition",
                    "is_strong_regular_partition", "is_strong_structural",
                    "is_strong_structural_partition", "is_structural_partition",
                    "is_weak_regular_partition", "is_weak_structural",
                    "is_weak_structural_partition", "structural_classes"],
    "errors": ["EquivCurvError", "ParseError", "PreconditionError",
               "ResourceCapError", "UnknownVertexError"],
    "neighborhood": ["NeighborhoodGraph", "WalkMode", "hyper_neighborhood_graph",
                     "inclusion_check", "neighborhood_graph"],
    "partitions": ["ConstructionReport", "RemovalSet", "enumerate_removal_sets",
                   "regular_from_curvature_subcliques", "regular_from_g2",
                   "regular_from_gn", "regular_from_kcycle_removal",
                   "regular_from_triangle_removal", "structural_from_curvature",
                   "weak_regular_from_h2", "weak_regular_from_hn"],
    "similarity": ["CosineData", "SimilarityReport", "bounds_hold",
                   "cosine_similarity", "curvature_bounds", "similarity_report",
                   "similarity_reports"],
    "transport": ["Coupling", "CurvatureResult", "Measure", "SimilarityWalk",
                  "curvatures", "ee_measure", "ee_orc", "en_measure", "en_orc",
                  "fraction_str", "neighbor_measure", "orc", "wasserstein1"],
}
PUBLIC_NAMES = [(m, name) for m, names in PUBLIC_API.items() for name in names]

# Runs the CLI the way `python -m equivcurv.cli` does (runpy), then prints to
# stderr the equivcurv modules that are registered and those whose code ran.
# An unloaded lazy module is not a plain ModuleType, and `type()` does not
# load it. With "eager" first, every layer is imported before the command.
PROBE = """
import runpy, sys, types
if sys.argv.pop(1) == "eager":
    import equivcurv.equivalence, equivcurv.partitions, equivcurv.similarity
try:
    runpy.run_module("equivcurv.cli", run_name="__main__", alter_sys=True)
finally:
    ours = {n: m for n, m in sys.modules.items() if n.startswith("equivcurv.")}
    print(" ".join(sorted(ours)), file=sys.stderr)
    print(" ".join(sorted(n for n, m in ours.items()
                          if type(m) is types.ModuleType)), file=sys.stderr)
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT,
        check=False,
    )


def _probe(load, *args):
    """(exit code, stdout, registered modules, executed modules) of one command."""
    proc = _python("-c", PROBE, load, *args)
    registered, executed = (
        {n.removeprefix("equivcurv.") for n in line.split()}
        for line in proc.stderr.splitlines()[-2:]
    )
    return proc.returncode, proc.stdout, registered, executed


@pytest.mark.parametrize(
    "args, executed",
    [
        (["neigh", "c6.edges", "--n", "3"], {"core", "errors", "neighborhood"}),
        (["curv", "fig3.edges", "--all"], {"core", "errors", "transport"}),
        (
            ["partition", "h5.edges", "--method", "g2"],
            {"core", "errors", "equivalence", "neighborhood", "partitions"},
        ),
    ],
    ids=["neigh", "curv", "partition-g2"],
)
def test_each_command_runs_only_its_layers(args, executed):
    args = [str(FIXTURES / a) if a.endswith(".edges") else a for a in args]
    code, out, registered, ran = _probe("lazy", *args)
    assert code == 0
    assert set(LAYERS) <= registered  # every layer has its sys.modules entry
    assert ran == executed
    eager_code, eager_out, _, eager_ran = _probe("eager", *args)
    assert eager_ran >= {"equivalence", "partitions", "similarity", "transport"}
    assert (code, out) == (eager_code, eager_out)


# Runs one command as the benchmark does (runpy) and prints to stderr every
# module it loaded.
LOADED = """
import runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("equivcurv.cli", run_name="__main__", alter_sys=True)
finally:
    print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
"""
FRONT_END_LIBRARIES = {"click", "argparse", "gettext", "locale"}
# `dataclasses` imports `inspect`, which pulls in `ast`, `dis` and `tokenize`.
START_UP_LIBRARIES = {"dataclasses", "inspect", "json"}


def _loaded(*args):
    """Modules a command loads; fixture names become fixture paths."""
    args = [str(FIXTURES / a) if a.endswith((".edges", ".hyper")) else a for a in args]
    proc = _python("-c", LOADED, *args)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "args",
    [["neigh", "c6.edges", "--n", "3"], ["curv", "fig3.edges", "--all"],
     ["partition", "h5.edges", "--method", "g2"]],
    ids=["neigh", "curv", "partition-g2"],
)
def test_commands_run_without_click(args):
    assert not _loaded(*args) & FRONT_END_LIBRARIES  # click among them


@pytest.mark.parametrize(
    "args",
    [["neigh", "c6.edges", "--n", "3"], ["curv", "fig3.edges", "--all"],
     ["curv", "h1.hyper", "--all", "--hyper", "--walk", "ee"],
     ["sim", "fig3.edges", "--all", "--check-bounds"],
     ["partition", "h5.edges", "--method", "g2"],
     ["partition", "h1.hyper", "--method", "h2"], ["fixtures"]],
    ids=["neigh", "curv", "curv-ee", "sim", "partition-g2", "partition-h2", "fixtures"],
)
def test_commands_load_neither_dataclasses_nor_json(args):
    assert not _loaded(*args) & START_UP_LIBRARIES


def test_verify_is_the_command_that_loads_json(tmp_path):
    partition = tmp_path / "p.json"
    partition.write_text('{"blocks": [["1", "4"], ["2", "3"]]}', encoding="utf-8")
    loaded = _loaded("verify", "l3.edges", str(partition), "--notion", "regular")
    assert "json" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_importing_the_cli_loads_no_argument_parsing_library():
    proc = _python(
        "-c",
        "import sys; before = set(sys.modules); import equivcurv.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))",
    )
    loaded = set(proc.stdout.split())
    assert "equivcurv.cli" in loaded
    assert not loaded & FRONT_END_LIBRARIES


def test_importing_the_package_runs_no_module():
    proc = _python(
        "-c",
        "import sys, equivcurv; "
        "print(sorted(n for n in sys.modules if n.startswith('equivcurv'))); "
        "print(equivcurv.transport.orc is equivcurv.orc)",
    )
    assert proc.stdout.splitlines() == ["['equivcurv']", "True"]


def test_fixture_corpus_passes_with_warnings_as_errors():
    proc = _python("-W", "error", "-m", "equivcurv.cli", "fixtures")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all checks passed"
    assert proc.stderr == ""


def test_readme_quick_start_runs_in_a_fresh_interpreter():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    proc = _python("-c", snippet)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0",
        "[('1', '3', '5'), ('2', '4', '6')]",
        "True [('1', '3', '5'), ('2', '4', '6')]",
    ]


@pytest.mark.parametrize("module, name", PUBLIC_NAMES, ids=[n for _, n in PUBLIC_NAMES])
def test_public_name_resolves_to_its_definition(module, name):
    namespace = {}
    exec(f"from equivcurv import {name}", namespace)
    defined = getattr(importlib.import_module(f"equivcurv.{module}"), name)
    assert namespace[name] is defined
    assert getattr(equivcurv, name) is defined
    assert name in equivcurv.__all__
    assert name in dir(equivcurv)


def test_all_lists_exactly_the_public_names():
    assert sorted(equivcurv.__all__) == sorted(name for _, name in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        equivcurv.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from equivcurv import no_such_name", {})


def test_submodules_import_as_before():
    import equivcurv.transport as t
    from equivcurv import fixtures

    assert t.orc is equivcurv.orc
    assert equivcurv.transport is t
    assert fixtures.graph("c6").vertices == ["1", "2", "3", "4", "5", "6"]


def test_cli_forwards_the_names_it_used_to_import():
    import equivcurv.cli as cli

    assert cli.orc is equivcurv.orc
    assert cli.similarity_report is equivcurv.similarity_report
    assert cli.parse_graph is equivcurv.parse_graph
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name  # noqa: B018


def _choices(command, option):
    _, _, options = COMMANDS[command]
    return list(options[f"--{option}"].choices)


def test_mode_and_walk_choices_match_their_enums():
    assert _choices("neigh", "mode") == sorted(m.value for m in WalkMode)
    assert _choices("sim", "walk") == sorted(w.value for w in SimilarityWalk)
