"""The determinism table: commands whose output must not depend on the hash seed.

Runs every command below in process through `equivcurv.cli.main` and prints,
for each, the command line, its stdout, its stderr and its exit code. Run it
from the repository root under two string-hash seeds and compare:

    PYTHONHASHSEED=0 python tests/hashseed.py > hashseed-0.out
    PYTHONHASHSEED=1 python tests/hashseed.py > hashseed-1.out
    diff hashseed-0.out hashseed-1.out

A graph reads every edge view off its adjacency lists; every command's
output is built from the result records; `neigh` writes Gₙ one vertex row at
a time. Path mode with n = 4 runs the DFS, n = 1, 2 and 3 the
meet-in-the-middle routine (the steps themselves, a middle vertex, a middle
edge), and n = 9 the answer for n >= |V| (every fixture has at most 9
vertices); n = 3 also runs in the nb and walk modes and with
`--check-inclusions`, n = 4 in the nb mode, and on hypergraphs in path mode
with n = 1, 2, 3 and 4. kcycle-removal with k = 4 runs the cycle DFS,
and k = 10 the answer for k > |V|. Each fixture's own g2 report (h2 for a
hypergraph) is then checked by `verify`, which reads the report's blocks,
under every notion of its kind: 2 for graphs, 4 for hypergraphs.

Last come the couplings, which no command prints: for each fixture, every
pair's coupling entries in their order, from `orc` on a graph and `ee_orc` on
a hypergraph. A refused pair prints its message instead.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from equivcurv import PreconditionError, ee_orc, orc, parse_graph, parse_hypergraph
from equivcurv.cli import main as cli_main

GRAPH_COMMANDS = (
    "curv --all", "neigh --n 1", "neigh --n 2", "neigh --n 3", "neigh --n 3 --mode nb",
    "neigh --n 4 --mode nb", "neigh --n 3 --mode walk", "neigh --n 3 --check-inclusions",
    "neigh --n 9", "partition --method g2",
    "partition --method gn --n 4", "partition --method structural",
    "partition --method triangle-removal", "partition --method kcycle-removal --k 4",
    "partition --method kcycle-removal --k 10", "sim --all --check-bounds",
)
HYPER_COMMANDS = (
    "curv --all --hyper --walk ee", "curv --all --hyper --walk en",
    "sim --all --hyper --walk ee", "sim --all --hyper --walk en",
    "partition --method h2", "partition --method hn --n 3",
    "neigh --hyper --n 1", "neigh --hyper --n 2", "neigh --hyper --n 3",
    "neigh --hyper --n 4",
)
# Fixture pattern -> its commands, the method of its own report, and the
# notions `verify` checks that report under.
KINDS = {
    "*.edges": (GRAPH_COMMANDS, "g2", ("structural", "regular")),
    "*.hyper": (HYPER_COMMANDS, "h2", (
        "weak-structural", "strong-structural", "weak-regular", "strong-regular",
    )),
}

# Fixture pattern -> its parser and the curvature whose couplings are listed.
COUPLINGS = {"*.edges": (parse_graph, orc), "*.hyper": (parse_hypergraph, ee_orc)}


def run(argv):
    """(stdout, stderr, exit code) of one command line, run in process."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def show(argv, line):
    """Run `argv` and print `line`, then its stdout, stderr and exit code."""
    out, err, code = run(argv)
    sys.stdout.write(f"== {line}\n{out}-- stderr\n{err}-- exit {code}\n")


def show_couplings(path, parse, curvature):
    """Print the coupling entries of every pair of `path`'s vertices, or the
    pair's refusal."""
    print("== couplings", path, curvature.__name__)
    structure = parse(path.read_text())
    vertices = structure.vertices
    for i, x in enumerate(vertices):
        for y in vertices[i + 1:]:
            try:
                entries = curvature(structure, x, y).coupling.entries
                print(x, y, list(entries.items()))
            except PreconditionError as error:
                print(x, y, "refused:", error)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp, "report.json")
        for pattern, (commands, method, notions) in KINDS.items():
            for path in sorted(Path("fixtures").glob(pattern)):
                for command in commands:
                    name, *options = command.split()
                    argv = [name, str(path), *options]
                    show(argv, " ".join(argv))
                report.write_text(run(["partition", str(path), "--method", method])[0])
                for notion in notions:
                    argv = ["verify", str(path), str(report), "--notion", notion]
                    show(argv, f"verify {path} <{method} report> --notion {notion}")
    for pattern, (parse, curvature) in COUPLINGS.items():
        for path in sorted(Path("fixtures").glob(pattern)):
            show_couplings(path, parse, curvature)


if __name__ == "__main__":
    main()
