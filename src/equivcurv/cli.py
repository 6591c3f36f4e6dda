"""Command-line front end.

Commands: neigh, curv, partition, verify, sim, fixtures. Exit codes:
0 success, 2 input error, 3 precondition/domain error, 4 resource-cap error.
Output is deterministic: identical invocations produce identical stdout.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction

import click

from . import fixtures as fixture_corpus
from .core import Graph, Partition, parse_graph, parse_hypergraph
from .equivalence import (
    is_regular_partition,
    is_strong_regular_partition,
    is_strong_structural,
    is_strong_structural_partition,
    is_structural_partition,
    is_weak_regular_partition,
    is_weak_structural,
    is_weak_structural_partition,
)
from .errors import (
    ParseError,
    PreconditionError,
    ResourceCapError,
    UnknownVertexError,
)
from .neighborhood import (
    DEFAULT_PATH_CAP,
    WalkMode,
    hyper_neighborhood_graph,
    inclusion_check,
    neighborhood_graph,
)
from .partitions import (
    RemovalSet,
    regular_from_curvature_subcliques,
    regular_from_g2,
    regular_from_gn,
    regular_from_kcycle_removal,
    regular_from_triangle_removal,
    structural_from_curvature,
    weak_regular_from_h2,
    weak_regular_from_hn,
)
from .similarity import (  # similarity_report stays a name here for bench/tracing.py
    CosineData,
    bounds_hold,
    similarity_report,  # noqa: F401
    similarity_reports,
)
from .transport import SimilarityWalk, curvatures, ee_orc, en_orc, fraction_str, orc

EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4

def _path_cap():
    value = os.environ.get("EQUIVCURV_PATH_CAP")
    try:
        return int(value) if value else DEFAULT_PATH_CAP
    except ValueError:
        raise ParseError(
            f"EQUIVCURV_PATH_CAP must be an integer, got {value!r}"
        ) from None


def _exit_codes(func):
    """Map package exceptions to the documented exit codes."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except ParseError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except (PreconditionError, UnknownVertexError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PRECONDITION)
        except ResourceCapError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CAP)

    return wrapper


def _load_graph(path):
    return parse_graph(_read(path))


def _load_hypergraph(path):
    return parse_hypergraph(_read(path))


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not valid UTF-8: {exc}") from None


def _emit_json(data):
    click.echo(json.dumps(data, indent=2))


@click.group()
def main():
    """Equivalences of graphs and hypergraphs via curvature and neighbourhoods."""


@main.command("neigh")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", required=True, type=int, help="Neighbourhood order.")
@click.option("--mode", default="path",
              type=click.Choice(sorted(m.value for m in WalkMode)))
@click.option("--hyper", is_flag=True, help="Parse the input as a hypergraph.")
@click.option("--check-inclusions", is_flag=True, help="Also verify the mode chain.")
@_exit_codes
def cmd_neighborhood(input_file, n, mode, hyper, check_inclusions):
    """Emit the n-neighbourhood graph edges and its component partition."""
    cap = _path_cap()
    if hyper:
        if mode != "path":
            raise PreconditionError("hypergraph neighbourhoods support path mode only")
        if check_inclusions:
            raise PreconditionError("inclusion checks apply to graphs only")
        structure = _load_hypergraph(input_file)
        result = hyper_neighborhood_graph(structure, n, path_cap=cap)
    else:
        structure = _load_graph(input_file)
        result = neighborhood_graph(structure, n, WalkMode(mode), path_cap=cap)
    ids = result.graph.vertices
    lines = [f"{ids[i]} {ids[j]}\n" for i, j in result.graph.edge_pairs()]
    blocks = result.graph.connected_components().blocks
    lines += [f"block {' '.join(block)}\n" for block in blocks]
    click.echo("".join(lines), nl=False)  # one write, not one per line
    if check_inclusions:
        report = inclusion_check(structure, n, path_cap=cap)
        click.echo(f"inclusions {'ok' if report.holds else 'VIOLATED'}")
        if not report.holds:
            sys.exit(EXIT_PRECONDITION)


def _component_pairs(structure):
    """Upper-triangular pairs within each connected component, sorted."""
    graph = structure if isinstance(structure, Graph) else structure.associated_graph()
    for block in graph.connected_components().blocks:
        ordered = sorted(block, key=structure.index.__getitem__)
        for i, x in enumerate(ordered):
            for y in ordered[i + 1 :]:
                yield x, y


def _pairs_input(input_file, pairs, all_pairs, hyper, walk):
    """Check the pair options and the walk, load the input, list the pairs."""
    if not pairs and not all_pairs:
        raise click.UsageError("provide --pair X Y or --all")
    walk = SimilarityWalk(walk)
    if hyper and walk is SimilarityWalk.GRAPH:
        raise click.UsageError("use --walk en or --walk ee with --hyper")
    if not hyper and walk is not SimilarityWalk.GRAPH:
        raise click.UsageError("--walk en/ee requires --hyper")
    structure = _load_hypergraph(input_file) if hyper else _load_graph(input_file)
    wanted = list(pairs) if pairs else list(_component_pairs(structure))
    return structure, walk, wanted


@main.command("curv")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--pair", "pairs", nargs=2, multiple=True, help="Vertex pair; repeatable.")
@click.option("--all", "all_pairs", is_flag=True, help="All pairs per component.")
@click.option("--hyper", is_flag=True)
@click.option("--walk", default="en", type=click.Choice(["en", "ee"]),
              help="Hypergraph random walk (ignored for graphs).")
@_exit_codes
def cmd_curvature(input_file, pairs, all_pairs, hyper, walk):
    """Exact Ollivier-Ricci curvature report as JSON."""
    # --walk is ignored for graphs
    structure, walk, wanted = _pairs_input(
        input_file, pairs, all_pairs, hyper, walk if hyper else "graph"
    )
    rows = [
        {
            "x": x,
            "y": y,
            "distance": result.distance,
            "w1": fraction_str(result.w1),
            "kappa": fraction_str(result.kappa),
        }
        for (x, y), result in zip(wanted, curvatures(structure, wanted, walk))
    ]
    _emit_json({"pairs": rows})


def _parse_edge_options(values):
    out = []
    for value in values:
        parts = value.split(",")
        if len(parts) != 2 or parts[0] == parts[1]:
            raise click.UsageError(
                f"--remove expects 'u,v' with u != v, got {value!r}"
            )
        out.append(tuple(parts))
    return out


@main.command("partition")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--method",
    required=True,
    type=click.Choice(
        ["g2", "gn", "structural", "subcliques", "triangle-removal",
         "kcycle-removal", "h2", "hn"]
    ),
)
@click.option("--n", type=int, default=None, help="Order for gn/hn.")
@click.option("--k", type=int, default=None, help="Cycle length for kcycle-removal.")
@click.option("--remove", "removed", multiple=True, help="Edge 'u,v'; repeatable.")
@click.option("--block", "chosen", multiple=True,
              help="Comma-separated vertex set for subcliques; repeatable.")
@_exit_codes
def cmd_partition(input_file, method, n, k, removed, chosen):
    """Run a partition construction and emit its report as JSON."""
    cap = _path_cap()
    if method in ("h2", "hn"):
        h = _load_hypergraph(input_file)
        if method == "h2":
            report = weak_regular_from_h2(h, path_cap=cap)
        else:
            if n is None:
                raise click.UsageError("--n is required for method hn")
            report = weak_regular_from_hn(h, n, path_cap=cap)
    else:
        g = _load_graph(input_file)
        if method == "g2":
            report = regular_from_g2(g, path_cap=cap)
        elif method == "gn":
            if n is None:
                raise click.UsageError("--n is required for method gn")
            report = regular_from_gn(g, n, path_cap=cap)
        elif method == "structural":
            report = structural_from_curvature(g)
        elif method == "subcliques":
            if not chosen:
                raise click.UsageError("--block is required for method subcliques")
            sets = [c.split(",") for c in chosen]
            report = regular_from_curvature_subcliques(g, sets)
        elif method == "triangle-removal":
            removal = RemovalSet.of(_parse_edge_options(removed))
            report = regular_from_triangle_removal(g, removal, path_cap=cap)
        else:
            if k is None:
                raise click.UsageError("--k is required for method kcycle-removal")
            removal = RemovalSet.of(_parse_edge_options(removed))
            report = regular_from_kcycle_removal(g, k, removal, path_cap=cap)
    _emit_json(report.to_json())


_VERIFIERS = {
    "structural": is_structural_partition,
    "regular": is_regular_partition,
    "weak-structural": is_weak_structural_partition,
    "strong-structural": is_strong_structural_partition,
    "weak-regular": is_weak_regular_partition,
    "strong-regular": is_strong_regular_partition,
}


@main.command("verify")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("partition_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--notion", required=True, type=click.Choice(list(_VERIFIERS)))
@_exit_codes
def cmd_verify(input_file, partition_file, notion):
    """Verify a partition (JSON {"blocks": [...]}) against an equivalence notion."""
    try:
        partition = Partition.from_json(json.loads(_read(partition_file)))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid partition JSON: {exc}") from exc
    if notion in ("structural", "regular"):
        structure, kind = _load_graph(input_file), "graph"
    else:
        structure, kind = _load_hypergraph(input_file), "hypergraph"
    if not partition.covers(structure.vertices):
        raise ParseError(f"partition does not cover the {kind}'s vertex set")
    _emit_json(_VERIFIERS[notion](structure, partition).to_json())


def _sim_row(report, sigma):
    row = {
        "x": report.x,
        "y": report.y,
        "eta": report.eta,
        "d_x": report.d_x,
        "d_y": report.d_y,
        "sigma": f"{sigma.value:.12f}",
        "distance": report.distance,
        "kappa": None if report.kappa is None else fraction_str(report.kappa),
        "fully_dissimilar": report.fully_dissimilar,
    }
    if report.lower_bound is not None:
        row["lower_bound"] = fraction_str(report.lower_bound)
        row["upper_bound"] = fraction_str(report.upper_bound)
    return row


@main.command("sim")
@click.argument("input_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--pair", "pairs", nargs=2, multiple=True)
@click.option("--all", "all_pairs", is_flag=True)
@click.option("--hyper", is_flag=True)
@click.option("--walk", default="graph",
              type=click.Choice(sorted(w.value for w in SimilarityWalk)))
@click.option("--check-bounds", is_flag=True,
              help="Exit nonzero if any curvature bound is violated.")
@_exit_codes
def cmd_similarity(input_file, pairs, all_pairs, hyper, walk, check_bounds):
    """Similarity reports (cosine, curvature, bounds) as JSON."""
    structure, walk, wanted = _pairs_input(input_file, pairs, all_pairs, hyper, walk)
    rows = []
    violations = 0
    for report in similarity_reports(structure, wanted, walk):
        sigma = CosineData(report.eta, report.d_x, report.d_y)
        rows.append(_sim_row(report, sigma))
        if check_bounds and report.kappa is not None and not hyper:
            if not bounds_hold(sigma, report.distance, report.kappa):
                violations += 1
    _emit_json({"pairs": rows})
    if check_bounds and violations:
        click.echo(f"bound violations: {violations}", err=True)
        sys.exit(1)


def _fixture_checks():
    """Checks over the bundled corpus; yields (name, bool)."""
    c6 = fixture_corpus.graph("c6")
    counts = [
        len(neighborhood_graph(c6, n).graph.connected_components().blocks)
        for n in range(1, 7)
    ]
    yield "c6 component counts 1,2,3,2,1,6", counts == [1, 2, 3, 2, 1, 6]
    edge_sets = [neighborhood_graph(c6, n).graph.edge_pairs() for n in range(1, 7)]
    yield "c6 G2 = G4 and G1 = G5", (
        edge_sets[1] == edge_sets[3] and edge_sets[0] == edge_sets[4]
    )
    yield "c6 adjacent curvature 0", orc(c6, "1", "2").kappa == 0

    fig3 = fixture_corpus.graph("fig3")
    yield "fig3 kappa(a,b) = 1", orc(fig3, "a", "b").kappa == 1
    yield "fig3 kappa(a,c) < 1", orc(fig3, "a", "c").kappa < 1

    h5 = fixture_corpus.graph("h5")
    report = regular_from_g2(h5)
    expected = Partition([("a", "e"), ("b", "c", "d")])
    yield "h5 G2 blocks {a,e},{b,c,d} regular", (
        report.verified and report.partition == expected
    )

    p9 = fixture_corpus.graph("p9")
    figure = Partition([("3", "9"), ("1", "2", "4", "5", "6", "7", "8")])
    witness = is_regular_partition(p9, figure)
    yield "p9 two-block figure partition not regular", not witness.verdict

    l3 = fixture_corpus.graph("l3")
    partition = Partition([("1", "4"), ("2", "3")])
    yield "l3 endpoint/interior partition regular", is_regular_partition(
        l3, partition
    ).verdict

    hx = fixture_corpus.hypergraph("hx")
    yield "hx EN-ORC(x,y) = 1", en_orc(hx, "x", "y").kappa == 1
    yield "hx EE-ORC(x,y) = 1", ee_orc(hx, "x", "y").kappa == 1
    yield "hx weak but not strong structural", (
        is_weak_structural(hx, "x", "y") and not is_strong_structural(hx, "x", "y")
    )

    h1 = fixture_corpus.hypergraph("h1")
    yield "h1 EN-ORC(x,y) = 1", en_orc(h1, "x", "y").kappa == 1
    yield "h1 EE-ORC(x,y) != 1", ee_orc(h1, "x", "y").kappa != 1
    yield "h1 weak but not strong structural", (
        is_weak_structural(h1, "x", "y") and not is_strong_structural(h1, "x", "y")
    )

    for name in ("c6", "p9", "fig3", "h5", "g3"):
        g = fixture_corpus.graph(name)
        yield f"{name} inclusion chain at n=4", inclusion_check(g, 4).holds


@main.command("fixtures")
@_exit_codes
def cmd_fixtures():
    """Run the bundled fixture corpus and print a pass/fail table."""
    failed = 0
    for name, ok in _fixture_checks():
        click.echo(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failed += 1
    click.echo(f"{'all checks passed' if not failed else f'{failed} check(s) failed'}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
