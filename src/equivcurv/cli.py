"""Command-line front end, on the standard library alone.

Commands: neigh, curv, partition, verify, sim, fixtures. Exit codes:
0 success, 2 input error, 3 precondition/domain error, 4 resource-cap error.
Output is deterministic: identical invocations produce identical stdout.
`COMMANDS`, at the end, describes every command's arguments; a command line
that does not fit it prints one `error: ...` line and exits 2.
"""

from __future__ import annotations

import collections
import importlib.util
import os
import sys

from .core import Graph, Partition, parse_graph, parse_hypergraph
from .errors import EquivCurvError, ParseError, PreconditionError


def _lazy(name):
    """The submodule `name`, registered now and executed on its first attribute read.

    Each command runs only the layers it reads. The module object is the one
    `import equivcurv.<name>` gives, so code that looks layers up in
    `sys.modules` finds all of them.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


equivalence = _lazy("equivalence")
fixtures = _lazy("fixtures")
neighborhood = _lazy("neighborhood")
partitions = _lazy("partitions")
similarity = _lazy("similarity")
transport = _lazy("transport")

# bench/test_bench.py reads cli.orc and cli.similarity_report. Forwarded on
# read, they leave transport and similarity unloaded until a command uses them.
_FORWARDED = {"orc": "transport", "similarity_report": "similarity"}


def __getattr__(name):
    if name in _FORWARDED:
        return getattr(globals()[_FORWARDED[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(ParseError):
    """A command line that does not fit `COMMANDS`: malformed input, exit 2."""


def _path_cap():
    value = os.environ.get("EQUIVCURV_PATH_CAP")
    if not value:
        return neighborhood.DEFAULT_PATH_CAP
    cap = _integer("EQUIVCURV_PATH_CAP", value)
    if cap < 1:
        raise ParseError(
            f"EQUIVCURV_PATH_CAP must be a positive integer, got {value!r}"
        )
    return cap


def _integer(name, text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{name} must be an integer, got {text!r}") from None


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


def json_text(data):
    """`json.dumps(data, indent=2)`, byte for byte, for dicts with str keys, lists,
    str, int, bool and None. With an indent `json.dumps` runs its Python encoder;
    this lays the text out in one pass and quotes each str with the C encoder
    that `json.encoder` re-exports, read from `_json` to skip the `json` package."""
    from _json import encode_basestring_ascii as quote

    # Scalars by exact type, so that a bool is not written as an int.
    scalar = {str: quote, int: int.__repr__, type(None): lambda _: "null",
              bool: {True: "true", False: "false"}.__getitem__}.get

    def render(value, indent):
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{quote(k)}: {w(v) if (w := scalar(type(v))) else render(v, inner)}"
                     for k, v in value.items()]
            brackets = "{}"
        elif isinstance(value, list):
            items = [w(v) if (w := scalar(type(v))) else render(v, inner) for v in value]
            brackets = "[]"
        else:
            raise TypeError(f"cannot write {type(value).__name__} as JSON")
        if not items:
            return brackets
        return f"{brackets[0]}{inner}{f',{inner}'.join(items)}{indent}{brackets[1]}"

    write = scalar(type(data))
    return write(data) if write else render(data, "\n")


def cmd_neighborhood(input_file, n, mode, hyper, check_inclusions):
    """Emit the n-neighbourhood graph edges and its component partition."""
    cap = _path_cap()
    if hyper:
        if mode != "path":
            raise PreconditionError("hypergraph neighbourhoods support path mode only")
        if check_inclusions:
            raise PreconditionError("inclusion checks apply to graphs only")
        structure = _load_hypergraph(input_file)
        result = neighborhood.hyper_neighborhood_graph(structure, n, path_cap=cap)
    else:
        structure = _load_graph(input_file)
        result = neighborhood.neighborhood_graph(
            structure, n, neighborhood.WalkMode(mode), path_cap=cap
        )
    ids = result.graph.vertices
    lines = [f"{ids[i]} {ids[j]}\n" for i, j in result.graph.edge_pairs()]
    blocks = result.graph.connected_components().blocks
    lines += [f"block {' '.join(block)}\n" for block in blocks]
    sys.stdout.write("".join(lines))  # one write, not one per line
    if check_inclusions:
        report = neighborhood.inclusion_check(structure, n, path_cap=cap)
        print(f"inclusions {'ok' if report.holds else 'VIOLATED'}")
        if not report.holds:
            sys.exit(PreconditionError.exit_code)


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
        raise UsageError("provide --pair X Y or --all")
    walk = transport.SimilarityWalk(walk)
    if hyper and walk is transport.SimilarityWalk.GRAPH:
        raise UsageError("use --walk en or --walk ee with --hyper")
    if not hyper and walk is not transport.SimilarityWalk.GRAPH:
        raise UsageError("--walk en/ee requires --hyper")
    structure = _load_hypergraph(input_file) if hyper else _load_graph(input_file)
    wanted = list(pairs) if pairs else list(_component_pairs(structure))
    return structure, walk, wanted


def cmd_curvature(input_file, pairs, all_pairs, hyper, walk):
    """Exact Ollivier-Ricci curvature report as JSON."""
    # --walk is ignored for graphs
    structure, walk, wanted = _pairs_input(
        input_file, pairs, all_pairs, hyper, walk if hyper else "graph"
    )
    results = transport.curvatures(structure, wanted, walk)
    rows = [
        {
            "x": x,
            "y": y,
            "distance": result.distance,
            "w1": transport.fraction_str(result.w1),
            "kappa": transport.fraction_str(result.kappa),
        }
        for (x, y), result in zip(wanted, results)
    ]
    print(json_text({"pairs": rows}))


def _parse_edge_options(values):
    out = []
    for value in values:
        parts = value.split(",")
        if len(parts) != 2 or parts[0] == parts[1]:
            raise UsageError(
                f"--remove expects 'u,v' with u != v, got {value!r}"
            )
        out.append(tuple(parts))
    return out


def cmd_partition(input_file, method, n, k, removed, chosen):
    """Run a partition construction and emit its report as JSON."""
    cap = _path_cap()
    if method in ("h2", "hn"):
        h = _load_hypergraph(input_file)
        if method == "h2":
            report = partitions.weak_regular_from_h2(h, path_cap=cap)
        else:
            if n is None:
                raise UsageError("--n is required for method hn")
            report = partitions.weak_regular_from_hn(h, n, path_cap=cap)
    else:
        g = _load_graph(input_file)
        if method == "g2":
            report = partitions.regular_from_g2(g, path_cap=cap)
        elif method == "gn":
            if n is None:
                raise UsageError("--n is required for method gn")
            report = partitions.regular_from_gn(g, n, path_cap=cap)
        elif method == "structural":
            report = partitions.structural_from_curvature(g)
        elif method == "subcliques":
            if not chosen:
                raise UsageError("--block is required for method subcliques")
            sets = [c.split(",") for c in chosen]
            report = partitions.regular_from_curvature_subcliques(g, sets)
        elif method == "triangle-removal":
            removal = partitions.RemovalSet.of(_parse_edge_options(removed))
            report = partitions.regular_from_triangle_removal(g, removal, path_cap=cap)
        else:
            if k is None:
                raise UsageError("--k is required for method kcycle-removal")
            removal = partitions.RemovalSet.of(_parse_edge_options(removed))
            report = partitions.regular_from_kcycle_removal(g, k, removal, path_cap=cap)
    print(json_text(report.to_json()))


_VERIFIERS = {
    "structural": "is_structural_partition",
    "regular": "is_regular_partition",
    "weak-structural": "is_weak_structural_partition",
    "strong-structural": "is_strong_structural_partition",
    "weak-regular": "is_weak_regular_partition",
    "strong-regular": "is_strong_regular_partition",
}


def cmd_verify(input_file, partition_file, notion):
    """Verify a partition (JSON {"blocks": [...]}) against an equivalence notion."""
    import json

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
    verifier = getattr(equivalence, _VERIFIERS[notion])
    print(json_text(verifier(structure, partition).to_json()))


def _sim_row(report, sigma):
    row = {
        "x": report.x,
        "y": report.y,
        "eta": report.eta,
        "d_x": report.d_x,
        "d_y": report.d_y,
        "sigma": f"{sigma.value:.12f}",
        "distance": report.distance,
        "kappa": None if report.kappa is None else transport.fraction_str(report.kappa),
        "fully_dissimilar": report.fully_dissimilar,
    }
    if report.lower_bound is not None:
        row["lower_bound"] = transport.fraction_str(report.lower_bound)
        row["upper_bound"] = transport.fraction_str(report.upper_bound)
    return row


def cmd_similarity(input_file, pairs, all_pairs, hyper, walk, check_bounds):
    """Similarity reports (cosine, curvature, bounds) as JSON."""
    structure, walk, wanted = _pairs_input(input_file, pairs, all_pairs, hyper, walk)
    rows = []
    violations = 0
    for report in similarity.similarity_reports(structure, wanted, walk):
        sigma = similarity.CosineData(report.eta, report.d_x, report.d_y)
        rows.append(_sim_row(report, sigma))
        if check_bounds and report.kappa is not None and not hyper:
            if not similarity.bounds_hold(sigma, report.distance, report.kappa):
                violations += 1
    print(json_text({"pairs": rows}))
    if check_bounds and violations:
        print(f"bound violations: {violations}", file=sys.stderr)
        sys.exit(1)


def cmd_fixtures():
    """Run the bundled fixture corpus and print a pass/fail table."""
    failed = 0
    for name, ok in fixtures.checks():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failed += 1
    print(f"{'all checks passed' if not failed else f'{failed} check(s) failed'}")
    if failed:
        sys.exit(1)


# An option takes `nargs` values, or none for a flag. Each value is taken
# verbatim, even when it starts with "-": `--pair -a b` names vertex "-a".
Option = collections.namedtuple(
    "Option", "dest nargs type choices default required repeat help",
    defaults=(1, str, None, None, False, False, ""),
)
_INPUT = ("INPUT_FILE",)
_HYPER = Option("hyper", 0, help="Parse the input as a hypergraph.")
_PAIRS = {"--pair": Option("pairs", 2, repeat=True, help="Vertex pair; repeatable."),
          "--all": Option("all_pairs", 0, help="All pairs per component."),
          "--hyper": _HYPER}

# Command -> (function, positional input files, options by flag).
COMMANDS = {
    "curv": (cmd_curvature, _INPUT, {**_PAIRS, "--walk": Option(
        "walk", choices=("en", "ee"), default="en",
        help="Hypergraph random walk (ignored for graphs).")}),
    "fixtures": (cmd_fixtures, (), {}),
    "neigh": (cmd_neighborhood, _INPUT, {
        "--n": Option("n", type=int, required=True, help="Neighbourhood order."),
        "--mode": Option("mode", choices=("nb", "path", "walk"), default="path"),
        "--hyper": _HYPER,
        "--check-inclusions": Option("check_inclusions", 0,
                                     help="Also verify the mode chain."),
    }),
    "partition": (cmd_partition, _INPUT, {
        "--method": Option("method", required=True, choices=(
            "g2", "gn", "structural", "subcliques", "triangle-removal",
            "kcycle-removal", "h2", "hn")),
        "--n": Option("n", type=int, help="Order for gn/hn."),
        "--k": Option("k", type=int, help="Cycle length for kcycle-removal."),
        "--remove": Option("removed", repeat=True, help="Edge 'u,v'; repeatable."),
        "--block": Option("chosen", repeat=True,
                          help="Comma-separated vertex set for subcliques; repeatable."),
    }),
    "sim": (cmd_similarity, _INPUT, {
        **_PAIRS,
        "--walk": Option("walk", choices=("ee", "en", "graph"), default="graph"),
        "--check-bounds": Option("check_bounds", 0,
                                 help="Exit 1 if any curvature bound is violated."),
    }),
    "verify": (cmd_verify, (*_INPUT, "PARTITION_FILE"), {
        "--notion": Option("notion", required=True, choices=tuple(_VERIFIERS)),
    }),
}


def _value(flag, option, text):
    if option.type is int:
        return _integer(flag, text)
    if option.choices and text not in option.choices:
        raise UsageError(f"{flag} must be one of {', '.join(option.choices)}; got {text!r}")
    return text


def _existing_file(name, path):
    if not os.path.exists(path):
        raise UsageError(f"{name} {path!r} does not exist")
    if os.path.isdir(path):
        raise UsageError(f"{name} {path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise UsageError(f"{name} {path!r} is not readable")
    return path


def parse_args(command, argv):
    """The keyword arguments of `command` from `argv`, or None for --help."""
    _, files, options = COMMANDS[command]
    values = {o.dest: [] if o.repeat else o.default for o in options.values()}
    positional = []
    rest = argv[::-1]  # the next argument is last
    while rest:
        arg = rest.pop()
        if arg == "--":
            positional += reversed(rest)
            break
        if arg[:1] != "-" or arg == "-":
            positional.append(arg)
            continue
        flag, inline, text = arg.partition("=")
        if flag == "--help":
            return None
        option = options.get(flag)
        if option is None:
            raise UsageError(f"no such option {flag!r}")
        if inline:
            if not option.nargs:
                raise UsageError(f"option {flag} takes no value")
            rest.append(text)
        if len(rest) < option.nargs:
            raise UsageError(f"option {flag} requires {option.nargs} value(s)")
        given = [_value(flag, option, rest.pop()) for _ in range(option.nargs)]
        value = tuple(given) if option.nargs > 1 else given[0] if given else True
        if option.repeat:
            values[option.dest].append(value)
        else:
            values[option.dest] = value
    if len(positional) < len(files):
        raise UsageError(f"missing argument {files[len(positional)]}")
    if len(positional) > len(files):
        raise UsageError(f"unexpected extra argument {positional[len(files)]!r}")
    for flag, option in options.items():
        if option.required and values[option.dest] is None:
            raise UsageError(f"missing option {flag}")
    for name, path in zip(files, positional):
        values[name.lower()] = _existing_file(name, path)
    return values


def usage(prog, command=None):
    """The --help text of the program, or of one command."""
    if command is None:
        head = [f"{prog} COMMAND [ARGS]...",
                "Equivalences of graphs and hypergraphs via curvature and neighbourhoods.",
                "Commands (COMMAND --help lists its options):"]
        rows = [(name, run.__doc__) for name, (run, _, _) in COMMANDS.items()]
    else:
        run, files, options = COMMANDS[command]
        head = [f"{prog} {command} [OPTIONS] {' '.join(files)}", run.__doc__, "Options:"]
        rows = []
        for flag, o in options.items():
            values = [o.type.__name__.upper()] * o.nargs  # STR or INT, once per value
            metavar = " ".join([f"[{'|'.join(o.choices)}]"] if o.choices else values)
            note = "  [required]" if o.required else ""
            rows.append((f"{flag} {metavar}".rstrip(), o.help + note))
        rows.append(("--help", "Show this message and exit."))
    width = min(max(len(left) for left, _ in rows), 24)  # a longer one pushes its help
    rows = [f"  {left:{width}}  {right}".rstrip() for left, right in rows]
    return "\n".join([f"Usage: {head[0]}".rstrip(), "", f"  {head[1]}", "", head[2], *rows])


def main(args=None, prog_name=None, standalone_mode=True):
    """Run one command line (`sys.argv[1:]` by default); on an error, exit with its code.

    The signature is click's `Group.main`, which callers still use; `standalone_mode`
    changes nothing."""
    argv = sys.argv[1:] if args is None else list(args)
    prog = prog_name or main.name
    try:
        if not argv:
            raise UsageError(f"missing command, one of {', '.join(COMMANDS)}")
        command, argv = argv[0], argv[1:]
        if command == "--help":
            print(usage(prog))
        elif command not in COMMANDS:
            kind = "option" if command.startswith("-") else "command"
            raise UsageError(f"no such {kind} {command!r}")
        elif (values := parse_args(command, argv)) is None:
            print(usage(prog, command))
        else:
            COMMANDS[command][0](**values)
    except EquivCurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except BrokenPipeError:  # the reader has gone, as with `| head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


main.main = main  # click's Group had these; bench/run.py and CliRunner use them
main.name = "equivcurv"


if __name__ == "__main__":  # pragma: no cover
    main()
