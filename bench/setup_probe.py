"""Child process that measures set-up: import the CLI and parse every input.

Usage: PYTHONPATH=src python3 bench/setup_probe.py graph=FILE hyper=FILE ...
Prints the elapsed nanoseconds. The clock starts after interpreter start-up,
so only the program's own import and structure construction are timed.
"""

import sys
from time import perf_counter_ns


def main(specs):
    start = perf_counter_ns()
    import equivcurv.cli as cli

    for spec in specs:
        kind, path = spec.split("=", 1)
        parse = cli.parse_hypergraph if kind == "hyper" else cli.parse_graph
        with open(path, encoding="utf-8") as fh:
            parse(fh.read())
    return perf_counter_ns() - start


if __name__ == "__main__":
    print(main(sys.argv[1:]))
