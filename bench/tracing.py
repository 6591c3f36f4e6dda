"""Outside-in span tracing of the equivcurv layers, for the traced run only.

Span wrappers live here, not in the program. `Tracer.install()` replaces each
public function below at every place it is looked up: the CLI and the
similarity module import `orc` by name, and partitions imports
`neighborhood_graph` and the verifiers by name, so patching only the defining
module would miss those calls. Methods are patched on their class.

A span is `[name, start_ns, end_ns, parent_index, invocation]`. Spans stay in
memory; a layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

ROOT = "cli"

# (module, qualified name) -> per-layer metric that takes its self time.
TIMED = {
    ("core", "parse_graph"): "core.parse_s",
    ("core", "parse_hypergraph"): "core.parse_s",
    ("core", "Graph.distance"): "core.bfs_s",
    ("core", "Graph.distances_from"): "core.bfs_s",
    ("core", "Hypergraph.distance"): "core.bfs_s",
    ("core", "Hypergraph.distances_from"): "core.bfs_s",
    ("core", "Graph.has_loops"): "core.has_loops_s",
    ("core", "Hypergraph.has_loops"): "core.has_loops_s",
    ("core", "Graph.connected_components"): "core.components_s",
    ("core", "Hypergraph.is_connected"): "core.components_s",
    ("transport", "neighbor_measure"): "transport.measure_s",
    ("transport", "en_measure"): "transport.measure_s",
    ("transport", "ee_measure"): "transport.measure_s",
    ("transport", "wasserstein1"): "transport.w1_s",
    ("transport", "Coupling.__init__"): "transport.witness_s",
    ("transport", "orc"): "transport.orc_s",
    ("transport", "en_orc"): "transport.orc_s",
    ("transport", "ee_orc"): "transport.orc_s",
    ("neighborhood", "neighborhood_graph"): "neighborhood.build_s",
    ("neighborhood", "hyper_neighborhood_graph"): "neighborhood.build_s",
    ("equivalence", "is_regular_partition"): "equivalence.verify_s",
    ("equivalence", "is_weak_regular_partition"): "equivalence.verify_s",
    ("partitions", "regular_from_g2"): "partitions.construct_s",
    ("partitions", "regular_from_gn"): "partitions.construct_s",
    ("partitions", "weak_regular_from_h2"): "partitions.construct_s",
    ("similarity", "similarity_report"): "similarity.report_s",
    ("similarity", "cosine_similarity"): "similarity.bounds_s",
    ("similarity", "bounds_hold"): "similarity.bounds_s",
}

# Time metric -> call-count metric, where the layer reports its calls.
CALLS = {
    "core.bfs_s": "core.bfs_rows",
    "core.has_loops_s": "core.has_loops_calls",
    "transport.measure_s": "transport.measure_calls",
    "transport.w1_s": "transport.w1_calls",
}


def _cells(args, result):
    return len(args[0].masses) * len(args[1].masses)


def _edges_out(args, result):
    return result.graph.n_edges()


def _block_pairs(args, result):
    return sum(len(b) * (len(b) - 1) // 2 for b in args[1].blocks)


# Function name -> (counter, work read from the call's arguments and result).
WORK = {
    "wasserstein1": ("transport.cells", _cells),
    "neighborhood_graph": ("neighborhood.edges_out", _edges_out),
    "hyper_neighborhood_graph": ("neighborhood.edges_out", _edges_out),
    "is_regular_partition": ("equivalence.block_pairs", _block_pairs),
    "is_weak_regular_partition": ("equivalence.block_pairs", _block_pairs),
}

TIME_METRICS = sorted(set(TIMED.values()) | {"cli.self_s"})
COUNT_METRICS = sorted(set(CALLS.values()) | {counter for counter, _ in WORK.values()})


class Tracer:
    """Records spans and work counts while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []
        self.work = Counter()
        self._stack = []
        self._restore = []
        self.invocation = 0

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, self.work
        counter, amount = WORK.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter_ns(), 0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = perf_counter_ns()
            if counter is not None:
                work[counter] += amount(args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "equivcurv" or n.startswith("equivcurv.")]
        for module_name, qualname in TIMED:
            module = sys.modules[f"equivcurv.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, attr, self._wrap(qualname, vars(owner)[attr]))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def root(self, fn, *args, **kwargs):
        """Run fn as the root span of a new invocation."""
        self.invocation += 1
        return self._wrap(ROOT, fn)(*args, **kwargs)


def self_times(spans):
    """Per-span self time in ns: duration minus the durations of its children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer):
    """Per-layer seconds and counts from the tracer's spans and work counters."""
    metric_of = {qualname: metric for (_, qualname), metric in TIMED.items()}
    metric_of[ROOT] = "cli.self_s"
    seconds = Counter()
    calls = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        metric = metric_of[span[0]]
        seconds[metric] += own
        calls[metric] += 1
    out = {name: seconds[name] / 1e9 for name in TIME_METRICS}
    for time_metric, count_metric in CALLS.items():
        out[count_metric] = calls[time_metric]
    for name in COUNT_METRICS:
        out.setdefault(name, tracer.work[name])
    return out
