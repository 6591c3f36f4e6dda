"""Benchmark runner for the equivcurv CLI.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`. Inputs are
generated from `--seed` into `.bench_build/`. With `--trace 0` each command of
the workload runs in a fresh child process (`cli_child.py`, which runs
`equivcurv.cli` as `python -m` does), one at a time in a closed loop, and the
whole sequence repeats for `--seconds`; the end-to-end metrics are medians
over those repetitions, with times scaled by the canary (`canary.py`). With
`--trace 1` the same commands run in this process, alternately untraced and
traced, and the per-layer metrics come from the traced passes. Every output is checked; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter_ns

import checks
import tracing
from canary import REFERENCE_NS, Canary
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
REFERENCE = BENCH / "reference.json"

SETUP_SAMPLES = 9  # fresh children per run for setup_s
MIN_REPS = 3  # repetitions of the command sequence, even past --seconds
CHILD_LIMIT_S = 150  # a child still running after this is killed and counted as failed
RUN_SECONDS = 30  # default --seconds; BENCHMARK.json's run_seconds

END_TO_END = {"run_s": "s", "pairs_per_s": "pairs/s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    **{name: "s" for name in tracing.TIME_METRICS},
    **{name: "count" for name in tracing.COUNT_METRICS},
    "trace.overhead_ratio": "ratio",
}


def run_child(argv, cwd, out_path, err_path, env=None):
    """Run one child to completion; return (wall ns, exit code)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        return perf_counter_ns() - start, code


def quartiles(values):
    """(q1, median, q3); a single or repeated value stands for all three."""
    if len(values) < 2 or min(values) == max(values):
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


class Outcome:
    """Counts invocations and keeps the first problem of each failed one."""

    def __init__(self, reference):
        self.reference = reference  # label -> sha256, or {} when not checked
        self.digests = {}  # label -> sha256 of the first checked output
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, command, code, stdout, stderr):
        self.attempted += 1
        digest = hashlib.sha256(stdout).hexdigest()
        first = self.digests.get(command.label)
        if first is None:
            found = checks.problems(command, code, stdout, stderr)
            expected = self.reference.get(command.label, digest)
            if expected != digest:
                found.append("stdout differs from the stored reference")
            self.digests[command.label] = digest
        else:
            found = checks.problems_of_exit(code, stderr)
            if digest != first:
                found.append("stdout differs from the first repetition")
        if found:
            self.failed += 1
            self.problems.append(f"{command.label}: {found[0]}")


def measure_setup(plan, directory):
    """setup_s: the median over fresh children of import plus parsing.

    Each sample is scaled to the canary's reference speed as in `timed_run`.
    """
    specs = [f"{'hyper' if i.hyper else 'graph'}={i.filename}" for i in plan.inputs]
    argv = [sys.executable, str(BENCH / "setup_probe.py"), *specs]
    canary = Canary()
    samples = []
    for attempt in range(SETUP_SAMPLES + 1):  # the first one warms caches
        before = canary.measure()
        _, code = run_child(argv, directory, directory / "setup.out", directory / "setup.err")
        after = canary.measure()
        if code != 0:
            raise RuntimeError((directory / "setup.err").read_text(errors="replace"))
        if attempt:
            elapsed = int((directory / "setup.out").read_text())
            samples.append(elapsed * 2 * REFERENCE_NS / (before + after) / 1e9)
    return {"setup_s": (statistics.median(samples), samples)}


def timed_run(plan, directory, seconds, outcome):
    """Repeat the command sequence in child processes for `seconds`.

    Each command's wall time is scaled to the canary's reference speed, using
    the mean of the canary times measured just before and just after it.
    run_s adds up each command's median scaled time.
    """
    canary = Canary()
    scaled = {c.label: [] for c in plan.commands}
    sequences, peak_kib = [], 0
    pairs = sum(c.decided_pairs for c in plan.commands)
    before = canary.measure()
    start = perf_counter_ns()
    while len(sequences) < MIN_REPS or (
        perf_counter_ns() - start + statistics.median(sequences) <= seconds * 1e9
    ):
        total = 0
        for command in plan.commands:
            out, err, peak = (directory / f"cmd.{ext}" for ext in ("out", "err", "peak"))
            peak.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "cli_child.py"), *command.args]
            wall, code = run_child(argv, directory, out, err, {"BENCH_PEAK_FILE": str(peak)})
            after = canary.measure()
            scaled[command.label].append(wall * 2 * REFERENCE_NS / (before + after))
            before = after
            total += wall
            if peak.is_file():
                peak_kib = max(peak_kib, int(peak.read_text()))
            outcome.record(command, code, out.read_bytes(), err.read_bytes())
        sequences.append(total)
    run_s = sum(statistics.median(times) for times in scaled.values()) / 1e9
    sequence_s = [t / 1e9 for t in sequences]
    return {
        "run_s": (run_s, sequence_s),
        "pairs_per_s": (pairs / run_s, [pairs / t for t in sequence_s]),
        "peak_rss_mib": (peak_kib / 1024, [peak_kib / 1024]),
    }


def invoke(cli, args, tracer=None):
    """Run one CLI command in this process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                cli.main.main(args, standalone_mode=False)
            else:
                tracer.root(cli.main.main, args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a counted failure, not the end of the run
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def load_cli():
    """The program's CLI module, imported from the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import equivcurv.cli as cli

    return cli


def in_process_args(command, directory):
    """The command's arguments with its input file named by absolute path."""
    return [str(directory / a) if a == command.input.filename else a for a in command.args]


def traced_run(plan, directory, seconds, outcome):
    """Alternate untraced and traced in-process passes for `seconds`.

    Pass times and per-layer times are scaled to the canary's reference speed
    as in `timed_run`; each metric is the median over the traced passes.
    """
    cli = load_cli()
    canary = Canary()
    invocations = [(c, in_process_args(c, directory)) for c in plan.commands]
    plain, traced, layers = [], [], []
    before = canary.measure()
    start = perf_counter_ns()
    while len(traced) < MIN_REPS or (
        perf_counter_ns() - start + statistics.median(plain) + statistics.median(traced)
        <= seconds * 1e9
    ):
        tracer = tracing.Tracer()
        # Alternate which pass goes first, so drift in machine speed cancels
        # out of the overhead ratio.
        for tracing_on in (True, False) if len(traced) % 2 else (False, True):
            if tracing_on:
                tracer.install()
            try:
                began = perf_counter_ns()
                for command, args in invocations:
                    outcome.record(command, *invoke(cli, args, tracer if tracing_on else None))
                wall = perf_counter_ns() - began
            finally:
                tracer.uninstall()
            after = canary.measure()
            scale = 2 * REFERENCE_NS / (before + after)
            before = after
            (traced if tracing_on else plain).append(wall * scale)
            if tracing_on:
                layers.append({name: value * scale if name in tracing.TIME_METRICS else value
                               for name, value in tracing.layer_metrics(tracer).items()})
    with open(directory / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "invocation"],
                   "spans": tracer.spans}, fh)
    metrics = {}
    for name in layers[0]:
        samples = [pass_[name] for pass_ in layers]
        metrics[name] = (statistics.median_low(samples), samples)
    ratios = [t / p for t, p in zip(traced, plain)]
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), ratios)
    return metrics


def run_workload(name, seed, seconds, traced):
    """({metric: (reported value, samples)}, {metric: unit}, Outcome) of one run."""
    build, _ = WORKLOADS[name]
    plan = build(seed)
    directory = BUILD / f"{name}-seed{seed}"
    plan.write(directory)
    reference = {}
    if seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text())[name]
    outcome = Outcome(reference)
    if traced:
        return traced_run(plan, directory, seconds, outcome), PER_LAYER, outcome
    metrics = measure_setup(plan, directory)
    metrics.update(timed_run(plan, directory, seconds, outcome))
    return metrics, END_TO_END, outcome


def _show(value):
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def report(name, metrics, units, outcome):
    """Print one line per metric; return the result object for the last line."""
    print(f"== {name}")
    for metric, unit in units.items():
        value, samples = metrics[metric]
        q1, median, q3 = quartiles(samples)
        print(f"{metric:26s} {_show(value):>16s} {unit:8s} samples: median {_show(median)}, "
              f"q1 {_show(q1)}, q3 {_show(q3)}, n={len(samples)}")
    ratio = outcome.failed / outcome.attempted
    print(f"{'failed_ratio':26s} {ratio:16.6f} {'ratio':8s} "
          f"{outcome.failed} of {outcome.attempted} invocations failed")
    for problem in outcome.problems[:5]:
        print(f"  failure: {problem}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": metrics[m][0], "unit": u} for m, u in units.items()},
    }


def write_reference():
    """Store the sha256 of every command's stdout for the default seed."""
    digests = {}
    for name, (build, _) in WORKLOADS.items():
        plan = build(DEFAULT_SEED)
        directory = BUILD / f"{name}-seed{DEFAULT_SEED}"
        plan.write(directory)
        outcome = Outcome({})
        timed_run(plan, directory, 0, outcome)
        if outcome.failed:
            raise SystemExit(f"{name}: {outcome.problems[0]}")
        digests[name] = outcome.digests
    REFERENCE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the default seed and exit")
    args = parser.parse_args(argv)
    if not (SRC / "equivcurv" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'equivcurv'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        metrics, units, outcome = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = report(name, metrics, units, outcome)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
