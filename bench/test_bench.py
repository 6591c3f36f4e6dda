"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench
"""

import json

import pytest

import tracing
from run import Outcome, in_process_args, invoke, load_cli
from workloads import WORKLOADS

TINY = {
    "graph-all-pairs": dict(n=8, m=12),
    "hyper-ee-all-pairs": dict(n=6, extra=4),
    "large-graph-queries": dict(n=60, m=120, edge_pairs=3, random_pairs=2),
    "neighbourhood-partitions": dict(n=10, m=20, bip_n=10, bip_m=14, hyper_n=8, hyper_extra=6),
}


def tiny_plan(name, seed, directory=None):
    build, _ = WORKLOADS[name]
    plan = build(seed, **TINY[name])
    if directory is not None:
        plan.write(directory)
    return plan


def _files(plan):
    return [(i.filename, i.text) for i in plan.inputs] + [c.args for c in plan.commands]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_determines_inputs(name):
    assert _files(tiny_plan(name, 5)) == _files(tiny_plan(name, 5))
    assert _files(tiny_plan(name, 5)) != _files(tiny_plan(name, 6))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_outputs_pass_checks(name, tmp_path):
    plan = tiny_plan(name, 3, tmp_path)
    outcome = Outcome({})
    for command in plan.commands:
        outcome.record(command, *invoke(load_cli(), in_process_args(command, tmp_path)))
    assert outcome.problems == []
    assert outcome.attempted == len(plan.commands)


def _curv_output(tmp_path):
    plan = tiny_plan("graph-all-pairs", 3, tmp_path)
    command = plan.commands[0]
    code, stdout, stderr = invoke(load_cli(), in_process_args(command, tmp_path))
    return command, code, stdout, stderr


def _failures(command, code, stdout, stderr):
    outcome = Outcome({})
    outcome.record(command, code, stdout, stderr)
    return outcome.failed


def test_altered_kappa_is_a_failure(tmp_path):
    command, code, stdout, stderr = _curv_output(tmp_path)
    assert _failures(command, code, stdout, stderr) == 0
    data = json.loads(stdout)
    row = data["pairs"][0]
    row["kappa"] = "1/7" if row["kappa"] != "1/7" else "2/7"
    altered = json.dumps(data, indent=2).encode() + b"\n"
    assert _failures(command, code, altered, stderr) == 1


def test_truncated_json_is_a_failure(tmp_path):
    command, code, stdout, stderr = _curv_output(tmp_path)
    assert _failures(command, code, stdout[: len(stdout) // 2], stderr) == 1


def test_exit_code_traceback_and_reference_mismatch_are_failures(tmp_path):
    command, code, stdout, stderr = _curv_output(tmp_path)
    assert _failures(command, 3, stdout, stderr) == 1
    assert _failures(command, code, stdout, b"Traceback (most recent call last):\n") == 1
    outcome = Outcome({command.label: "0" * 64})
    outcome.record(command, code, stdout, stderr)
    assert outcome.failed == 1


def test_changed_repetition_is_a_failure(tmp_path):
    command, code, stdout, stderr = _curv_output(tmp_path)
    outcome = Outcome({})
    outcome.record(command, code, stdout, stderr)
    outcome.record(command, code, stdout.replace(b'"distance": 1', b'"distance": 2'), stderr)
    assert (outcome.attempted, outcome.failed) == (2, 1)


def test_span_tree_is_well_formed(tmp_path):
    cli = load_cli()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in sorted(WORKLOADS):
            directory = tmp_path / name
            for command in tiny_plan(name, 4, directory).commands:
                code, _, _ = invoke(cli, in_process_args(command, directory), tracer)
                assert code == 0
    finally:
        tracer.uninstall()
    spans = tracer.spans
    own = tracing.self_times(spans)
    assert all(t >= 0 for t in own)
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    assert [spans[i][0] for i in roots] == [tracing.ROOT] * len(roots)
    for i, (_, start, end, parent, invocation) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i and spans[parent][4] == invocation
            assert spans[parent][1] <= start and end <= spans[parent][2]
    for root in roots:
        in_tree = [own[i] for i, s in enumerate(spans) if s[4] == spans[root][4]]
        assert sum(in_tree) == spans[root][2] - spans[root][1]
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS)
    assert metrics["transport.w1_calls"] > 0 and metrics["core.bfs_rows"] > 0


def test_tracer_restores_the_program(tmp_path):
    cli = load_cli()
    before = (cli.orc, cli.parse_graph, cli.similarity_report)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.orc is not before[0]
    tracer.uninstall()
    assert (cli.orc, cli.parse_graph, cli.similarity_report) == before
