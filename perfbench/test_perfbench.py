"""Tests of the benchmark itself.  From the root of a checkout::

    python3 -m pytest perfbench -q

The full-length runs take about a minute and a half.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import speed
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _one_round(cli, name, seed=1):
    bench = run.Run(cli, name, seed, workloads.build_round(name, seed, 0))
    bench.measure(0, 1)
    return bench


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(name):
    argv = lambda seed, i: [op.argv for op in workloads.build_round(name, seed, i)]
    assert argv(1, 0) == argv(1, 0)
    assert argv(1, 1) == argv(1, 1)
    assert argv(1, 0) != argv(2, 0)
    assert argv(1, 0) != argv(1, 1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_full_length_run_completes_200_checked_ops(cli, name):
    seed = run.PLAN["committed_seed"]
    bench = run.Run(cli, name, seed, workloads.build_round(name, seed, 0))
    bench.measure(BENCHMARK["run_seconds"], 0)
    assert len(bench.durations) >= run.REFERENCE_OPS
    matched, total = run.check_committed_digests(bench)
    assert bench.failures == []
    assert matched == total == run.reference_ops(bench.first_round)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_wrapped_function_is_called_on_its_workload(cli, name):
    bench = _one_round(cli, name)
    tracer, _, _ = run.traced_replay(bench)
    metrics, missing = spans.layer_metrics(tracer, len(bench.reference), name)
    assert missing == []
    assert bench.failures == []  # the traced replay printed the same bytes
    for fn, home in spans.WRAPPED.items():
        if home == name:
            assert metrics[f"{fn}.calls"] > 0


def _corrupt_scan(data):
    row = next(r for p in data["phases"] for r in p["row_reduced"] if any(x.startswith("-") for x in r))
    j = next(j for j, x in enumerate(row) if x.startswith("-"))
    row[j] = row[j][1:]


def _corrupt_symmetric(data):
    data["group_order"] = str(int(data["group_order"]) * 2)


def _corrupt_lattice(data):
    j = next(j for j, x in enumerate(data["lift"]) if x != "0")
    data["lift"][j] = str(-int(data["lift"][j]))


def _corrupt_generate(lines):
    data = json.loads(lines[0])
    q = data["Q"]
    r = len(q)
    row = next(row for row in q if any(x != "0" for x in row[r:]))
    j = next(j for j in range(r, len(row)) if row[j] != "0")
    row[j] = str(-int(row[j]))
    lines[0] = json.dumps(data)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checker_rejects_a_corrupted_output(cli, name):
    # a planted scan model has a phase; at r = 1 a flipped sampled entry
    # always leaves the negative cone
    op = next(op for op in workloads.build_round(name, 1, 0)
              if (name != "scan" or op.expect["planted"])
              and (name != "generate" or (op.expect["r"], op.expect["n"]) == (1, 3)))
    code, stdout, _ = run.invoke(cli, op.argv)
    workloads.check(op, code, stdout, name)
    if name == "generate":
        lines = stdout.splitlines()
        _corrupt_generate(lines)
        bad = "\n".join(lines) + "\n"
    else:
        data = json.loads(stdout)
        {"scan": _corrupt_scan, "symmetric": _corrupt_symmetric, "lattice": _corrupt_lattice}[name](data)
        bad = json.dumps(data, indent=2) + "\n"
    with pytest.raises(workloads.CheckFailed):
        workloads.check(op, code, bad, name)


def test_benchmark_json_names_every_reported_metric(cli):
    bench = _one_round(cli, "generate")
    e2e = run.end_to_end(bench, 0.1)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(e2e)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == spans.layer_metric_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_package_the_benchmark_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_scaling_follows_the_kernel():
    ref = speed.REFERENCE_S
    assert speed.scale(0.5, ref, ref) == 0.5
    assert speed.scale(0.5, 2 * ref, 2 * ref) == 0.25
    assert speed.scale(0.5, ref, 3 * ref) == 0.25
