"""Harness tests for the end-to-end benchmark.

Run with ``pytest benchmarks/e2e`` from the repository root (tier-1
collects only ``tests/``). Every workload runs at its ``--smoke`` size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from e2e import run as bench
from e2e import trace
from e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(bench.__file__).resolve()


@pytest.fixture(scope="module")
def smoke_states():
    return {name: w.setup(0, smoke=True) for name, w in WORKLOADS.items()}


def _targets() -> list:
    return [t for targets in trace.LAYERS.values() for t in targets]


def test_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert list(WORKLOADS) == list(bench.WORKLOAD_NAMES)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == bench.END_TO_END)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == bench.per_layer_units())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_runs_pass_output_checks(name, smoke_states):
    workload = WORKLOADS[name]
    first = workload.run(smoke_states[name])
    again = workload.run(smoke_states[name])
    assert workload.problems(first) == []
    assert workload.num_items(first) > 0
    assert workload.outputs(first) == workload.outputs(again)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_outputs_deterministically(name, smoke_states):
    workload = WORKLOADS[name]

    def outputs(state):
        return workload.outputs(workload.run(state))

    seed1 = outputs(workload.setup(1, smoke=True))
    assert seed1 == outputs(workload.setup(1, smoke=True))
    assert seed1 != outputs(smoke_states[name])


def test_uninstall_restores_every_target_exactly():
    before = {t: trace.resolve(t)[2] for t in _targets()}
    with trace.LayerTracer():
        assert all(trace.resolve(t)[2] is not raw
                   for t, raw in before.items())
    assert all(trace.resolve(t)[2] is raw for t, raw in before.items())


@pytest.mark.parametrize("target", [
    "repro.sampling.neighbor:NeighborSampler.renamed",
    "repro.transfer.loader:MatchLoader.plan",  # inherited, not defined
    "repro.no_such_module:f",
])
def test_stale_target_fails_before_patching_anything(target):
    good = "repro.sampling.neighbor:NeighborSampler.sample"
    original = trace.resolve(good)[2]
    tracer = trace.LayerTracer({"sampling": (good,), "stale": (target,)})
    with pytest.raises(trace.TraceTargetError):
        tracer.install()
    assert trace.resolve(good)[2] is original


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_sum_to_traced_wall(name, smoke_states):
    workload = WORKLOADS[name]
    untraced = workload.outputs(workload.run(smoke_states[name]))
    tracer = trace.LayerTracer()
    with tracer:
        start = time.perf_counter()
        report = workload.run(smoke_states[name])
        wall = time.perf_counter() - start
    table = tracer.attribution(wall)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(
        wall, rel=1e-9)
    assert all(row["self_s"] >= -1e-9 for row in table.values())
    assert sum(row["calls"] for row in table.values()) > 0
    assert workload.outputs(report) == untraced


def test_pin_comparison_tolerates_only_float_noise():
    pin = {"t": 0.1, "rows": [3, 4], "losses_sha": "a"}
    assert bench.outputs_match({"t": 0.1 * (1 + 1e-7), "rows": [3, 4],
                                "losses_sha": "b"}, pin)
    assert not bench.outputs_match({"t": 0.1 * (1 + 1e-3), "rows": [3, 4],
                                    "losses_sha": "a"}, pin)
    assert not bench.outputs_match({"t": 0.1, "rows": [3, 5],
                                    "losses_sha": "a"}, pin)


@pytest.mark.parametrize("trace_flag", [0, 1])
def test_cli_prints_one_result_line(trace_flag):
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "fleet-affinity",
         "--seed", "1", "--seconds", "1", "--trace", str(trace_flag),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = bench.per_layer_units() if trace_flag else bench.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN_PY.parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "train-dgl",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
