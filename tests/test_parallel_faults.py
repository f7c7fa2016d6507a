"""Chaos tests for the supervised worker pool.

Injected ``worker_crash`` faults kill forked workers mid-map (via
``os._exit``, the moral equivalent of an OOM kill); the supervisor must
detect the loss, respawn, and reassign the chunk — producing results
bit-identical to a crash-free serial run, because chunks are pure
functions of ``(chunk_index, seed)``.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import array_payload, assert_payloads_equal
from repro import api
from repro.config import RunConfig
from repro.errors import WorkerCrashError
from repro.faults import FaultPlan, FaultSpec, fault_scope, set_fault_plan
from repro.frameworks import FastGLFramework
from repro.graph.datasets import DATASETS, Dataset
from repro.obs import get_registry, set_registry
from repro.obs.exporters import flatten_snapshot, to_snapshot
from repro.obs.registry import MetricsRegistry
from repro.parallel import ParallelExecutor, fork_available
from repro.pipeline import ExecutionSpec

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="requires fork start method")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _crash_plan(max_failures=1):
    """Every chunk's first ``max_failures`` attempts crash the worker."""
    return FaultPlan(seed=0, sites={
        "worker_crash": FaultSpec(probability=1.0,
                                  max_failures=max_failures),
    })


def _draw(index, rng):
    return rng.integers(0, 1 << 30, 3).tolist()


class TestCrashRecovery:
    @needs_fork
    def test_reassigned_chunks_match_serial(self):
        serial = ParallelExecutor(jobs=1).map(_draw, range(6), seed=11)
        with fault_scope(_crash_plan()) as plan:
            forked = ParallelExecutor(jobs=2).map(_draw, range(6), seed=11)
            # Every chunk lost a worker exactly once and was recomputed.
            assert plan.fired("worker_crash") == 6
        assert forked == serial

    @needs_fork
    def test_recovered_array_results_match_serial(self):
        serial = ParallelExecutor(jobs=1).map(array_payload, range(6),
                                              seed=3)
        with fault_scope(_crash_plan()) as plan:
            forked = ParallelExecutor(jobs=2).map(array_payload, range(6),
                                                  seed=3)
            assert plan.fired("worker_crash") == 6
        assert_payloads_equal(serial, forked)

    @needs_fork
    def test_crash_budget_exhaustion_raises(self):
        with fault_scope(_crash_plan(max_failures=5)):
            with pytest.raises(WorkerCrashError) as excinfo:
                ParallelExecutor(jobs=2, max_crashes=2).map(
                    _draw, range(4), seed=0)
        assert excinfo.value.crashes > 2
        assert "chunk" in str(excinfo.value)

    @needs_fork
    def test_crashes_counted_in_metrics(self):
        registry = MetricsRegistry()
        previous = get_registry()
        set_registry(registry)
        try:
            with fault_scope(_crash_plan()):
                ParallelExecutor(jobs=2).map(_draw, range(4), seed=3)
        finally:
            set_registry(previous)
        flat = flatten_snapshot(to_snapshot(registry))
        assert flat["repro_parallel_worker_crashes_total"] == 4.0

    def test_serial_path_ignores_crash_site(self):
        """The crash site models worker-process loss; the serial path has
        no workers to lose and must stay fault-free."""
        with fault_scope(_crash_plan()) as plan:
            out = ParallelExecutor(jobs=1).map(_draw, range(4), seed=11)
        assert plan.fired("worker_crash") == 0
        assert out == ParallelExecutor(jobs=1).map(_draw, range(4), seed=11)

    def test_max_crashes_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1, max_crashes=0)


class TestEpochChaosDeterminism:
    """The headline chaos property: a forked epoch whose workers crash
    and are reassigned is bit-for-bit the serial epoch."""

    def _run(self, tiny_dataset, jobs, plan=None):
        config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=2,
                           hidden_dim=8, seed=3, train_model=True)
        parent = MetricsRegistry()
        previous = get_registry()
        set_registry(parent)
        try:
            report = FastGLFramework().run_epoch(
                tiny_dataset, config,
                execution=ExecutionSpec(jobs=jobs, faults=plan))
        finally:
            set_registry(previous)
        return report, flatten_snapshot(to_snapshot(parent))

    @needs_fork
    def test_epoch_under_worker_crashes_is_bit_identical(self, tiny_dataset):
        serial, serial_metrics = self._run(tiny_dataset, jobs=1)
        plan = _crash_plan()
        chaos, chaos_metrics = self._run(tiny_dataset, jobs=2, plan=plan)
        assert plan.fired("worker_crash") > 0

        assert chaos.losses == serial.losses
        assert chaos.epoch_time == serial.epoch_time
        assert chaos.phases == serial.phases
        assert chaos.memory_peak_bytes == serial.memory_peak_bytes
        assert chaos.transfer.feature_bytes == serial.transfer.feature_bytes
        for expected, actual in zip(serial.final_params,
                                    chaos.final_params):
            np.testing.assert_array_equal(expected, actual)

        # Merged metrics agree except the crash bookkeeping and the
        # transport byte counters (jobs-dependent by design).
        crash_keys = {
            key for key in chaos_metrics
            if key.startswith(("repro_parallel_worker_crashes_total",
                               "repro_faults_injected_total",
                               "repro_parallel_ipc_bytes_total"))
        }
        trimmed = {key: value for key, value in chaos_metrics.items()
                   if key not in crash_keys}
        assert trimmed == serial_metrics
        assert any("worker_crashes" in key for key in crash_keys)

    @needs_fork
    def test_pcie_stall_time_independent_of_jobs(self):
        """Recovered ``pcie_stall`` faults cost the same modeled time at
        any job count: the epoch reserves one key per batch, lane-major,
        so a forked lane prices its transfers with the keys a serial run
        draws."""
        spec = replace(DATASETS["products"], num_nodes=900,
                       train_fraction=0.3)
        dataset = Dataset(spec, seed=0)
        config = RunConfig(num_gpus=5, num_epochs=3, batch_size=32, seed=0)
        runs = []
        for jobs in (1, 2):
            plan = FaultPlan(seed=99, sites={
                "pcie_stall": FaultSpec(probability=0.3, max_failures=2)})
            report = api.run("pyg", dataset, config=config,
                             exec=ExecutionSpec(jobs=jobs, faults=plan))
            runs.append((report.epoch_time.hex(),
                         report.transfer.num_retries, report.phases))
        assert runs[1] == runs[0]
        assert runs[0][1] > 0

    def test_storage_slow_time_independent_of_jobs(self):
        """Out-of-core ``storage_slow`` delays cost the same modeled time
        at any job count: each batch's submit draws the delay with the
        batch's lane-reserved fault key, not a per-process sequence."""
        spec = replace(DATASETS["products"], num_nodes=900,
                       train_fraction=0.3)
        dataset = Dataset(spec, seed=0)
        config = RunConfig(num_gpus=5, num_epochs=1, batch_size=32, seed=0)
        times = []
        for jobs in (1, 2):
            plan = FaultPlan(seed=99, sites={
                "storage_slow": FaultSpec(probability=0.5, delay_s=1e-4)})
            report = api.run("dgl-ooc", dataset, config=config,
                             exec=ExecutionSpec(jobs=jobs, faults=plan))
            times.append(report.epoch_time.hex())
            if jobs == 1:
                assert any(event.site == "storage_slow"
                           for event in plan.events)
        assert times[1] == times[0]
