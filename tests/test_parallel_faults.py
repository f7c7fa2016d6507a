"""Chaos tests for the supervised worker pool, and the epoch's fault-key
pins.

Injected ``worker_crash`` faults kill forked workers mid-map (via
``os._exit``, the moral equivalent of an OOM kill); the supervisor must
detect the loss, respawn, and reassign the task — producing results
bit-identical to a crash-free serial run, because tasks are pure
functions of their item.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import array_payload, assert_payloads_equal
from repro import api
from repro.config import RunConfig
from repro.errors import WorkerCrashError
from repro.faults import FaultPlan, FaultSpec, fault_scope, set_fault_plan
from repro.graph.datasets import DATASETS, Dataset
from repro.obs import instrumented
from repro.obs.exporters import flatten_snapshot, to_snapshot
from repro.parallel import MAX_CRASHES, fork_available, parallel_map
from repro.pipeline import ExecutionSpec

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="requires fork start method")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    set_fault_plan(None)
    yield
    set_fault_plan(None)


def _crash_plan(max_failures=1):
    """Every task's first ``max_failures`` attempts crash the worker."""
    return FaultPlan(seed=0, sites={
        "worker_crash": FaultSpec(probability=1.0,
                                  max_failures=max_failures),
    })


def _draw(index):
    return np.random.default_rng(index).integers(0, 1 << 30, 3).tolist()


class TestCrashRecovery:
    @needs_fork
    def test_reassigned_chunks_match_serial(self):
        serial = parallel_map(_draw, range(6), jobs=1)
        with fault_scope(_crash_plan()) as plan:
            forked = parallel_map(_draw, range(6), jobs=2)
            # Every task lost a worker exactly once and was recomputed.
            assert plan.fired("worker_crash") == 6
        assert forked == serial

    @needs_fork
    def test_recovered_array_results_match_serial(self):
        serial = parallel_map(array_payload, range(6), jobs=1)
        with fault_scope(_crash_plan()) as plan:
            forked = parallel_map(array_payload, range(6), jobs=2)
            assert plan.fired("worker_crash") == 6
        assert_payloads_equal(serial, forked)

    @needs_fork
    def test_crash_budget_exhaustion_raises(self):
        with fault_scope(_crash_plan(max_failures=5)):
            with pytest.raises(WorkerCrashError) as excinfo:
                parallel_map(_draw, range(4), jobs=2)
        assert excinfo.value.crashes > MAX_CRASHES
        assert "chunk" in str(excinfo.value)

    @needs_fork
    def test_crashes_counted_in_metrics(self):
        with instrumented() as registry:
            with fault_scope(_crash_plan()):
                parallel_map(_draw, range(4), jobs=2)
        flat = flatten_snapshot(to_snapshot(registry))
        assert flat["repro_parallel_worker_crashes_total"] == 4.0

    def test_serial_path_ignores_crash_site(self):
        """The crash site models worker-process loss; the serial path has
        no workers to lose and must stay fault-free."""
        with fault_scope(_crash_plan()) as plan:
            out = parallel_map(_draw, range(4), jobs=1)
        assert plan.fired("worker_crash") == 0
        assert out == parallel_map(_draw, range(4), jobs=1)


class TestEpochChaosDeterminism:
    """Recovered transfer faults are keyed per batch: the epoch reserves
    one ``pcie_stall`` key per batch, lane-major, and an out-of-core
    submit draws ``storage_slow`` with its batch's key. These pins hold
    the modeled time those keys give (recorded when trainer lanes could
    still run in forked workers, where both prices matched the serial
    run's)."""

    def test_pcie_stall_time_independent_of_jobs(self):
        """Recovered ``pcie_stall`` faults on a 5-GPU, 3-epoch pyg run
        cost exactly the pinned modeled time and retries."""
        spec = replace(DATASETS["products"], num_nodes=900,
                       train_fraction=0.3)
        dataset = Dataset(spec, seed=0)
        config = RunConfig(num_gpus=5, num_epochs=3, batch_size=32, seed=0)
        plan = FaultPlan(seed=99, sites={
            "pcie_stall": FaultSpec(probability=0.3, max_failures=2)})
        report = api.run("pyg", dataset, config=config,
                         exec=ExecutionSpec(faults=plan))
        assert report.epoch_time.hex() == "0x1.1bdbd97a67f9bp-7"
        assert report.transfer.num_retries == 11

    def test_storage_slow_time_independent_of_jobs(self):
        """Out-of-core ``storage_slow`` delays on a 5-GPU dgl-ooc epoch
        cost exactly the pinned modeled time."""
        spec = replace(DATASETS["products"], num_nodes=900,
                       train_fraction=0.3)
        dataset = Dataset(spec, seed=0)
        config = RunConfig(num_gpus=5, num_epochs=1, batch_size=32, seed=0)
        plan = FaultPlan(seed=99, sites={
            "storage_slow": FaultSpec(probability=0.5, delay_s=1e-4)})
        report = api.run("dgl-ooc", dataset, config=config,
                         exec=ExecutionSpec(faults=plan))
        assert report.epoch_time.hex() == "0x1.8c632bbb87752p-10"
        assert sum(event.site == "storage_slow"
                   for event in plan.events) == 5
