"""Tests for the parallel execution engine and its determinism contract.

The engine's promise is that ``jobs`` is a throughput knob, never a
semantics knob: any job count produces bit-identical results and merged
metrics. That is checked at both integration points — the raw
:func:`~repro.parallel.parallel_map` and the experiment suite sharding.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from helpers import array_payload, assert_payloads_equal
from repro.obs import get_registry, instrumented, set_registry
from repro.obs.exporters import flatten_snapshot, to_snapshot
from repro.obs.registry import MetricsRegistry
from repro.parallel import (
    ParallelTaskError,
    fork_available,
    parallel_map,
    resolve_jobs,
    strip_transport_metrics,
)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="requires fork start method")


def _square(x):
    return x * x


def _ipc_map(fn, items, jobs):
    """``parallel_map`` under a fresh registry; returns the results and
    the bytes the pool moved through its pipes."""
    with instrumented() as registry:
        results = parallel_map(fn, items, jobs=jobs)
    flat = flatten_snapshot(to_snapshot(registry))
    return results, flat.get("repro_parallel_ipc_bytes_total", 0.0)


class TestExecutor:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_map_preserves_order_serial(self):
        assert (parallel_map(_square, range(10), jobs=1)
                == [x * x for x in range(10)])

    @needs_fork
    def test_map_preserves_order_forked(self):
        assert (parallel_map(_square, range(23), jobs=4)
                == [x * x for x in range(23)])

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_seeded_map_identical_across_job_counts(self):
        def draw(index):
            rng = np.random.default_rng(index)
            return rng.integers(0, 1 << 30, 3).tolist()

        serial = parallel_map(draw, range(8), jobs=1)
        if fork_available():
            assert parallel_map(draw, range(8), jobs=3) == serial

    @needs_fork
    def test_worker_error_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("worker exploded")
            return x

        with pytest.raises(RuntimeError, match="worker exploded"):
            parallel_map(boom, range(6), jobs=2)

    @needs_fork
    def test_worker_error_carries_task_index(self):
        def boom(x):
            if x == 4:
                raise ValueError("task died")
            return x

        with pytest.raises(ParallelTaskError, match=r"task 4 failed") \
                as excinfo:
            parallel_map(boom, range(6), jobs=2)
        assert excinfo.value.task_index == 4
        assert "ValueError('task died')" in str(excinfo.value)
        assert "worker traceback" in str(excinfo.value)

    def test_serial_error_same_type_as_forked(self):
        """The serial fallback raises the identical typed error, with the
        failing task index in the message and the original exception
        chained."""
        def boom(x):
            if x == 2:
                raise KeyError("native")
            return x

        with pytest.raises(ParallelTaskError, match=r"task 2 failed") \
                as excinfo:
            parallel_map(boom, range(4), jobs=1)
        assert excinfo.value.task_index == 2
        assert isinstance(excinfo.value.__cause__, KeyError)


class TestResultTransport:
    """Results ride the per-worker pipes: arrays come back bit-identical
    to the serial path, and the pool counts every byte in
    ``repro_parallel_ipc_bytes_total``."""

    @needs_fork
    def test_forked_array_results_equal_serial(self):
        serial, serial_bytes = _ipc_map(array_payload, range(6), jobs=1)
        forked, forked_bytes = _ipc_map(array_payload, range(6), jobs=2)
        assert_payloads_equal(serial, forked)
        assert serial_bytes == 0
        assert forked_bytes > 0

    @needs_fork
    def test_large_result_crosses_the_pipe_unchanged(self):
        def block(index):
            # 2560 x 1024 float32: 10 MiB in one result.
            rng = np.random.default_rng(index)
            return rng.standard_normal((2560, 1024)).astype(np.float32)

        serial = parallel_map(block, range(2), jobs=1)
        forked, forked_bytes = _ipc_map(block, range(2), jobs=2)
        for expected, got in zip(serial, forked, strict=True):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        assert forked_bytes > 2 * serial[0].nbytes

    @needs_fork
    def test_run_leaves_no_helper_process(self):
        """A fleet run with the shared cache tier, then a forked map, in
        a fresh interpreter: afterwards no multiprocessing resource
        tracker runs and no child process is alive."""
        script = textwrap.dedent("""
            import multiprocessing
            from multiprocessing import resource_tracker

            from repro.parallel import parallel_map
            from repro.serve import CacheTierConfig, FleetSpec
            from repro.serve.fleet import fleet_demo_dataset, simulate_fleet

            report = simulate_fleet(
                "fastgl", fleet_demo_dataset(),
                fleet=FleetSpec(cache=CacheTierConfig(enabled=True)))
            assert report.cache is not None and report.cache.lookups > 0
            magnitudes = parallel_map(abs, range(-3, 3), jobs=2)
            assert magnitudes == [3, 2, 1, 0, 1, 2]
            assert resource_tracker._resource_tracker._fd is None
            assert multiprocessing.active_children() == []
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get(
            "PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


class TestMetricsMerging:
    def _counting_task(self, x):
        get_registry().counter("parallel_test_work_total").inc(x)
        get_registry().histogram("parallel_test_size").observe(float(x))
        return x

    def _run(self, jobs):
        parent = MetricsRegistry()
        previous = get_registry()
        set_registry(parent)
        try:
            out = parallel_map(self._counting_task, range(1, 21), jobs=jobs)
        finally:
            set_registry(previous)
        return out, flatten_snapshot(to_snapshot(parent))

    def test_metrics_identical_serial_vs_forked(self):
        serial_out, serial_metrics = self._run(jobs=1)
        assert serial_metrics["parallel_test_work_total"] == 210.0
        assert serial_metrics["parallel_test_size_count"] == 20.0
        if fork_available():
            forked_out, forked_metrics = self._run(jobs=4)
            assert forked_out == serial_out
            # The transport byte counters measure the transport itself
            # (zero under the serial fallback, real bytes when forked);
            # everything the tasks recorded must fold bit-identically.
            assert strip_transport_metrics(forked_metrics) == serial_metrics
            assert forked_metrics["repro_parallel_ipc_bytes_total"] > 0


class TestSuiteDeterminism:
    """``python -m repro.experiments --jobs N`` shards experiments without
    changing a single row."""

    EXPERIMENTS = ("tab04", "tab01")

    def _render(self, jobs):
        from repro.experiments.__main__ import run_suite

        return {
            exp_id: result.render()
            for exp_id, result, _ in run_suite(self.EXPERIMENTS, jobs=jobs)
        }

    @needs_fork
    def test_suite_rows_identical(self):
        assert self._render(jobs=1) == self._render(jobs=2)
