"""Transport conformance: ``jobs`` is a throughput knob.

Every registered framework runs the same seeded epoch twice — serial
(``jobs=1``) and forked over the worker pipes (``jobs=2``) — and both
must agree bit for bit on everything the model and the cost model can
observe: per-batch losses, modeled epoch time and phase breakdown, the
iteration log, and the final parameters.

The *only* admissible differences are the transport byte counters
(:data:`repro.parallel.TRANSPORT_METRICS`) and the report's
``transport`` field — physical bookkeeping of how results moved between
processes, explicitly excluded from the determinism contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunConfig
from repro.frameworks import create
from repro.frameworks.registry import available_frameworks
from repro.parallel import fork_available
from repro.pipeline import ExecutionSpec

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="requires fork start method")


def _run_config() -> RunConfig:
    # Three GPUs: GNNLab gives one to its sampler, so every framework
    # has at least two trainer lanes and forks them at ``jobs=2``.
    return RunConfig(
        batch_size=32,
        fanouts=(3, 3),
        num_gpus=3,
        hidden_dim=8,
        seed=5,
        train_model=True,
    )


def _run(name, dataset, jobs: int):
    return create(name).run_epoch(dataset, _run_config(),
                                  execution=ExecutionSpec(jobs=jobs))


def _assert_reports_identical(baseline, candidate):
    assert candidate.losses == baseline.losses
    assert candidate.epoch_time == baseline.epoch_time
    assert candidate.phases == baseline.phases
    assert candidate.num_batches == baseline.num_batches
    assert candidate.memory_peak_bytes == baseline.memory_peak_bytes
    assert (candidate.transfer.feature_bytes
            == baseline.transfer.feature_bytes)
    assert candidate.iterations == baseline.iterations
    base_params = baseline.final_params
    cand_params = candidate.final_params
    assert len(base_params) == len(cand_params) > 0
    for expected, actual in zip(base_params, cand_params):
        np.testing.assert_array_equal(expected, actual)


@needs_fork
@pytest.mark.parametrize("name", available_frameworks())
class TestTransportConformance:
    def test_jobs_are_bit_identical(self, name, conformance_dataset):
        serial = _run(name, conformance_dataset, jobs=1)
        forked = _run(name, conformance_dataset, jobs=2)
        _assert_reports_identical(serial, forked)

        # The excluded bookkeeping exists and tells the runs apart.
        assert serial.transport.mode == "serial"
        assert serial.transport.ipc_bytes == 0
        assert forked.transport.mode == "pipes"
        assert forked.transport.ipc_bytes > 0
