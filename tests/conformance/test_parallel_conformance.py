"""Transport conformance: ``jobs`` and the arena are throughput knobs.

Every registered framework runs the same seeded epoch three ways —
serial (``jobs=1``), forked over pipes (``jobs=2``, arena disabled via
:data:`repro.parallel.ARENA_ENV_VAR`), and forked over the shared-memory
arena (``jobs=2``, arena on) — and all three must agree bit for bit on
everything the model and the cost model can observe: per-batch losses,
modeled epoch time and phase breakdown, the iteration log, and the
final parameters.

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
from repro.parallel import ARENA_ENV_VAR, fork_available
from repro.pipeline import ExecutionSpec

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="requires fork start method")


def _run_config() -> RunConfig:
    return RunConfig(
        batch_size=64,
        fanouts=(3, 3),
        num_gpus=2,
        hidden_dim=8,
        seed=5,
        train_model=True,
    )


def _run(name, dataset, jobs: int, arena: bool, monkeypatch):
    if arena:
        monkeypatch.delenv(ARENA_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(ARENA_ENV_VAR, "off")
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
    def test_jobs_and_arena_are_bit_identical(self, name,
                                              conformance_dataset,
                                              monkeypatch):
        serial = _run(name, conformance_dataset, jobs=1, arena=True,
                      monkeypatch=monkeypatch)
        pipes = _run(name, conformance_dataset, jobs=2, arena=False,
                     monkeypatch=monkeypatch)
        arena = _run(name, conformance_dataset, jobs=2, arena=True,
                     monkeypatch=monkeypatch)
        _assert_reports_identical(serial, pipes)
        _assert_reports_identical(serial, arena)

        # The excluded bookkeeping exists and tells the transports
        # apart: when a framework actually forked its lanes, the mode
        # and byte counters reflect the transport used. (A framework
        # with a single lane legitimately stays serial at any ``jobs``.)
        for report, mode in ((pipes, "pipes"), (arena, "arena")):
            transport = report.transport
            if transport.mode == "serial":
                continue
            assert transport.mode == mode
            assert transport.ipc_bytes > 0
