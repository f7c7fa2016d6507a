"""Differential conformance: faults must be invisible to model state.

Every framework in the registry runs the same seeded epoch twice:

* **baseline** — fault injection disabled;
* **chaos-recovered** — storage-read and PCIe-stall failures plus NVMe
  latency outliers injected, but every failure count stays inside the
  retry budget (``max_failures=2 < RetryPolicy.max_attempts=4``), so the
  resilience layer absorbs all of it.

The contract: recovered faults may only cost *modeled time*. Model
state — per-batch losses and the final parameters — must be
bit-identical, and both runs' timelines must still reconcile with their
modeled epoch time (retry spans are nested inside the memory-IO
intervals, never extending them).

``REPRO_CHAOS_SEED`` selects the fault seed (CI pins it; the default
matches CI's chaos job).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.config import RunConfig
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.faults.retry import DEFAULT_RETRY_POLICY
from repro.frameworks import create
from repro.frameworks.registry import available_frameworks

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "99"))

#: Failure sites fire often but always recover: the consecutive-failure
#: cap stays strictly below the retry budget.
RECOVERED_MAX_FAILURES = 2
assert RECOVERED_MAX_FAILURES < DEFAULT_RETRY_POLICY.max_attempts


def _run_config() -> RunConfig:
    return RunConfig(
        batch_size=64,
        fanouts=(3, 3),
        num_gpus=2,
        hidden_dim=8,
        seed=5,
        train_model=True,
    )


def _recovered_plan() -> FaultPlan:
    """Faults on, but every one recoverable by the retry layer."""
    return FaultPlan(seed=CHAOS_SEED, sites={
        "storage_read": FaultSpec(probability=0.5,
                                  max_failures=RECOVERED_MAX_FAILURES),
        "pcie_stall": FaultSpec(probability=0.3,
                                max_failures=RECOVERED_MAX_FAILURES),
        "storage_slow": FaultSpec(probability=0.5, delay_s=1e-4),
    })


def _timeline_extent(report) -> float:
    spans = report.timeline()
    assert spans, "epoch produced no timeline"
    return max(span.end for span in spans)


@pytest.mark.parametrize("name", available_frameworks())
class TestConformance:
    def test_faults_recovered_is_bit_identical(self, name,
                                               conformance_dataset):
        config = _run_config()
        baseline = create(name).run_epoch(conformance_dataset, config)
        plan = _recovered_plan()
        with fault_scope(plan):
            faulted = create(name).run_epoch(conformance_dataset, config)

        # Model state: losses and final parameters, bit for bit.
        assert faulted.losses == baseline.losses
        assert len(baseline.losses) == baseline.num_batches
        base_params = baseline.final_params
        fault_params = faulted.final_params
        assert len(base_params) == len(fault_params) > 0
        for expected, actual in zip(base_params, fault_params):
            np.testing.assert_array_equal(expected, actual)

        # Functional accounting that faults must not disturb.
        assert faulted.num_batches == baseline.num_batches
        assert (faulted.transfer.feature_bytes
                == baseline.transfer.feature_bytes)

        # Recovered faults cost modeled time, never less than baseline.
        assert faulted.epoch_time >= baseline.epoch_time
        assert faulted.transfer.num_retries >= 0

        # Timelines reconcile in both runs.
        assert abs(_timeline_extent(baseline)
                   - baseline.epoch_time) < 1e-9
        assert abs(_timeline_extent(faulted)
                   - faulted.epoch_time) < 1e-9

        # Retry work is visible: when a failure site fired and backoff
        # was paid, the timeline carries nested retry spans and the
        # transfer report counts the retries.
        failures = [e for e in plan.trace() if e.kind == "fail"]
        if failures:
            assert faulted.transfer.num_retries > 0
            retry_spans = [s for s in faulted.timeline()
                           if s.category == "retry"]
            assert retry_spans
            for span in retry_spans:
                assert span.depth == 1
                assert span.args.get("retries", 0) > 0
        else:
            assert faulted.transfer.num_retries == 0

    def test_chaos_trace_is_deterministic(self, name, conformance_dataset):
        """Same plan seed, same call sequence -> same fault trace."""
        config = _run_config()
        traces = []
        for _ in range(2):
            plan = _recovered_plan()
            with fault_scope(plan):
                create(name).run_epoch(conformance_dataset, config)
            traces.append(plan.trace())
        assert traces[0] == traces[1]
