"""Differential conformance for the pipelined epoch engine.

Two contracts, both over every framework in the registry:

* ``pipeline="off"`` is the seed driver, bit for bit: passing an
  explicit default :class:`ExecutionSpec` must equal not passing one —
  epoch time, losses, final parameters, iteration log, and timeline.
* ``pipeline="pipelined"`` only reschedules modeled time: model state
  stays bit-identical to sequential, the timeline still reconciles with
  the epoch time, and the makespan lands between the bottleneck-stage
  lower bound and the serial sum of the stage totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunConfig
from repro.frameworks import create
from repro.frameworks.registry import available_frameworks
from repro.pipeline import ExecutionSpec, PipelineSpec

RECONCILE_TOL = 1e-6


def _run_config() -> RunConfig:
    # Small batches so every framework runs several rounds per epoch —
    # otherwise there is nothing for the pipeline to overlap.
    return RunConfig(
        batch_size=32,
        fanouts=(3, 3),
        num_gpus=2,
        hidden_dim=8,
        seed=5,
        train_model=True,
    )


def _assert_same_model_state(ours, theirs):
    assert ours.losses == theirs.losses
    assert len(ours.final_params) == \
        len(theirs.final_params)
    for a, b in zip(ours.final_params,
                    theirs.final_params):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name", available_frameworks())
class TestPipelineOffIsSeedDriver:
    def test_off_mode_is_bit_identical(self, name, conformance_dataset):
        config = _run_config()
        seed = create(name).run_epoch(conformance_dataset, config)
        off = create(name).run_epoch(
            conformance_dataset, config,
            execution=ExecutionSpec(pipeline="off"),
        )
        assert off.epoch_time == seed.epoch_time
        assert off.phases == seed.phases
        assert off.iterations == seed.iterations
        _assert_same_model_state(off, seed)
        ours = off.timeline()
        theirs = seed.timeline()
        assert len(ours) == len(theirs)
        assert max(s.end for s in ours) == max(s.end for s in theirs)
        assert off.pipeline is None


@pytest.mark.parametrize("name", available_frameworks())
class TestPipelinedConformance:
    @pytest.fixture()
    def reports(self, name, conformance_dataset):
        config = _run_config()
        sequential = create(name).run_epoch(conformance_dataset, config)
        pipelined = create(name).run_epoch(
            conformance_dataset, config,
            execution=ExecutionSpec(pipeline="pipelined"),
        )
        return sequential, pipelined

    def test_model_state_identical(self, reports):
        sequential, pipelined = reports
        _assert_same_model_state(pipelined, sequential)
        assert pipelined.num_batches == sequential.num_batches

    def test_timeline_reconciles(self, reports):
        _, pipelined = reports
        extent = max(span.end for span in pipelined.timeline())
        assert abs(extent - pipelined.epoch_time) <= RECONCILE_TOL

    def test_stage_accounting_bounds_epoch(self, reports):
        _, pipelined = reports
        info = pipelined.pipeline
        assert info["mode"] == "pipelined"
        bottleneck = max(info["stage_totals"].values())
        assert pipelined.epoch_time >= bottleneck - 1e-9
        assert pipelined.epoch_time <= info["serial_seconds"] + 1e-9
        assert pipelined.epoch_time == \
            pytest.approx(info["epoch_seconds"], abs=1e-12)

    def test_stall_lane_inside_epoch(self, reports):
        _, pipelined = reports
        stalls = [s for s in pipelined.timeline() if s.lane == "stalls"]
        for span in stalls:
            assert span.end <= pipelined.epoch_time + RECONCILE_TOL


@pytest.mark.parametrize("name", available_frameworks())
def test_staleness_never_slower(name, conformance_dataset):
    """Syncing every k+1 rounds can only remove allreduce time from the
    train stage — and model state is still untouched."""
    config = _run_config()
    every = create(name).run_epoch(
        conformance_dataset, config,
        execution=ExecutionSpec(pipeline="pipelined"),
    )
    sparse = create(name).run_epoch(
        conformance_dataset, config,
        execution=ExecutionSpec(
            pipeline=PipelineSpec(mode="pipelined", staleness=3)),
    )
    assert sparse.epoch_time <= every.epoch_time + 1e-12
    assert sparse.pipeline["num_syncs"] <= \
        every.pipeline["num_syncs"]
    _assert_same_model_state(sparse, every)
