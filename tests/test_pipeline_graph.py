"""The stage-graph pipeline engine and the pipelined epoch layout.

One oracle: the N-stage recurrence (:func:`stage_graph_reference`),
which the event-driven engine must equal exactly for every
``queue_depth`` and ``max_in_flight``; properties over random stage-time
vectors (zeros included) pin the engine between ``max(stage totals)``
and the serial sum.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pipeline import (
    DEFAULT_EXECUTION,
    ExecutionSpec,
    PipelineSpec,
    pipelined_epoch_layout,
    stage_graph_makespan,
    stage_graph_reference,
    sync_round_flags,
)

#: Zero-length service times are drawn often: all-hit IO stages and
#: empty halos are the common real-world degenerate cases.
_seconds = st.one_of(st.just(0.0), st.floats(0.01, 5.0))

_depths = st.one_of(st.none(), st.integers(1, 4))

_windows = st.one_of(st.none(), st.integers(1, 5))


def _stage_vectors(num_stages=st.integers(1, 4), num_items=st.integers(0, 10)):
    return num_stages.flatmap(
        lambda s: num_items.flatmap(
            lambda n: st.lists(
                st.lists(_seconds, min_size=n, max_size=n),
                min_size=s, max_size=s,
            )
        )
    )


class TestStageGraphEngine:
    def test_requires_a_stage(self):
        with pytest.raises(ValueError):
            stage_graph_makespan([])

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            stage_graph_makespan([[1.0, 2.0], [1.0]])

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            stage_graph_makespan([[1.0]], queue_depth=0)

    @pytest.mark.parametrize("window", [0, -1])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValueError, match="max_in_flight"):
            stage_graph_makespan([[1.0]], max_in_flight=window)
        with pytest.raises(ValueError, match="max_in_flight"):
            stage_graph_reference([[1.0]], max_in_flight=window)

    def test_no_items_is_zero(self):
        assert stage_graph_makespan([[], [], []]) == 0.0

    def test_single_stage_is_serial(self):
        assert stage_graph_makespan([[1.0, 2.0, 3.0]]) == pytest.approx(6.0)

    def test_three_stage_overlap(self):
        # Balanced stages: steady state is bottleneck-rate, plus fill.
        times = [[1.0] * 5, [1.0] * 5, [1.0] * 5]
        assert stage_graph_makespan(times) == pytest.approx(7.0)

    @pytest.mark.parametrize("window, admits, makespan", [
        (None, [1, 2, 3, 3], 7.0),
        (8, [1, 2, 3, 4], 7.0),
        (2, [1, 2, 2, 2], 7.0),
        (1, [1, 1, 1, 1], 10.0),
    ])
    def test_admission_counts(self, window, admits, makespan):
        """A window admits an item (and counts it in flight) when the
        item gets a window slot — the first ``window`` items all at t=0;
        without one, admission is stage 0 taking the item."""
        seen = []
        span = stage_graph_makespan([[1.0] * 4, [1.5] * 4],
                                    max_in_flight=window, admit=seen.append)
        assert seen == admits
        assert span == makespan

    def test_records_cover_every_interval(self):
        records = []
        span = stage_graph_makespan(
            [[1.0, 2.0], [3.0, 1.0]],
            names=["sample", "train"],
            record=records.append,
        )
        assert {name for name, *_ in records} == {"sample", "train"}
        assert len(records) == 4
        assert max(end for *_, end in records) == pytest.approx(span)
        for _, _, start, end in records:
            assert 0.0 <= start <= end <= span + 1e-12

    def test_stall_records_stay_inside_makespan(self):
        stalls = []
        span = stage_graph_makespan(
            [[3.0, 3.0], [0.5, 0.5]],
            stall_record=stalls.append,
        )
        assert stalls  # the fast consumer starves
        for _, _, start, end in stalls:
            assert 0.0 <= start < end <= span + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(st.tuples(_seconds, _seconds), min_size=1,
                       max_size=10),
        depth=_depths,
        window=_windows,
    )
    def test_two_stage_oracle_agreement(self, times, depth, window):
        """S=2 — GNNLab's producer/consumer shape — equals the oracle
        exactly."""
        stages = [[p for p, _ in times], [c for _, c in times]]
        ours = stage_graph_makespan(stages, queue_depth=depth,
                                    max_in_flight=window)
        assert ours == stage_graph_reference(stages, queue_depth=depth,
                                             max_in_flight=window)

    @settings(max_examples=150, deadline=None)
    @given(times=_stage_vectors(), depth=_depths, window=_windows)
    def test_reference_recurrence_agreement(self, times, depth, window):
        """The engine equals the one oracle exactly for S in 1–4 under
        every combination of buffer and window bounds."""
        ours = stage_graph_makespan(times, queue_depth=depth,
                                    max_in_flight=window)
        assert ours == stage_graph_reference(times, queue_depth=depth,
                                             max_in_flight=window)

    @settings(max_examples=60, deadline=None)
    @given(times=_stage_vectors(num_items=st.integers(1, 10)),
           depth=_depths, window=st.integers(1, 4))
    def test_window_properties(self, times, depth, window):
        """A window of at least ``n`` items is no bound; a window of one
        runs the items back to back; a wider window is never slower."""
        n = len(times[0])
        unbounded = stage_graph_makespan(times, queue_depth=depth)
        assert stage_graph_makespan(times, queue_depth=depth,
                                    max_in_flight=n) == unbounded
        serial = stage_graph_makespan(times, max_in_flight=1)
        assert serial == pytest.approx(sum(map(sum, times)), abs=1e-12)
        narrow = stage_graph_makespan(times, queue_depth=depth,
                                      max_in_flight=window)
        wide = stage_graph_makespan(times, queue_depth=depth,
                                    max_in_flight=window + 1)
        assert wide <= narrow + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(times=_stage_vectors(num_items=st.integers(1, 10)))
    def test_pipelined_between_bounds(self, times):
        """Property: overlap never beats the bottleneck stage and never
        loses to fully serial execution."""
        span = stage_graph_makespan(times)
        serial = sum(sum(stage) for stage in times)
        bottleneck = max(sum(stage) for stage in times)
        assert span <= serial + 1e-9
        assert span >= bottleneck - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        times=_stage_vectors(num_items=st.integers(1, 8)),
        depth=st.integers(1, 3),
    )
    def test_deeper_queue_never_slower(self, times, depth):
        shallow = stage_graph_makespan(times, queue_depth=depth)
        deeper = stage_graph_makespan(times, queue_depth=depth + 1)
        unbounded = stage_graph_makespan(times)
        assert deeper <= shallow + 1e-9
        assert unbounded <= deeper + 1e-9


class TestSyncRoundFlags:
    def test_zero_staleness_syncs_every_round(self):
        assert sync_round_flags(4, 0) == [True] * 4

    def test_staleness_period(self):
        assert sync_round_flags(6, 1) == [False, True, False, True,
                                          False, True]

    def test_final_round_always_syncs(self):
        assert sync_round_flags(5, 2)[-1] is True
        assert sync_round_flags(1, 10) == [True]

    def test_empty(self):
        assert sync_round_flags(0, 3) == []


class TestPipelinedEpochLayout:
    def _layout(self, **kwargs):
        defaults = dict(
            samples=[1.0, 1.0, 1.0],
            ios=[0.5, 0.5, 0.5],
            nets=[0.0, 0.0, 0.0],
            computes=[2.0, 2.0, 2.0],
            sync=0.25,
            net_sync=0.0,
            pipeline=PipelineSpec(mode="pipelined"),
        )
        defaults.update(kwargs)
        return pipelined_epoch_layout(**defaults)

    def test_reconciles(self):
        span, spans, info = self._layout()
        extent = max(s["start"] + s["dur"] for s in spans)
        assert extent == pytest.approx(span, abs=1e-12)

    def test_zero_net_omits_network_stage(self):
        _, spans, info = self._layout()
        assert "network" not in info["stage_totals"]
        assert not any(s["lane"] == "network" for s in spans)

    def test_network_stage_present_on_cluster(self):
        span, spans, info = self._layout(nets=[0.3, 0.3, 0.3])
        assert info["stage_totals"]["network"] == pytest.approx(0.9)
        assert any(s["lane"] == "network" for s in spans)
        extent = max(s["start"] + s["dur"] for s in spans)
        assert extent == pytest.approx(span, abs=1e-12)

    def test_train_interval_carves_compute_and_syncs(self):
        _, spans, _ = self._layout(net_sync=0.125)
        cats = {s["cat"] for s in spans if s["lane"] == "trainers"}
        assert cats == {"compute", "allreduce", "network"}

    def test_stall_spans_report_stage(self):
        _, spans, info = self._layout(samples=[3.0, 3.0, 3.0],
                                      computes=[0.5, 0.5, 0.5])
        stalls = [s for s in spans if s["cat"] == "stall"]
        assert stalls and all(s["lane"] == "stalls" for s in stalls)
        assert all(s["stage"] in info["stall_seconds"] for s in stalls)
        assert sum(info["stall_seconds"].values()) > 0

    def test_staleness_reduces_sync_count(self):
        every, _, info0 = self._layout()
        sparse, _, info2 = self._layout(
            pipeline=PipelineSpec(mode="pipelined", staleness=2))
        assert info0["num_syncs"] == 3
        assert info2["num_syncs"] == 1  # round 2 only (final round)
        assert sparse <= every + 1e-12

    def test_bound_accounting(self):
        span, _, info = self._layout()
        assert info["bound_seconds"] == pytest.approx(
            info["stage_totals"]["train"] + 1.0 + 0.5)  # fill: sample+io
        assert span >= info["bound_seconds"] - 1e-9
        assert span <= info["serial_seconds"] + 1e-9


class TestSpecs:
    def test_pipeline_mode_validated(self):
        with pytest.raises(ConfigError, match="mode"):
            PipelineSpec(mode="warp")

    def test_queue_depth_validated(self):
        with pytest.raises(ConfigError):
            PipelineSpec(queue_depth=0)

    def test_staleness_validated(self):
        with pytest.raises(ConfigError):
            PipelineSpec(staleness=-1)

    def test_execution_promotes_mode_string(self):
        spec = ExecutionSpec(pipeline="pipelined")
        assert isinstance(spec.pipeline, PipelineSpec)
        assert spec.pipeline.enabled

    def test_execution_rejects_non_spec_pipeline(self):
        with pytest.raises(ConfigError, match="pipeline"):
            ExecutionSpec(pipeline=2)

    def test_frozen_and_hashable(self):
        spec = ExecutionSpec(pipeline="pipelined")
        with pytest.raises(AttributeError):
            spec.pipeline = PipelineSpec()
        assert ExecutionSpec(pipeline="pipelined") == spec
        assert hash(ExecutionSpec(pipeline="pipelined")) == hash(spec)
        assert DEFAULT_EXECUTION != spec
        assert {spec: 1}[ExecutionSpec(pipeline="pipelined")] == 1
