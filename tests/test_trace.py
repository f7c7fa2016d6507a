"""Tests for the chrome-trace exporter and iteration logging."""

import json

import pytest

from repro.config import RunConfig
from repro.frameworks import DGLFramework
from repro.obs.trace import PHASES, epoch_trace_events, write_chrome_trace


@pytest.fixture()
def report(tiny_dataset):
    config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=2,
                       hidden_dim=8)
    return DGLFramework().run_epoch(tiny_dataset, config)


class TestIterationLog:
    def test_recorded_per_trainer(self, report):
        iterations = report.iterations
        assert len(iterations) == report.num_trainers == 2
        assert sum(len(lane) for lane in iterations) == report.num_batches

    def test_phase_sums_match_report(self, report):
        iterations = report.iterations
        total_sample = sum(t[0] for lane in iterations for t in lane)
        total_io = sum(t[1] for lane in iterations for t in lane)
        total_compute = sum(t[2] for lane in iterations for t in lane)
        assert total_sample == pytest.approx(report.phases.sample)
        assert total_io == pytest.approx(report.phases.memory_io)
        assert total_compute == pytest.approx(report.phases.compute)


class TestTraceEvents:
    def test_event_fields(self, report):
        events = epoch_trace_events(report)
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] > 0
            assert event["cat"] in PHASES
            assert event["tid"].startswith("gpu")

    def test_lanes_do_not_overlap(self, report):
        events = epoch_trace_events(report)
        by_lane = {}
        for event in events:
            by_lane.setdefault(event["tid"], []).append(event)
        for lane_events in by_lane.values():
            lane_events.sort(key=lambda e: e["ts"])
            for a, b in zip(lane_events, lane_events[1:]):
                assert a["ts"] + a["dur"] <= b["ts"] + 1e-6

    def test_total_duration_matches_phases(self, report):
        events = epoch_trace_events(report)
        total = sum(e["dur"] for e in events) / 1e6
        # Allreduce is a collective: every trainer lane carries a span for
        # each sync, while phases.allreduce counts each sync once.
        trainers = report.num_trainers
        expected = (report.phases.sample + report.phases.memory_io
                    + report.phases.compute
                    + trainers * report.phases.allreduce)
        assert total == pytest.approx(expected, rel=1e-6)

    def test_allreduce_spans_present(self, report):
        assert report.phases.allreduce > 0
        events = [e for e in epoch_trace_events(report)
                  if e["cat"] == "allreduce"]
        assert events
        lanes = {e["tid"] for e in events}
        assert lanes == {f"gpu{t}"
                         for t in range(report.num_trainers)}
        total = sum(e["dur"] for e in events) / 1e6
        expected = report.num_trainers * report.phases.allreduce
        assert total == pytest.approx(expected, rel=1e-6)

    def test_empty_report(self):
        from repro.frameworks.base import EpochReport, PhaseTimes
        from repro.core.memory_aware import ComputeReport
        from repro.transfer.loader import TransferReport

        empty = EpochReport(
            framework="x", dataset="d", model="gcn", num_batches=0,
            phases=PhaseTimes(), epoch_time=0.0,
            transfer=TransferReport(), compute=ComputeReport(),
        )
        assert epoch_trace_events(empty) == []


class TestTimelineReconciles:
    """Every framework's trace must account for its modeled epoch time:
    the latest span end equals ``epoch_time`` and no lane exceeds it."""

    def _assert_reconciles(self, report):
        events = epoch_trace_events(report)
        assert events
        ends_by_lane = {}
        for event in events:
            end = (event["ts"] + event["dur"]) / 1e6
            lane = event["tid"]
            ends_by_lane[lane] = max(ends_by_lane.get(lane, 0.0), end)
        latest = max(ends_by_lane.values())
        assert latest == pytest.approx(report.epoch_time, abs=1e-6)
        for lane_end in ends_by_lane.values():
            assert lane_end <= report.epoch_time + 1e-6
        return ends_by_lane

    def test_lockstep_lanes_end_at_epoch_time(self, report):
        # Lockstep data parallelism: every trainer attends every sync, so
        # each lane's final span ends exactly at the epoch makespan.
        ends = self._assert_reconciles(report)
        for lane_end in ends.values():
            assert lane_end == pytest.approx(report.epoch_time, abs=1e-6)

    def test_gnnlab_pipeline_reconciles(self, tiny_dataset):
        from repro.frameworks import GNNLabFramework

        config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=3,
                           hidden_dim=8)
        report = GNNLabFramework().run_epoch(tiny_dataset, config)
        ends = self._assert_reconciles(report)
        # The factored sampler gets its own lane that finishes early
        # (production runs ahead of consumption).
        assert "sampler" in ends
        assert ends["sampler"] < report.epoch_time

    def test_out_of_core_pipeline_reconciles(self, tiny_dataset):
        from repro.frameworks import FRAMEWORKS

        config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=2,
                           hidden_dim=8)
        report = FRAMEWORKS["fastgl-ooc"]().run_epoch(tiny_dataset, config)
        ends = self._assert_reconciles(report)
        assert {"sampler", "nvme", "trainers"} <= set(ends)


class TestWriteTrace:
    def test_writes_valid_json(self, report, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, report)
        assert count > 0
        with open(path) as handle:
            payload = json.load(handle)
        assert len(payload["traceEvents"]) == count
        assert payload["otherData"]["framework"] == "dgl"
