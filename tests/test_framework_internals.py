"""Unit tests for epoch-driver internals (chunking, lockstep, overlap)."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core.memory_aware import ComputeReport
from repro.frameworks.base import (
    Framework,
    PhaseTimes,
    _chunk,
    _profile_param_bytes,
)
from repro.frameworks.dgl import DGLFramework
from repro.frameworks.gnnlab import GNNLabFramework
from repro.gpu.cluster import allreduce_time
from repro.gpu.pcie import PCIeLink
from repro.pipeline.graph import stage_graph_reference
from repro.transfer.loader import TransferReport


class TestChunk:
    def test_even_split(self):
        chunks = _chunk(list(range(6)), 2)
        assert chunks == [[0, 1, 2], [3, 4, 5]]

    def test_uneven_split_front_loaded(self):
        chunks = _chunk(list(range(7)), 3)
        assert [len(c) for c in chunks] == [3, 2, 2]
        assert sum(chunks, []) == list(range(7))

    def test_more_chunks_than_items(self):
        chunks = _chunk([1, 2], 4)
        assert [len(c) for c in chunks] == [1, 1, 0, 0]


class TestPhaseTimes:
    def test_serial_total(self):
        phases = PhaseTimes(sample=1.0, memory_io=2.0, compute=3.0,
                            allreduce=0.5)
        assert phases.serial_total == 6.5

    def test_fractions_sum_to_one(self):
        phases = PhaseTimes(sample=1.0, memory_io=2.0, compute=3.0,
                            allreduce=0.5)
        fractions = phases.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_zero_total(self):
        assert PhaseTimes().fractions()["sample"] == 0.0

    def test_detail_exposes_idmap_and_preprocess_shares(self):
        phases = PhaseTimes(sample=1.0, idmap=0.25, memory_io=2.0,
                            network=0.5, compute=3.0, preprocess=0.75,
                            allreduce=0.5)
        detail = phases.fractions(detail=True)
        assert set(detail) == {"sample", "idmap", "memory_io", "network",
                               "compute", "preprocess", "allreduce"}
        assert sum(detail.values()) == pytest.approx(1.0)
        total = phases.serial_total
        assert detail["idmap"] == pytest.approx(0.25 / total)
        assert detail["preprocess"] == pytest.approx(0.75 / total)
        assert detail["network"] == pytest.approx(0.5 / total)
        # The detailed split refines the coarse one: the components the
        # default view folds together sum back to its shares.
        coarse = phases.fractions()
        assert detail["sample"] + detail["idmap"] == pytest.approx(
            coarse["sample"])
        assert (detail["compute"] + detail["preprocess"]
                + detail["allreduce"] + detail["network"]
                ) == pytest.approx(coarse["compute"])

    def test_detail_zero_total(self):
        detail = PhaseTimes().fractions(detail=True)
        assert set(detail) == {"sample", "idmap", "memory_io", "network",
                               "compute", "preprocess", "allreduce"}
        assert all(v == 0.0 for v in detail.values())


class TestLockstepEpochTime:
    def test_single_trainer_is_sum(self):
        fw = DGLFramework()
        iters = [[(1.0, 1.0, 1.0), (0.5, 0.5, 1.0)]]
        config = RunConfig(num_gpus=1)
        assert fw._epoch_timeline(iters, 0, 1, config)[0] == pytest.approx(5.0)

    def test_two_trainers_lockstep_max(self):
        fw = DGLFramework()
        iters = [[(1.0, 0.5, 0.5)], [(2.0, 1.0, 2.0)]]
        config = RunConfig(num_gpus=2)
        time = fw._epoch_timeline(iters, 0, 2, config)[0]
        sync = allreduce_time(0, 2, config.cost)
        assert time == pytest.approx(5.0 + sync)

    def test_allreduce_added_per_round(self):
        fw = DGLFramework()
        iters = [[(1.0, 0.5, 0.5), (1.0, 0.5, 0.5)],
                 [(1.0, 0.5, 0.5), (1.0, 0.5, 0.5)]]
        config = RunConfig(num_gpus=2)
        grad = 10_000_000
        with_sync = fw._epoch_timeline(iters, grad, 2, config)[0]
        without = fw._epoch_timeline(iters, 0, 2, config)[0]
        expected = 2 * (allreduce_time(grad, 2, config.cost)
                        - allreduce_time(0, 2, config.cost))
        assert with_sync - without == pytest.approx(expected)


class TestGNNLabPipeline:
    def test_pipeline_overlaps_sampling(self):
        """Epoch time ~ max(total sampling, total training), not the sum."""
        fw = GNNLabFramework()
        config = RunConfig(num_gpus=2)
        # 4 rounds, sampling 1s each, io+training 1s each.
        iters = [[(1.0, 0.5, 0.5)] * 4]
        time = fw._epoch_timeline(iters, 0, 1, config)[0]
        assert time == pytest.approx(5.0)  # 1 + 4 (pipeline fill + drain)
        serial = 8.0
        assert time < serial

    def test_two_samplers_above_four_gpus(self):
        fw = GNNLabFramework()
        five = RunConfig(num_gpus=5)
        assert fw.num_sampler_gpus(five) == 2
        assert fw.num_trainer_gpus(five) == 3

    def test_matches_event_simulation(self):
        """GNNLab's event-simulated pipeline time equals the closed-form
        recurrence of the same producer/consumer schedule."""
        fw = GNNLabFramework()
        config = RunConfig(num_gpus=2)
        iters = [[(0.7, 0.4, 0.9), (1.1, 0.2, 0.2),
                  (0.2, 0.4, 0.5), (0.5, 0.25, 0.25)]]
        simulated = fw._epoch_timeline(iters, 0, 1, config)[0]
        produce = [s for s, _, _ in iters[0]]
        consume = [io + c for _, io, c in iters[0]]
        assert simulated == pytest.approx(
            stage_graph_reference([produce, consume]))


class TestIoTimeOverlap:
    def _report(self, feature_bytes, structure_bytes):
        return TransferReport(feature_bytes=feature_bytes,
                              structure_bytes=structure_bytes,
                              num_transfers=1)

    def test_prefetch_hides_structure(self):
        class Prefetching(Framework):
            prefetch_topology = True

        class Plain(Framework):
            prefetch_topology = False

        link = PCIeLink(bandwidth=32e9, latency_s=0.0, host_aggregate=80e9)
        config = RunConfig()
        report = self._report(feature_bytes=0, structure_bytes=32_000_000)
        comp = ComputeReport(agg_time=1.0)  # plenty of compute to hide under
        hidden = Prefetching()._io_time(report, comp, link, config.cost, 1)
        plain = Plain()._io_time(report, comp, link, config.cost, 1)
        assert plain > 0
        assert hidden < 0.1 * plain

    def test_prefetch_partial_when_compute_short(self):
        class Prefetching(Framework):
            prefetch_topology = True

        link = PCIeLink(bandwidth=32e9, latency_s=0.0)
        config = RunConfig()
        report = self._report(feature_bytes=0, structure_bytes=320_000_000)
        comp = ComputeReport(agg_time=1e-6)  # compute too short to hide it
        partial = Prefetching()._io_time(report, comp, link, config.cost, 1)
        assert partial > 0

    def test_never_negative(self):
        class Prefetching(Framework):
            prefetch_topology = True

        link = PCIeLink(latency_s=0.0)
        report = self._report(feature_bytes=0, structure_bytes=100)
        comp = ComputeReport(agg_time=10.0)
        assert Prefetching()._io_time(report, comp, link,
                                      RunConfig().cost, 1) >= 0.0


class TestProfileParamBytes:
    def test_gcn_param_bytes(self):
        from repro.core.memory_aware import model_profile

        profile = model_profile("gcn", 100, 10, hidden_dim=64, num_layers=2)
        expected = ((100 * 64 + 64) + (64 * 10 + 10)) * 4
        assert _profile_param_bytes(profile) == expected

    def test_close_to_real_model(self):
        """The analytic estimate tracks the real parameter count."""
        from repro.core.memory_aware import model_profile
        from repro.nn import build_model

        model = build_model("gcn", 32, 7, hidden_dim=16, num_layers=3)
        profile = model_profile("gcn", 32, 7, hidden_dim=16, num_layers=3)
        assert _profile_param_bytes(profile) == model.parameter_bytes()
