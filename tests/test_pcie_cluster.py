"""Tests for the PCIe link and multi-GPU models."""

import pytest

from repro.config import COST_MODEL
from repro.gpu.cluster import allreduce_time
from repro.gpu.pcie import PCIeLink, link_from_cost
from repro.gpu.spec import RTX3090
from repro.transfer.loader import TransferReport


class TestPCIeLink:
    def test_transfer_time(self):
        link = PCIeLink(bandwidth=32e9, latency_s=1e-5)
        t = link.transfer_time(32e9)
        assert t == pytest.approx(1.0 + 1e-5)

    def test_zero_bytes_free(self):
        assert PCIeLink().transfer_time(0) == 0.0

    def test_contention_caps_bandwidth(self):
        link = PCIeLink(bandwidth=32e9, host_aggregate=80e9)
        assert link.effective_bandwidth(1) == 32e9
        assert link.effective_bandwidth(2) == 32e9  # 80/2 = 40 > 32
        assert link.effective_bandwidth(4) == pytest.approx(20e9)
        assert link.effective_bandwidth(8) == pytest.approx(10e9)

    def test_invalid_links(self):
        with pytest.raises(ValueError):
            PCIeLink().effective_bandwidth(0)

    def test_gather_adds_host_time(self):
        # A feature transfer pays the host-side row gather into a
        # staging buffer on top of the link transfer.
        link = PCIeLink()
        plain = link.transfer_time(1e9)
        report = TransferReport(feature_bytes=10**9, num_transfers=1)
        assert report.modeled_time(link) == pytest.approx(
            1e9 / COST_MODEL.host_gather_bytes_per_s + plain)

    def test_link_from_cost(self):
        link = link_from_cost(RTX3090)
        assert link.bandwidth == RTX3090.pcie_bw
        assert link.latency_s == COST_MODEL.pcie_transfer_latency_s
        assert link.host_aggregate == COST_MODEL.host_aggregate_bytes_per_s


class TestAllreduce:
    def test_single_gpu_free(self):
        assert allreduce_time(1e9, 1) == 0.0
        assert allreduce_time(0, 4) == 0.0

    def test_ring_formula(self):
        cost = COST_MODEL
        t = allreduce_time(1e9, 4)
        moved = 2 * 3 / 4 * 1e9
        assert t == pytest.approx(cost.nccl_latency_s
                                  + moved / cost.nccl_bus_bytes_per_s)

    def test_grows_sublinearly_with_gpus(self):
        t2 = allreduce_time(1e9, 2)
        t8 = allreduce_time(1e9, 8)
        assert t2 < t8 < 2 * t2

    def test_invalid_gpus(self):
        with pytest.raises(ValueError):
            allreduce_time(1e9, 0)


class TestEffectivePCIe:
    """The calibrated link, ``PCIeLink()``, shares the calibrated host
    aggregate among concurrent GPUs."""

    def test_no_contention_at_low_count(self):
        assert PCIeLink().effective_bandwidth(2) == 32e9

    def test_contention_at_high_count(self):
        assert PCIeLink().effective_bandwidth(8) == pytest.approx(
            COST_MODEL.host_aggregate_bytes_per_s / 8)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PCIeLink().effective_bandwidth(0)
