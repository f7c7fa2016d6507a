"""Tests for the PCIe link and multi-GPU models."""

import pytest

from repro.config import DEFAULT_COST_MODEL
from repro.gpu.cluster import allreduce_time, effective_pcie_bandwidth
from repro.gpu.pcie import PCIeLink, link_from_cost
from repro.gpu.spec import RTX3090


class TestPCIeLink:
    def test_transfer_time(self):
        link = PCIeLink(bandwidth=32e9, latency_s=1e-5)
        t = link.transfer_time(32e9)
        assert t == pytest.approx(1.0 + 1e-5)

    def test_zero_bytes_free(self):
        assert PCIeLink().transfer_time(0) == 0.0
        assert PCIeLink().gather_and_transfer_time(0) == 0.0

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
        link = PCIeLink()
        plain = link.transfer_time(1e9)
        with_gather = link.gather_and_transfer_time(1e9)
        assert with_gather > plain

    def test_link_from_cost(self):
        link = link_from_cost(RTX3090, DEFAULT_COST_MODEL)
        assert link.bandwidth == RTX3090.pcie_bw
        assert link.latency_s == DEFAULT_COST_MODEL.pcie_transfer_latency_s


class TestAllreduce:
    def test_single_gpu_free(self):
        assert allreduce_time(1e9, 1) == 0.0
        assert allreduce_time(0, 4) == 0.0

    def test_ring_formula(self):
        cost = DEFAULT_COST_MODEL
        t = allreduce_time(1e9, 4, cost)
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
    def test_no_contention_at_low_count(self):
        assert effective_pcie_bandwidth(32e9, 2) == 32e9

    def test_contention_at_high_count(self):
        assert effective_pcie_bandwidth(32e9, 8) == pytest.approx(10e9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            effective_pcie_bandwidth(32e9, 0)
