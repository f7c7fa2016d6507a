"""Property-based invariants of the cost model.

The experiments' conclusions rest on the cost model behaving sanely:
more work must never cost less, Memory-Aware must never lose to naive on
the same workload, and the ID-map advantage must hold for any input
distribution. Hypothesis sweeps the input space.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory_aware import ComputeCostModel
from repro.gpu.pcie import PCIeLink
from repro.sampling import BaselineIdMap, FusedIdMap
from repro.transfer.loader import TransferReport

NAIVE = ComputeCostModel(mode="naive")
MA = ComputeCostModel(mode="memory_aware")


class TestAggregationCostProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        num_dst=st.integers(1, 5000),
        deg=st.integers(1, 40),
        dim=st.integers(2, 1024),
    )
    def test_memory_aware_never_loses(self, num_dst, deg, dim):
        edges = num_dst * deg
        t_naive = NAIVE.aggregation_cost(num_dst, edges, dim).time
        t_ma = MA.aggregation_cost(num_dst, edges, dim).time
        assert t_ma <= t_naive * 1.001

    @settings(max_examples=40, deadline=None)
    @given(
        num_dst=st.integers(1, 2000),
        deg=st.integers(1, 30),
        dim=st.integers(2, 512),
        scale=st.integers(2, 5),
    )
    def test_monotone_in_edges(self, num_dst, deg, dim, scale):
        for model in (NAIVE, MA):
            small = model.aggregation_cost(num_dst, num_dst * deg, dim)
            large = model.aggregation_cost(num_dst, num_dst * deg * scale,
                                           dim)
            assert large.time >= small.time
            assert large.flops > small.flops

    @settings(max_examples=40, deadline=None)
    @given(num_dst=st.integers(1, 2000), deg=st.integers(1, 30),
           dim=st.integers(2, 256))
    def test_monotone_in_dim(self, num_dst, deg, dim):
        for model in (NAIVE, MA):
            narrow = model.aggregation_cost(num_dst, num_dst * deg, dim)
            wide = model.aggregation_cost(num_dst, num_dst * deg, dim * 2)
            assert wide.time >= narrow.time

    @settings(max_examples=40, deadline=None)
    @given(num_dst=st.integers(1, 2000), deg=st.integers(1, 30),
           dim=st.integers(2, 512))
    def test_nonnegative_and_consistent(self, num_dst, deg, dim):
        cost = MA.aggregation_cost(num_dst, num_dst * deg, dim)
        assert cost.mem_time >= 0 and cost.flop_time >= 0
        assert cost.time == max(cost.mem_time, cost.flop_time)
        assert cost.dram_bytes <= cost.bytes_global + 1e-9


class TestTransferTimeProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        bytes_a=st.integers(0, 10**9),
        extra=st.integers(0, 10**9),
        links=st.integers(1, 8),
    )
    def test_monotone_in_bytes(self, bytes_a, extra, links):
        link = PCIeLink()
        a = TransferReport(feature_bytes=bytes_a, num_transfers=1)
        b = TransferReport(feature_bytes=bytes_a + extra, num_transfers=1)
        assert (b.modeled_time(link, links)
                >= a.modeled_time(link, links))

    @settings(max_examples=50, deadline=None)
    @given(num_bytes=st.integers(1, 10**9), links=st.integers(1, 7))
    def test_contention_never_helps(self, num_bytes, links):
        link = PCIeLink()
        report = TransferReport(feature_bytes=num_bytes, num_transfers=1)
        assert (report.modeled_time(link, links + 1)
                >= report.modeled_time(link, links))


class TestIdMapProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        num_unique=st.integers(1, 5000),
        dup_factor=st.integers(1, 5),
        seed=st.integers(0, 100),
    )
    def test_fused_never_slower(self, num_unique, dup_factor, seed):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, num_unique, size=num_unique * dup_factor)
        t_base = BaselineIdMap().map(ids).report.modeled_time()
        t_fused = FusedIdMap().map(ids).report.modeled_time()
        assert t_fused <= t_base * 1.001

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 3000), seed=st.integers(0, 50))
    def test_time_scales_with_input(self, n, seed):
        rng = np.random.default_rng(seed)
        small = rng.integers(0, 10**6, size=n)
        large = np.concatenate([small, rng.integers(0, 10**6, size=n)])
        for idmap in (BaselineIdMap(), FusedIdMap()):
            assert (idmap.map(large).report.modeled_time()
                    >= idmap.map(small).report.modeled_time() * 0.999)
