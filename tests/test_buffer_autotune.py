"""Tests for the resident feature buffer and the thread-block autotuner."""

import numpy as np
import pytest

from repro.bench.oracles import ResidentFeatureBuffer
from repro.errors import ConfigError
from repro.gpu.kernels import ThreadBlockConfig, autotune_thread_block
from repro.gpu.spec import A100, RTX3090
from repro.sampling import NeighborSampler


class TestResidentFeatureBuffer:
    @pytest.fixture()
    def subgraphs(self, tiny_graph, tiny_dataset):
        sampler = NeighborSampler(tiny_graph, (3, 4), rng=0)
        ids = tiny_dataset.train_ids
        return [sampler.sample(ids[i * 40:(i + 1) * 40]) for i in range(4)]

    def test_matches_direct_gather_exactly(self, subgraphs, tiny_dataset):
        """The exactness property behind the paper's Fig. 16: reused rows
        are bit-identical to freshly gathered ones."""
        buffer = ResidentFeatureBuffer(tiny_dataset.features)
        for sg in subgraphs:
            assembled = buffer.fetch(sg.input_nodes)
            direct = tiny_dataset.features.gather(sg.input_nodes)
            np.testing.assert_array_equal(assembled, direct)

    def test_host_fetches_shrink_after_first_batch(self, subgraphs,
                                                   tiny_dataset):
        buffer = ResidentFeatureBuffer(tiny_dataset.features)
        first = subgraphs[0]
        buffer.fetch(first.input_nodes)
        fetched_first = buffer.host_rows_fetched
        assert fetched_first == first.num_nodes
        buffer.fetch(subgraphs[1].input_nodes)
        newly = buffer.host_rows_fetched - fetched_first
        assert newly < subgraphs[1].num_nodes
        assert buffer.rows_reused > 0

    def test_counts_match_matchloader(self, subgraphs, tiny_dataset):
        """The functional buffer and the byte-accounting loader agree on
        exactly which rows cross the host link."""
        from repro.transfer.loader import MatchLoader

        buffer = ResidentFeatureBuffer(tiny_dataset.features)
        loader = MatchLoader(tiny_dataset.features)
        for sg in subgraphs:
            report = loader.plan(sg)
            before = buffer.host_rows_fetched
            buffer.fetch(sg.input_nodes)
            assert buffer.host_rows_fetched - before == report.num_loaded

    def test_reset_flushes(self, subgraphs, tiny_dataset):
        buffer = ResidentFeatureBuffer(tiny_dataset.features)
        buffer.fetch(subgraphs[0].input_nodes)
        buffer.reset()
        before = buffer.host_rows_fetched
        buffer.fetch(subgraphs[0].input_nodes)
        assert buffer.host_rows_fetched - before == subgraphs[0].num_nodes


class TestAutotuneThreadBlock:
    def test_returns_valid_config(self):
        config = autotune_thread_block(64, 10.0, RTX3090)
        config.validate(RTX3090)
        assert config.threads_per_block <= RTX3090.max_threads_per_block

    def test_default_is_competitive(self):
        """The paper's empirical X=8/Y=32 achieves the tuned occupancy."""
        from repro.gpu.kernels import aggregation_kernel_plan

        tuned = autotune_thread_block(64, 10.0, RTX3090)
        default_plan = aggregation_kernel_plan(1024, 64, 10.0, RTX3090,
                                               ThreadBlockConfig())
        tuned_plan = aggregation_kernel_plan(1024, 64, 10.0, RTX3090, tuned)
        assert default_plan.occupancy >= 0.9 * tuned_plan.occupancy

    def test_huge_degree_prefers_small_x(self):
        """Weights dominate shared memory at high degree; fewer targets
        per block keep the footprint inside the limit."""
        config = autotune_thread_block(64, 3000.0, RTX3090)
        assert config.x_nodes <= 8

    def test_a100_also_tunable(self):
        config = autotune_thread_block(256, 15.0, A100)
        config.validate(A100)

    def test_impossible_workload(self):
        with pytest.raises(ConfigError):
            autotune_thread_block(
                64, 1e9, RTX3090,
                candidates=[ThreadBlockConfig(32, 32)],
            )
