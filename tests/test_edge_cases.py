"""Edge-case and worked-example tests across the stack."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core.match import MatchState
from repro.errors import ConfigError
from repro.nn import Tensor, a3_aggregate, cross_entropy
from repro.sampling import NeighborSampler


class TestPaperFig6Example:
    """The paper's Fig. 6 Match walk-through: after training SubG_1 with
    nodes {0, 3, 4, 5, 7}, loading SubG_2 = {0, 3, 4, 10, 12} moves only
    nodes 10 and 12 over PCIe, reusing 0, 3 and 4."""

    def test_match_walkthrough(self):
        state = MatchState()
        state.step(np.array([0, 3, 4, 5, 7]))
        result = state.step(np.array([0, 3, 4, 10, 12]))
        np.testing.assert_array_equal(np.sort(result.overlap_ids),
                                      [0, 3, 4])
        np.testing.assert_array_equal(np.sort(result.load_ids), [10, 12])


class TestZeroEdgeAggregation:
    def test_a3_with_no_edges(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        w = Tensor(np.zeros(0, dtype=np.float32))
        out = a3_aggregate(x, np.zeros(0, dtype=np.int64),
                           np.zeros(0, dtype=np.int64), w, num_dst=2)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, np.zeros((3, 4)))

    def test_model_on_isolated_seeds(self):
        """Seeds with zero degree still produce logits (self edges)."""
        from repro.graph.csr import CSRGraph
        from repro.nn import build_model

        graph = CSRGraph(indptr=np.zeros(6, dtype=np.int64),
                         indices=np.array([], dtype=np.int64))
        sampler = NeighborSampler(graph, (3,), rng=0)
        sg = sampler.sample(np.array([0, 2, 4]))
        model = build_model("gcn", 4, 2, hidden_dim=4, num_layers=1)
        logits = model(sg, Tensor(np.ones((sg.num_nodes, 4),
                                          dtype=np.float32)))
        assert logits.shape == (3, 2)
        assert np.isfinite(logits.data).all()


class TestSingleClassLoss:
    def test_one_class_dataset(self):
        logits = Tensor(np.zeros((4, 1), dtype=np.float32),
                        requires_grad=True)
        loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)


class TestEightGpuRuns:
    def test_gnnlab_two_samplers_end_to_end(self, tiny_dataset):
        from repro.frameworks import GNNLabFramework

        config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=8,
                           hidden_dim=8)
        report = GNNLabFramework().run_epoch(tiny_dataset, config)
        assert report.epoch_time > 0
        # 8 GPUs -> 2 samplers, 6 trainers.
        assert report.num_trainers == 6

    def test_dgl_eight_gpus_faster_than_two(self, tiny_dataset):
        from repro.frameworks import DGLFramework

        two = DGLFramework().run_epoch(
            tiny_dataset, RunConfig(batch_size=64, fanouts=(3, 4),
                                    num_gpus=2, hidden_dim=8))
        eight = DGLFramework().run_epoch(
            tiny_dataset, RunConfig(batch_size=64, fanouts=(3, 4),
                                    num_gpus=8, hidden_dim=8))
        assert eight.epoch_time < two.epoch_time


class TestBatchLargerThanTrainSet:
    def test_single_giant_batch(self, tiny_dataset):
        from repro.frameworks import FastGLFramework

        config = RunConfig(batch_size=10_000, fanouts=(3,), hidden_dim=8,
                           num_gpus=1)
        report = FastGLFramework().run_epoch(tiny_dataset, config)
        assert report.num_batches == 1


class TestHugeGlobalIds:
    """The paper's §4.3 discussion: 64-bit atomics support up to 2^64
    nodes. The ID map must handle IDs far beyond int32."""

    def test_fused_map_with_2_pow_40_ids(self):
        from repro.sampling import FusedIdMap

        base = np.int64(1) << 40
        ids = np.array([base + 5, base + 9, base + 5, base + 123456789],
                       dtype=np.int64)
        result = FusedIdMap().map(ids)
        assert len(result.unique_globals) == 3
        np.testing.assert_array_equal(
            result.unique_globals[result.locals_of_input], ids
        )

    def test_exact_table_with_huge_ids(self):
        from repro.sampling.idmap.hash_table import ExactOpenAddressTable

        table = ExactOpenAddressTable(8)
        huge = (1 << 40) + 3
        table.fused_map_insert(huge)
        table.fused_map_insert(huge)
        assert table.mapping() == {huge: 0}


class TestRunConfigValidation:
    """Inputs that used to be clamped or silently accepted are rejected
    when the config is built."""

    @pytest.mark.parametrize("name", ["num_gpus", "hidden_dim",
                                      "num_epochs", "reorder_window"])
    def test_count_below_one(self, name):
        with pytest.raises(ConfigError, match=name):
            RunConfig(**{name: 0})

    @pytest.mark.parametrize("ratio", [-0.5, 2.0, float("nan")])
    def test_cache_ratio_outside_unit_interval(self, ratio):
        with pytest.raises(ConfigError, match="cache_ratio_override"):
            RunConfig(cache_ratio_override=ratio)

    def test_boundaries_accepted(self):
        for ratio in (0.0, 1.0):
            assert RunConfig(cache_ratio_override=ratio)
        assert RunConfig(num_gpus=1, hidden_dim=1, num_epochs=1,
                         reorder_window=1)
