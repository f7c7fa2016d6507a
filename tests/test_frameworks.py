"""Tests for the framework strategy bundles and the epoch driver."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.frameworks import (
    DGLFramework,
    FastGLFramework,
    FRAMEWORKS,
    GNNAdvisorFramework,
    GNNLabFramework,
    PyGFramework,
    create,
    fastgl_variant,
)


@pytest.fixture()
def config():
    return RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=2,
                     hidden_dim=8, seed=1)


class TestRegistry:
    def test_all_paper_frameworks(self):
        assert set(FRAMEWORKS) == {
            "pyg", "dgl", "gnnadvisor", "gnnlab", "pagraph", "fastgl",
            "dgl-ooc", "fastgl-ooc",
        }

    def test_create(self):
        assert isinstance(create("dgl"), DGLFramework)
        with pytest.raises(KeyError):
            create("tensorflow")


class TestStrategyBundles:
    """Each framework matches its Table 5 row."""

    def test_pyg(self):
        fw = PyGFramework()
        assert fw.sample_device == "cpu"
        assert fw.compute_mode == "naive"

    def test_dgl(self):
        fw = DGLFramework()
        assert fw.sample_device == "gpu"
        assert fw.make_idmap().map(np.array([1, 1])).report.sync_events == 1

    def test_gnnadvisor(self):
        assert GNNAdvisorFramework().compute_mode == "advisor"

    def test_gnnlab(self, config):
        fw = GNNLabFramework()
        assert fw.num_sampler_gpus(config) == 1
        eight = RunConfig(num_gpus=8)
        assert fw.num_sampler_gpus(eight) == 2

    def test_gnnlab_needs_two_gpus(self):
        fw = GNNLabFramework()
        with pytest.raises(ValueError, match="2 GPUs"):
            fw.num_sampler_gpus(RunConfig(num_gpus=1))

    def test_fastgl(self):
        fw = FastGLFramework()
        assert fw.compute_mode == "memory_aware"
        assert fw.use_reorder and fw.prefetch_topology
        assert fw.make_idmap().map(np.array([1, 1])).report.sync_events == 0


class TestRunEpoch:
    @pytest.mark.parametrize("name", sorted(FRAMEWORKS))
    def test_epoch_report_sane(self, name, tiny_dataset, config):
        report = create(name).run_epoch(tiny_dataset, config)
        assert report.framework == name
        assert report.num_batches == 10  # 600 train ids / 64
        assert report.epoch_time > 0
        phases = report.phases
        assert phases.sample > 0 and phases.memory_io >= 0
        assert phases.compute > 0
        assert phases.idmap <= phases.sample
        assert report.memory_peak_bytes > 0

    def test_fastgl_beats_dgl(self, tiny_dataset, config):
        dgl = DGLFramework().run_epoch(tiny_dataset, config)
        fast = FastGLFramework().run_epoch(tiny_dataset, config)
        assert fast.epoch_time < dgl.epoch_time
        assert fast.phases.memory_io < dgl.phases.memory_io
        assert fast.transfer.num_loaded < dgl.transfer.num_loaded

    def test_training_produces_losses(self, tiny_dataset, config):
        from dataclasses import replace

        cfg = replace(config, train_model=True)
        report = DGLFramework().run_epoch(tiny_dataset, cfg)
        assert len(report.losses) == report.num_batches
        assert all(np.isfinite(report.losses))

    def test_multi_epoch_accumulates(self, tiny_dataset, config):
        from dataclasses import replace

        cfg = replace(config, num_epochs=2)
        one = DGLFramework().run_epoch(tiny_dataset, config)
        two = DGLFramework().run_epoch(tiny_dataset, cfg)
        assert two.num_batches == 2 * one.num_batches
        assert two.epoch_time > one.epoch_time

    def test_multi_epoch_training_continues(self, tiny_dataset, config):
        """One model persists across epochs: later losses are lower."""
        from dataclasses import replace

        cfg = replace(config, num_epochs=3, train_model=True)
        report = DGLFramework().run_epoch(tiny_dataset, cfg)
        n = report.num_batches // 3
        first = np.mean(report.losses[:n])
        last = np.mean(report.losses[-n:])
        assert last < first

    def test_more_gpus_faster(self, tiny_dataset, config):
        from dataclasses import replace

        two = DGLFramework().run_epoch(tiny_dataset, config)
        four = DGLFramework().run_epoch(tiny_dataset,
                                        replace(config, num_gpus=4))
        assert four.epoch_time < two.epoch_time

    def test_custom_sampler_injection(self, tiny_dataset, config):
        from repro.sampling import RandomWalkSampler
        from dataclasses import replace

        sampler = RandomWalkSampler(tiny_dataset.graph, walk_length=2,
                                    num_walks=3, rng=0)
        cfg = replace(config, fanouts=(3,))  # 1-layer model
        report = DGLFramework().run_epoch(tiny_dataset, cfg,
                                          sampler=sampler)
        assert report.epoch_time > 0

    def test_gat_model_runs(self, tiny_dataset, config):
        report = FastGLFramework().run_epoch(tiny_dataset, config,
                                             model_name="gat")
        assert report.epoch_time > 0

    def test_summary_text(self, tiny_dataset, config):
        report = FastGLFramework().run_epoch(tiny_dataset, config)
        text = report.summary()
        assert "fastgl" in text and "batches" in text
        assert "reused" in text

    @pytest.mark.parametrize("window", [2, 3, 100])
    def test_reorder_window_boundaries(self, tiny_dataset, config, window):
        """Any window size (tiny, odd, larger than the epoch) is valid and
        preserves the batch multiset."""
        from dataclasses import replace

        cfg = replace(config, reorder_window=window)
        report = FastGLFramework().run_epoch(tiny_dataset, cfg)
        assert report.num_batches == 10
        assert report.transfer.num_wanted > 0


class TestVariants:
    def test_variant_names(self):
        v = fastgl_variant(match=True, reorder=False, memory_aware=False,
                           fused_map=False)
        assert v.name == "dgl+m"
        assert not v.use_reorder

    def test_variant_without_match_is_naive_loader(self, tiny_dataset,
                                                   config):
        v = fastgl_variant(match=False, reorder=False, memory_aware=True,
                           fused_map=True)()
        report = v.run_epoch(tiny_dataset, config)
        assert report.transfer.num_reused == 0

    def test_reorder_requires_match(self):
        v = fastgl_variant(match=False, reorder=True)
        assert not v.use_reorder

    def test_variant_idmap_switch(self):
        with_fm = fastgl_variant(fused_map=True)()
        without_fm = fastgl_variant(fused_map=False)()
        assert with_fm.make_idmap().map(
            np.array([1, 1])).report.sync_events == 0
        assert without_fm.make_idmap().map(
            np.array([1, 1])).report.sync_events == 1

    def test_stack_ordering(self, tiny_dataset, config):
        """Cumulative stacks are monotonically at least as fast."""
        dgl = DGLFramework().run_epoch(tiny_dataset, config)
        mr = fastgl_variant(memory_aware=False,
                            fused_map=False)().run_epoch(tiny_dataset,
                                                         config)
        full = fastgl_variant()().run_epoch(tiny_dataset, config)
        assert mr.epoch_time < dgl.epoch_time
        assert full.epoch_time <= mr.epoch_time * 1.01


class TestMemoryAccounting:
    def test_detail_keys(self, tiny_dataset, config):
        report = DGLFramework().run_epoch(tiny_dataset, config)
        for key in ("features", "structure", "activations",
                    "edge_messages", "params_opt", "runtime", "cache"):
            assert key in report.memory_detail

    def test_fastgl_skips_edge_messages(self, tiny_dataset, config):
        fast = FastGLFramework().run_epoch(tiny_dataset, config)
        dgl = DGLFramework().run_epoch(tiny_dataset, config)
        assert fast.memory_detail["edge_messages"] == 0
        assert dgl.memory_detail["edge_messages"] > 0

    def test_gnnlab_accounts_cache(self, tiny_dataset, config):
        report = GNNLabFramework().run_epoch(tiny_dataset, config)
        assert report.memory_detail["cache"] > 0

    def test_pagraph_uses_degree_cache(self, tiny_dataset, config):
        from repro.frameworks import PaGraphFramework

        fw = PaGraphFramework()
        report = fw.run_epoch(tiny_dataset, config)
        assert report.transfer.num_cache_hits > 0
        cache = fw._last_cache
        # The cache holds the top-degree nodes.
        threshold = tiny_dataset.graph.degrees[cache.cached_ids].min()
        uncached = np.setdiff1d(np.arange(tiny_dataset.num_nodes),
                                cache.cached_ids)
        if len(uncached):
            assert tiny_dataset.graph.degrees[uncached].max() <= threshold + 1
