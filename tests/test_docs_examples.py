"""Executable checks of the documentation's code snippets (docs/api.md).

Docs rot; these tests run the same call sequences the API tour shows, on
the tiny test dataset, so a breaking rename fails loudly here.
"""

import numpy as np

from repro.config import RunConfig


def test_dataset_surface(tiny_dataset):
    dataset = tiny_dataset
    assert dataset.graph.num_nodes > 0
    rows = dataset.features.gather(dataset.train_ids[:4])
    assert rows.shape == (4, dataset.feature_dim)
    assert dataset.cache_budget_bytes() >= 0
    assert len(dataset.val_ids) and len(dataset.test_ids)


def test_sampling_surface(tiny_dataset):
    from repro import FusedIdMap, NeighborSampler

    sampler = NeighborSampler(tiny_dataset.graph, fanouts=(3, 4),
                              idmap=FusedIdMap(), rng=0)
    subgraph = sampler.sample(tiny_dataset.train_ids[:16])
    assert subgraph.num_layers == 2
    assert len(subgraph.input_nodes) >= 16
    assert subgraph.idmap_report.modeled_time() > 0


def test_framework_surface(tiny_dataset):
    from repro import create

    config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=2,
                       hidden_dim=8)
    report = create("fastgl").run_epoch(tiny_dataset, config,
                                        model_name="gcn")
    assert report.epoch_time > 0
    assert set(report.phases.fractions()) == {"sample", "memory_io",
                                              "compute"}
    assert isinstance(report.summary(), str)


def test_trainer_surface(tiny_dataset, tmp_path):
    from repro import FastGLTrainer

    config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8)
    trainer = FastGLTrainer(tiny_dataset, "gcn", config)
    history = trainer.train(num_epochs=1, validate=True)
    assert history.losses and history.val_accuracies
    assert 0.0 <= trainer.evaluate(tiny_dataset.test_ids[:64]) <= 1.0
    trainer.model.save(tmp_path / "gcn.npz")
    assert (tmp_path / "gcn.npz").exists()


def test_core_techniques_surface():
    from repro.core import (
        A3,
        ComputeCostModel,
        MatchState,
        greedy_reorder,
        match_degree_matrix,
        match_split,
    )

    state = MatchState()
    state.step(np.array([1, 2, 3]))
    result = state.step(np.array([2, 3, 4]))
    assert result.num_reused == 2
    assert match_split(np.array([1, 2]), np.array([2, 9])).num_loaded == 1

    sets = [np.array([1, 2, 3]), np.array([2, 3]), np.array([9])]
    order = greedy_reorder(match_degree_matrix(sets))
    assert sorted(order) == [0, 1, 2]

    cost = ComputeCostModel(mode="memory_aware").aggregation_cost(10, 100,
                                                                  64)
    assert cost.time > 0
    assert A3() is not None


def test_gpu_surface():
    from repro.gpu import CacheSim, PCIeLink, RTX3090
    from repro.gpu.kernels import autotune_thread_block
    from repro.gpu.spec import A100

    CacheSim(128 * 1024).access(np.arange(10) * 128)
    assert PCIeLink().transfer_time(1e6, concurrent_links=4) > 0
    config = autotune_thread_block(256, 12, A100)
    config.validate(A100)
    assert RTX3090.global_bw == 938e9


def test_experiment_surface():
    from repro.experiments import tab03_gpu_spec

    result = tab03_gpu_spec.run()
    assert "Global Memory" in result.render()
