"""Batch pricing: training epochs, the serving profile and
:class:`FastGLTrainer` price a mini-batch through one cost context
(``Framework.cost_context``) and one method (``Framework.price_batch``)."""

import pytest

from repro.config import RunConfig
from repro.core.pipeline import FastGLTrainer
from repro.frameworks import DGLFramework, FastGLFramework


@pytest.mark.parametrize("framework", [DGLFramework, FastGLFramework],
                         ids=["dgl", "fastgl"])
@pytest.mark.parametrize("model", ["gcn", "gin", "gat"])
def test_modeled_epoch_independent_of_train_model(tiny_dataset, framework,
                                                  model):
    """Gradient sync and the workspace model price the profile's
    parameter bytes whether or not a real model trains."""
    def run(train_model):
        config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=2,
                           hidden_dim=8, train_model=train_model)
        return framework().run_epoch(tiny_dataset, config, model_name=model)

    off, on = run(False), run(True)
    assert on.losses and not off.losses
    assert on.epoch_time == off.epoch_time
    assert on.phases == off.phases
    assert on.memory_peak_bytes == off.memory_peak_bytes
    assert on.spans == off.spans


def test_trainer_honours_cache_ratio_override(tiny_dataset):
    """With no feature cache every first touch of a row crosses PCIe."""
    config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8,
                       cache_ratio_override=0.0)
    history = FastGLTrainer(tiny_dataset, "gcn", config).train(num_epochs=1)
    assert history.rows_loaded > 0
