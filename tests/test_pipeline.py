"""Tests for the FastGLTrainer end-to-end pipeline (Fig. 5)."""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.core.pipeline import FastGLTrainer, TrainHistory


@pytest.fixture()
def trainer(tiny_dataset):
    config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8,
                       reorder_window=4, seed=2)
    return FastGLTrainer(tiny_dataset, "gcn", config)


class TestFastGLTrainer:
    def test_train_returns_history(self, trainer):
        history = trainer.train(num_epochs=1)
        assert history.num_batches == 10  # 600 / 64
        assert len(history.losses) == 10
        assert history.modeled_time > 0
        assert history.sample_time > 0
        assert history.compute_time > 0

    def test_loss_decreases_over_epochs(self, trainer):
        history = trainer.train(num_epochs=4)
        epochs = history.epoch_mean_losses(4)
        assert epochs[-1] < epochs[0]

    def test_match_reuses_rows(self, trainer):
        history = trainer.train(num_epochs=1)
        assert history.rows_reused > 0

    def test_rows_loaded_without_cache(self):
        """With no leftover device memory (no cache), non-overlapping rows
        must cross PCIe."""
        from helpers import make_spec
        from repro.graph.datasets import Dataset

        dataset = Dataset(make_spec(left_memory_bytes=0), seed=3)
        config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8)
        trainer = FastGLTrainer(dataset, "gcn", config)
        history = trainer.train(num_epochs=1)
        assert history.rows_loaded > 0
        assert history.rows_reused > 0

    def test_training_resumes_across_calls(self, trainer):
        first = trainer.train(num_epochs=2)
        second = trainer.train(num_epochs=2)
        assert np.mean(second.losses) < np.mean(first.losses)

    def test_evaluate_beats_chance_after_training(self, trainer,
                                                  tiny_dataset):
        trainer.train(num_epochs=4)
        accuracy = trainer.evaluate(tiny_dataset.train_ids[:128])
        assert accuracy > 2.0 / tiny_dataset.num_classes

    def test_validation_leaves_training_draws_alone(self, tiny_dataset):
        """Evaluation samples from its own stream, so validating after
        each epoch must not change the later epochs' losses."""
        config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8,
                           reorder_window=4, seed=2)
        plain = FastGLTrainer(tiny_dataset, "gcn", config).train(2)
        validated = FastGLTrainer(tiny_dataset, "gcn", config).train(
            2, validate=True)
        assert validated.val_accuracies
        assert validated.losses == plain.losses

    def test_invalid_epochs(self, trainer):
        with pytest.raises(ValueError):
            trainer.train(0)

    def test_gin_model(self, tiny_dataset):
        config = RunConfig(batch_size=64, fanouts=(3, 4), hidden_dim=8)
        trainer = FastGLTrainer(tiny_dataset, "gin", config)
        history = trainer.train(1)
        assert all(np.isfinite(history.losses))


class TestTrainHistory:
    def test_epoch_mean_losses(self):
        history = TrainHistory(losses=[4.0, 2.0, 3.0, 1.0])
        means = history.epoch_mean_losses(2)
        assert means == [3.0, 2.0]

    def test_epoch_mean_losses_empty(self):
        assert TrainHistory().epoch_mean_losses(2) == []
        assert TrainHistory(losses=[1.0]).epoch_mean_losses(0) == []
