"""The FastGL training pipeline (the paper's Fig. 5), as a library API.

:class:`FastGLTrainer` is a thin stateful wrapper over
:class:`repro.frameworks.FastGLFramework`: each epoch it samples every
mini-batch with the framework's Fused-Map sampler, runs the framework's
lane step (Greedy Reorder per window, then the Match load and
Memory-Aware compute priced through ``Framework.price_batch``, the same
method ``run_epoch`` and the serving profile use), and trains the real
numpy model batch by batch with ``run_epoch``'s training step.
It owns a persistent model/optimizer, so it is the right entry point
for an application that wants a *trained model* rather than an
epoch-time report (use :class:`repro.frameworks.FastGLFramework` for
that).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import BATCH_LOCALITY, RunConfig
from repro.gpu.spec import GPUSpec, RTX3090
from repro.graph.datasets import Dataset
from repro.graph.partition import MinibatchPlan
from repro.nn import Adam, Tensor, build_model, no_grad
from repro.utils.rng import RngFactory


@dataclass
class TrainHistory:
    """What one :meth:`FastGLTrainer.train` call produced."""

    losses: list = field(default_factory=list)
    #: Modeled GPU seconds per phase, accumulated.
    sample_time: float = 0.0
    memory_io_time: float = 0.0
    compute_time: float = 0.0
    num_batches: int = 0
    rows_loaded: int = 0
    rows_reused: int = 0
    #: Validation accuracy after each epoch (when requested).
    val_accuracies: list = field(default_factory=list)

    @property
    def modeled_time(self) -> float:
        return self.sample_time + self.memory_io_time + self.compute_time

    def epoch_mean_losses(self, num_epochs: int) -> list:
        """Mean loss per epoch (for convergence plots)."""
        if num_epochs <= 0 or not self.losses:
            return []
        per_epoch = max(1, len(self.losses) // num_epochs)
        return [
            float(np.mean(self.losses[i:i + per_epoch]))
            for i in range(0, len(self.losses), per_epoch)
        ]


class FastGLTrainer:
    """End-to-end FastGL training over one dataset.

    Parameters mirror the paper's setup; the trainer keeps its model and
    optimizer across :meth:`train` calls so training can be resumed. It
    is one device: batches are priced at one concurrent host link
    whatever ``config.num_gpus`` says.
    """

    def __init__(
        self,
        dataset: Dataset,
        model_name: str = "gcn",
        config: RunConfig | None = None,
        spec: GPUSpec = RTX3090,
        learning_rate: float = 3e-3,
    ) -> None:
        # Imported here: repro.frameworks imports repro.core, whose
        # package init imports this module.
        from repro.frameworks.fastgl import FastGLFramework

        self.dataset = dataset
        self.config = config or RunConfig()
        self.spec = spec
        self.model_name = model_name
        self.framework = FastGLFramework(spec)
        rngs = RngFactory(self.config.seed)
        self._rngs = rngs
        self.sampler = self.framework.make_sampler(
            dataset, self.config, rngs.child("trainer-sampler"))
        # The presample cache draws from the shared sampler, so the
        # loader must be built right after it.
        self.loader = self.framework.make_loader(
            dataset, self.config, self.sampler, rngs.child("trainer-cache"))
        # Evaluation draws from its own stream, so validating never
        # shifts the training sampler's draws.
        self._eval_sampler = self.framework.make_sampler(
            dataset, self.config, rngs.child("trainer-eval"))
        self.model = build_model(
            model_name, dataset.feature_dim, dataset.num_classes,
            hidden_dim=self.config.hidden_dim,
            num_layers=self.config.num_layers,
            seed=rngs.child_seed("trainer-model"),
        )
        self.optimizer = Adam(self.model.parameters(), lr=learning_rate)
        self._costs = self.framework.cost_context(dataset, self.config,
                                                  model_name)
        self._epochs_done = 0

    # -- training -----------------------------------------------------------
    def train(self, num_epochs: int = 1,
              validate: bool = False,
              val_batch: int = 512) -> TrainHistory:
        """Run ``num_epochs`` of Fig.-5 training; returns the history.

        With ``validate``, the model is evaluated on (a slice of) the
        dataset's validation split after every epoch.
        """
        if num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        history = TrainHistory()
        plan = MinibatchPlan(self.dataset.train_ids, self.config.batch_size,
                             locality=BATCH_LOCALITY)
        framework = self.framework
        for _ in range(num_epochs):
            epoch_rng = self._rngs.child(f"trainer-epoch{self._epochs_done}")
            batches = plan.batches(epoch_rng)
            subgraphs = [self.sampler.sample(batch) for batch in batches]
            lane = framework.run_lane(subgraphs, self.sampler, self.loader,
                                      self.config, self._costs, trainers=1)
            for position, priced in lane:
                history.sample_time += priced.sample
                history.memory_io_time += priced.memory_io
                history.compute_time += priced.compute.total_time
                history.rows_loaded += priced.transfer.num_loaded
                history.rows_reused += priced.transfer.num_reused
                history.losses.append(framework.train_batch(
                    self.model, self.optimizer, self.dataset,
                    subgraphs[position], batches[position]))
                history.num_batches += 1
            self._epochs_done += 1
            if validate and len(self.dataset.val_ids):
                history.val_accuracies.append(
                    self.evaluate(self.dataset.val_ids[:val_batch])
                )
        return history

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, seeds: np.ndarray) -> float:
        """Accuracy of the current model on ``seeds`` (sampled inference)."""
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        subgraph = self._eval_sampler.sample(seeds)
        with no_grad():
            features = Tensor(
                self.dataset.features.gather(subgraph.input_nodes)
            )
            logits = self.model(subgraph, features)
        predictions = logits.data.argmax(axis=1)
        return float((predictions == self.dataset.labels[seeds]).mean())
