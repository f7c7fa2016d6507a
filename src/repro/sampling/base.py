"""Sampler protocol shared by all sampling algorithms."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.config import COST_MODEL
from repro.sampling.subgraph import SampledSubgraph


class Sampler(ABC):
    """Draws one :class:`SampledSubgraph` per mini-batch.

    ``device`` ("gpu" or "cpu") selects the sampling-throughput constant;
    the ID map's own device comes from the injected ID-map strategy.
    """

    device = "gpu"

    @abstractmethod
    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        """Sample a subgraph rooted at ``seeds``."""

    def modeled_sample_time(self, subgraph: SampledSubgraph) -> float:
        """Seconds for the *draw* part of the sample phase (excl. ID map)."""
        if self.device == "cpu":
            throughput = COST_MODEL.cpu_sample_edges_per_s
        else:
            throughput = COST_MODEL.gpu_sample_edges_per_s
        hops = max(1, subgraph.num_layers)
        return (subgraph.num_sampled_edges / throughput
                + hops * COST_MODEL.sample_hop_overhead_s)
