"""Sampler protocol shared by all sampling algorithms."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.config import COST_MODEL
from repro.errors import SamplingError
from repro.sampling.idmap.base import sorted_unique
from repro.sampling.subgraph import SampledSubgraph


class Sampler(ABC):
    """Draws one :class:`SampledSubgraph` per mini-batch from ``graph``.

    ``device`` ("gpu" or "cpu") selects the sampling-throughput constant;
    the ID map's own device comes from the injected ID-map strategy.
    """

    device = "gpu"

    @abstractmethod
    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        """Sample a subgraph rooted at ``seeds``."""

    def reach(self, seeds: np.ndarray) -> np.ndarray:
        """The sorted unique nodes of ``sample(seeds).input_nodes``, with
        the same seed checks and the same RNG draws.

        Callers that need only which nodes a draw visits (the presample
        cache) call this; a sampler may answer without building the
        subgraph.
        """
        return self.sample(seeds).unique_input_nodes()

    def _checked_seeds(self, seeds: np.ndarray) -> np.ndarray:
        """``seeds`` as int64; raises :class:`SamplingError` unless they
        are non-empty, unique node IDs of ``self.graph``.

        The range check keeps a negative ID from indexing the graph's
        arrays from the end.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        if len(seeds) == 0:
            raise SamplingError("seeds must be non-empty")
        if seeds.min() < 0 or seeds.max() >= self.graph.num_nodes:
            raise SamplingError("seeds must be node IDs of the graph")
        if len(sorted_unique(seeds)) != len(seeds):
            raise SamplingError("seeds must be unique")
        return seeds

    def modeled_sample_time(self, subgraph: SampledSubgraph) -> float:
        """Seconds for the *draw* part of the sample phase (excl. ID map)."""
        if self.device == "cpu":
            throughput = COST_MODEL.cpu_sample_edges_per_s
        else:
            throughput = COST_MODEL.gpu_sample_edges_per_s
        hops = max(1, subgraph.num_layers)
        return (subgraph.num_sampled_edges / throughput
                + hops * COST_MODEL.sample_hop_overhead_s)
