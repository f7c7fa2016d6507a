"""Per-framework serving profiles: the hot path behind one micro-batch.

A :class:`ServingProfile` bundles exactly the strategy hooks a
:class:`~repro.frameworks.base.Framework` already defines — sampler +
ID map, feature loader, compute cost mode, topology prefetch — into the
three-phase service-time model of one inference micro-batch:

    sample (draw + ID map)  ->  memory IO (feature fetch)  ->  aggregate

so ``dgl`` serves with the 3-kernel ID map, naive loads and naive
aggregation while ``fastgl`` serves with Fused-Map, Match residency
(kept *across* micro-batches — the server never resets it) and the
Memory-Aware kernel. The serving-latency gap between the two is the
paper's Fig. 9 speedup transplanted onto the request path.

Each micro-batch is priced by :meth:`Framework.price_batch
<repro.frameworks.base.Framework.price_batch>` against the framework's
:meth:`~repro.frameworks.base.Framework.cost_context`, the same method
that prices a training batch on one trainer lane.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.config import RunConfig
from repro.utils.rng import RngFactory


@dataclass
class ServiceTimes:
    """Modeled seconds of one micro-batch's three serving phases."""

    sample: float
    memory_io: float
    compute: float

    @property
    def total(self) -> float:
        return self.sample + self.memory_io + self.compute


class ServingProfile:
    """One framework's modeled hot path for online inference."""

    def __init__(self, framework, dataset, config: RunConfig,
                 model: str = "gcn") -> None:
        self.framework = framework
        self.name = framework.name
        self.dataset = dataset
        self.config = config
        self.model = model
        rngs = RngFactory(config.seed)
        self.sampler = framework.make_sampler(
            dataset, config, rngs.child("serve-sampler"))
        self.loader = framework.make_loader(
            dataset, config, self.sampler, rngs.child("serve-loader"))
        self.costs = framework.cost_context(dataset, config, model)
        #: FastGL-style profiles reorder the dispatch backlog by match
        #: degree (the serving analogue of Greedy Reorder).
        self.reorder_backlog = bool(getattr(framework, "use_reorder", False))

    @classmethod
    def build(cls, framework, dataset, config: RunConfig | None = None,
              model: str = "gcn", spec=None) -> "ServingProfile":
        """Accepts a framework name, class, or instance."""
        from repro.frameworks import create

        if isinstance(framework, str):
            kwargs = {"spec": spec} if spec is not None else {}
            framework = create(framework, **kwargs)
        elif isinstance(framework, type):
            framework = framework(**({"spec": spec} if spec else {}))
        return cls(framework, dataset, config or RunConfig(num_gpus=1),
                   model=model)

    def copy(self) -> "ServingProfile":
        """An independent copy of this never-served profile: it starts
        exactly where a fresh :meth:`build` from the same arguments
        would, without repeating the sampler, presample-cache and
        cost-context build (the fleet gives every replica a copy of one
        template).

        The copy owns what serving mutates: the sampler's RNG, Match
        residency, cache hit/miss counters and storage page caches. It
        shares what nothing mutates: the framework, the dataset with its
        graph and feature store, the run config, the cost context and a
        static cache's ID array. (A served profile's loaders may hold
        metric-registry handles, which do not copy.)
        """
        cache = getattr(self.loader, "cache", None)
        shared = (self.framework, self.dataset, self.dataset.graph,
                  self.dataset.features, self.config, self.costs,
                  getattr(cache, "cached_ids", None))
        memo = {id(obj): obj for obj in shared if obj is not None}
        return copy.deepcopy(self, memo)

    @property
    def resident_nodes(self) -> np.ndarray:
        """Feature rows currently resident on the device (Match state);
        empty for loaders without cross-batch residency."""
        state = getattr(self.loader, "_state", None)
        if state is None:
            return np.empty(0, dtype=np.int64)
        return state.resident

    def service(self, seeds: np.ndarray) -> tuple:
        """Run one micro-batch through the modeled hot path.

        Returns ``(times, subgraph, transfer_report)``. Mutates the
        loader's residency state — consecutive calls model consecutive
        batches on the same device, which is what lets Match reuse rows
        across micro-batches.
        """
        subgraph = self.sampler.sample(np.asarray(seeds, dtype=np.int64))
        priced = self.framework.price_batch(subgraph, self.sampler,
                                            self.loader, self.costs,
                                            trainers=1)
        times = ServiceTimes(sample=priced.sample, memory_io=priced.memory_io,
                             compute=priced.compute.total_time)
        return times, subgraph, priced.transfer
