"""GNNLab-style framework: factored sample/train GPUs + static cache.

GNNLab dedicates GPU(s) to sampling (1 when running on <= 4 GPUs, 2 above
— the paper's setting for optimal GNNLab performance) and pipelines batch
production against training. Feature traffic is reduced by a static,
presample-ranked device cache sized by the memory left over after the
training workspace — the quantity Table 1 shows collapsing on large
graphs, which is exactly where the cache stops helping.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.frameworks.base import Framework
from repro.graph.datasets import Dataset
from repro.sampling import BaselineIdMap
from repro.sampling.base import Sampler
from repro.transfer.cache import PresampleCachePolicy
from repro.transfer.loader import CachedLoader, FeatureLoader


def _cache_budget(dataset: Dataset, config: RunConfig) -> int:
    if config.cache_ratio_override is not None:
        ratio = max(0.0, float(config.cache_ratio_override))
        return int(min(ratio, 1.0) * dataset.feature_table_bytes())
    return dataset.cache_budget_bytes()


class GNNLabFramework(Framework):
    """GNNLab strategy bundle (factored GPUs + presample cache)."""

    name = "gnnlab"
    sample_device = "gpu"
    compute_mode = "naive"
    pipelined_sampling = True

    def make_idmap(self):
        return BaselineIdMap()

    def num_sampler_gpus(self, config: RunConfig) -> int:
        if config.num_gpus < 2:
            raise ValueError("GNNLab requires at least 2 GPUs (one samples)")
        return 1 if config.num_gpus <= 4 else 2

    def make_loader(self, dataset: Dataset, config: RunConfig,
                    sampler: Sampler, rng) -> FeatureLoader:
        budget = _cache_budget(dataset, config)
        cache = PresampleCachePolicy.build(
            sampler,
            dataset.train_ids,
            dataset.features,
            budget,
            batch_size=min(config.batch_size, len(dataset.train_ids)),
            rng=rng,
        )
        self._last_cache = cache
        return CachedLoader(dataset.features, cache)

    def _extra_device_bytes(self, dataset: Dataset,
                            config: RunConfig) -> int:
        return _cache_budget(dataset, config)

    def _pipeline_stage_times(self, per_trainer_iters, config,
                              network=None) -> tuple:
        """GNNLab's sample stage is its dedicated sampler pool: a round's
        sample time is the *sum* across trainer lanes divided by the
        sampler GPUs (every simulated node factors its own pool on
        cluster runs), not the per-lane max the base hook assumes."""
        samples, ios, nets, computes = super()._pipeline_stage_times(
            per_trainer_iters, config, network=network,
        )
        samplers = self.num_sampler_gpus(config)
        if network is not None:
            samplers *= network.num_nodes
        for r in range(len(samples)):
            sample_sum = sum(iters[r][0] for iters in per_trainer_iters
                             if r < len(iters))
            samples[r] = sample_sum / samplers
        return samples, ios, nets, computes

    def _epoch_timeline(self, per_trainer_iters, param_bytes, trainers,
                        config, network=None) -> tuple:
        """Producer/consumer pipeline: sampler GPU(s) produce rounds, the
        trainer GPUs consume them in lockstep.

        The layout replays the recurrence of
        :func:`repro.sim.pipeline.two_stage_makespan` — round ``r``'s
        consumption begins at ``max(produced_r, consumer_free)`` — so
        the trainer lanes' final spans end exactly at the pipelined
        epoch time instead of the serial sum the old trace showed.
        Cluster runs scale the sampler pool (every simulated node
        factors its own sampler GPUs) and add the halo exchange to each
        consumer lane plus the inter-node gradient hop to the round
        barrier.
        """
        samplers = self.num_sampler_gpus(config)
        if network is not None:
            samplers *= network.num_nodes
        rounds = max(len(iters) for iters in per_trainer_iters)
        sync, net_sync = self._sync_times(param_bytes, trainers, config,
                                          network=network)
        spans: list = []
        producer_free = 0.0
        consumer_free = 0.0
        for r in range(rounds):
            sample_sum = 0.0
            rest_max = 0.0
            for lane, iters in enumerate(per_trainer_iters):
                if r < len(iters):
                    sample_t, io_t, comp_t = iters[r]
                    net_t = (network.lane_time(lane, r)
                             if network is not None else 0.0)
                    sample_sum += sample_t
                    rest_max = max(rest_max, io_t + net_t + comp_t)
            produce = sample_sum / samplers
            if produce > 0:
                spans.append({
                    "lane": "sampler", "name": f"sample[{r}]",
                    "cat": "sample", "start": producer_free,
                    "dur": produce, "batch": r,
                })
            produced_at = producer_free + produce
            producer_free = produced_at
            begin = max(produced_at, consumer_free)
            for lane, iters in enumerate(per_trainer_iters):
                if r >= len(iters):
                    continue
                _, io_t, comp_t = iters[r]
                net_t = (network.lane_time(lane, r)
                         if network is not None else 0.0)
                cursor = begin
                for phase, duration in (("memory_io", io_t),
                                        ("network", net_t),
                                        ("compute", comp_t)):
                    if duration > 0:
                        spans.append({
                            "lane": f"gpu{lane}", "name": f"{phase}[{r}]",
                            "cat": phase, "start": cursor, "dur": duration,
                            "batch": r,
                        })
                        cursor += duration
            if sync > 0:
                for lane in range(len(per_trainer_iters)):
                    spans.append({
                        "lane": f"gpu{lane}", "name": f"allreduce[{r}]",
                        "cat": "allreduce", "start": begin + rest_max,
                        "dur": sync, "batch": r,
                    })
            if net_sync > 0:
                for lane in range(len(per_trainer_iters)):
                    spans.append({
                        "lane": f"gpu{lane}",
                        "name": f"allreduce_net[{r}]",
                        "cat": "network", "start": begin + rest_max + sync,
                        "dur": net_sync, "batch": r,
                    })
            consumer_free = begin + rest_max + sync + net_sync
        return consumer_free, spans
