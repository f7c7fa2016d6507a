"""GNNLab-style framework: factored sample/train GPUs + static cache.

GNNLab dedicates GPU(s) to sampling (1 when running on <= 4 GPUs, 2 above
— the paper's setting for optimal GNNLab performance) and pipelines batch
production against training: a two-stage producer/consumer graph on the
pipeline engine (:func:`repro.pipeline.graph.stage_graph_makespan`).
Feature traffic is reduced by a static, presample-ranked device cache
sized by the memory left over after the training workspace — the
quantity Table 1 shows collapsing on large graphs, which is exactly
where the cache stops helping.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.frameworks.base import (
    PHASE_SPAN_ORDER,
    Framework,
    barrier_spans,
    carve_lane,
    halo_time,
)
from repro.graph.datasets import Dataset
from repro.pipeline.epoch import make_span
from repro.pipeline.graph import stage_graph_makespan
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

        A two-stage stage graph with no bounds: round ``r``'s
        consumption begins at ``max(produced_r, consumer_free)``, so the
        trainer lanes' final spans end exactly at the pipelined epoch
        time. The sample stage comes from :meth:`_pipeline_stage_times`
        (the sampler pool); a round's consumption is its slowest lane's
        IO + halo + compute, then the gradient barrier.
        """
        produce = self._pipeline_stage_times(per_trainer_iters, config,
                                             network=network)[0]
        sync, net_sync = self._sync_times(param_bytes, trainers, config,
                                          network=network)
        rest = [0.0] * len(produce)
        for lane, iters in enumerate(per_trainer_iters):
            for r, (_, io_t, comp_t) in enumerate(iters):
                rest[r] = max(rest[r],
                              io_t + halo_time(network, lane, r) + comp_t)
        records: list = []
        makespan = stage_graph_makespan(
            [produce, [t + sync + net_sync for t in rest]],
            names=("sample", "train"), record=records.append,
        )
        starts = {(stage, r): start for stage, r, start, _ in records}
        spans: list = []
        for r, sample_t in enumerate(produce):
            if sample_t > 0:
                spans.append(make_span("sampler", "sample", "sample",
                                       starts["sample", r], sample_t, r))
            begin = starts["train", r]
            for lane, iters in enumerate(per_trainer_iters):
                if r < len(iters):
                    _, io_t, comp_t = iters[r]
                    carve_lane(spans, lane, r, begin, zip(
                        PHASE_SPAN_ORDER[1:],
                        (io_t, halo_time(network, lane, r), comp_t)))
            barrier_spans(spans, len(per_trainer_iters), r, begin + rest[r],
                          sync, net_sync)
        return makespan, spans
