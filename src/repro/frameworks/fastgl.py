"""FastGL and its ablation variants.

The full FastGL (paper Fig. 5) combines:

* **Fused-Map** sampling (synchronization-free ID map),
* **Match-Reorder** memory IO (reuse resident rows; greedy-reorder each
  window of sampled batches; prefetch the next batch's topology under
  compute; use a presample cache when device memory is left over — the
  paper's Section 5),
* **Memory-Aware** computation (shared-memory staged aggregation).

:func:`fastgl_variant` builds the intermediate stacks of the paper's
ablation (Fig. 3 and Fig. 15): ``Naive+MR``, ``Naive+MR+MA``, etc., all on
the DGL baseline.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.frameworks.base import Framework
from repro.frameworks.gnnlab import _cache_budget
from repro.graph.datasets import Dataset
from repro.obs import get_registry
from repro.pipeline.epoch import OCCUPANCY_BUCKETS, make_span, stall_counter
from repro.pipeline.graph import stage_graph_makespan
from repro.sampling import BaselineIdMap, FusedIdMap
from repro.sampling.base import Sampler
from repro.transfer.cache import PresampleCachePolicy
from repro.transfer.loader import FeatureLoader, MatchLoader, NaiveLoader
from repro.transfer.storage_loader import (
    build_storage_loader,
    page_cache_budget_bytes,
)


class FastGLFramework(Framework):
    """The full FastGL strategy bundle."""

    name = "fastgl"
    sample_device = "gpu"
    compute_mode = "memory_aware"
    prefetch_topology = True
    use_reorder = True
    #: The fused Memory-Aware kernel accumulates in shared memory and never
    #: materializes per-edge messages.
    materialize_edge_messages = False
    #: Match is always on for FastGL; ablations toggle it off.
    use_match = True
    #: Use leftover memory as a feature cache (paper Section 5).
    use_cache = True

    def make_idmap(self):
        return FusedIdMap()

    def make_loader(self, dataset: Dataset, config: RunConfig,
                    sampler: Sampler, rng) -> FeatureLoader:
        cache = None
        if self.use_cache:
            budget = _cache_budget(dataset, config)
            if budget > 0:
                cache = PresampleCachePolicy.build(
                    sampler,
                    dataset.train_ids,
                    dataset.features,
                    budget,
                    batch_size=min(config.batch_size,
                                   len(dataset.train_ids)),
                    rng=rng,
                )
        if not self.use_match:
            return NaiveLoader(dataset.features)
        return MatchLoader(dataset.features, cache=cache)

    def _extra_device_bytes(self, dataset: Dataset,
                            config: RunConfig) -> int:
        return _cache_budget(dataset, config) if self.use_cache else 0


class OutOfCoreFastGLFramework(FastGLFramework):
    """FastGL with an SSD-resident feature table.

    Match-Reorder now operates *in front of* the storage tier: rows
    resident from the previous batch never become page requests, so the
    overlap that used to save PCIe bytes saves SSD reads too. The
    leftover device memory hosts the page cache (direct-access mode)
    instead of the in-core row cache, and the IO scheduler overlaps
    storage reads with sampling and compute through the prefetch queue.
    """

    name = "fastgl-ooc"
    #: The in-core presample row cache has no host table to shadow; spare
    #: memory is spent on the page cache instead.
    use_cache = False

    def make_loader(self, dataset: Dataset, config: RunConfig,
                    sampler: Sampler, rng) -> FeatureLoader:
        loader = build_storage_loader(dataset, config,
                                      use_match=self.use_match)
        self._last_loader = loader
        return loader

    def _extra_device_bytes(self, dataset: Dataset,
                            config: RunConfig) -> int:
        if config.storage_access == "direct":
            return page_cache_budget_bytes(dataset, config)
        return 0

    def _epoch_timeline(self, lanes: list, sync: float, net_sync: float,
                        config: RunConfig) -> tuple:
        """Sample -> storage-read -> train pipeline per lockstep round,
        at most ``storage_prefetch_depth`` rounds in flight.

        The stage graph records every executed stage interval, so the
        exported timeline shows the actual overlap (one lane per
        pipeline stage) and its last span ends at the pipelined epoch
        time. Cluster runs extend the train stage with the round's halo
        exchange (features must land before the forward pass) and the
        inter-node gradient hop; both render as ``network`` spans carved
        out of the stage interval, so reconciliation is untouched.
        Publishes ``repro_storage_queue_occupancy`` and each stage's idle
        time as ``repro_pipeline_stall_seconds_total{pipeline="storage"}``.
        """
        samples, reads, halos, computes = self._pipeline_stage_times(
            lanes, config)
        trains = [halo + comp + sync + net_sync
                  for halo, comp in zip(halos, computes)]
        names = ("sample", "memory_io", "compute")
        stage_times = (samples, reads, trains)
        registry = get_registry()
        occupancy = registry.histogram(
            "repro_storage_queue_occupancy",
            "Batches in flight (sampled but not yet trained) at admission",
            buckets=OCCUPANCY_BUCKETS,
        ).labels(pipeline="storage")
        records: list = []
        makespan = stage_graph_makespan(
            stage_times, names=names,
            max_in_flight=config.storage_prefetch_depth,
            record=records.append, admit=occupancy.observe,
        )
        if registry.enabled and makespan > 0:
            stalls = stall_counter(registry)
            for name, times in zip(names, stage_times):
                idle = makespan - float(sum(times))
                stalls.labels(pipeline="storage", stage=name).inc(
                    max(0.0, idle))
        lane_of = {"sample": "sampler", "memory_io": "nvme"}
        spans: list = []
        for stage, batch, start, end in records:
            if end <= start:
                continue
            if stage != "compute":
                spans.append(make_span(lane_of[stage], stage, stage, start,
                                       end - start, batch))
                continue
            cursor = start
            if halos[batch] > 0:
                spans.append(make_span("trainers", "halo", "network",
                                       cursor, halos[batch], batch))
                cursor += halos[batch]
            body_end = end - net_sync
            if body_end > cursor:
                spans.append(make_span("trainers", "compute", "compute",
                                       cursor, body_end - cursor, batch))
            if net_sync > 0:
                spans.append(make_span("trainers", "allreduce_net",
                                       "network", body_end, net_sync, batch))
        return makespan, spans


def fastgl_variant(
    match: bool = True,
    reorder: bool = True,
    memory_aware: bool = True,
    fused_map: bool = True,
    cache: bool = False,
    name: str | None = None,
) -> type:
    """Build an ablation variant class on the DGL baseline.

    Flags map to the paper's technique abbreviations: ``match``+``reorder``
    = MR, ``memory_aware`` = MA, ``fused_map`` = FM. The returned class can
    be instantiated like any framework.
    """
    label = name or "dgl+" + "".join(
        tag
        for enabled, tag in [
            (match, "M"),
            (reorder, "R"),
            (memory_aware, "A"),
            (fused_map, "F"),
        ]
        if enabled
    ).lower()

    class Variant(FastGLFramework):
        pass

    Variant.name = label
    Variant.use_match = match
    Variant.use_reorder = reorder and match
    Variant.use_cache = cache
    Variant.compute_mode = "memory_aware" if memory_aware else "naive"
    Variant.materialize_edge_messages = not memory_aware
    Variant.prefetch_topology = match
    if not fused_map:
        Variant.make_idmap = lambda self: BaselineIdMap()
    Variant.__name__ = f"Variant_{label}"
    return Variant
