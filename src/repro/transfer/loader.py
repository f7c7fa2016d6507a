"""Feature loaders — the memory-IO phase strategies.

Every loader answers the same question per mini-batch: *which feature rows
cross PCIe?* The answers:

* :class:`NaiveLoader` — all input nodes (PyG/DGL).
* :class:`CachedLoader` — cache misses only (PaGraph/GNNLab).
* :class:`MatchLoader` — rows not resident from the previous batch
  (FastGL's Match), optionally consulting a cache for the remainder
  (FastGL when spare memory exists, Section 5 of the paper).

Loaders count bytes; the PCIe link model converts bytes to seconds. When a
framework actually trains (Fig. 16) it gathers the real feature values
from the dataset's table itself (``Framework.train_batch``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.config import COST_MODEL
from repro.core.match import MatchState
from repro.errors import FaultError, TransferStallError
from repro.faults import call_with_faults, get_fault_plan
from repro.faults.retry import DEFAULT_RETRY_POLICY
from repro.gpu.pcie import PCIeLink
from repro.graph.features import FeatureStore
from repro.obs import get_registry
from repro.sampling.subgraph import SampledSubgraph
from repro.transfer.cache import StaticFeatureCache


@dataclass
class TransferReport:
    """Byte accounting of one mini-batch's memory-IO phase."""

    num_wanted: int = 0
    num_loaded: int = 0
    num_reused: int = 0
    num_cache_hits: int = 0
    feature_bytes: int = 0
    structure_bytes: int = 0
    #: Number of discrete host->device transfers (latency accounting).
    num_transfers: int = 0
    #: Transfer/read retries absorbed by the resilience layer.
    num_retries: int = 0
    #: Modeled seconds of retry backoff + injected stalls (part of IO).
    retry_delay_s: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.feature_bytes + self.structure_bytes

    def merge(self, other: "TransferReport") -> "TransferReport":
        self.num_wanted += other.num_wanted
        self.num_loaded += other.num_loaded
        self.num_reused += other.num_reused
        self.num_cache_hits += other.num_cache_hits
        self.feature_bytes += other.feature_bytes
        self.structure_bytes += other.structure_bytes
        self.num_transfers += other.num_transfers
        self.num_retries += getattr(other, "num_retries", 0)
        self.retry_delay_s += getattr(other, "retry_delay_s", 0.0)
        return self

    def modeled_time(self, link: PCIeLink,
                     concurrent_links: int = 1) -> float:
        """Seconds on the host link (gather + DMA) for this report."""
        if self.total_bytes == 0:
            return self.retry_delay_s
        gather = self.feature_bytes / COST_MODEL.host_gather_bytes_per_s
        bw = link.effective_bandwidth(concurrent_links)
        return (gather + self.num_transfers * link.latency_s
                + self.total_bytes / bw + self.retry_delay_s)


class FeatureLoader(ABC):
    """Per-mini-batch feature-loading strategy."""

    def __init__(self, store: FeatureStore) -> None:
        self.store = store

    def reset_epoch(self) -> None:
        """Hook: drop any cross-batch state at epoch boundaries."""

    def plan(self, subgraph: SampledSubgraph,
             key: int | None = None) -> TransferReport:
        """Decide what to load for ``subgraph`` (byte accounting only).

        Template method: the strategy lives in :meth:`_plan`; this
        wrapper additionally injects ``pcie_stall`` faults (a stalled
        host->device transfer is retried with backoff; exhaustion
        invalidates any provisional residency and raises
        :class:`~repro.errors.TransferStallError`) and reports the plan's
        accounting to the metrics registry when observability is enabled.
        ``key`` names the transfer's ``pcie_stall`` operation (and, on
        the storage tier, its ``storage_slow`` draw); without it each
        site draws its next sequence key.
        """
        fault_plan = get_fault_plan()
        if fault_plan.enabled:
            try:
                report, stats = call_with_faults(
                    lambda: self._plan(subgraph, key),
                    site="pcie_stall",
                    policy=DEFAULT_RETRY_POLICY,
                    exc_factory=lambda attempts: TransferStallError(
                        f"{type(self).__name__} feature transfer", attempts),
                    plan=fault_plan,
                    key=key,
                )
            except FaultError:
                # Stalled transfer or an unrecovered storage read below
                # us: residency is unknown either way.
                self._on_load_failure(subgraph)
                raise
            report.num_retries += stats.num_retries
            report.retry_delay_s += stats.delay_s
        else:
            report = self._plan(subgraph, key)
        registry = get_registry()
        if registry.enabled:
            handles = self._obs_handles(registry)
            handles["feature_bytes"].inc(report.feature_bytes)
            handles["structure_bytes"].inc(report.structure_bytes)
            handles["rows_wanted"].inc(report.num_wanted)
            handles["rows_loaded"].inc(report.num_loaded)
            handles["rows_reused"].inc(report.num_reused)
            handles["cache_hits"].inc(report.num_cache_hits)
        return report

    @abstractmethod
    def _plan(self, subgraph: SampledSubgraph,
              key: int | None) -> TransferReport:
        """Strategy hook: the actual per-mini-batch load decision.

        ``key`` is the batch's fault key from :meth:`plan`; the storage
        tier draws its ``storage_slow`` fault with it."""

    def _on_load_failure(self, subgraph: SampledSubgraph) -> None:
        """Hook: a feature load failed for good (retries exhausted).

        Loaders holding residency state must invalidate whatever this
        batch's transfer would have populated — the device buffer is in
        an unknown state and must never be reused.
        """

    def _obs_handles(self, registry) -> dict:
        """Per-loader metric handles, cached per registry instance."""
        cached = getattr(self, "_obs_cache", None)
        if cached is not None and cached[0] is registry:
            return cached[1]
        labels = {"loader": type(self).__name__}
        handles = {
            "feature_bytes": registry.counter(
                "repro_transfer_feature_bytes_total",
                "Feature bytes crossing the host link",
            ).labels(**labels),
            "structure_bytes": registry.counter(
                "repro_transfer_structure_bytes_total",
                "Subgraph-topology bytes crossing the host link",
            ).labels(**labels),
            "rows_wanted": registry.counter(
                "repro_transfer_rows_wanted_total",
                "Feature rows each mini-batch needed",
            ).labels(**labels),
            "rows_loaded": registry.counter(
                "repro_transfer_rows_loaded_total",
                "Feature rows actually transferred",
            ).labels(**labels),
            "rows_reused": registry.counter(
                "repro_transfer_rows_reused_total",
                "Rows reused from the previous batch (Match)",
            ).labels(**labels),
            "cache_hits": registry.counter(
                "repro_transfer_cache_hits_total",
                "Rows served from the device feature cache",
            ).labels(**labels),
        }
        self._obs_cache = (registry, handles)
        return handles

    def _base_report(self, subgraph: SampledSubgraph) -> TransferReport:
        return TransferReport(
            num_wanted=subgraph.num_nodes,
            structure_bytes=subgraph.structure_bytes(),
            num_transfers=1,
        )


class NaiveLoader(FeatureLoader):
    """Load every input node's features (DGL/PyG behaviour)."""

    def _plan(self, subgraph: SampledSubgraph,
              key: int | None) -> TransferReport:
        report = self._base_report(subgraph)
        report.num_loaded = subgraph.num_nodes
        report.feature_bytes = subgraph.num_nodes * self.store.bytes_per_node
        return report


class CachedLoader(FeatureLoader):
    """Load only cache misses (PaGraph / GNNLab)."""

    def __init__(self, store: FeatureStore, cache: StaticFeatureCache) -> None:
        super().__init__(store)
        self.cache = cache

    def _plan(self, subgraph: SampledSubgraph,
              key: int | None) -> TransferReport:
        report = self._base_report(subgraph)
        hits, misses = self.cache.partition(subgraph.input_nodes)
        report.num_cache_hits = len(hits)
        report.num_loaded = len(misses)
        report.feature_bytes = len(misses) * self.store.bytes_per_node
        return report


class MatchLoader(FeatureLoader):
    """FastGL's Match: reuse the previous batch's resident rows; load the
    difference. With an optional cache, rows that are neither resident nor
    cached are the only PCIe traffic."""

    def __init__(self, store: FeatureStore,
                 cache: StaticFeatureCache | None = None) -> None:
        super().__init__(store)
        self.cache = cache
        self._state = MatchState()

    def reset_epoch(self) -> None:
        self._state.reset()

    def _on_load_failure(self, subgraph: SampledSubgraph) -> None:
        # The failed DMA leaves the device buffer in an unknown state:
        # drop residency entirely so Match never serves a corrupt row.
        self._state.invalidate()

    def _plan(self, subgraph: SampledSubgraph,
              key: int | None) -> TransferReport:
        report = self._base_report(subgraph)
        result = self._state.step(subgraph.input_nodes,
                                  sorted_wanted=subgraph.unique_input_nodes())
        report.num_reused = result.num_reused
        to_load = result.load_ids
        if self.cache is not None:
            hits, to_load = self.cache.partition(to_load)
            report.num_cache_hits = len(hits)
        report.num_loaded = len(to_load)
        report.feature_bytes = len(to_load) * self.store.bytes_per_node
        return report
