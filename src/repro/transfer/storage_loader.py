"""Storage-backed feature loading — the out-of-core memory-IO phase.

Per mini-batch the loader decides which feature *rows* must come off the
SSD (all input nodes, or only the Match difference for FastGL), routes
them through the page cache as page requests, and accounts two access
paths:

* **bounce buffer** — pages DMA into host DRAM, the CPU gathers the
  wanted rows into a staging buffer, and the rows cross PCIe; every page
  byte transits host memory twice-ish (in as pages, out as rows).
* **direct access** (GIDS-style) — GPU threads issue the NVMe reads and
  pages land in device memory peer-to-peer; the host link carries
  nothing, and the page cache lives in (and is charged to) GPU memory.

Match composes with both: rows resident from the previous batch are never
requested, so Match now cuts *SSD reads*, not just PCIe bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import COST_MODEL, STORAGE_ACCESS_PATHS
from repro.core.match import MatchState
from repro.gpu.pcie import PCIeLink
from repro.sampling.subgraph import SampledSubgraph
from repro.storage.feature_store import StorageBackedFeatureStore
from repro.storage.nvme import NVMeLink
from repro.transfer.loader import FeatureLoader, TransferReport

#: The calibrated drive every storage read is priced on.
DRIVE = NVMeLink()


@dataclass
class StorageTransferReport(TransferReport):
    """Transfer accounting extended with the SSD tier's counters."""

    page_hits: int = 0
    page_misses: int = 0
    #: Pages actually read off the drive (= cache misses).
    ssd_pages: int = 0
    #: NVMe commands after coalescing.
    ssd_requests: int = 0
    #: Bytes off the drive (full pages — the read amplification).
    ssd_bytes: int = 0
    #: Bytes transiting host DRAM (0 on the direct-access path).
    host_bounce_bytes: int = 0
    #: "direct" or "bounce".
    access: str = "direct"

    @property
    def page_hit_rate(self) -> float:
        total = self.page_hits + self.page_misses
        if total == 0:
            return 0.0
        return self.page_hits / total

    def merge(self, other: TransferReport) -> "StorageTransferReport":
        super().merge(other)
        for field in ("page_hits", "page_misses", "ssd_pages",
                      "ssd_requests", "ssd_bytes", "host_bounce_bytes"):
            setattr(self, field,
                    getattr(self, field) + getattr(other, field, 0))
        self.access = getattr(other, "access", self.access)
        return self

    def modeled_time(self, link: PCIeLink,
                     concurrent_links: int = 1) -> float:
        """Seconds of memory IO including the NVMe stage."""
        bw = link.effective_bandwidth(concurrent_links)
        if self.access == "direct":
            # Pages stream SSD -> PCIe switch -> GPU in one DMA, bounded
            # by the slower of the two links; GPU-initiated submission
            # keeps the device queues deep. Topology still comes from the
            # host over the ordinary link.
            read = DRIVE.read_time(
                self.ssd_requests, self.ssd_bytes,
                queue_depth=COST_MODEL.nvme_gpu_queue_depth,
                bandwidth_cap=bw,
            )
            structure = 0.0
            if self.structure_bytes:
                structure = (self.num_transfers * link.latency_s
                             + self.structure_bytes / bw)
            return read + structure + self.retry_delay_s
        read = DRIVE.read_time(
            self.ssd_requests, self.ssd_bytes,
            queue_depth=COST_MODEL.nvme_host_queue_depth,
        )
        gather = self.feature_bytes / COST_MODEL.host_gather_bytes_per_s
        out = (self.num_transfers * link.latency_s
               + (self.feature_bytes + self.structure_bytes) / bw)
        return read + gather + out + self.retry_delay_s


class StorageBackedLoader(FeatureLoader):
    """Feature loader whose misses are served by the SSD tier.

    ``use_match=True`` applies FastGL's Match first: rows resident on the
    GPU from the previous mini-batch are excluded before any page request
    is formed, so overlap reduces SSD traffic at the source.
    """

    def __init__(
        self,
        store: StorageBackedFeatureStore,
        access: str = "direct",
        use_match: bool = False,
    ) -> None:
        if access not in STORAGE_ACCESS_PATHS:
            raise ValueError(f"unknown storage access path {access!r}")
        super().__init__(store)
        self.access = access
        self._state = MatchState() if use_match else None

    @property
    def cache(self):
        return self.store.cache

    def reset_epoch(self) -> None:
        if self._state is not None:
            self._state.reset()

    def _on_load_failure(self, subgraph: SampledSubgraph) -> None:
        # An unrecovered NVMe read or a stalled transfer: Match's step()
        # already promised this batch's rows as resident, but the bytes
        # never (fully) arrived — invalidate so no later batch reuses a
        # row from the failed load.
        if self._state is not None:
            self._state.invalidate()

    def _plan(self, subgraph: SampledSubgraph,
              key: int | None) -> StorageTransferReport:
        report = StorageTransferReport(
            num_wanted=subgraph.num_nodes,
            structure_bytes=subgraph.structure_bytes(),
            num_transfers=1,
            access=self.access,
        )
        wanted = subgraph.input_nodes
        if self._state is not None:
            result = self._state.step(
                wanted, sorted_wanted=subgraph.unique_input_nodes()
            )
            report.num_reused = result.num_reused
            to_fetch = result.load_ids
        else:
            to_fetch = wanted
        plan = self.store.scheduler.submit(to_fetch, key=key)
        report.num_loaded = len(to_fetch)
        report.page_hits = plan.page_hits
        report.page_misses = plan.page_misses
        report.ssd_pages = plan.page_misses
        report.ssd_requests = plan.ssd_requests
        report.ssd_bytes = plan.ssd_bytes
        report.num_retries = plan.num_retries
        report.retry_delay_s = plan.fault_delay_s
        fetched_bytes = len(to_fetch) * self.store.bytes_per_node
        if self.access == "direct":
            # Missed pages cross PCIe peer-to-peer; cache hits are already
            # device-resident and move nothing.
            report.feature_bytes = plan.ssd_bytes
        else:
            report.feature_bytes = fetched_bytes
            report.host_bounce_bytes = plan.ssd_bytes + fetched_bytes
        return report


def page_cache_budget_bytes(dataset, config) -> int:
    """Memory the page cache may occupy: the configured host budget, or
    10% of the feature table (the large-graph regime the tier targets)."""
    if config.host_memory_bytes is not None:
        return int(config.host_memory_bytes)
    return int(0.1 * dataset.features.total_bytes)


def build_storage_loader(dataset, config, use_match: bool = False,
                         ) -> StorageBackedLoader:
    """Assemble the full stack for ``dataset`` under ``config``:
    page store -> page cache (policy + budget from config) -> scheduler ->
    storage-backed store -> loader."""
    from repro.storage.cache import build_page_cache

    store = StorageBackedFeatureStore(dataset.features,
                                      page_bytes=config.page_bytes)
    budget = page_cache_budget_bytes(dataset, config)
    capacity_pages = budget // store.page_store.page_bytes
    cache = build_page_cache(
        config.page_cache_policy,
        capacity_pages,
        page_store=store.page_store,
        partition_of_node=dataset.labels,
        train_ids=dataset.train_ids,
        degrees=dataset.graph.degrees,
    )
    store.attach_cache(cache)
    return StorageBackedLoader(store, access=config.storage_access,
                               use_match=use_match)
