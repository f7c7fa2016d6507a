"""Per-mini-batch IO scheduling for the out-of-core tier.

Two jobs:

1. **Deduplicate** — a mini-batch wants thousands of feature rows; many
   share a page. Only unique pages are considered at all.
2. **Coalesce** — runs of consecutive missing pages merge into one NVMe
   command (up to ``max_coalesce`` pages), turning random reads into
   short sequential bursts; the command count drives the latency/IOPS
   side of the :class:`~repro.storage.nvme.NVMeLink` model.

The epoch-level overlap of storage reads with sampling and training is
not scheduled here: the out-of-core layout
(:meth:`repro.frameworks.fastgl.OutOfCoreFastGLFramework._epoch_timeline`)
runs it on the pipeline engine,
:func:`repro.pipeline.graph.stage_graph_makespan`, with the prefetch
depth as its in-flight window.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import StorageReadError
from repro.faults import call_with_faults, get_fault_plan
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.obs import get_registry
from repro.sampling.idmap.base import sorted_unique
from repro.storage.cache import MISS, PageCache
from repro.storage.page_store import PageStore


@dataclass
class IOPlan:
    """Accounting of one mini-batch's page-request schedule."""

    num_rows: int = 0
    num_unique_pages: int = 0
    page_hits: int = 0
    page_misses: int = 0
    #: NVMe commands after coalescing consecutive missing pages.
    ssd_requests: int = 0
    #: Bytes read off the drive (full pages; the read amplification).
    ssd_bytes: int = 0
    #: Page reads that needed a retry (injected NVMe errors, absorbed).
    num_retries: int = 0
    #: Modeled seconds of retry backoff + injected slowdowns.
    fault_delay_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        if self.num_unique_pages == 0:
            return 0.0
        return self.page_hits / self.num_unique_pages


class IOScheduler:
    """Routes a mini-batch's row requests through cache and drive."""

    def __init__(self, page_store: PageStore, cache: PageCache,
                 max_coalesce: int = 8,
                 retry_policy: RetryPolicy | None = None) -> None:
        if max_coalesce < 1:
            raise ValueError("max_coalesce must be >= 1")
        self.page_store = page_store
        self.cache = cache
        self.max_coalesce = int(max_coalesce)
        #: Backoff budget for faulted page reads (``storage_read`` site).
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY

    def coalesced_requests(self, miss_pages: np.ndarray) -> int:
        """NVMe commands covering ``miss_pages`` (sorted unique): each run
        of consecutive page IDs becomes ``ceil(run / max_coalesce)``
        commands."""
        if len(miss_pages) == 0:
            return 0
        breaks = np.flatnonzero(np.diff(miss_pages) != 1)
        run_lengths = np.diff(
            np.concatenate(([0], breaks + 1, [len(miss_pages)]))
        )
        return int(np.sum(-(-run_lengths // self.max_coalesce)))

    def submit(self, ids: np.ndarray, fetch: bool = False):
        """Schedule the page reads behind the row requests ``ids``.

        Returns ``(plan, frames)``: ``frames`` maps page ID -> row block
        when ``fetch`` is true (the functional gather path), else ``None``
        (stats-only accounting; resident placeholders are admitted so the
        cache state still evolves exactly as a fetching run's would).
        """
        ids = np.asarray(ids, dtype=np.int64)
        unique_pages = sorted_unique(self.page_store.page_of(ids))
        frames: dict | None = {} if fetch else None
        miss_list = []
        for pid in unique_pages.tolist():
            value = self.cache.lookup(pid)
            if value is MISS:
                miss_list.append(pid)
                continue
            if fetch:
                if value is None:
                    # A stats-only pass admitted this page without data;
                    # materialize it quietly (it never re-crosses the NVMe
                    # link — the bytes are resident, only the frame is lazy).
                    start, count = self.page_store.page_rows(pid)
                    value = self.page_store.backing.gather(
                        np.arange(start, start + count)
                    )
                    self.cache.update(pid, value)
                frames[pid] = value
        fault_plan = get_fault_plan()
        num_retries = 0
        fault_delay = 0.0
        for pid in miss_list:
            # A faulted read retries with backoff; the page only reaches
            # the cache once a (re)read succeeded, so a genuinely failed
            # read (budget exhausted -> StorageReadError) leaves neither
            # a frame nor a placeholder behind.
            frame, stats = call_with_faults(
                lambda pid=pid: self.page_store.read_page(
                    pid, materialize=fetch),
                site="storage_read",
                policy=self.retry_policy,
                key=pid,
                exc_factory=lambda attempts, pid=pid: StorageReadError(
                    pid, attempts),
                plan=fault_plan,
            )
            num_retries += stats.num_retries
            fault_delay += stats.delay_s
            if fetch:
                frames[pid] = frame
            self.cache.insert(pid, frame)
        if fault_plan.enabled and miss_list:
            # NVMe latency outlier (throttle / GC pause): one draw per
            # faultable submit, modeled as extra IO seconds.
            fault_delay += fault_plan.stall("storage_slow")
        misses = np.asarray(miss_list, dtype=np.int64)
        plan = IOPlan(
            num_rows=len(ids),
            num_unique_pages=len(unique_pages),
            page_hits=len(unique_pages) - len(misses),
            page_misses=len(misses),
            ssd_requests=self.coalesced_requests(misses),
            ssd_bytes=len(misses) * self.page_store.page_bytes,
            num_retries=num_retries,
            fault_delay_s=fault_delay,
        )
        self._observe_plan(plan)
        return plan, frames

    def _observe_plan(self, plan: IOPlan) -> None:
        """Report one submit()'s accounting to the metrics registry."""
        registry = get_registry()
        if not registry.enabled:
            return
        handles = self._obs_handles(registry)
        handles["page_hits"].inc(plan.page_hits)
        handles["page_misses"].inc(plan.page_misses)
        handles["ssd_requests"].inc(plan.ssd_requests)
        handles["ssd_bytes"].inc(plan.ssd_bytes)
        if plan.ssd_requests > 0:
            handles["coalesce"].observe(
                plan.page_misses / plan.ssd_requests
            )
        self.cache.observe_into(registry)

    def _obs_handles(self, registry) -> dict:
        """Per-scheduler metric handles, cached per registry instance."""
        cached = getattr(self, "_obs_cache", None)
        if cached is not None and cached[0] is registry:
            return cached[1]
        labels = {"policy": type(self.cache).__name__}
        handles = {
            "page_hits": registry.counter(
                "repro_storage_page_hits_total",
                "Page requests served from the page cache",
            ).labels(**labels),
            "page_misses": registry.counter(
                "repro_storage_page_misses_total",
                "Page requests that went to the drive",
            ).labels(**labels),
            "ssd_requests": registry.counter(
                "repro_storage_ssd_requests_total",
                "NVMe read commands issued after coalescing",
            ).labels(**labels),
            "ssd_bytes": registry.counter(
                "repro_storage_ssd_bytes_total",
                "Bytes read off the drive (full pages)",
            ).labels(**labels),
            "coalesce": registry.histogram(
                "repro_storage_coalesce_pages_per_command",
                "Missing pages folded into each NVMe command",
                buckets=(1, 1.5, 2, 3, 4, 6, 8, 12, 16),
            ).labels(**labels),
        }
        self._obs_cache = (registry, handles)
        return handles
