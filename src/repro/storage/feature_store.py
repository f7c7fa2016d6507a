"""SSD-backed feature store: the out-of-core drop-in for any FeatureStore.

``gather`` returns the backing table's rows bit for bit, and accounts
every access page-granularly through the IO scheduler and page cache, so
the hit/miss and byte counters describe exactly what an NVMe-resident
table would cost.
"""

from __future__ import annotations

import numpy as np

from repro.graph.features import FeatureStore
from repro.storage.cache import LRUPageCache, PageCache
from repro.storage.page_store import PageStore
from repro.storage.scheduler import IOPlan, IOScheduler


class StorageBackedFeatureStore(FeatureStore):
    """A feature table living on SSD, read page-by-page through a cache."""

    def __init__(
        self,
        backing: FeatureStore,
        page_bytes: int = 4096,
        cache: PageCache | None = None,
        max_coalesce: int = 8,
    ) -> None:
        super().__init__(backing.num_nodes, backing.dim, backing.dtype)
        self.page_store = PageStore(backing, page_bytes=page_bytes)
        if cache is None:
            # Default: capacity for the whole table (cache policy only
            # matters when a caller sizes it below the working set).
            cache = LRUPageCache(self.page_store.num_pages)
        self.cache = cache
        self.scheduler = IOScheduler(self.page_store, cache,
                                     max_coalesce=max_coalesce)
        #: Accounting of the most recent ``gather`` call.
        self.last_plan: IOPlan = IOPlan()

    @property
    def backing(self) -> FeatureStore:
        return self.page_store.backing

    def attach_cache(self, cache: PageCache) -> None:
        """Swap in a sized/policied cache (replaces the default full-table
        LRU in both the store and its scheduler)."""
        self.cache = cache
        self.scheduler.cache = cache

    def reset_stats(self) -> None:
        self.page_store.reset_stats()
        self.cache.reset_stats()

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """The backing rows of ``ids``, after accounting their page reads
        (``last_plan``)."""
        ids = self._check_ids(ids)
        self.last_plan = self.scheduler.submit(ids)
        return self.backing.gather(ids)
