"""Page caches for the out-of-core feature tier.

Three policies, mirroring the literature the tier models:

* :class:`LRUPageCache` — the classic OS-page-cache baseline: pure
  recency. On GNN feature traffic it thrashes once the per-epoch working
  set exceeds capacity, because most pages are touched once per batch and
  evicted before their next use.
* :class:`PartitionAwarePageCache` — BGL-style (arXiv:2112.08541): the
  cache knows the graph partition each page belongs to and how hot each
  partition is for the *training* workload (train-seed density times
  degree mass — neighbor sampling concentrates inside the partitions the
  seeds live in). The hottest pages are pinned; only the remainder runs
  recency-based. At the small cache ratios where out-of-core training
  operates, pinning what is provably hot beats recency guessing.

* :class:`FrequencyPageCache` — FastSample-style (arXiv:2311.17847):
  pure observed access frequency with admission control. Every lookup
  (hit or miss) bumps the page's count; a new page only displaces the
  coldest resident page when it has been seen more often. Where the
  partition cache needs workload foreknowledge (the train split and the
  partition map), the frequency cache learns the same skew online —
  which is exactly what a node can do for *remote* features it has no
  partition-local knowledge about.

All policies count hits/misses/evictions so loaders can feed the cost
model.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

import numpy as np

#: Sentinel returned by ``lookup`` on a miss (``None`` is a valid frame
#: placeholder for stats-only schedulers).
MISS = object()


class PageCache:
    """Interface + shared counters of a page cache."""

    def __init__(self, capacity_pages: int) -> None:
        self.capacity_pages = max(0, int(capacity_pages))
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    @property
    def num_resident(self) -> int:
        raise NotImplementedError

    def resident_bytes(self, page_bytes: int) -> int:
        """Memory the cached pages occupy (host DRAM for the bounce path,
        device memory for GPU-initiated direct access)."""
        return self.num_resident * int(page_bytes)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def observe_into(self, registry, **labels) -> None:
        """Publish the cache's cumulative counters as registry gauges.

        Gauges (not counters) because the cache owns the authoritative
        tallies and this pushes their *current* values — callers may
        publish after every mini-batch or once per epoch, idempotently.
        """
        if not registry.enabled:
            return
        labels.setdefault("policy", type(self).__name__)
        for name, help_text, value in (
            ("repro_page_cache_hits",
             "Cumulative page-cache hits", self.hits),
            ("repro_page_cache_misses",
             "Cumulative page-cache misses", self.misses),
            ("repro_page_cache_evictions",
             "Cumulative page-cache evictions", self.evictions),
            ("repro_page_cache_resident_pages",
             "Pages currently resident in the cache", self.num_resident),
            ("repro_page_cache_hit_rate",
             "Cumulative page-cache hit rate", self.hit_rate),
        ):
            registry.gauge(name, help_text).labels(**labels).set(value)

    def lookup(self, page_id: int):
        """Return the cached frame (may be ``None``) or :data:`MISS`."""
        raise NotImplementedError

    def insert(self, page_id: int, frame) -> None:
        """Admit a page just read from the drive."""
        raise NotImplementedError

    def update(self, page_id: int, frame) -> None:
        """Replace the stored frame of a resident page (no-op if absent);
        used when a stats-only placeholder is later materialized."""
        raise NotImplementedError


class LRUPageCache(PageCache):
    """Recency-only page cache (the OS-page-cache baseline)."""

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        self._frames: OrderedDict = OrderedDict()

    @property
    def num_resident(self) -> int:
        return len(self._frames)

    def lookup(self, page_id: int):
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self.hits += 1
            return self._frames[page_id]
        self.misses += 1
        return MISS

    def insert(self, page_id: int, frame) -> None:
        if self.capacity_pages == 0:
            return
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self._frames[page_id] = frame
            return
        while len(self._frames) >= self.capacity_pages:
            self._frames.popitem(last=False)
            self.evictions += 1
        self._frames[page_id] = frame

    def update(self, page_id: int, frame) -> None:
        if page_id in self._frames:
            self._frames[page_id] = frame


class PartitionAwarePageCache(PageCache):
    """Hotness-pinned pages plus a recency tail (BGL-style).

    ``page_hotness`` ranks every page; the top ``pinned_fraction`` of the
    capacity is reserved for the hottest pages, which once admitted are
    never evicted. Cold first touches of pinned pages still count as
    misses (the page must cross the NVMe link once).
    """

    def __init__(self, capacity_pages: int, page_hotness: np.ndarray,
                 pinned_fraction: float = 0.8) -> None:
        super().__init__(capacity_pages)
        if not 0.0 <= pinned_fraction <= 1.0:
            raise ValueError("pinned_fraction must be in [0, 1]")
        hotness = np.asarray(page_hotness, dtype=np.float64)
        num_pinned = min(int(self.capacity_pages * pinned_fraction),
                         len(hotness))
        ranked = np.argsort(hotness, kind="stable")[::-1]
        self.pinned_ids = frozenset(int(p) for p in ranked[:num_pinned])
        self._pinned: dict = {}
        self._lru = LRUPageCache(self.capacity_pages - num_pinned)

    @property
    def num_resident(self) -> int:
        return len(self._pinned) + self._lru.num_resident

    def lookup(self, page_id: int):
        if page_id in self._pinned:
            self.hits += 1
            return self._pinned[page_id]
        if page_id in self.pinned_ids:
            self.misses += 1
            return MISS
        value = self._lru.lookup(page_id)
        if value is MISS:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def insert(self, page_id: int, frame) -> None:
        if page_id in self.pinned_ids:
            self._pinned[page_id] = frame
            return
        self._lru.insert(page_id, frame)

    def update(self, page_id: int, frame) -> None:
        if page_id in self._pinned:
            self._pinned[page_id] = frame
        else:
            self._lru.update(page_id, frame)

    def reset_stats(self) -> None:
        super().reset_stats()
        self._lru.reset_stats()


class FrequencyPageCache(PageCache):
    """Access-frequency cache with admission control (FastSample-style).

    Frequency counts accumulate on every lookup, resident or not, so the
    cache converges on the workload's true hot set instead of its recent
    one. Admission: a missing page is only admitted over the coldest
    resident page when its count is strictly higher — one-off scans
    cannot flush established hot pages. Ties and victim selection break
    on the lower page ID, keeping the policy fully deterministic.
    """

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        self._counts: dict = {}
        self._frames: dict = {}
        # Lazy min-heap of (count-at-push, page_id) over resident pages:
        # victim selection stays the exact (count, id) minimum, but in
        # O(log n) amortized instead of a full scan per admission.
        self._heap: list = []
        # Admission floor: the count of the last coldest resident seen by
        # a full-cache admission. Counts only grow and an admission only
        # replaces the coldest page by a hotter one, so once the cache is
        # full its coldest count never decreases; a miss counted at or
        # below the floor would lose to the coldest resident anyway.
        self._floor = -1

    @property
    def num_resident(self) -> int:
        return len(self._frames)

    def _bump(self, page_id: int) -> None:
        self._counts[page_id] = self._counts.get(page_id, 0) + 1

    def lookup(self, page_id: int):
        self._bump(page_id)
        if page_id in self._frames:
            self.hits += 1
            return self._frames[page_id]
        self.misses += 1
        return MISS

    def _pop_coldest(self) -> tuple:
        """The resident page with the smallest (count, id) key. Stale
        heap entries (evicted pages, outdated counts) are discarded or
        refreshed on the way; counts only grow, so the first entry that
        matches its current count is the true minimum."""
        while True:
            count, pid = heapq.heappop(self._heap)
            if pid not in self._frames:
                continue
            current = self._counts.get(pid, 0)
            if current != count:
                heapq.heappush(self._heap, (current, pid))
                continue
            return count, pid

    def insert(self, page_id: int, frame) -> None:
        if self.capacity_pages == 0:
            return
        if page_id in self._frames:
            self._frames[page_id] = frame
            return
        count = self._counts.get(page_id, 0)
        if len(self._frames) < self.capacity_pages:
            self._frames[page_id] = frame
            heapq.heappush(self._heap, (count, page_id))
            return
        if count <= self._floor:
            return
        victim = self._pop_coldest()
        self._floor = victim[0]
        if count > victim[0]:
            del self._frames[victim[1]]
            self.evictions += 1
            self._frames[page_id] = frame
            heapq.heappush(self._heap, (count, page_id))
        else:
            heapq.heappush(self._heap, victim)

    def update(self, page_id: int, frame) -> None:
        if page_id in self._frames:
            self._frames[page_id] = frame


def partition_page_hotness(
    page_store,
    partition_of_node: np.ndarray,
    train_ids: np.ndarray,
    degrees: np.ndarray | None = None,
    base_density: float = 0.25,
) -> np.ndarray:
    """Expected access frequency of every page, partition-aware.

    A node is touched roughly in proportion to its degree (neighbor draws)
    scaled by how training-hot its partition is: partitions dense in train
    seeds are entered by ~every batch, cold partitions only via the
    minority of cross-partition edges (``base_density`` floors them).
    Page hotness is the sum over its resident rows.
    """
    partition_of_node = np.asarray(partition_of_node, dtype=np.int64)
    num_nodes = page_store.backing.num_nodes
    if len(partition_of_node) != num_nodes:
        raise ValueError("partition_of_node must label every node")
    num_parts = int(partition_of_node.max()) + 1 if num_nodes else 1
    size = np.bincount(partition_of_node, minlength=num_parts)
    train_count = np.bincount(partition_of_node[np.asarray(train_ids)],
                              minlength=num_parts)
    density = train_count / np.maximum(size, 1)
    mean_density = density.mean() if density.size else 0.0
    if mean_density > 0:
        density = density / mean_density
    if degrees is None:
        degrees = np.ones(num_nodes, dtype=np.float64)
    node_score = np.asarray(degrees, dtype=np.float64) * (
        base_density + density[partition_of_node]
    )
    pages = np.arange(num_nodes, dtype=np.int64) // page_store.rows_per_page
    return np.bincount(pages, weights=node_score,
                       minlength=page_store.num_pages)


def build_page_cache(
    policy: str,
    capacity_pages: int,
    page_store=None,
    partition_of_node: np.ndarray | None = None,
    train_ids: np.ndarray | None = None,
    degrees: np.ndarray | None = None,
) -> PageCache:
    """Construct the named cache policy ("lru", "freq" or "partition")."""
    if policy == "lru":
        return LRUPageCache(capacity_pages)
    if policy == "freq":
        return FrequencyPageCache(capacity_pages)
    if policy == "partition":
        if page_store is None or partition_of_node is None:
            raise ValueError(
                "partition policy needs page_store and partition_of_node"
            )
        if train_ids is None:
            train_ids = np.empty(0, dtype=np.int64)
        hotness = partition_page_hotness(
            page_store, partition_of_node, train_ids, degrees=degrees
        )
        return PartitionAwarePageCache(capacity_pages, hotness)
    raise ValueError(f"unknown page-cache policy {policy!r}")
