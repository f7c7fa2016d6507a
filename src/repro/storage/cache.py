"""Page caches for the out-of-core feature tier.

Three policies, mirroring the literature the tier models; the storage
tier's :func:`build_page_cache` builds the first two, and the cluster
tier's halo exchange caches remote rows with any of the three:

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
  pure observed access frequency with admission control. Every access
  (hit or miss) bumps the page's count; a new page only displaces the
  coldest resident page when it has been seen more often. Where the
  partition cache needs workload foreknowledge (the train split and the
  partition map), the frequency cache learns the same skew online —
  which is exactly what a node can do for *remote* features it has no
  partition-local knowledge about.

Caches hold page identity only, never payload: the modeled outputs
count the pages that move, and a caller that needs the rows gathers
them from the backing table. All policies count hits/misses/evictions
so loaders can feed the cost model.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict

import numpy as np


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

    def lookup(self, page_id: int) -> bool:
        """Whether ``page_id`` is resident (counted as a hit or a miss)."""
        raise NotImplementedError

    def insert(self, page_id: int) -> None:
        """Admit a page just read from the drive."""
        raise NotImplementedError

    def access(self, ids: np.ndarray) -> np.ndarray:
        """Look up each of the unique pages ``ids`` in order, inserting a
        missed page right after its lookup; returns the miss mask."""
        missed = []
        for page_id in np.asarray(ids, dtype=np.int64).tolist():
            miss = not self.lookup(page_id)
            if miss:
                self.insert(page_id)
            missed.append(miss)
        return np.array(missed, dtype=bool)


class LRUPageCache(PageCache):
    """Recency-only page cache (the OS-page-cache baseline)."""

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        #: Resident pages, least recently used first.
        self._pages: OrderedDict = OrderedDict()

    @property
    def num_resident(self) -> int:
        return len(self._pages)

    def lookup(self, page_id: int) -> bool:
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, page_id: int) -> None:
        if self.capacity_pages == 0:
            return
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            return
        while len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
            self.evictions += 1
        self._pages[page_id] = None


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
        self._pinned: set = set()
        self._lru = LRUPageCache(self.capacity_pages - num_pinned)

    @property
    def num_resident(self) -> int:
        return len(self._pinned) + self._lru.num_resident

    def lookup(self, page_id: int) -> bool:
        if page_id in self.pinned_ids:
            resident = page_id in self._pinned
        else:
            resident = self._lru.lookup(page_id)
        if resident:
            self.hits += 1
        else:
            self.misses += 1
        return resident

    def insert(self, page_id: int) -> None:
        if page_id in self.pinned_ids:
            self._pinned.add(page_id)
            return
        before = self._lru.evictions
        self._lru.insert(page_id)
        self.evictions += self._lru.evictions - before

    def reset_stats(self) -> None:
        super().reset_stats()
        self._lru.reset_stats()


#: Heap and snapshot keys pack ``count << _ID_BITS | page_id`` into one
#: int, so the victim search compares plain ints in ``(count, id)`` order.
#: Page IDs stay below ``2**32``: a dense array indexed by a larger ID
#: could not be allocated anyway.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1


class FrequencyPageCache(PageCache):
    """Access-frequency cache with admission control (FastSample-style).

    Frequency counts accumulate on every access, resident or not, so the
    cache converges on the workload's true hot set instead of its recent
    one. Admission: a missing page is only admitted over the coldest
    resident page when its count is strictly higher — one-off scans
    cannot flush established hot pages. Ties and victim selection break
    on the lower page ID, keeping the policy fully deterministic.

    Counts and residency live in dense arrays indexed by page ID (IDs
    must be non-negative). The cache serves whole batches only: the
    halo exchange hands it each exchange's rows in one :meth:`access`
    call, with exactly the per-page semantics of "look up, then admit
    on a miss", in order (the per-page reference is
    :class:`repro.bench.oracles.FrequencyPageCacheLegacy`).
    """

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        self._counts = np.zeros(1, dtype=np.int64)
        self._resident = np.zeros(1, dtype=bool)
        self._num_resident = 0
        # Admission floor: the count of the last coldest resident seen by
        # a full-cache admission. Counts only grow and an admission only
        # replaces the coldest page by a hotter one, so once the cache is
        # full its coldest count never decreases; a miss counted at or
        # below the floor would lose to the coldest resident anyway.
        self._floor = -1

    @property
    def num_resident(self) -> int:
        return self._num_resident

    def _reserve(self, low: int, high: int) -> None:
        """Grow the dense arrays (by doubling) to cover page ``high``."""
        if low < 0:
            raise ValueError("page IDs must be non-negative")
        size = self._counts.size
        if high < size:
            return
        while size <= high:
            size *= 2
        counts = np.zeros(size, dtype=np.int64)
        counts[:self._counts.size] = self._counts
        resident = np.zeros(size, dtype=bool)
        resident[:self._resident.size] = self._resident
        self._counts, self._resident = counts, resident

    def _resident_keys(self) -> np.ndarray:
        """Packed ``(count, id)`` keys of every resident page, ascending."""
        pages = np.flatnonzero(self._resident)
        return np.sort((self._counts[pages] << _ID_BITS) | pages)

    def access(self, ids: np.ndarray) -> np.ndarray:
        """Look up a batch of unique pages, in order, admitting each miss
        under the admission rule; returns the miss mask.

        Every page's access bumps its count, so its count at its own
        admission is its count before the batch plus one. While the
        cache has room the first misses are admitted in order; after
        that only a miss counted above the admission floor (an *event*)
        needs a victim, and everything else is vectorized.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        self._reserve(int(ids.min()), int(ids.max()))
        counts, resident = self._counts, self._resident
        bumped = counts[ids] + 1
        miss = ~resident[ids]
        pending = np.flatnonzero(miss)
        if self.capacity_pages and pending.size:
            free = self.capacity_pages - self._num_resident
            admitted = pending[:free]
            full = pending[admitted.size:]
            events = full[bumped[full] > self._floor]
            # Residents before the batch, keyed by their counts before it.
            snapshot = self._resident_keys() if events.size else None
            counts[ids] = bumped
            resident[ids[admitted]] = True
            self._num_resident += admitted.size
            if events.size:
                self._sweep(ids, bumped, miss, events, snapshot,
                            (bumped[admitted] << _ID_BITS) | ids[admitted])
        else:
            counts[ids] = bumped
        num_misses = int(np.count_nonzero(miss))
        self.misses += num_misses
        self.hits += ids.size - num_misses
        return miss

    def _sweep(self, ids, bumped, miss, events, snapshot, admitted) -> None:
        """The full-cache events of :meth:`access`, in batch order.

        The victim of an event at batch position ``e`` is the resident
        with the smallest ``(count, id)`` at that moment. Three sorted
        sources hold every resident exactly once:

        * ``keys[taken:]`` — residents before the batch, keyed by their
          counts before it. Entries the batch has already hit are moved
          out as the front reaches them, so the front is unreached;
        * ``reached`` — those hit entries, one count higher. They move
          over in snapshot order, so this queue stays sorted;
        * ``newcomers`` — a heap of pages admitted during the batch, keyed
          by their counts at admission (the batch does not meet them
          again).

        A snapshot victim that the batch has not reached yet becomes a
        miss at its own position, and an event there if its count still
        beats the floor then. The floor only rises, and when it does the
        remaining candidates are filtered again.
        """
        n = ids.size
        hit = np.flatnonzero(~miss)
        where = np.full(self._resident.size, n, dtype=np.int64)
        where[ids[hit]] = hit
        # A sentinel above every key ends the snapshot: the cache is full,
        # so some resident always beats it.
        keys = snapshot.tolist() + [1 << 64]
        positions = where[snapshot & _ID_MASK].tolist() + [n]
        newcomers = np.sort(admitted).tolist()
        reached: list = []
        later: list = []
        resident = self._resident
        floor = self._floor
        one = 1 << _ID_BITS
        taken = next_reached = 0
        pending = _candidates(events, bumped, ids)
        head = next(pending, None)
        while True:
            if later and (head is None or later[0] < head[0]):
                e = heapq.heappop(later)
                count, page = int(bumped[e]), int(ids[e])
            elif head is not None:
                e, count, page = head
                head = next(pending, None)
            else:
                break
            if count <= floor:
                continue
            while positions[taken] < e:
                reached.append(keys[taken] + one)
                taken += 1
            victim, source = keys[taken], 0
            if (next_reached < len(reached)
                    and reached[next_reached] < victim):
                victim, source = reached[next_reached], 1
            if newcomers and newcomers[0] < victim:
                victim, source = newcomers[0], 2
            victim_count = victim >> _ID_BITS
            if count > victim_count:
                if source == 0:
                    position = positions[taken]
                    taken += 1
                    if position < n:
                        miss[position] = True
                        heapq.heappush(later, position)
                elif source == 1:
                    next_reached += 1
                else:
                    heapq.heappop(newcomers)
                resident[victim & _ID_MASK] = False
                self.evictions += 1
                resident[page] = True
                heapq.heappush(newcomers, (count << _ID_BITS) | page)
            if victim_count != floor:
                floor = victim_count
                rest = events[np.searchsorted(events, e, side="right"):]
                events = rest[bumped[rest] > floor]
                pending = _candidates(events, bumped, ids)
                head = next(pending, None)
        self._floor = floor


def _candidates(events, bumped, ids):
    """``(position, count, page)`` of each event candidate, converted to
    Python ints 256 at a time: most candidates are dropped unread when
    the floor rises."""
    for start in range(0, events.size, 256):
        part = events[start:start + 256]
        yield from zip(part.tolist(), bumped[part].tolist(),
                       ids[part].tolist())


def partition_node_hotness(
    partition_of_node: np.ndarray,
    train_ids: np.ndarray | None,
    num_parts: int,
    degrees: np.ndarray | None = None,
    base_density: float = 0.25,
) -> np.ndarray:
    """Expected access frequency of every node, partition-aware (BGL).

    A node is touched roughly in proportion to its degree (neighbor draws)
    scaled by how training-hot its partition is: partitions dense in train
    seeds are entered by ~every batch, cold partitions only via the
    minority of cross-partition edges (``base_density`` floors them).
    Train densities are normalized by their mean over ``num_parts``
    partitions, empty ones included; ``train_ids=None`` means no seeds.
    """
    partition_of_node = np.asarray(partition_of_node, dtype=np.int64)
    train_ids = np.asarray([] if train_ids is None else train_ids,
                           dtype=np.int64)
    size = np.bincount(partition_of_node, minlength=num_parts)
    train_count = np.bincount(partition_of_node[train_ids],
                              minlength=num_parts)
    density = train_count / np.maximum(size, 1)
    mean_density = density.mean() if density.size else 0.0
    if mean_density > 0:
        density = density / mean_density
    if degrees is None:
        degrees = np.ones(len(partition_of_node), dtype=np.float64)
    return np.asarray(degrees, dtype=np.float64) * (
        base_density + density[partition_of_node]
    )


def partition_page_hotness(
    page_store,
    partition_of_node: np.ndarray,
    train_ids: np.ndarray | None,
    degrees: np.ndarray | None = None,
    base_density: float = 0.25,
) -> np.ndarray:
    """Expected access frequency of every page, partition-aware: the sum
    of :func:`partition_node_hotness` over the page's resident rows."""
    partition_of_node = np.asarray(partition_of_node, dtype=np.int64)
    num_nodes = page_store.backing.num_nodes
    if len(partition_of_node) != num_nodes:
        raise ValueError("partition_of_node must label every node")
    num_parts = int(partition_of_node.max()) + 1 if num_nodes else 1
    node_score = partition_node_hotness(partition_of_node, train_ids,
                                        num_parts, degrees, base_density)
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
    """Construct the named storage-tier cache policy ("lru" or
    "partition")."""
    if policy == "lru":
        return LRUPageCache(capacity_pages)
    if policy == "partition":
        if page_store is None or partition_of_node is None:
            raise ValueError(
                "partition policy needs page_store and partition_of_node"
            )
        hotness = partition_page_hotness(
            page_store, partition_of_node, train_ids, degrees=degrees
        )
        return PartitionAwarePageCache(capacity_pages, hotness)
    raise ValueError(f"unknown page-cache policy {policy!r}")
