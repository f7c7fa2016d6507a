"""A fleet-shared embedding cache tier with TTL staleness.

Between each replica's device-resident Match cache and host DRAM sits
one fleet-wide tier holding recently fetched embedding rows — the
simulated analogue of a memcached/Redis side-cache in front of the
feature store. A row found **fresh** (inserted within ``ttl_s``) skips
part of the modeled host fetch (``io_savings`` of the per-row memory-IO
cost); a row found **stale** counts separately — it must be re-fetched,
which is exactly the consistency price a TTL cache pays for embeddings
that retrain underneath it.

The tier tracks row identity, not row payload: no reported number
depends on the cached bytes. Its index is a dense insertion-stamp array
by node ID (NaN where the tier holds no row) that lookups read in one
vectorized pass, plus an insertion-ordered set of node IDs for FIFO
eviction. The stamp array grows by doubling to the largest node ID ever
inserted, 8 bytes per ID. Eviction is deterministic FIFO by insertion
order, so fleet runs replay bit-identically.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CacheTierConfig:
    """Sizing and staleness knobs of the shared tier."""

    enabled: bool = False
    #: Rows the tier can hold (FIFO eviction beyond this).
    capacity_rows: int = 4096
    #: Seconds a row stays fresh; <= 0 means rows never go stale.
    ttl_s: float = 1.0
    #: Fraction of the per-row host-fetch cost a fresh hit saves.
    io_savings: float = 0.8

    def __post_init__(self) -> None:
        if self.capacity_rows < 1:
            raise ValueError("capacity_rows must be >= 1")
        if not 0.0 <= self.io_savings <= 1.0:
            raise ValueError("io_savings must be in [0, 1]")


@dataclass
class CacheTierStats:
    """Aggregate counters over the tier's lifetime."""

    lookups: int = 0
    hits: int = 0
    stale: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def stale_rate(self) -> float:
        return self.stale / self.lookups if self.lookups else 0.0


def _node_ids(nodes: np.ndarray) -> np.ndarray:
    """``nodes`` as int64; a negative ID has no stamp row to address."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and nodes.min() < 0:
        raise ValueError("node IDs must be non-negative")
    return nodes


class CacheTier:
    """Fleet-shared embedding row cache with TTL freshness.

    ``lookup(nodes, now)`` partitions the requested rows into
    ``(fresh_hits, stale, misses)``; ``insert(nodes, now)`` (re)fills
    rows, evicting the oldest entries FIFO when full. All decisions are
    pure functions of the call sequence — no clocks, no RNG.
    """

    def __init__(self, config: CacheTierConfig) -> None:
        self.config = config
        self.stats = CacheTierStats()
        #: Held node IDs, oldest first (the values are unused).
        self._order: OrderedDict = OrderedDict()
        #: node id -> insertion time; NaN where no row is held.
        self._stamp = np.full(1, np.nan)

    def __len__(self) -> int:
        return len(self._order)

    def lookup(self, nodes: np.ndarray, now: float):
        """Partition ``nodes`` into ``(fresh_hits, stale, misses)``, each in
        input order.

        Stale rows stay indexed (a re-insert refreshes them); only the
        counters distinguish them from fresh hits.
        """
        nodes = _node_ids(nodes)
        stamp = np.take(self._stamp, nodes, mode="clip")
        stamp[nodes >= self._stamp.size] = np.nan
        present = ~np.isnan(stamp)
        ttl = self.config.ttl_s
        # NaN stamps compare False, so absent rows are never fresh.
        fresh = present if ttl <= 0 else (now - stamp) <= ttl
        hits = nodes[fresh]
        stale = nodes[present & ~fresh]
        misses = nodes[~present]
        self.stats.lookups += len(nodes)
        self.stats.hits += len(hits)
        self.stats.stale += len(stale)
        self.stats.misses += len(misses)
        return hits, stale, misses

    def insert(self, nodes: np.ndarray, now: float) -> int:
        """(Re)fill rows for ``nodes`` at time ``now``; returns how many
        evictions that cost. Re-inserting a present row refreshes its
        timestamp and makes it the newest (no eviction).

        The walk is per row: a row inserted and then evicted by a later
        row of the same call must end with a NaN stamp."""
        nodes = _node_ids(nodes)
        if np.isnan(now):
            raise ValueError("now must not be NaN (NaN marks an absent row)")
        high = int(nodes.max()) if nodes.size else -1
        if high >= self._stamp.size:
            size = self._stamp.size
            while size <= high:
                size *= 2
            grown = np.full(size, np.nan)
            grown[:self._stamp.size] = self._stamp
            self._stamp = grown
        order, capacity = self._order, self.config.capacity_rows
        evicted = 0
        for node in nodes.tolist():
            if node in order:
                order.move_to_end(node)
            else:
                if len(order) >= capacity:
                    victim, _ = order.popitem(last=False)
                    self._stamp[victim] = np.nan
                    evicted += 1
                order[node] = None
            self._stamp[node] = now
        self.stats.inserts += len(nodes)
        self.stats.evictions += evicted
        return evicted
