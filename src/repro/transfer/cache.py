"""Static GPU feature caches and their admission policies.

Both compared systems pin a *static* set of feature rows on the device:

* **PaGraph** ranks nodes by degree (high-degree nodes are sampled most
  often);
* **GNNLab** ranks by visit frequency observed in a pre-sampling pass,
  which tracks the actual sampler/train-set distribution.

A cache is sized in bytes; hits cost nothing on PCIe, misses are loaded.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.features import FeatureStore
from repro.sampling.idmap.base import in_sorted
from repro.utils.rng import ensure_rng


class StaticFeatureCache:
    """A pinned set of node IDs whose features live on the device."""

    def __init__(self, cached_ids: np.ndarray, bytes_per_node: int) -> None:
        self.cached_ids = np.unique(np.asarray(cached_ids, dtype=np.int64))
        self.bytes_per_node = int(bytes_per_node)
        self.hits = 0
        self.misses = 0

    @property
    def num_cached(self) -> int:
        return len(self.cached_ids)

    @property
    def capacity_bytes(self) -> int:
        return self.num_cached * self.bytes_per_node

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    def partition(self, wanted: np.ndarray) -> tuple:
        """Split ``wanted`` into (cached, uncached); updates hit counters."""
        wanted = np.asarray(wanted, dtype=np.int64)
        hit = in_sorted(wanted, self.cached_ids)
        self.hits += int(hit.sum())
        self.misses += int((~hit).sum())
        return wanted[hit], wanted[~hit]


class DegreeCachePolicy:
    """PaGraph-style: cache the highest-degree nodes that fit."""

    @staticmethod
    def build(graph: CSRGraph, store: FeatureStore,
              capacity_bytes: int) -> StaticFeatureCache:
        slots = max(0, int(capacity_bytes // store.bytes_per_node))
        slots = min(slots, graph.num_nodes)
        if slots == 0:
            ids = np.empty(0, dtype=np.int64)
        else:
            ids = np.argpartition(graph.degrees, -slots)[-slots:]
        return StaticFeatureCache(ids, store.bytes_per_node)


class PresampleCachePolicy:
    """GNNLab-style: cache the nodes most visited by a pre-sampling pass."""

    @staticmethod
    def build(
        sampler,
        train_ids: np.ndarray,
        store: FeatureStore,
        capacity_bytes: int,
        batch_size: int = 256,
        num_batches: int = 6,
        rng=None,
    ) -> StaticFeatureCache:
        """Run ``num_batches`` sample draws and rank nodes by visit count.

        Only which nodes each draw reaches counts, so the draws run
        through ``sampler.reach``, which need not build the subgraphs.

        Ties (nodes visited equally often — common for the long tail) are
        broken by degree, which tracks future visit probability; GNNLab's
        hotness metric behaves the same way in expectation.
        """
        slots = max(0, int(capacity_bytes // store.bytes_per_node))
        slots = min(slots, store.num_nodes)
        if slots == 0:
            return StaticFeatureCache(np.empty(0, dtype=np.int64),
                                      store.bytes_per_node)
        rng = ensure_rng(rng)
        counts = np.zeros(store.num_nodes, dtype=np.float64)
        for _ in range(num_batches):
            size = min(batch_size, len(train_ids))
            seeds = rng.choice(train_ids, size=size, replace=False)
            counts[sampler.reach(seeds)] += 1
        graph = getattr(sampler, "graph", None)
        if graph is not None:
            deg = graph.degrees.astype(np.float64)
            counts += deg / (deg.max() + 1.0)  # sub-integer tiebreak
        return StaticFeatureCache(_top_ranked(counts, slots),
                                  store.bytes_per_node)


def _top_ranked(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[::-1][:k]`` for ``1 <= k <=
    len(values)``, sorting only the ``k`` winners.

    That order is descending by value with ties by descending index, so
    the winners are every value above the ``k``-th largest plus the
    highest-index ties at it.
    """
    kth = np.partition(values, values.size - k)[values.size - k]
    above = np.flatnonzero(values > kth)
    ties = np.flatnonzero(values == kth)
    chosen = np.sort(np.concatenate(
        [above, ties[ties.size - (k - above.size):]]))
    return chosen[np.argsort(values[chosen], kind="stable")[::-1]]
