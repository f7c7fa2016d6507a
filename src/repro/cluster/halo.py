"""Per-mini-batch halo (boundary-node) feature exchange.

When a mini-batch's sampled subgraph needs input features owned by
another node's partition, those **halo rows** must cross the fabric
before the forward pass can start. This module models that exchange:

* :func:`group_by_owner` buckets the requested node IDs by owning
  partition (the gather kernel the bench suite times);
* each node runs a **remote-feature cache** over rows it has pulled
  before — FastSample-style observed-frequency
  (:class:`~repro.storage.cache.FrequencyPageCache`), BGL-style
  partition-aware pinning
  (:class:`~repro.storage.cache.PartitionAwarePageCache`), plain LRU,
  or none — so hot halo rows stop paying fabric trips;
* the residual misses become per-peer pulls priced by
  :meth:`NetworkFabric.gather_time`, with the ``net_stall`` fault site
  injecting link stalls that the retry layer absorbs (backoff delay
  lands in the exchange time) or, past the budget, escalates to
  :class:`~repro.errors.NetworkStallError`.

Everything is deterministic: row order inside the cache walk is the
sorted unique ID order, fault keys are an explicit per-exchange
sequence, and the traffic matrix double-entry (bytes sent == bytes
received == fetched rows x row bytes) is pinned by the conservation
tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.fabric import NetworkFabric
from repro.cluster.spec import ClusterSpec
from repro.errors import NetworkStallError
from repro.faults.retry import RetryPolicy, call_with_faults
from repro.obs import get_registry
from repro.sampling.idmap.base import sorted_unique
from repro.storage.cache import (
    FrequencyPageCache,
    LRUPageCache,
    PartitionAwarePageCache,
    partition_node_hotness,
)


def group_by_owner(ids, owners, num_parts: int):
    """Bucket node ``ids`` by owning partition.

    Returns ``(sorted_ids, counts)``: ``sorted_ids`` reorders ``ids`` so
    every partition's members are contiguous (ascending partition, stable
    within one), and ``counts[p]`` is how many rows partition ``p`` owns.
    ``np.cumsum(counts)`` recovers the segment boundaries. This is the
    send-buffer packing kernel every distributed GNN runtime runs per
    mini-batch; :mod:`repro.bench` times it as ``halo_gather``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    owners = np.asarray(owners, dtype=np.int64)
    parts = owners[ids]
    counts = np.bincount(parts, minlength=num_parts).astype(np.int64)
    # Every part is below len(counts); a stable sort of the narrowest
    # unsigned copy gives the same order through numpy's radix sort.
    if len(counts) <= 1 << 16:
        parts = parts.astype(np.uint8 if len(counts) <= 1 << 8
                             else np.uint16)
    order = np.argsort(parts, kind="stable")
    return ids[order], counts


@dataclass
class HaloReport:
    """What one mini-batch's halo exchange requested, hit, and paid."""

    node: int
    #: Distinct remote rows the batch needed.
    requested_rows: int = 0
    #: Of those, rows served by the local remote-feature cache.
    cache_hits: int = 0
    #: Rows actually pulled over the fabric (requested - hits).
    fetched_rows: int = 0
    #: Bytes pulled from each peer node (misses only).
    bytes_by_peer: dict = field(default_factory=dict)
    #: Modeled seconds the exchange took (gather + retry backoff).
    exchange_s: float = 0.0
    #: Seconds of that spent in ``net_stall`` retry backoff.
    retry_delay_s: float = 0.0
    #: Link-stall retries absorbed.
    retries: int = 0

    @property
    def bytes_total(self) -> int:
        return sum(self.bytes_by_peer.values())


class HaloExchange:
    """The halo-exchange engine of one simulated cluster.

    Owns the node->partition ``assignment``, one remote-feature cache per
    node, the cumulative traffic matrix, and the ``net_stall`` fault-key
    sequence. One instance is shared by every mini-batch of an epoch, so
    cache state (and therefore hit rates) evolves in execution order —
    callers must drive exchanges in a deterministic order.
    """

    def __init__(self, assignment: np.ndarray, fabric: NetworkFabric,
                 spec: ClusterSpec, bytes_per_row: int,
                 degrees: np.ndarray | None = None,
                 train_ids: np.ndarray | None = None,
                 retry_policy: RetryPolicy | None = None) -> None:
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self.fabric = fabric
        self.spec = spec
        self.bytes_per_row = int(bytes_per_row)
        self.num_nodes = fabric.num_nodes
        self.retry_policy = retry_policy
        num_graph_nodes = len(self.assignment)
        capacity = int(spec.remote_cache_ratio * num_graph_nodes)
        self._caches = [
            self._build_cache(node, capacity, degrees, train_ids)
            for node in range(self.num_nodes)
        ]
        #: Cumulative bytes moved, ``traffic[src, dst]``.
        self.traffic = np.zeros((self.num_nodes, self.num_nodes),
                                dtype=np.int64)
        self.requested_rows = 0
        self.cache_hits = 0
        self.fetched_rows = 0
        self.exchange_s_total = 0.0
        self.retry_delay_s_total = 0.0
        self.retries = 0
        self._fault_seq = 0

    def _build_cache(self, node: int, capacity: int,
                     degrees: np.ndarray | None,
                     train_ids: np.ndarray | None):
        policy = self.spec.remote_cache
        if policy == "none" or capacity <= 0:
            return None
        if policy == "lru":
            return LRUPageCache(capacity)
        if policy == "freq":
            return FrequencyPageCache(capacity)
        # "partition": pin the rows whose owner partitions are training-hot
        # (the storage tier's score over every cluster node's partition),
        # with the node's own rows scored out — local rows never cross
        # the fabric.
        hotness = partition_node_hotness(self.assignment, train_ids,
                                         self.num_nodes, degrees)
        hotness[self.assignment == node] = -1.0
        return PartitionAwarePageCache(capacity, hotness)

    def next_fault_key(self) -> int:
        """The next ``net_stall`` operation key (explicit sequence — stays
        deterministic as long as exchanges run in a fixed order)."""
        key = self._fault_seq
        self._fault_seq += 1
        return key

    def exchange(self, node: int, input_nodes: np.ndarray) -> HaloReport:
        """Resolve one mini-batch's input features on ``node``.

        Splits the batch's unique input rows into local and halo,
        consults the node's remote cache for the halo rows, pulls the
        misses from their owners, and prices the pull on the fabric.
        """
        report = HaloReport(node=node)
        if self.num_nodes <= 1:
            return report
        ids = sorted_unique(np.asarray(input_nodes, dtype=np.int64))
        remote = ids[self.assignment[ids] != node]
        report.requested_rows = int(remote.size)
        if remote.size == 0:
            return report
        # Without a cache every remote row is fetched from its owner.
        sorted_ids, fetched_by_peer = group_by_owner(
            remote, self.assignment, self.num_nodes)
        cache = self._caches[node]
        if cache is not None:
            # The cache holds row identity, not payload: one batch call.
            missed = sorted_ids[cache.access(sorted_ids)]
            report.cache_hits = report.requested_rows - missed.size
            fetched_by_peer = np.bincount(self.assignment[missed],
                                          minlength=self.num_nodes)
        report.fetched_rows = report.requested_rows - report.cache_hits
        # Ascending peer order: it fixes the net_stall fault-key sequence.
        report.bytes_by_peer = {
            peer: rows * self.bytes_per_row
            for peer, rows in enumerate(fetched_by_peer.tolist()) if rows
        }
        for peer, num_bytes in report.bytes_by_peer.items():
            self.traffic[peer, node] += num_bytes
            key = self.next_fault_key()
            _, stats = call_with_faults(
                lambda: None,
                site="net_stall",
                policy=self.retry_policy,
                key=key,
                exc_factory=lambda attempts, src=peer: NetworkStallError(
                    src=src, dst=node, attempts=attempts
                ),
            )
            report.retry_delay_s += stats.delay_s
            report.retries += stats.num_retries
        report.exchange_s = (
            self.fabric.gather_time(report.bytes_by_peer, node)
            + report.retry_delay_s
        )
        self._accumulate(report)
        return report

    def _accumulate(self, report: HaloReport) -> None:
        self.requested_rows += report.requested_rows
        self.cache_hits += report.cache_hits
        self.fetched_rows += report.fetched_rows
        self.exchange_s_total += report.exchange_s
        self.retry_delay_s_total += report.retry_delay_s
        self.retries += report.retries
        registry = get_registry()
        if registry.enabled and report.requested_rows:
            node = str(report.node)
            registry.counter(
                "repro_halo_requested_rows_total",
                "Distinct remote feature rows requested by mini-batches",
            ).labels(node=node).inc(report.requested_rows)
            registry.counter(
                "repro_halo_cache_hits_total",
                "Halo rows served from the remote-feature cache",
            ).labels(node=node).inc(report.cache_hits)
            registry.counter(
                "repro_halo_bytes_total",
                "Halo feature bytes pulled over the fabric",
            ).labels(node=node).inc(report.bytes_total)
            registry.histogram(
                "repro_halo_exchange_seconds",
                "Modeled halo-exchange time per mini-batch",
            ).labels(node=node).observe(report.exchange_s)

    # -- conservation accounting --------------------------------------------
    @property
    def bytes_sent_total(self) -> int:
        """Bytes leaving every owner node (traffic-matrix row sums)."""
        return int(self.traffic.sum())

    @property
    def bytes_received_total(self) -> int:
        """Bytes arriving at every requesting node (column sums) — equal
        to :attr:`bytes_sent_total` by construction; exposed separately so
        the conservation tests state the invariant against both views."""
        return int(self.traffic.sum(axis=0).sum())

    @property
    def hit_rate(self) -> float:
        if self.requested_rows == 0:
            return 0.0
        return self.cache_hits / self.requested_rows

    def summary(self) -> dict:
        """Cumulative exchange statistics (the report's
        ``cluster["halo"]``)."""
        return {
            "requested_rows": self.requested_rows,
            "cache_hits": self.cache_hits,
            "fetched_rows": self.fetched_rows,
            "hit_rate": self.hit_rate,
            "bytes_moved": self.bytes_sent_total,
            "exchange_s": self.exchange_s_total,
            "retry_delay_s": self.retry_delay_s_total,
            "retries": self.retries,
        }
