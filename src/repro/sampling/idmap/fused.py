"""Fused-Map (the paper's Algorithm 2).

Hash-table construction and local-ID assignment happen in *one* kernel:
each thread atomicCAS-inserts its global ID; the thread that wins a fresh
slot allocates the local ID with a single atomicAdd. No synchronization
events at all. A second kernel translates the input IDs.

Two implementations:

* the fast path (:meth:`FusedIdMap.map`) — vectorized mapping plus the
  statistical probe model, for the samplers' hot loop;
* :func:`simulate_concurrent_fused_map` — an explicit thread-interleaving
  executor over :class:`ExactOpenAddressTable`, used by tests to verify the
  lock-free invariants the paper argues for (unique consecutive local IDs
  under *any* interleaving, idempotent duplicate insertion).
"""

from __future__ import annotations

import numpy as np

from repro.sampling.idmap.base import IdMap, MapResult, first_occurrence_unique
from repro.sampling.idmap.hash_table import ExactOpenAddressTable, table_capacity
from repro.utils.rng import ensure_rng


class FusedIdMap(IdMap):
    """FastGL's fused, synchronization-free GPU ID map: one atomicAdd per
    fresh local ID, no synchronization events."""

    device = "gpu"
    kind = "fused"
    kernel_launches = 2  # fused construct+assign, then translate

    def __init__(self, load_factor: float = 0.5) -> None:
        if not 0.0 < load_factor <= 0.9:
            raise ValueError("load_factor must be in (0, 0.9]")
        self.load_factor = float(load_factor)

    def map(self, ids: np.ndarray) -> MapResult:
        ids = np.asarray(ids, dtype=np.int64)
        unique, inverse = first_occurrence_unique(ids)
        return MapResult(unique_globals=unique, locals_of_input=inverse,
                         report=self.account(len(ids), unique))


def _fused_map_thread(table: ExactOpenAddressTable, ids) -> "generator":
    """One emulated thread running Algorithm 2 over its assigned IDs.

    Yields once before every shared-state atomic operation, so the
    scheduler in :func:`simulate_concurrent_fused_map` can interleave
    threads between (not within) atomic transactions — exactly the
    granularity at which a GPU interleaves them.
    """
    for global_id in ids:
        global_id = int(global_id)
        index = table._hash(global_id)
        probes = 0
        while True:
            yield  # about to execute one atomicCAS
            returned = table._atomic_cas(index, -1, global_id)
            if returned == global_id or returned == -1:
                fresh = returned == -1
                if fresh:
                    table.stats.inserts += 1
                else:
                    table.stats.duplicate_hits += 1
                table.stats.probe_retries += probes
                if fresh:
                    yield  # about to execute the atomicAdd
                    table.values[index] = table.atomic_add_local_id()
                break
            probes += 1
            if probes >= table.capacity:
                raise RuntimeError("hash table is full")
            index = (index + 1) % table.capacity


def simulate_concurrent_fused_map(
    ids: np.ndarray,
    num_threads: int = 8,
    rng=None,
) -> ExactOpenAddressTable:
    """Execute Algorithm 2 under a random atomic-level thread interleaving.

    The input IDs are dealt round-robin to ``num_threads`` emulated threads.
    A random scheduler repeatedly picks a live thread and advances it by one
    atomic operation (one atomicCAS or one atomicAdd), so races between a
    thread's CAS and another's probe/assignment are genuinely explored.

    Returns the resulting table; callers assert on
    :meth:`ExactOpenAddressTable.mapping` that every distinct input ID got a
    unique local ID and local IDs are consecutive from zero — the invariant
    the paper's lock-free design must uphold under *any* interleaving.
    """
    ids = np.asarray(ids, dtype=np.int64)
    rng = ensure_rng(rng)
    capacity = table_capacity(len(np.unique(ids))) if len(ids) else 2
    table = ExactOpenAddressTable(capacity)
    threads = [
        _fused_map_thread(table, ids[t::num_threads])
        for t in range(num_threads)
    ]
    live = list(range(num_threads))
    while live:
        pick = int(rng.integers(0, len(live)))
        t = live[pick]
        try:
            next(threads[t])
        except StopIteration:
            live.pop(pick)
    return table
