"""Open-addressing hash table with linear probing.

Two faces of the same structure:

* :class:`ExactOpenAddressTable` — a faithful, per-operation implementation
  of the paper's Algorithm 2 (``InsertID`` with emulated ``atomicCAS``,
  ``Fused_Map`` with emulated ``atomicAdd``). Exact probe counts; used for
  semantics tests and the simulated-concurrency harness. Python-loop speed,
  so callers keep inputs small.
* :func:`estimate_probe_stats` — a vectorized statistical model of the same
  table's probe behaviour, used on the fast path where only the *counts*
  matter for the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EMPTY = -1


def table_capacity(num_keys: int, load_factor: float = 0.5) -> int:
    """Capacity for ``num_keys`` at the given maximum load factor, rounded
    up to a power of two (the mod hash then reduces to a mask)."""
    if num_keys < 0:
        raise ValueError("num_keys must be non-negative")
    needed = max(2, int(np.ceil(max(1, num_keys) / load_factor)))
    return 1 << int(np.ceil(np.log2(needed)))


@dataclass
class ProbeStats:
    """Exact or estimated probing behaviour of a batch of insertions."""

    inserts: int = 0
    probe_retries: int = 0
    duplicate_hits: int = 0

    @property
    def avg_probes(self) -> float:
        total = self.inserts + self.duplicate_hits
        if total == 0:
            return 0.0
        return self.probe_retries / total


class ExactOpenAddressTable:
    """Algorithm 2's hash table, executed one emulated atomic at a time.

    ``insert_id`` is the paper's ``InsertID``: atomicCAS on the key slot,
    linear probing on conflict. ``fused_map_insert`` is the paper's
    ``Fused_Map``: on a fresh insertion it writes the value slot and
    atomically bumps the shared ``local_id`` counter.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.keys = np.full(self.capacity, EMPTY, dtype=np.int64)
        self.values = np.zeros(self.capacity, dtype=np.int64)
        self.local_id = 0
        self.stats = ProbeStats()
        self.cas_ops = 0
        self.add_ops = 0

    def _hash(self, global_id: int) -> int:
        return int(global_id) % self.capacity

    def _atomic_cas(self, index: int, old: int, new: int) -> int:
        """Emulated atomicCAS on ``keys[index]`` (lines 2-8 of Alg. 2)."""
        self.cas_ops += 1
        current = int(self.keys[index])
        if current == old:
            self.keys[index] = new
        return current

    def insert_id(self, global_id: int) -> tuple:
        """The paper's ``InsertID``: returns ``(hash_index, flag)``.

        ``flag`` is True when the same global ID was already present
        (another "thread" handled it), False when this insertion claimed a
        fresh slot.
        """
        global_id = int(global_id)
        if global_id < 0:
            raise ValueError("global IDs must be non-negative (-1 is EMPTY)")
        index = self._hash(global_id)
        probes = 0
        while True:
            returned = self._atomic_cas(index, EMPTY, global_id)
            if returned == global_id or returned == EMPTY:
                flag = returned != EMPTY
                if flag:
                    self.stats.duplicate_hits += 1
                else:
                    self.stats.inserts += 1
                self.stats.probe_retries += probes
                return index, flag
            # Conflict: another global ID occupies this slot; linear probe.
            probes += 1
            if probes >= self.capacity:
                raise RuntimeError("hash table is full")
            index = (index + 1) % self.capacity

    def atomic_add_local_id(self) -> int:
        """Emulated ``atomicAdd(LocalID, 1)``; returns the *old* value.

        Note: the paper's pseudocode writes ``value = LocalID`` and then
        ``atomicAdd(LocalID, 1)`` as two statements, which would race when
        two fresh insertions interleave between the read and the add. The
        race-free reading (and what a CUDA implementation does) is to use
        atomicAdd's returned old value as the assigned local ID; that is
        what this table implements and what the concurrency harness checks.
        """
        self.add_ops += 1
        old = self.local_id
        self.local_id += 1
        return old

    def fused_map_insert(self, global_id: int) -> None:
        """The paper's ``Fused_Map``: insert + conditional local-ID assign."""
        index, flag = self.insert_id(global_id)
        if not flag:
            self.values[index] = self.atomic_add_local_id()

    def lookup(self, global_id: int) -> int:
        """Translate one global ID (the second kernel). -1 when absent."""
        index = self._hash(global_id)
        for _ in range(self.capacity):
            key = int(self.keys[index])
            if key == global_id:
                return int(self.values[index])
            if key == EMPTY:
                return -1
            index = (index + 1) % self.capacity
        return -1

    def mapping(self) -> dict:
        """The global->local mapping currently stored."""
        occupied = self.keys != EMPTY
        return dict(zip(self.keys[occupied].tolist(),
                        self.values[occupied].tolist()))


def estimate_probe_stats(
    unique_ids: np.ndarray,
    num_duplicates: int,
    capacity: int | None = None,
    load_factor: float = 0.5,
) -> ProbeStats:
    """Statistical probe model for inserting ``unique_ids`` (+duplicates).

    Distinct keys hashing to the same slot form a cluster; with linear
    probing the k-th arrival in a cluster of size c retries ~k times, giving
    ``c*(c-1)/2`` retries per cluster. Duplicate insertions of a key travel
    the same displacement as the key itself, approximated by the average
    displacement. Ignores inter-cluster coalescing — a slight undercount at
    load factors <= 0.5, which is how the tables here are sized.
    """
    unique_ids = np.asarray(unique_ids, dtype=np.int64)
    if capacity is None:
        capacity = table_capacity(len(unique_ids), load_factor)
    if capacity & (capacity - 1) == 0:
        # The mod hash of a power-of-two table is a mask (also for
        # negative IDs, whose floored modulus is the two's-complement mask).
        slots = unique_ids & (capacity - 1)
    else:
        slots = unique_ids % capacity
    counts = np.bincount(slots, minlength=1)
    counts = counts[counts > 1].astype(np.float64)
    cluster_retries = float((counts * (counts - 1) / 2).sum())
    inserts = len(unique_ids)
    avg_probe = cluster_retries / max(1, inserts)
    dup_retries = num_duplicates * avg_probe
    return ProbeStats(
        inserts=inserts,
        probe_retries=int(round(cluster_retries + dup_retries)),
        duplicate_hits=int(num_duplicates),
    )
