"""Baseline ID maps: the DGL-style GPU pipeline and a CPU map.

The DGL-style map (paper Fig. 4) runs three kernels:

1. **construct** — every thread atomically inserts its global ID into the
   hash table (atomicCAS + linear probing);
2. **assign** — local IDs are computed for the unique keys; concurrent
   threads racing on the same global ID must synchronize so each unique ID
   is counted exactly once — one synchronization event per unique ID, the
   overhead Fused-Map removes;
3. **translate** — every thread looks its global ID up.

Functionally the mapping is identical to Fused-Map's; only the counted
device work differs.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.idmap.base import IdMap, MapResult, first_occurrence_unique


class BaselineIdMap(IdMap):
    """DGL-style three-kernel GPU ID map with per-unique-ID syncs."""

    device = "gpu"
    kind = "baseline"
    kernel_launches = 3  # construct, assign, translate
    sync_per_unique = True

    def __init__(self, load_factor: float = 0.5) -> None:
        if not 0.0 < load_factor <= 0.9:
            raise ValueError("load_factor must be in (0, 0.9]")
        self.load_factor = float(load_factor)

    def map(self, ids: np.ndarray) -> MapResult:
        ids = np.asarray(ids, dtype=np.int64)
        unique, inverse = first_occurrence_unique(ids)
        return MapResult(unique_globals=unique, locals_of_input=inverse,
                         report=self.account(len(ids), unique))


class CpuIdMap(IdMap):
    """Host-side ID map (PyG performs the whole sample phase on CPU)."""

    device = "cpu"
    kind = "cpu"

    def map(self, ids: np.ndarray) -> MapResult:
        ids = np.asarray(ids, dtype=np.int64)
        unique, inverse = first_occurrence_unique(ids)
        return MapResult(unique_globals=unique, locals_of_input=inverse,
                         report=self.account(len(ids), unique))
