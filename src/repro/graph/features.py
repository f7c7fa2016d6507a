"""Node-feature stores.

Feature tables are the dominant memory-IO payload (the paper's central
bottleneck). Three stores cover the reproduction's needs:

* :class:`HashFeatureStore` — features computed on demand from the node ID,
  so a "Papers100M-wide" table can be modeled without materializing it.
* :class:`MaterializedFeatureStore` — a plain ndarray table.
* :class:`PlantedFeatureStore` — class-centroid + noise features correlated
  with labels, so training experiments (Fig. 16) genuinely learn.

All stores share one interface: ``dim``, ``bytes_per_node``, and
``gather(ids)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.rng import ensure_rng


class FeatureStore(ABC):
    """Read-only node-feature table addressed by global node ID."""

    def __init__(self, num_nodes: int, dim: int,
                 dtype: np.dtype = np.float32) -> None:
        if num_nodes < 0 or dim <= 0:
            raise ValueError("num_nodes must be >= 0 and dim positive")
        self.num_nodes = int(num_nodes)
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)

    @property
    def bytes_per_node(self) -> int:
        """Bytes of one feature row (what one cache/transfer entry costs)."""
        return self.dim * self.dtype.itemsize

    @property
    def total_bytes(self) -> int:
        """Bytes of the full table (host-resident)."""
        return self.num_nodes * self.bytes_per_node

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= self.num_nodes):
            raise IndexError("node IDs out of range")
        return ids

    @abstractmethod
    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Return the ``(len(ids), dim)`` feature rows for ``ids``."""

    def materialize(self, chunk: int = 4096) -> "MaterializedFeatureStore":
        """Realize the full table in memory (fast repeated gathers for
        training experiments). Gathers ``chunk`` rows at a time, which
        bounds the temporaries and keeps them near cache size."""
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        table = np.empty((self.num_nodes, self.dim), dtype=self.dtype)
        for start in range(0, self.num_nodes, chunk):
            ids = np.arange(start, min(start + chunk, self.num_nodes))
            table[start:start + len(ids)] = self.gather(ids)
        return MaterializedFeatureStore(table)


class HashFeatureStore(FeatureStore):
    """Deterministic pseudo-random features generated from node IDs.

    ``gather`` hashes each ID into a per-row seed, so the same node always
    yields the same row, with zero resident storage. Used where only byte
    counts and numerical plausibility matter.
    """

    def __init__(self, num_nodes: int, dim: int, seed: int = 0,
                 dtype: np.dtype = np.float32) -> None:
        super().__init__(num_nodes, dim, dtype=dtype)
        self.seed = int(seed)

    def gather(self, ids: np.ndarray) -> np.ndarray:
        ids = self._check_ids(ids)
        # A cheap splitmix-style hash expanded across dimensions, mixed in
        # place through one scratch array.
        base = (ids.astype(np.uint64) + np.uint64(self.seed)) * np.uint64(
            0x9E3779B97F4A7C15
        )
        dims = np.arange(self.dim, dtype=np.uint64) * np.uint64(
            0xBF58476D1CE4E5B9
        )
        mixed = base[:, None] ^ dims[None, :]
        scratch = np.empty_like(mixed)
        mixed ^= np.right_shift(mixed, np.uint64(31), out=scratch)
        mixed *= np.uint64(0x94D049BB133111EB)
        mixed ^= np.right_shift(mixed, np.uint64(29), out=scratch)
        mixed >>= np.uint64(40)
        # k = mixed < 2**24, so k * 2**-24 - 0.5 = (k - 2**23) / 2**24 is
        # exact in float32. Other dtypes take that exact value and round
        # once; rounding k * 2**-24 to float16 before subtracting would
        # round twice.
        rows = mixed.astype(np.float32)
        rows *= np.float32(2**-24)
        rows -= np.float32(0.5)
        return rows if self.dtype == np.float32 else rows.astype(self.dtype)


class MaterializedFeatureStore(FeatureStore):
    """A plain in-memory feature table."""

    def __init__(self, table: np.ndarray) -> None:
        table = np.asarray(table)
        # Keep reduced-precision tables reduced (float16 halves both the
        # resident bytes and every modeled transfer); only non-float input
        # is promoted to the float32 default.
        dtype = (table.dtype if np.issubdtype(table.dtype, np.floating)
                 else np.dtype(np.float32))
        table = np.ascontiguousarray(table, dtype=dtype)
        if table.ndim != 2:
            raise ValueError("feature table must be 2-D")
        super().__init__(table.shape[0], table.shape[1], dtype=dtype)
        self.table = table

    def gather(self, ids: np.ndarray) -> np.ndarray:
        ids = self._check_ids(ids)
        return self.table[ids]


class PlantedFeatureStore(FeatureStore):
    """Label-correlated features: class centroid + Gaussian noise.

    Rows are generated on demand (deterministically per node) so even the
    wide-feature datasets stay cheap; the signal-to-noise ratio is chosen so
    a GCN reaches well-above-chance accuracy in a few epochs.
    """

    def __init__(self, labels: np.ndarray, dim: int, noise: float = 1.0,
                 seed: int = 0) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        super().__init__(len(labels), dim)
        self.labels = labels
        self.noise = float(noise)
        self.seed = int(seed)
        num_classes = int(labels.max()) + 1 if len(labels) else 1
        rng = ensure_rng(seed)
        self.centroids = rng.normal(0.0, 1.0, size=(num_classes, dim)).astype(
            np.float32
        )
        self._noise_store = HashFeatureStore(len(labels), dim, seed=seed + 1)

    def gather(self, ids: np.ndarray) -> np.ndarray:
        ids = self._check_ids(ids)
        rows = self._noise_store.gather(ids)
        # HashFeatureStore rows are ~U(-0.5, 0.5): std ~0.289, so the 3.46
        # factor makes the noise term ~unit-variance before scaling.
        rows *= self.noise * 3.46
        rows += self.centroids[self.labels[ids]]
        return rows
