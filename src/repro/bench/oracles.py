"""Reference implementations that the fast paths are pinned against.

Each function here is the code a rewrite replaced, kept verbatim in
behaviour. The property tests require the fast path to give the same
bits, and :mod:`repro.bench.kernels` times it against the reference:

* :func:`match_degree_matrix_legacy` — the O(n^2) pairwise
  ``np.intersect1d`` loop behind
  :func:`repro.core.reorder.match_degree_matrix`;
* :func:`greedy_reorder_legacy` — the full-matrix argmax sweep behind
  :func:`repro.core.reorder.greedy_reorder`;
* :func:`from_edges_legacy` — :meth:`repro.graph.csr.CSRGraph.from_edges`
  with numpy's ``np.unique``, a ``np.lexsort`` and ``np.add.at``;
* :func:`hash_gather_legacy` —
  :meth:`repro.graph.features.HashFeatureStore.gather` with the float64
  final scaling;
* :class:`ResidentFeatureBuffer` — the functional counterpart of
  :class:`~repro.transfer.loader.MatchLoader`'s byte accounting: it
  assembles each batch's feature matrix from the previous batch's
  resident rows plus a host gather of only the difference set, so tests
  can assert that Match is exactness-preserving (the premise of the
  paper's Fig. 16).

Only the tests and the bench kernels import this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.match import MatchState
from repro.core.reorder import _as_match_matrix
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.features import FeatureStore


def match_degree_matrix_legacy(node_sets) -> np.ndarray:
    """Reference O(n^2) pairwise-``np.intersect1d`` implementation.

    Kept as the oracle for the vectorized fast path (property tests) and
    as the ``--legacy`` reference timing in ``python -m repro.bench``.
    """
    unique_sets = [np.unique(np.asarray(s, dtype=np.int64)) for s in node_sets]
    n = len(unique_sets)
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        a = unique_sets[i]
        for j in range(i + 1, n):
            b = unique_sets[j]
            if len(a) == 0 or len(b) == 0:
                continue
            overlap = len(np.intersect1d(a, b, assume_unique=True))
            matrix[i, j] = matrix[j, i] = overlap / min(len(a), len(b))
    return matrix


def greedy_reorder_legacy(matrix_or_node_sets,
                          assume_unique: bool = False) -> list:
    """Kept reference chain: the O(n^2) full-matrix argmax sweep.

    Node-set inputs go through :func:`match_degree_matrix_legacy` so the
    whole path is the paper-faithful pairwise formulation — this is the
    reference timing behind ``reorder_blocked`` in ``python -m
    repro.bench`` and the oracle the blocked chain is pinned against.
    Ties resolve to the lowest index (``np.argmax`` scans forward).
    """
    x = matrix_or_node_sets
    if not isinstance(x, np.ndarray) and any(
            isinstance(entry, np.ndarray) for entry in x):
        matrix = match_degree_matrix_legacy(x)
    else:
        matrix = _as_match_matrix(x, assume_unique)
    n = matrix.shape[0]
    if n == 0:
        return []
    work = matrix.copy()
    np.fill_diagonal(work, -np.inf)
    order = [0]
    work[:, 0] = -np.inf  # batch 0 is placed
    z = 0
    for _ in range(n - 1):
        h = int(np.argmax(work[z]))
        order.append(h)
        work[:, h] = -np.inf
        z = h
    return order


def from_edges_legacy(
    src: np.ndarray,
    dst: np.ndarray,
    num_nodes: int,
    symmetrize: bool = False,
    dedup: bool = True,
    drop_self_loops: bool = True,
) -> CSRGraph:
    """Reference :meth:`CSRGraph.from_edges`: ``np.unique`` of the edge
    keys, a ``np.lexsort`` of the endpoints and an ``np.add.at`` row
    count. On numpy 2.x that ``np.unique`` hashes before it sorts."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise GraphError("src and dst must have the same shape")
    if len(src) and (
        min(src.min(), dst.min()) < 0
        or max(src.max(), dst.max()) >= num_nodes
    ):
        raise GraphError("edge endpoints out of range")
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if dedup and len(src):
        key = src * np.int64(num_nodes) + dst
        key = np.unique(key)
        src, dst = key // num_nodes, key % num_nodes
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRGraph(indptr=indptr, indices=dst)


def hash_gather_legacy(store, ids: np.ndarray) -> np.ndarray:
    """Reference ``HashFeatureStore.gather``: the same splitmix hash with
    fresh temporaries, scaled in float64 and written into ``store.dtype``
    once."""
    ids = store._check_ids(ids)
    out = np.empty((len(ids), store.dim), dtype=store.dtype)
    # A cheap splitmix-style hash expanded across dimensions.
    base = (ids.astype(np.uint64) + np.uint64(store.seed)) * np.uint64(
        0x9E3779B97F4A7C15
    )
    dims = np.arange(store.dim, dtype=np.uint64) * np.uint64(
        0xBF58476D1CE4E5B9
    )
    mixed = base[:, None] ^ dims[None, :]
    mixed ^= mixed >> np.uint64(31)
    mixed *= np.uint64(0x94D049BB133111EB)
    mixed ^= mixed >> np.uint64(29)
    out[:] = (mixed >> np.uint64(40)).astype(np.float64) / 2**24 - 0.5
    return out


class ResidentFeatureBuffer:
    """Keeps the last mini-batch's feature rows 'on device'."""

    def __init__(self, store: FeatureStore) -> None:
        self.store = store
        self._state = MatchState()
        #: Resident rows, keyed by global node ID.
        self._rows: dict = {}
        self.host_rows_fetched = 0
        self.rows_reused = 0

    def reset(self) -> None:
        """Flush residency (epoch boundary)."""
        self._state.reset()
        self._rows = {}

    def fetch(self, input_nodes: np.ndarray) -> np.ndarray:
        """Feature matrix for ``input_nodes`` (in their given order),
        reusing resident rows and fetching only the difference set."""
        input_nodes = np.asarray(input_nodes, dtype=np.int64)
        result = self._state.step(input_nodes)
        fresh = {}
        if len(result.load_ids):
            fetched = self.store.gather(result.load_ids)
            fresh = {
                int(node): fetched[i]
                for i, node in enumerate(result.load_ids)
            }
        self.host_rows_fetched += len(result.load_ids)
        self.rows_reused += result.num_reused

        out = np.empty((len(input_nodes), self.store.dim), dtype=np.float32)
        next_rows = {}
        for i, node in enumerate(input_nodes):
            node = int(node)
            row = fresh.get(node)
            if row is None:
                row = self._rows[node]
            out[i] = row
            next_rows[node] = out[i]
        # The new batch's buffer replaces the old one (same memory the
        # previous batch needed — no extra device cost).
        self._rows = next_rows
        return out
