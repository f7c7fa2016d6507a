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
* :func:`in_sorted_legacy`, :func:`dense_first_occurrence_legacy` and
  :func:`sample_hop_legacy` — the clipped-``searchsorted`` membership
  test behind :func:`repro.sampling.idmap.base.in_sorted`, the
  gather-and-compare first occurrence behind
  :func:`~repro.sampling.idmap.base.first_occurrence_unique`'s dense
  path, and the neighbor draw behind
  :meth:`repro.sampling.neighbor.NeighborSampler._sample_hop`;
* :class:`FrequencyPageCacheLegacy` — the dict-based frequency cache,
  one page per ``lookup``/``insert``, that the dense batch path
  (:meth:`~repro.storage.cache.FrequencyPageCache.access`) must match;
* :class:`ResidentFeatureBuffer` — the functional counterpart of
  :class:`~repro.transfer.loader.MatchLoader`'s byte accounting: it
  assembles each batch's feature matrix from the previous batch's
  resident rows plus a host gather of only the difference set, so tests
  can assert that Match is exactness-preserving (the premise of the
  paper's Fig. 16).

Only the tests and the bench kernels import this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.match import MatchState
from repro.core.reorder import _as_match_matrix
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.features import FeatureStore
from repro.storage.cache import PageCache


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


def in_sorted_legacy(values, sorted_set) -> np.ndarray:
    """Reference ``in_sorted``: one clipped ``np.searchsorted``."""
    if len(sorted_set) == 0:
        return np.zeros(np.shape(values), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_set, values), len(sorted_set) - 1)
    return sorted_set[pos] == values


def dense_first_occurrence_legacy(ids: np.ndarray) -> tuple:
    """Reference dense first occurrence of non-negative int64 ``ids``:
    ``np.minimum.at`` into an ID-indexed scratch, then every input ID
    gathered and compared with its own position."""
    position = np.arange(ids.size)
    scratch = np.empty(int(ids.max()) + 1, dtype=np.int64)
    scratch[ids] = ids.size
    np.minimum.at(scratch, ids, position)
    unique = ids[scratch[ids] == position]
    scratch[unique] = np.arange(unique.size)
    return unique, scratch[ids]


def _draw_without_replacement_legacy(deg, fanout, rng):
    n = len(deg)
    out = np.empty((n, fanout), dtype=np.int64)
    order = np.argsort(deg, kind="stable")
    sorted_deg = deg[order]
    for start in range(0, n, 8192):
        rows = order[start:start + 8192]
        chunk_deg = sorted_deg[start:start + 8192]
        width = int(chunk_deg[-1])
        keys = rng.random((len(rows), width))
        cols = np.arange(width)
        keys += (cols[None, :] >= chunk_deg[:, None]) * 2.0
        picks = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
        out[rows] = picks
    return out


def sample_hop_legacy(graph: CSRGraph, frontier: np.ndarray, fanout: int,
                      rng) -> tuple:
    """Reference one-hop draw: ``(edge_dst_pos, drawn_src_global)`` with
    the degree mask built as a float product, two ``np.repeat`` calls for
    the small rows' addresses and int64 copies of the outputs."""
    deg = graph.degrees[frontier]
    small = deg <= fanout
    parts_dst = []
    parts_src = []
    small_nodes = frontier[small]
    if len(small_nodes):
        small_deg = deg[small]
        row_starts = graph.indptr[small_nodes]
        total = int(small_deg.sum())
        if total:
            offsets = np.repeat(row_starts, small_deg)
            within = np.arange(total) - np.repeat(
                np.concatenate([[0], np.cumsum(small_deg)[:-1]]), small_deg
            )
            parts_src.append(graph.indices[offsets + within])
            parts_dst.append(np.repeat(np.flatnonzero(small), small_deg))
    large_pos = np.flatnonzero(~small)
    if len(large_pos):
        large_nodes = frontier[large_pos]
        picks = _draw_without_replacement_legacy(deg[large_pos], fanout, rng)
        addr = graph.indptr[large_nodes][:, None] + picks
        parts_src.append(graph.indices[addr.ravel()])
        parts_dst.append(np.repeat(large_pos, fanout))
    if parts_src:
        edge_dst = np.concatenate(parts_dst)
        edge_src = np.concatenate(parts_src)
    else:
        edge_dst = np.empty(0, dtype=np.int64)
        edge_src = np.empty(0, dtype=np.int64)
    return edge_dst.astype(np.int64), edge_src.astype(np.int64)


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


class FrequencyPageCacheLegacy(PageCache):
    """Reference :class:`~repro.storage.cache.FrequencyPageCache`: the same
    policy over dicts, one page per call.

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
        self._pages: set = set()
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
        return len(self._pages)

    def _bump(self, page_id: int) -> None:
        self._counts[page_id] = self._counts.get(page_id, 0) + 1

    def lookup(self, page_id: int) -> bool:
        self._bump(page_id)
        if page_id in self._pages:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def _take_coldest(self) -> tuple:
        """The resident page with the smallest (count, id) key. Stale
        heap entries (evicted pages, outdated counts) are discarded or
        refreshed on the way; counts only grow, so the first entry that
        matches its current count is the true minimum."""
        while True:
            count, pid = heapq.heappop(self._heap)
            if pid not in self._pages:
                continue
            current = self._counts.get(pid, 0)
            if current != count:
                heapq.heappush(self._heap, (current, pid))
                continue
            return count, pid

    def insert(self, page_id: int) -> None:
        if self.capacity_pages == 0 or page_id in self._pages:
            return
        count = self._counts.get(page_id, 0)
        if len(self._pages) < self.capacity_pages:
            self._pages.add(page_id)
            heapq.heappush(self._heap, (count, page_id))
            return
        if count <= self._floor:
            return
        victim = self._take_coldest()
        self._floor = victim[0]
        if count > victim[0]:
            self._pages.remove(victim[1])
            self.evictions += 1
            self._pages.add(page_id)
            heapq.heappush(self._heap, (count, page_id))
        else:
            heapq.heappush(self._heap, victim)
