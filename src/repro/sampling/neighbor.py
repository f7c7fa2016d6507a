"""Uniform k-hop neighbor sampling (the paper's default workload).

Per hop, every frontier node keeps all neighbors when its degree is at most
the fanout, and otherwise draws ``fanout`` distinct neighbors uniformly
without replacement — GraphSAGE/DGL semantics. The evaluation setup of the
paper is 3-hop with fanouts (5, 10, 15).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.obs import get_registry
from repro.sampling.base import Sampler
from repro.sampling.idmap import FusedIdMap, IdMap
from repro.sampling.idmap.base import first_occurrence_unique
from repro.sampling.subgraph import LayerBlock, SampledSubgraph
from repro.utils.rng import ensure_rng

_CHUNK_ROWS = 8192
#: Row widths at which numpy's x86-simd-sort ``argselect`` steps to the
#: next bitonic network (per-row cost roughly doubles at each); it sorts a
#: row of up to the last width outright.
_NETWORK_WIDTHS = np.array([16, 32, 64, 128, 256])
#: Below this many rows, splitting a chunk costs more than the narrower
#: networks save.
_MIN_NETWORK_ROWS = 128
#: A packed key is a key's bits with the low 8 replaced by its column.
_COLUMN_BITS = 8
_KEY_MASK = np.int64(-1 << _COLUMN_BITS)
_COLUMN_MASK = np.int64((1 << _COLUMN_BITS) - 1)
_COLUMNS = np.arange(_NETWORK_WIDTHS[-1], dtype=np.int64)
#: Set on pad cells: every valid key is below 1.0, whose bits are
#: ``0x3FF0 << 48``, so a pad outranks every valid cell.
_PAD_BIT = np.int64(1 << 62)
#: ``_PAD_CELLS[d, c]`` is :data:`_PAD_BIT` where ``c >= d`` and 0
#: elsewhere: the pad of a row of degree ``d``, for every network width.
#: Each row is the previous one shifted right by a cell, so the 257 x 256
#: table is a read-only window view of one 512-cell staircase.
_PAD_CELLS = np.lib.stride_tricks.sliding_window_view(
    np.repeat(np.array([0, _PAD_BIT]), _NETWORK_WIDTHS[-1]),
    _NETWORK_WIDTHS[-1])[::-1]


def _argpartition_sorts_short_rows() -> bool:
    """Whether ``np.argpartition`` returns every row of at most 256 keys
    fully sorted, whatever ``kth`` is.

    True where numpy dispatches it to x86-simd-sort (x86 with AVX2 or
    AVX-512), whose ``argselect`` sorts such rows with a bitonic network;
    False for introselect (baseline x86-64 and other CPUs).
    """
    rng = np.random.default_rng(0)
    for width in range(2, _NETWORK_WIDTHS[-1] + 1):
        keys = rng.random((2, width))
        ranked = np.argsort(keys, axis=1)
        for kth in {1, width - 1}:
            if not np.array_equal(np.argpartition(keys, kth, axis=1), ranked):
                return False
    return True


def _partition_sorted_width() -> int:
    """The widest of :data:`_NETWORK_WIDTHS` up to which
    ``ndarray.partition`` returned random int64 rows fully sorted at
    every network width, whatever ``kth`` was; 0 if none.

    256 where numpy dispatches it to x86-simd-sort's AVX-512 code, 64 on
    its AVX2 code, 0 for introselect. It decides only which ranges
    :func:`_select_by_network` re-sorts: a prefix left unsorted fails that
    function's ascent check, so a wrong answer costs time, not exactness.
    """
    rng = np.random.default_rng(0)
    sorted_width = 0
    for width in _NETWORK_WIDTHS.tolist():
        keys = rng.integers(0, 1 << 62, size=(4, width))
        ranked = np.sort(keys, axis=1)
        for kth in (1, width - 1):
            got = keys.copy()
            got.partition(kth, axis=1)
            if not np.array_equal(got, ranked):
                return sorted_width
        sorted_width = width
    return sorted_width


_SORTED_ARGPARTITION = _argpartition_sorts_short_rows()
_SORTED_PARTITION_WIDTH = _partition_sorted_width()


def _select(keys, chunk_deg, fanout):
    """Each row's ``fanout`` picks, in ``np.argpartition``'s order, from
    the chunk with every column past the row's degree padded."""
    # Push out-of-degree columns past any valid key so argpartition never
    # selects them (valid keys are < 1.0).
    cols = np.arange(keys.shape[1])
    np.add(keys, 2.0, out=keys, where=cols >= chunk_deg[:, None])
    return np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]


def _sort_prefix(top):
    """Sort the ranked prefix rows ``top`` in place, where the partition
    left them unsorted."""
    top.sort(axis=1)


def _select_by_network(keys, chunk_deg, fanout):
    """:func:`_select`'s picks, with each degree range ranked as packed
    integers at its own network width.

    Where :data:`_SORTED_ARGPARTITION` holds and the chunk is at most 256
    wide, :func:`_select` sorts every padded row, so its picks are the
    row's ``fanout`` smallest valid keys in ascending order. The rows are
    degree-sorted: split at the network widths, each range is sliced to
    its own largest degree. Its cells become int64 ``(key bits & ~255) |
    column``, which sort like the keys (non-negative doubles order as
    their bit patterns) down to the low 8 bits; pad cells get
    :data:`_PAD_BIT`. One in-place value partition at ``kth=fanout``
    leaves each row's ``fanout + 1`` smallest packed keys in front,
    sorted where the dispatch sorts such rows
    (:data:`_SORTED_PARTITION_WIDTH`) and re-sorted elsewhere. When those
    keys are strictly ascending above their column bits, the first
    ``fanout`` are the row's smallest keys, distinct and in order, and
    their columns are :func:`_select`'s picks. Any tie, in the keys or
    only in their packed high bits, sends the chunk back to
    :func:`_select` itself.
    """
    rows = len(chunk_deg)
    ends = np.searchsorted(chunk_deg, _NETWORK_WIDTHS, side="right")
    top = np.empty((rows, fanout + 1), dtype=np.int64)
    bits = keys.view(np.int64)
    lo = 0
    for hi in ends.tolist():
        if hi == lo:
            continue
        span_deg = chunk_deg[lo:hi]
        low, high = int(span_deg[0]), int(span_deg[-1])
        packed = bits[lo:hi, :high] & _KEY_MASK
        packed |= _COLUMNS[:high]
        # Columns below the range's smallest degree are valid in every row.
        if low < high:
            packed[:, low:] |= _PAD_CELLS[span_deg, low:high]
        packed.partition(fanout, axis=1)
        top[lo:hi] = packed[:, :fanout + 1]
        if high > _SORTED_PARTITION_WIDTH:
            _sort_prefix(top[lo:hi])
        lo = hi
    if np.diff(top >> _COLUMN_BITS, axis=1).min() > 0:
        return top[:, :fanout] & _COLUMN_MASK
    return _select(keys, chunk_deg, fanout)


def _draw_without_replacement(deg, fanout, rng):
    """For rows with ``deg > fanout``: pick ``fanout`` distinct offsets in
    ``[0, deg)`` per row. Returns an ``(len(deg), fanout)`` offset matrix.

    Rows are processed in degree-sorted chunks so the random matrix width
    is each chunk's max degree, keeping memory bounded on skewed graphs.
    A chunk at most 256 wide with at least :data:`_MIN_NETWORK_ROWS` rows
    is ranked by :func:`_select_by_network` where argpartition sorts such
    rows; every other chunk is padded and selected in one call. Both give
    the same picks from the same keys.
    """
    n = len(deg)
    out = np.empty((n, fanout), dtype=np.int64)
    # Degrees are non-negative: below 2**16 a stable sort of a uint16 copy
    # gives the same order through numpy's radix sort.
    narrow = deg.astype(np.uint16) if n and deg.max() < 1 << 16 else deg
    order = np.argsort(narrow, kind="stable")
    sorted_deg = deg[order]
    for start in range(0, n, _CHUNK_ROWS):
        rows = order[start:start + _CHUNK_ROWS]
        chunk_deg = sorted_deg[start:start + _CHUNK_ROWS]
        width = int(chunk_deg[-1])
        keys = rng.random((len(rows), width))
        if (_SORTED_ARGPARTITION and width <= _NETWORK_WIDTHS[-1]
                and len(rows) >= _MIN_NETWORK_ROWS):
            out[rows] = _select_by_network(keys, chunk_deg, fanout)
        else:
            out[rows] = _select(keys, chunk_deg, fanout)
    return out


class NeighborSampler(Sampler):
    """Uniform neighbor sampler with a pluggable ID map and device.

    Parameters
    ----------
    graph:
        The full graph (host-resident; the sampler reads adjacency rows).
    fanouts:
        Neighbors to draw per hop, ``fanouts[0]`` being the hop from the
        seed nodes. One GNN layer per entry.
    idmap:
        ID-map strategy (:class:`FusedIdMap` for FastGL,
        :class:`BaselineIdMap` for DGL, :class:`CpuIdMap` for PyG).
    device:
        "gpu" or "cpu" — selects the draw-throughput constant.
    """

    def __init__(
        self,
        graph: CSRGraph,
        fanouts,
        idmap: IdMap | None = None,
        device: str = "gpu",
        rng=None,
    ) -> None:
        fanouts = tuple(int(f) for f in fanouts)
        if not fanouts or any(f <= 0 for f in fanouts):
            raise SamplingError("fanouts must be a non-empty tuple of "
                                "positive integers")
        if device not in ("gpu", "cpu"):
            raise SamplingError("device must be 'gpu' or 'cpu'")
        self.graph = graph
        self.fanouts = fanouts
        self.idmap = idmap if idmap is not None else FusedIdMap()
        self.device = device
        self.rng = ensure_rng(rng)

    def _draw_hop(self, frontier: np.ndarray, fanout: int):
        """One hop's draw: ``(drawn_src_global, small, deg)``.

        ``deg`` holds the frontier's degrees and ``small`` marks the rows
        of at most ``fanout`` neighbors, which are kept whole; the drawn
        sources are those rows' neighbors in frontier order, then
        ``fanout`` draws per remaining row.
        """
        graph = self.graph
        deg = graph.degrees[frontier]
        small = deg <= fanout
        small_deg = deg[small]
        # Gather each small node's full row: the row start minus the row's
        # offset in the output, repeated, plus 0..total-1.
        starts = np.cumsum(small_deg) - small_deg
        addr = np.repeat(graph.indptr[frontier[small]] - starts, small_deg)
        addr += np.arange(addr.size)
        large = ~small
        picks = _draw_without_replacement(deg[large], fanout, self.rng)
        picks += graph.indptr[frontier[large]][:, None]
        drawn = graph.indices[np.concatenate([addr, picks.ravel()])]
        return drawn, small, deg

    def _sample_hop(self, frontier: np.ndarray, fanout: int):
        """One hop: returns (edge_dst_pos, drawn_src_global)."""
        drawn, small, deg = self._draw_hop(frontier, fanout)
        edge_dst = np.concatenate([
            np.repeat(np.flatnonzero(small), deg[small]),
            np.repeat(np.flatnonzero(~small), fanout),
        ])
        return edge_dst, drawn

    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        seeds = self._checked_seeds(seeds)

        layers = []
        report = None
        frontier = seeds
        total_draws = 0
        for fanout in self.fanouts:
            edge_dst_pos, drawn_src = self._sample_hop(frontier, fanout)
            total_draws += len(drawn_src)
            # Map frontier-first so targets occupy the leading local IDs.
            result = self.idmap.map(np.concatenate([frontier, drawn_src]))
            report = result.report if report is None else report + result.report
            src_global = result.unique_globals
            edge_src_local = result.locals_of_input[len(frontier):]
            layers.append(
                LayerBlock(
                    dst_global=frontier,
                    src_global=src_global,
                    edge_src=edge_src_local,
                    edge_dst=edge_dst_pos,
                )
            )
            frontier = src_global
        return SampledSubgraph(
            seeds=seeds,
            layers=layers,
            idmap_report=report,
            num_sampled_edges=total_draws,
        )

    def reach(self, seeds: np.ndarray) -> np.ndarray:
        """:meth:`Sampler.reach` from :meth:`sample`'s draws, without its
        blocks or local IDs.

        A hop's frontier orders the next hop's draws, so each hop but the
        last keeps the ID map's frontier (every ID map here orders it by
        first occurrence); the last hop only marks the nodes it visits.
        While the metrics registry is enabled, each hop is accounted as
        :meth:`sample`'s ID map accounts it, so the ``repro_idmap_*``
        counters do not depend on which of the two ran.
        """
        frontier = self._checked_seeds(seeds)
        account = get_registry().enabled
        for fanout in self.fanouts[:-1]:
            drawn = self._draw_hop(frontier, fanout)[0]
            ids = np.concatenate([frontier, drawn])
            frontier = first_occurrence_unique(ids)[0]
            if account:
                self.idmap.account(len(ids), frontier)
        drawn = self._draw_hop(frontier, self.fanouts[-1])[0]
        visited = np.zeros(self.graph.num_nodes, dtype=bool)
        visited[frontier] = True
        visited[drawn] = True
        reached = np.flatnonzero(visited)
        if account:
            self.idmap.account(len(frontier) + len(drawn), reached)
        return reached
