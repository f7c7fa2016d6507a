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
from repro.sampling.base import Sampler
from repro.sampling.idmap import FusedIdMap, IdMap
from repro.sampling.idmap.base import sorted_unique
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
#: ``_PAST_DEGREE[d, c]`` is ``c >= d``: the padded columns of a row of
#: degree ``d``, one shared table for every network width.
_PAST_DEGREE = (np.arange(_NETWORK_WIDTHS[-1])
                >= np.arange(_NETWORK_WIDTHS[-1] + 1)[:, None])


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


_SORTED_ARGPARTITION = _argpartition_sorts_short_rows()


def _select(keys, fanout):
    """Each padded row's ``fanout`` picks, in ``np.argpartition``'s order."""
    return np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]


def _select_by_network(keys, chunk_deg, fanout):
    """:func:`_select` of the padded chunk, with each degree range sorted
    at its own network width.

    Where :data:`_SORTED_ARGPARTITION` holds and the chunk is at most 256
    wide, :func:`_select` sorts every padded row, so its picks are the
    row's ``fanout`` smallest valid keys in ascending order. The rows are
    degree-sorted: split at the network widths, each range is sliced to
    its own largest degree, padded, and ranked with ``kth=fanout``, which
    sorts it too. When every row's ``fanout + 1`` smallest keys are
    distinct, those picks are unique and both ways find them; a tie is
    the one case in which a network's width can reorder them, so then the
    chunk is padded in full and selected as :func:`_select` does.
    """
    rows = len(chunk_deg)
    ends = np.searchsorted(chunk_deg, _NETWORK_WIDTHS, side="right")
    top = np.empty((rows, fanout + 1), dtype=np.int64)
    spans = []
    lo = 0
    for hi in ends.tolist():
        if hi == lo:
            continue
        span_deg = chunk_deg[lo:hi]
        low, high = int(span_deg[0]), int(span_deg[-1])
        # Columns below the range's smallest degree are valid in every row.
        if low < high:
            pad = keys[lo:hi, low:high]
            np.add(pad, 2.0, out=pad, where=_PAST_DEGREE[span_deg, low:high])
        top[lo:hi] = np.argpartition(keys[lo:hi, :high], fanout,
                                     axis=1)[:, :fanout + 1]
        spans.append((lo, hi, high))
        lo = hi
    # The picked keys, gathered by flat index (take_along_axis is slower).
    ranked = keys.take(top + np.arange(0, keys.size, keys.shape[1])[:, None])
    if (ranked[:, 1:] > ranked[:, :-1]).all():
        return top[:, :fanout]
    # Every column past a range's width is past its rows' degrees: adding
    # 2.0 there completes exactly the padding of the single-call path.
    for lo, hi, high in spans:
        keys[lo:hi, high:] += 2.0
    return _select(keys, fanout)


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
            # Push out-of-degree columns past any valid key so argpartition
            # never selects them (valid keys are < 1.0).
            cols = np.arange(width)
            np.add(keys, 2.0, out=keys, where=cols >= chunk_deg[:, None])
            out[rows] = _select(keys, fanout)
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

    def _sample_hop(self, frontier: np.ndarray, fanout: int):
        """One hop: returns (edge_dst_pos, drawn_src_global)."""
        graph = self.graph
        deg = graph.degrees[frontier]
        small = deg <= fanout
        parts_dst = []
        parts_src = []

        small_nodes = frontier[small]
        if len(small_nodes):
            small_deg = deg[small]
            total = int(small_deg.sum())
            if total:
                # Gather each small node's full row: the row start minus
                # the row's offset in the output, repeated, plus 0..total-1.
                starts = np.cumsum(small_deg) - small_deg
                addr = np.repeat(graph.indptr[small_nodes] - starts,
                                 small_deg)
                addr += np.arange(total)
                parts_src.append(graph.indices[addr])
                parts_dst.append(
                    np.repeat(np.flatnonzero(small), small_deg)
                )

        large_pos = np.flatnonzero(~small)
        if len(large_pos):
            large_nodes = frontier[large_pos]
            large_deg = deg[large_pos]
            picks = _draw_without_replacement(large_deg, fanout, self.rng)
            picks += graph.indptr[large_nodes][:, None]
            parts_src.append(graph.indices[picks.ravel()])
            parts_dst.append(np.repeat(large_pos, fanout))

        if parts_src:
            return np.concatenate(parts_dst), np.concatenate(parts_src)
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        seeds = np.asarray(seeds, dtype=np.int64)
        if len(seeds) == 0:
            raise SamplingError("seeds must be non-empty")
        if len(sorted_unique(seeds)) != len(seeds):
            raise SamplingError("seeds must be unique")

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
