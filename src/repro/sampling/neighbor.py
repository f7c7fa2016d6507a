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


def _draw_without_replacement(deg, fanout, rng):
    """For rows with ``deg > fanout``: pick ``fanout`` distinct offsets in
    ``[0, deg)`` per row. Returns an ``(len(deg), fanout)`` offset matrix.

    Rows are processed in degree-sorted chunks so the random matrix width
    is each chunk's max degree, keeping memory bounded on skewed graphs.
    """
    n = len(deg)
    out = np.empty((n, fanout), dtype=np.int64)
    order = np.argsort(deg, kind="stable")
    sorted_deg = deg[order]
    for start in range(0, n, _CHUNK_ROWS):
        rows = order[start:start + _CHUNK_ROWS]
        chunk_deg = sorted_deg[start:start + _CHUNK_ROWS]
        width = int(chunk_deg[-1])
        keys = rng.random((len(rows), width))
        # Push out-of-degree columns past any valid key so argpartition
        # never selects them (valid keys are < 1.0).
        cols = np.arange(width)
        keys += (cols[None, :] >= chunk_deg[:, None]) * 2.0
        picks = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
        out[rows] = picks
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
            # Gather each small node's full row.
            row_starts = graph.indptr[small_nodes]
            total = int(small_deg.sum())
            if total:
                offsets = np.repeat(row_starts, small_deg)
                # within-row offset: 0..deg-1 per node
                within = np.arange(total) - np.repeat(
                    np.concatenate([[0], np.cumsum(small_deg)[:-1]]), small_deg
                )
                parts_src.append(graph.indices[offsets + within])
                parts_dst.append(
                    np.repeat(np.flatnonzero(small), small_deg)
                )

        large_pos = np.flatnonzero(~small)
        if len(large_pos):
            large_nodes = frontier[large_pos]
            large_deg = deg[large_pos]
            picks = _draw_without_replacement(large_deg, fanout, self.rng)
            addr = self.graph.indptr[large_nodes][:, None] + picks
            parts_src.append(self.graph.indices[addr.ravel()])
            parts_dst.append(np.repeat(large_pos, fanout))

        if parts_src:
            edge_dst = np.concatenate(parts_dst)
            edge_src = np.concatenate(parts_src)
        else:
            edge_dst = np.empty(0, dtype=np.int64)
            edge_src = np.empty(0, dtype=np.int64)
        return edge_dst.astype(np.int64), edge_src.astype(np.int64)

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
