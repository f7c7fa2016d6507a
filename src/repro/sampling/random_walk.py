"""Random-walk sampling (PinSAGE-style), used by the paper's Table 7.

Each seed launches ``num_walks`` walks of ``walk_length`` steps; every
visited node becomes a neighbor of the seed, yielding a single-hop star
block per mini-batch. The paper uses walk length 3 (PinSAGE's setting) to
show Match-Reorder also helps under non-uniform samplers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.base import Sampler
from repro.sampling.idmap import FusedIdMap, IdMap
from repro.sampling.subgraph import LayerBlock, SampledSubgraph
from repro.utils.rng import ensure_rng


class RandomWalkSampler(Sampler):
    """Random-walk neighborhood sampler with a pluggable ID map."""

    def __init__(
        self,
        graph: CSRGraph,
        walk_length: int = 3,
        num_walks: int = 10,
        idmap: IdMap | None = None,
        device: str = "gpu",
        rng=None,
    ) -> None:
        if walk_length <= 0 or num_walks <= 0:
            raise SamplingError("walk_length and num_walks must be positive")
        if device not in ("gpu", "cpu"):
            raise SamplingError("device must be 'gpu' or 'cpu'")
        self.graph = graph
        self.walk_length = int(walk_length)
        self.num_walks = int(num_walks)
        self.idmap = idmap if idmap is not None else FusedIdMap()
        self.device = device
        self.rng = ensure_rng(rng)

    def _step(self, current: np.ndarray) -> np.ndarray:
        """Advance every walk one step; zero-degree walkers stay put."""
        deg = self.graph.degrees[current]
        nxt = current.copy()
        movable = deg > 0
        if movable.any():
            offs = (self.rng.random(int(movable.sum()))
                    * deg[movable]).astype(np.int64)
            nxt[movable] = self.graph.indices[
                self.graph.indptr[current[movable]] + offs
            ]
        return nxt

    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        seeds = self._checked_seeds(seeds)

        walkers = np.repeat(seeds, self.num_walks)
        owners = np.repeat(np.arange(len(seeds)), self.num_walks)
        visited_src = []
        visited_dst = []
        current = walkers
        for _ in range(self.walk_length):
            current = self._step(current)
            visited_src.append(current.copy())
            visited_dst.append(owners)
        drawn_src = np.concatenate(visited_src)
        edge_dst_pos = np.concatenate(visited_dst)

        result = self.idmap.map(np.concatenate([seeds, drawn_src]))
        block = LayerBlock(
            dst_global=seeds,
            src_global=result.unique_globals,
            edge_src=result.locals_of_input[len(seeds):],
            edge_dst=edge_dst_pos,
        )
        return SampledSubgraph(
            seeds=seeds,
            layers=[block],
            idmap_report=result.report,
            num_sampled_edges=len(drawn_src),
        )
