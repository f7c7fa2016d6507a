"""Layer-wise importance sampling (FastGCN-style).

The paper's Section 7 argues Fused-Map accelerates *any* sampling
algorithm, citing layer-wise/importance samplers [FastGCN, LADIES] among
them — they all need the global->local ID map. This sampler draws a fixed
budget of nodes per layer with degree-proportional probabilities and
connects them to the previous frontier through existing edges, the
FastGCN construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graph.csr import CSRGraph
from repro.sampling.base import Sampler
from repro.sampling.idmap import FusedIdMap, IdMap
from repro.sampling.idmap.base import in_sorted, sorted_unique
from repro.sampling.subgraph import LayerBlock, SampledSubgraph
from repro.utils.rng import ensure_rng


class LayerWiseSampler(Sampler):
    """FastGCN-style sampler: per layer, sample ``layer_sizes[k]`` nodes
    degree-proportionally and keep edges into the previous frontier.

    Unlike node-wise sampling, the per-layer budget is independent of the
    frontier size, avoiding neighbor explosion — at the cost of possibly
    disconnected targets (handled by the models' self-edges).
    """

    def __init__(
        self,
        graph: CSRGraph,
        layer_sizes,
        idmap: IdMap | None = None,
        device: str = "gpu",
        rng=None,
    ) -> None:
        layer_sizes = tuple(int(s) for s in layer_sizes)
        if not layer_sizes or any(s <= 0 for s in layer_sizes):
            raise SamplingError("layer_sizes must be positive integers")
        if device not in ("gpu", "cpu"):
            raise SamplingError("device must be 'gpu' or 'cpu'")
        self.graph = graph
        self.layer_sizes = layer_sizes
        self.idmap = idmap if idmap is not None else FusedIdMap()
        self.device = device
        self.rng = ensure_rng(rng)
        degrees = graph.degrees.astype(np.float64)
        total = degrees.sum()
        if total <= 0:
            raise SamplingError("graph has no edges to importance-sample")
        self._probs = degrees / total

    def _edges_into(self, frontier: np.ndarray, candidates: np.ndarray):
        """(edge_dst_pos, edge_src_global): candidate->frontier edges that
        exist in the graph."""
        candidate_set = sorted_unique(candidates)
        graph = self.graph
        deg = graph.degrees[frontier]
        # Every frontier row's neighbors, concatenated in frontier order,
        # then one membership test over all of them.
        ends = np.cumsum(deg)
        addr = np.repeat(graph.indptr[frontier] - (ends - deg), deg)
        addr += np.arange(addr.size)
        neighbors = graph.indices[addr]
        kept = in_sorted(neighbors, candidate_set)
        edge_dst = np.repeat(np.arange(len(frontier)), deg)[kept]
        return edge_dst, neighbors[kept]

    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        seeds = self._checked_seeds(seeds)

        frontier = seeds
        layers = []
        report = None
        draws = 0
        for size in self.layer_sizes:
            size = min(size, self.graph.num_nodes)
            candidates = self.rng.choice(
                self.graph.num_nodes, size=size, replace=False,
                p=self._probs,
            ).astype(np.int64)
            draws += size
            edge_dst, drawn_src = self._edges_into(frontier, candidates)
            result = self.idmap.map(np.concatenate([frontier, drawn_src]))
            report = (result.report if report is None
                      else report + result.report)
            layers.append(LayerBlock(
                dst_global=frontier,
                src_global=result.unique_globals,
                edge_src=result.locals_of_input[len(frontier):],
                edge_dst=edge_dst,
            ))
            frontier = result.unique_globals
        return SampledSubgraph(seeds=seeds, layers=layers,
                               idmap_report=report,
                               num_sampled_edges=draws)
