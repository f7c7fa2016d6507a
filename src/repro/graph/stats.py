"""Graph and subgraph statistics, including paper-scale analytic estimators.

``expected_unique`` models neighbor explosion: drawing ``k`` times from a
pool of ``n`` candidates yields ``n * (1 - (1 - 1/n)^k)`` distinct values in
expectation. Chaining it per hop estimates sampled-subgraph sizes at *paper
scale* (hundreds of millions of nodes) without materializing those graphs —
used by the Table 1/9 memory accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph


def expected_unique(pool_size: float, num_draws: float) -> float:
    """Expected distinct values when drawing ``num_draws`` uniformly (with
    replacement) from ``pool_size`` candidates."""
    if pool_size <= 0 or num_draws <= 0:
        return 0.0
    return pool_size * (1.0 - np.exp(-num_draws / pool_size))


@dataclass(frozen=True)
class SubgraphSizeEstimate:
    """Per-hop estimated frontier sizes of a sampled subgraph."""

    #: frontier[0] is the seed batch; frontier[k] the unique nodes reached
    #: at hop k (not cumulative).
    frontiers: tuple
    #: Estimated edges sampled at each hop.
    edges_per_hop: tuple

    @property
    def num_edges(self) -> float:
        return float(sum(self.edges_per_hop))


def estimate_subgraph_size(
    num_nodes: float,
    avg_degree: float,
    batch_size: int,
    fanouts,
    hub_concentration: float = 0.35,
) -> SubgraphSizeEstimate:
    """Analytic sampled-subgraph size for a uniform k-hop sampler.

    ``hub_concentration`` shrinks the effective candidate pool: on power-law
    graphs neighbor draws concentrate on hubs, so distinct-neighbor counts
    saturate earlier than the uniform model predicts. 0.35 matches the
    degree-weighted collision rate of the synthetic generators here and is
    consistent with the overlap the paper reports in Table 4.
    """
    pool = max(1.0, num_nodes * hub_concentration)
    frontier = float(batch_size)
    frontiers = [frontier]
    edges = []
    for fanout in fanouts:
        draws = frontier * min(fanout, avg_degree)
        edges.append(draws)
        frontier = expected_unique(pool, draws)
        frontiers.append(frontier)
    return SubgraphSizeEstimate(frontiers=tuple(frontiers),
                                edges_per_hop=tuple(edges))


@dataclass(frozen=True)
class DegreeStats:
    """Degree-distribution summary of a graph."""

    num_nodes: int
    num_edges: int
    avg_degree: float
    max_degree: int
    p90_degree: float
    gini: float

    @classmethod
    def from_graph(cls, graph: CSRGraph) -> "DegreeStats":
        deg = graph.degrees
        if len(deg) == 0:
            return cls(0, 0, 0.0, 0, 0.0, 0.0)
        sorted_deg = np.sort(deg).astype(np.float64)
        n = len(sorted_deg)
        total = sorted_deg.sum()
        if total == 0:
            gini = 0.0
        else:
            ranks = np.arange(1, n + 1)
            gini = float((2 * (ranks * sorted_deg).sum()) / (n * total)
                         - (n + 1) / n)
        return cls(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            avg_degree=graph.avg_degree,
            max_degree=int(deg.max()),
            p90_degree=float(np.percentile(deg, 90)),
            gini=gini,
        )
