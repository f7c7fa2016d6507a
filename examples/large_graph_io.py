"""Deep dive: why Match-Reorder beats caching on large graphs.

Walks through the paper's Section 4.1 mechanics on the Papers100M
analogue, where almost no device memory is left for a feature cache
(Table 1):

1. measure inter-subgraph overlap (match degrees, Table 4),
2. compare loaded bytes: naive vs GNNLab-style cache vs Match vs
   Match+Reorder,
3. show the greedy reorder schedule for one window.

Usage::

    python examples/large_graph_io.py [dataset]
"""

import sys

import numpy as np

from repro import RunConfig, get_dataset
from repro.config import BATCH_LOCALITY
from repro.core.match import MatchState
from repro.core.reorder import (
    chain_match_score,
    greedy_reorder,
    match_degree_matrix,
)
from repro.graph.partition import MinibatchPlan
from repro.sampling import NeighborSampler
from repro.transfer.cache import PresampleCachePolicy
from repro.utils import format_bytes


def loaded_bytes_for_order(node_sets, order, bytes_per_node, cache=None):
    state = MatchState()
    total = 0
    for index in order:
        result = state.step(node_sets[index])
        to_load = result.load_ids
        if cache is not None:
            _, to_load = cache.partition(to_load)
        total += len(to_load) * bytes_per_node
    return total


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "papers100m"
    dataset = get_dataset(dataset_name)
    config = RunConfig()
    print(f"{dataset}")
    print(f"leftover-memory ratio (paper Table 1 derived): "
          f"{dataset.left_memory_ratio():.3f} of the feature table\n")

    sampler = NeighborSampler(dataset.graph, config.fanouts, rng=0)
    plan = MinibatchPlan(dataset.train_ids, config.batch_size,
                         locality=BATCH_LOCALITY)
    batches = plan.batches(rng=1)[:12]
    node_sets = [sampler.sample(batch).input_nodes for batch in batches]
    bytes_per_node = dataset.features.bytes_per_node

    matrix = match_degree_matrix(node_sets)
    upper = matrix[np.triu_indices(len(node_sets), k=1)]
    print(f"match degrees across {len(node_sets)} mini-batches: "
          f"avg {upper.mean():.3f}, min {upper.min():.3f}, "
          f"max {upper.max():.3f}")

    naive = sum(len(s) for s in node_sets) * bytes_per_node
    cache = PresampleCachePolicy.build(
        sampler, dataset.train_ids, dataset.features,
        dataset.cache_budget_bytes(), rng=2,
    )
    cached = 0
    for s in node_sets:
        _, misses = cache.partition(s)
        cached += len(misses) * bytes_per_node
    identity = list(range(len(node_sets)))
    match_only = loaded_bytes_for_order(node_sets, identity, bytes_per_node)
    order = greedy_reorder(matrix)
    match_reorder = loaded_bytes_for_order(node_sets, order, bytes_per_node)

    print("\nfeature bytes over PCIe for the window:")
    print(f"  naive (DGL)          {format_bytes(naive)}")
    print(f"  cache (GNNLab-style) {format_bytes(cached)}  "
          f"(cache: {cache.num_cached} rows, "
          f"hit rate {cache.hit_rate:.1%})")
    print(f"  Match                {format_bytes(match_only)}")
    print(f"  Match + Reorder      {format_bytes(match_reorder)}")

    print(f"\ngreedy reorder schedule: {order}")
    print(f"  consecutive match-degree sum: identity "
          f"{chain_match_score(matrix, identity):.3f} -> greedy "
          f"{chain_match_score(matrix, order):.3f}")


if __name__ == "__main__":
    main()
