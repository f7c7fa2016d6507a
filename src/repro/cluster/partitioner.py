"""Graph partitioners for multi-node training.

Three strategies, all returning a validated dense node→part assignment
(see :func:`repro.graph.partition.validate_assignment`):

* :func:`hash_partition` — ``node % parts``. The zero-information
  baseline real systems default to; perfectly balanced, worst-case cut
  on community graphs (consecutive IDs — one community — scatter across
  all partitions).
* :func:`random_partition` — balanced random (a seeded permutation
  dealt round-robin). Expected cut fraction ``1 - 1/parts``.
* :func:`greedy_partition` — streaming METIS-style edge-cut
  minimization (linear deterministic greedy, à la Fennel/LDG): nodes
  stream in ID order and each picks the partition holding most of its
  already-placed neighbors, weighted by remaining capacity; a hard
  capacity of ``ceil(n/parts * (1 + balance_slack))`` enforces balance.
  The synthetic generators lay communities out contiguously by node ID,
  so the stream order gives the greedy pass the same locality signal a
  multilevel METIS would recover.

The greedy pass counts affinity over blocks of the stream: a whole
block's counts are one flat ``np.bincount`` of ``row * parts + part``
over the block's adjacency slice (blocks are contiguous in ID order, so
the slice is a single range of the CSR arrays). Only the score-and-place
step runs per node, on Python lists: with a handful of partitions, a few
float operations per node cost less than numpy calls on arrays that
small. The scores are the same float64 operations, and the first
maximum wins as with ``np.argmax``, so the assignment is the one a
vectorized score would give. The pass stays O(E) with small constants.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from repro.errors import ConfigError
from repro.graph.partition import validate_assignment

#: The cluster's greedy balance slack: no partition exceeds
#: ``ceil(n/parts * (1 + BALANCE_SLACK))`` nodes.
BALANCE_SLACK = 0.05


def hash_partition(num_nodes: int, num_parts: int) -> np.ndarray:
    """Modulo assignment (the zero-information baseline)."""
    if num_parts < 1:
        raise ConfigError("num_parts must be >= 1")
    return (np.arange(num_nodes, dtype=np.int64) % num_parts)


def random_partition(num_nodes: int, num_parts: int,
                     seed: int = 0) -> np.ndarray:
    """Balanced random assignment (partition sizes differ by <= 1)."""
    if num_parts < 1:
        raise ConfigError("num_parts must be >= 1")
    rng = np.random.default_rng(seed)
    assignment = np.empty(num_nodes, dtype=np.int64)
    assignment[rng.permutation(num_nodes)] = (
        np.arange(num_nodes, dtype=np.int64) % num_parts
    )
    return assignment


def greedy_partition(graph, num_parts: int,
                     balance_slack: float = BALANCE_SLACK,
                     block_size: int = 64) -> np.ndarray:
    """Streaming greedy edge-cut minimization with a balance constraint.

    Each node joins the partition maximizing
    ``affinity * (1 - size/capacity)`` where ``affinity`` is the number
    of its already-placed neighbors in that partition; full partitions
    are excluded. Capacity is ``ceil(n/parts * (1 + balance_slack))``
    (total capacity always covers every node). Deterministic: ties break
    on the lowest partition index.
    """
    if num_parts < 1:
        raise ConfigError("num_parts must be >= 1")
    if balance_slack < 0:
        raise ConfigError("balance_slack must be >= 0")
    n = graph.num_nodes
    if num_parts == 1:
        return np.zeros(n, dtype=np.int64)
    capacity = max(
        math.ceil(n / num_parts),
        math.ceil(n / num_parts * (1.0 + balance_slack)),
    )
    indptr = graph.indptr
    indices = graph.indices
    assignment = np.full(n, -1, dtype=np.int64)
    fill = _Fill(num_parts, capacity)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        placed = []
        for row in _block_affinity(indptr, indices, assignment, start, stop,
                                   num_parts):
            score = fill.scores(row)
            best = score.index(max(score))
            placed.append(best)
            fill.resize(best, 1)
        assignment[start:stop] = placed
    # Second-chance pass over intra-block edges: the blockwise affinity
    # above ignores edges between nodes of the same block, which matters
    # for tightly clustered ID ranges. One refinement sweep (still
    # capacity-bounded, still deterministic) re-places each node with
    # full neighbor knowledge.
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        affinity = _block_affinity(indptr, indices, assignment, start, stop,
                                   num_parts)
        parts = assignment[start:stop].tolist()
        for i, row in enumerate(affinity):
            current = parts[i]
            score = fill.scores(row)
            score[current] = row[current] * (
                1.0 - (fill.sizes[current] - 1) / capacity
            )
            best = score.index(max(score))
            if best != current:
                parts[i] = best
                fill.resize(current, -1)
                fill.resize(best, 1)
        assignment[start:stop] = parts
    return assignment


def _block_affinity(indptr, indices, assignment, start: int, stop: int,
                    num_parts: int) -> list:
    """Placed-neighbor counts per partition of nodes ``start..stop-1``,
    as one list of ``num_parts`` ints per node (one flat bincount over
    the block's contiguous CSR slice)."""
    block = stop - start
    lo, hi = int(indptr[start]), int(indptr[stop])
    neigh_parts = assignment[indices[lo:hi]]
    rows = np.repeat(np.arange(block), np.diff(indptr[start:stop + 1]))
    placed = neigh_parts >= 0
    counts = np.bincount(rows[placed] * num_parts + neigh_parts[placed],
                         minlength=block * num_parts)
    return counts.reshape(block, num_parts).tolist()


class _Fill:
    """Partition sizes during a greedy pass, with each partition's
    capacity factor ``1 - size/capacity`` refreshed whenever its size
    changes.

    :meth:`scores` is ``affinity * factor`` per partition and ``-inf``
    for full ones: the float64 operations of the vectorized score, one by
    one, so ``score.index(max(score))`` picks what ``np.argmax`` would
    (the lowest index among equal maxima).
    """

    __slots__ = ("capacity", "sizes", "factor", "full")

    def __init__(self, num_parts: int, capacity: int) -> None:
        self.capacity = capacity
        self.sizes = [0] * num_parts
        self.factor = [1.0] * num_parts
        self.full: set = set()

    def scores(self, affinity: list) -> list:
        score = list(map(mul, affinity, self.factor))
        for part in self.full:
            score[part] = -math.inf
        return score

    def resize(self, part: int, delta: int) -> None:
        size = self.sizes[part] = self.sizes[part] + delta
        self.factor[part] = 1.0 - size / self.capacity
        if size >= self.capacity:
            self.full.add(part)
        else:
            self.full.discard(part)


def partition_graph(graph, num_parts: int, method: str = "greedy",
                    seed: int = 0) -> np.ndarray:
    """Partition ``graph`` into ``num_parts`` with the named method.

    The returned assignment is validated: every node assigned exactly
    once, partitions in range.
    """
    if method == "greedy":
        assignment = greedy_partition(graph, num_parts)
    elif method == "random":
        assignment = random_partition(graph.num_nodes, num_parts, seed=seed)
    elif method == "hash":
        assignment = hash_partition(graph.num_nodes, num_parts)
    else:
        raise ConfigError(
            f"unknown partitioner {method!r}; "
            f"expected 'greedy', 'random' or 'hash'"
        )
    return validate_assignment(assignment, graph.num_nodes,
                               num_parts=num_parts)
