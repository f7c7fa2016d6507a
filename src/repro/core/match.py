"""The Match process (paper Section 4.1).

Before loading a mini-batch's features, intersect its node set with the
nodes of the previous mini-batch (whose features are necessarily still on
the GPU): overlapping rows are reused in place, only the difference
(``LoadNodeID``) crosses PCIe. No extra GPU memory is consumed — the
previous batch's buffer is required anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sampling.idmap.base import in_sorted, sorted_unique


def match_degree(nodes_a: np.ndarray, nodes_b: np.ndarray) -> float:
    """The paper's match degree ``M_ij = N_o / min(N_i, N_j)``.

    Inputs are node-ID arrays (duplicates tolerated; uniqued internally).
    The overlap ``N_o`` counts the smaller unique set's members found in
    the larger one.
    """
    a = sorted_unique(np.asarray(nodes_a, dtype=np.int64))
    b = sorted_unique(np.asarray(nodes_b, dtype=np.int64))
    if len(a) == 0 or len(b) == 0:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    overlap = int(np.count_nonzero(in_sorted(small, large)))
    return overlap / len(small)


def match_degrees(nodes: np.ndarray, candidates: list) -> np.ndarray:
    """``match_degree(nodes, c)`` for every ``c`` in ``candidates``, as
    one float64 array, bit-identical to the per-candidate calls.

    Each candidate must be duplicate-free (``MicroBatch.seeds`` is
    sorted unique); ``nodes`` may hold duplicates. ``nodes`` is uniqued
    once and the concatenated candidates are tested against it in one
    pass; each candidate's overlap is a difference of cumulative hit
    counts.
    """
    nodes = sorted_unique(np.asarray(nodes, dtype=np.int64))
    sizes = np.fromiter(map(len, candidates), dtype=np.int64,
                        count=len(candidates))
    scores = np.zeros(len(candidates))
    if len(nodes) == 0 or not sizes.any():
        return scores
    hits = in_sorted(np.concatenate(candidates).astype(np.int64, copy=False),
                     nodes)
    ends = np.cumsum(sizes)
    hit_total = np.concatenate(([0], np.cumsum(hits)))
    overlap = hit_total[ends] - hit_total[ends - sizes]
    smaller = np.minimum(sizes, len(nodes))
    # overlap / smaller is the same correctly rounded division the
    # scalar form does on Python ints (both sides are exact in float64).
    np.divide(overlap, smaller, out=scores, where=smaller > 0)
    return scores


@dataclass
class MatchResult:
    """Partition of a mini-batch's nodes into reused and loaded sets."""

    #: Node IDs whose features are already resident (``OverlapNodeID``).
    overlap_ids: np.ndarray
    #: Node IDs that must be loaded from the host (``LoadNodeID``).
    load_ids: np.ndarray

    @property
    def num_reused(self) -> int:
        return len(self.overlap_ids)

    @property
    def num_loaded(self) -> int:
        return len(self.load_ids)

    @property
    def reuse_fraction(self) -> float:
        total = self.num_reused + self.num_loaded
        if total == 0:
            return 0.0
        return self.num_reused / total


def match_split(resident: np.ndarray, wanted: np.ndarray) -> MatchResult:
    """Split ``wanted`` into overlap-with-``resident`` and must-load parts.

    ``resident`` must be sorted unique; ``wanted`` unique (any order) —
    which is what the ID map produces for a subgraph's input nodes.
    """
    wanted = np.asarray(wanted, dtype=np.int64)
    is_resident = in_sorted(wanted, np.asarray(resident, dtype=np.int64))
    return MatchResult(
        overlap_ids=wanted[is_resident],
        load_ids=wanted[~is_resident],
    )


class MatchState:
    """Tracks the resident node set across consecutive mini-batches."""

    def __init__(self) -> None:
        self._resident = np.empty(0, dtype=np.int64)
        self._last_load_ids = np.empty(0, dtype=np.int64)

    @property
    def resident(self) -> np.ndarray:
        """Currently resident node IDs (sorted unique)."""
        return self._resident

    @property
    def last_load_ids(self) -> np.ndarray:
        """The ``LoadNodeID`` set of the most recent :meth:`step` — the
        rows whose residency is *provisional* until their transfer
        completes."""
        return self._last_load_ids

    def reset(self) -> None:
        """Forget residency (start of an epoch / device flush)."""
        self._resident = np.empty(0, dtype=np.int64)
        self._last_load_ids = np.empty(0, dtype=np.int64)

    def invalidate(self, ids: np.ndarray | None = None) -> None:
        """Remove ``ids`` from the resident set (all of it when ``None``).

        Called after a failed feature load: :meth:`step` optimistically
        marks the whole batch resident *before* the transfer runs, so a
        transfer that dies mid-flight leaves rows recorded as resident
        whose device bytes never arrived. Match must never reuse those —
        invalidating them forces the next batch to reload them through a
        (hopefully healthier) IO path.
        """
        if ids is None:
            self.reset()
            return
        ids = sorted_unique(np.asarray(ids, dtype=np.int64))
        self._resident = self._resident[~in_sorted(self._resident, ids)]
        self._last_load_ids = np.empty(0, dtype=np.int64)

    def invalidate_pending(self) -> None:
        """Invalidate the rows the last :meth:`step` promised to load
        (the failed-transfer fast path: reused rows stay resident, the
        in-flight rows do not)."""
        self.invalidate(self._last_load_ids)

    def step(self, wanted: np.ndarray,
             sorted_wanted: np.ndarray | None = None) -> MatchResult:
        """Match ``wanted`` against the resident set, then make ``wanted``
        the new resident set (its features now occupy the device buffer).

        ``sorted_wanted``, when provided, must be ``np.sort(wanted)`` —
        callers holding a cached sorted view (e.g.
        ``SampledSubgraph.unique_input_nodes()``) pass it to skip the
        re-sort; the :class:`MatchResult` is still in ``wanted`` order.
        """
        wanted = np.asarray(wanted, dtype=np.int64)
        result = match_split(self._resident, wanted)
        if sorted_wanted is None:
            sorted_wanted = np.sort(wanted)
        self._resident = np.asarray(sorted_wanted, dtype=np.int64)
        self._last_load_ids = result.load_ids
        return result
