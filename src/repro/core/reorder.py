"""The Greedy Reorder strategy (paper Algorithm 1).

Given ``n`` pre-sampled mini-batches, compute the pairwise match-degree
matrix and chain batches greedily: start from batch 1, repeatedly append
the unvisited batch with the highest match degree to the last appended one.
Consecutive batches then overlap maximally, which the Match process turns
into saved PCIe traffic.

The match-degree matrix is a training-loop hot path (it runs once per
reorder window, over every window of the epoch), so it is computed by
*pair counting* the sparse Gram product directly: one composite-key sort
groups every occurrence of a node ID into a contiguous run, and each run
of ``m`` owning batches contributes its ``C(m, 2)`` batch pairs to a
single flat ``bincount`` over the ``n * n`` overlap cells. That is
exactly the non-zero work a sparse ``M @ M.T`` incidence product would
do, without materialising the incidence matrix (or needing scipy).
:func:`repro.bench.oracles.match_degree_matrix_legacy` keeps the
original O(n^2) ``np.intersect1d`` loop as the reference implementation
(``python -m repro.bench`` times both and reports the speedup).

The greedy chain itself walks precomputed blocked top-k candidate lists
(each batch's ``k`` best match partners, sorted by descending degree
then ascending index) and falls back to a full row scan only when a
block is exhausted or the winner is ambiguous at the block boundary, so
the common step is O(k) instead of O(n). The order is bit-identical to
the kept :func:`repro.bench.oracles.greedy_reorder_legacy` argmax sweep,
including ties: **the lowest batch index wins every tie**, exactly like
``np.argmax``.

Note on fidelity: Algorithm 1 as printed sets ``h = argmax m_zk`` and later
``z = k`` — an obvious typo for ``z = h``; this implementation follows the
evident intent. An exhaustive-search oracle (:func:`optimal_reorder`) is
provided for tests to bound the greedy heuristic's suboptimality on small
windows.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from repro.sampling.idmap.base import sorted_unique

#: Default candidate-block width of the blocked top-k greedy chain.
#: Each batch precomputes this many best match partners; a step only
#: falls back to a full row scan when its block is exhausted.
_TOPK_BLOCK = 32


def _overlap_paircount(batch: np.ndarray, values: np.ndarray, n: int,
                       assume_unique: bool) -> tuple:
    """``(overlap, sizes)`` by pair-counting the sparse Gram product.

    One sort of the composite key ``id * p + batch`` (``p`` the next
    power of two >= ``n``, so the split back into ``(id, batch)`` is a
    shift and a mask) groups all owners of each node ID contiguously,
    in ascending batch order; adjacent-equal masking deduplicates
    repeated IDs within a batch. Runs are then bucketed by multiplicity
    ``m`` so the ``C(m, 2)`` ordered owner pairs of every run in a
    bucket come from one fixed-width gather + ``np.triu_indices``
    expansion, and a single ``bincount`` over ``a * n + b`` keys
    accumulates the upper-triangle overlap counts. The composite key is
    built in int32 when the ID width allows (roughly halves the sort
    cost at the bench sizes); IDs too wide even for int64 composites
    take a ``np.lexsort`` detour. Overlap counts are integers, so the
    float64 cast is lossless.
    """
    low = values.min()
    if low:
        values = values - low
    width = int(values.max()) + 1
    p = 1 << max(1, (n - 1).bit_length())
    shift = p.bit_length() - 1
    if width <= (2 ** 31 - 1) // p:
        codes = (values.astype(np.int32) << shift) + batch.astype(np.int32)
    elif width <= (2 ** 63 - 1) // p:
        codes = (values << shift) + batch
    else:  # composite key would overflow int64: sort the pair directly
        codes = None
    if codes is not None:
        codes = np.sort(codes)
        if not assume_unique:
            keep = np.empty(len(codes), dtype=bool)
            keep[0] = True
            np.not_equal(codes[1:], codes[:-1], out=keep[1:])
            codes = codes[keep]
        owners = (codes & (p - 1)).astype(np.int64)
        ids = codes >> shift
    else:
        order = np.lexsort((batch, values))
        ids = values[order]
        owners = batch[order]
        if not assume_unique:
            keep = np.empty(len(ids), dtype=bool)
            keep[0] = True
            keep[1:] = (ids[1:] != ids[:-1]) | (owners[1:] != owners[:-1])
            ids = ids[keep]
            owners = owners[keep]
    sizes = np.bincount(owners, minlength=n)
    new_run = np.empty(len(ids), dtype=bool)
    new_run[0] = True
    np.not_equal(ids[1:], ids[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    run_len = np.diff(np.append(starts, len(ids)))
    key_blocks = []
    for m in sorted_unique(run_len):
        m = int(m)
        if m < 2:  # IDs private to one batch contribute no pair
            continue
        sel = starts[run_len == m]
        block = owners[sel[:, None] + np.arange(m)]
        a, b = np.triu_indices(m, 1)
        # Owners ascend within a run, so every key lands in the upper
        # triangle; symmetrising at the end restores the full matrix.
        key_blocks.append((block[:, a] * n + block[:, b]).ravel())
    overlap = np.zeros((n, n), dtype=np.float64)
    if key_blocks:
        flat = np.bincount(np.concatenate(key_blocks), minlength=n * n)
        overlap += flat.reshape(n, n)
        overlap += overlap.T
    return overlap, sizes


def match_degree_matrix(node_sets, assume_unique: bool = False) -> np.ndarray:
    """Pairwise match degrees of the given mini-batch node sets.

    ``node_sets`` is a sequence of node-ID arrays (one per mini-batch, as
    produced by sampling — ``SampledSubgraph.input_nodes``). The diagonal is
    zero so self-matches never win the argmax.

    ``assume_unique`` skips the per-batch deduplication when every set is
    already duplicate-free (true for ID-map outputs; pass
    ``SampledSubgraph.unique_input_nodes()`` to reuse the cached unique
    pass). Entries are bit-identical to
    :func:`repro.bench.oracles.match_degree_matrix_legacy` — same
    integer overlap, same ``overlap / min(|a|, |b|)`` division.
    """
    arrays = [np.asarray(s, dtype=np.int64).ravel() for s in node_sets]
    n = len(arrays)
    matrix = np.zeros((n, n), dtype=np.float64)
    if n == 0:
        return matrix
    lengths = np.array([len(a) for a in arrays], dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return matrix
    values = np.concatenate(arrays)
    batch = np.repeat(np.arange(n, dtype=np.int64), lengths)
    overlap, sizes = _overlap_paircount(batch, values, n, assume_unique)
    min_sizes = np.minimum(sizes[:, None], sizes[None, :])
    valid = min_sizes > 0
    np.divide(overlap, min_sizes, out=matrix, where=valid)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _as_match_matrix(matrix_or_node_sets, assume_unique: bool) -> np.ndarray:
    """Coerce :func:`greedy_reorder`'s input into a match-degree matrix.

    An ``np.ndarray`` keeps the historical contract: it must be a square
    2-D matrix of match degrees (anything else raises). A non-array
    sequence is a list of node sets when its elements are arrays (the
    sampling output shape), and otherwise falls back to the historical
    nested-list matrix form when square; ragged or non-square nested
    lists are node sets too.
    """
    x = matrix_or_node_sets
    if isinstance(x, np.ndarray):
        x = x.astype(np.float64, copy=False)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError("matrix must be square")
        return x
    if any(isinstance(entry, np.ndarray) for entry in x):
        return match_degree_matrix(x, assume_unique=assume_unique)
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (ValueError, TypeError):
        arr = None
    if arr is not None and arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    return match_degree_matrix(x, assume_unique=assume_unique)


def _chain_blocked(matrix: np.ndarray, block: int) -> list:
    """Greedy max-match chain over blocked top-k candidate lists.

    Per row, the ``k + 1`` largest entries (one slot of slack because the
    zero diagonal may occupy one) are precomputed and sorted by
    ``(degree desc, index asc)`` — the same total order ``np.argmax``
    induces, so ties resolve to the lowest index. A step scans its row's
    block for the first unvisited candidate; that candidate is provably
    the argmax whenever its degree strictly exceeds the block's boundary
    value (every out-of-block entry is <= the boundary). On boundary
    ambiguity or an exhausted block, the step falls back to an exact
    full-row scan identical to the legacy sweep. Order is therefore
    bit-identical to :func:`repro.bench.oracles.greedy_reorder_legacy`
    for every input, which the property suite pins.
    """
    n = matrix.shape[0]
    if n == 0:
        return []
    if n == 1:
        return [0]
    take = min(n, block + 1)
    if take >= n:
        cand = np.argsort(-matrix, axis=1, kind="stable")
        boundary = np.full(n, -np.inf)
        vals = np.take_along_axis(matrix, cand, axis=1)
    else:
        cand = np.argpartition(matrix, n - take, axis=1)[:, n - take:]
        vals = np.take_along_axis(matrix, cand, axis=1)
        by_index = np.argsort(cand, axis=1)
        cand = np.take_along_axis(cand, by_index, axis=1)
        vals = np.take_along_axis(vals, by_index, axis=1)
        by_value = np.argsort(-vals, axis=1, kind="stable")
        cand = np.take_along_axis(cand, by_value, axis=1)
        vals = np.take_along_axis(vals, by_value, axis=1)
        boundary = vals[:, -1]
    cand_rows = cand.tolist()
    val_rows = vals.tolist()
    bound = boundary.tolist()
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    order = [0]
    z = 0
    for _ in range(n - 1):
        h = -1
        row_c = cand_rows[z]
        row_v = val_rows[z]
        limit = bound[z]
        for position, candidate in enumerate(row_c):
            if visited[candidate]:
                continue
            if row_v[position] > limit:
                h = candidate
            break
        if h < 0:
            masked = matrix[z].copy()
            masked[visited] = -np.inf
            masked[z] = -np.inf
            h = int(np.argmax(masked))
        order.append(h)
        visited[h] = True
        z = h
    return order


def greedy_reorder(matrix_or_node_sets, assume_unique: bool = False,
                   block: int | None = None) -> list:
    """Algorithm 1: greedy max-match chaining starting from batch 0.

    Accepts either a precomputed match-degree matrix (square 2-D array)
    or the mini-batch node sets themselves, in which case the matrix is
    computed internally via the pair-counting fast path
    (``assume_unique`` is forwarded to :func:`match_degree_matrix`).

    Returns the batch indices in execution order. The first batch stays
    first (the paper anchors ``SubG_1``); each subsequent position holds
    the remaining batch with the highest match degree to its predecessor.
    **Tie-breaking is pinned: the lowest batch index wins**, matching
    ``np.argmax``'s first-maximum rule, so the order is bit-identical to
    :func:`repro.bench.oracles.greedy_reorder_legacy` (the kept
    reference sweep). ``block`` overrides the top-k candidate width
    (default ``min(n - 1, 32)``); it is a throughput knob only and never
    changes the order.
    """
    matrix = _as_match_matrix(matrix_or_node_sets, assume_unique)
    return _chain_blocked(matrix, block if block else _TOPK_BLOCK)


def chain_match_score(matrix: np.ndarray, order) -> float:
    """Sum of consecutive match degrees along ``order`` — the quantity the
    Reorder strategy maximizes (total feature reuse potential). Computed
    as one fancy-indexed pair gather instead of a Python loop."""
    matrix = np.asarray(matrix, dtype=np.float64)
    index = np.asarray(list(order), dtype=np.intp)
    if index.size < 2:
        return 0.0
    return float(matrix[index[:-1], index[1:]].sum())


def optimal_reorder(matrix: np.ndarray, fix_first: bool = True) -> list:
    """Exhaustive-search best chain (test oracle; n <= 10).

    With ``fix_first`` the first batch is anchored like Algorithm 1 does.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if n > 10:
        raise ValueError("optimal_reorder is factorial; use n <= 10")
    if n == 0:
        return []
    candidates = (
        ([0] + list(rest) for rest in permutations(range(1, n)))
        if fix_first
        else permutations(range(n))
    )
    best_order: list = []
    best_score = -np.inf
    for cand in candidates:
        score = chain_match_score(matrix, cand)
        if score > best_score:
            best_score = score
            best_order = list(cand)
    return best_order
