"""Property tests: the vectorized hot-path kernels against their oracles.

The vectorized ``match_degree_matrix`` must be element-wise identical to
the legacy ``np.intersect1d`` loop, and ``VectorOpenAddressTable``'s
batch insert must build the same map as the exact per-operation
``ExactOpenAddressTable`` — same global->local mapping, same insert and
duplicate counters. Hypothesis drives both over adversarial inputs:
empty sets, duplicate-heavy sets, negative IDs, near-full tables.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import match_degree_matrix_legacy
from repro.core.reorder import match_degree_matrix
from repro.sampling.idmap.hash_table import (
    EMPTY,
    ExactOpenAddressTable,
    VectorOpenAddressTable,
    table_capacity,
)


@st.composite
def node_sets(draw):
    """Mini-batch node sets: possibly empty, duplicate-heavy, offset."""
    num_sets = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    id_low = draw(st.integers(-50, 0))
    id_high = draw(st.integers(5, 400))
    sets = []
    for _ in range(num_sets):
        size = draw(st.integers(0, 60))
        values = rng.integers(id_low, id_high, size=size)
        if size and draw(st.booleans()):
            # duplicate-heavy: repeat a random prefix
            values = np.concatenate(
                [values, values[: draw(st.integers(0, size))]]
            )
        sets.append(values)
    return sets


@settings(max_examples=80, deadline=None)
@given(sets=node_sets())
def test_match_degree_matrix_matches_legacy(sets):
    fast = match_degree_matrix(sets)
    legacy = match_degree_matrix_legacy(sets)
    np.testing.assert_array_equal(fast, legacy)
    assert fast.dtype == np.float64


@settings(max_examples=50, deadline=None)
@given(sets=node_sets())
def test_match_degree_matrix_assume_unique(sets):
    """With pre-deduplicated inputs, ``assume_unique`` is a pure
    optimisation: same matrix, bit for bit."""
    unique_sets = [np.unique(s) for s in sets]
    fast = match_degree_matrix(unique_sets, assume_unique=True)
    np.testing.assert_array_equal(
        fast, match_degree_matrix_legacy(unique_sets)
    )


def test_match_degree_matrix_empty_and_degenerate():
    assert match_degree_matrix([]).shape == (0, 0)
    np.testing.assert_array_equal(
        match_degree_matrix([np.array([], dtype=np.int64)]),
        np.zeros((1, 1)),
    )
    # one empty set among populated ones: its row/column stays zero
    sets = [np.array([1, 2, 3]), np.array([], dtype=np.int64),
            np.array([2, 3, 4])]
    matrix = match_degree_matrix(sets)
    assert matrix[1].sum() == 0 and matrix[:, 1].sum() == 0
    np.testing.assert_array_equal(matrix, match_degree_matrix_legacy(sets))


@st.composite
def insert_workload(draw):
    """IDs to insert plus a table capacity that always fits them."""
    size = draw(st.integers(0, 200))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    id_space = draw(st.integers(1, 300))
    ids = rng.integers(0, id_space, size=size)
    capacity = table_capacity(
        len(np.unique(ids)), load_factor=draw(st.sampled_from([0.5, 0.9]))
    )
    return ids, capacity


@settings(max_examples=80, deadline=None)
@given(workload=insert_workload())
def test_batch_insert_matches_exact_oracle(workload):
    """Batch insert builds the same fused map as the sequential oracle:
    identical mapping, local-ID assignment order, and insert/duplicate/
    add counters (the equivalence contract; slot layout may differ, like
    GPU atomics under a different thread interleaving)."""
    ids, capacity = workload
    exact = ExactOpenAddressTable(capacity)
    for gid in ids:
        exact.fused_map_insert(int(gid))
    vector = VectorOpenAddressTable(capacity)
    vector.fused_map_insert_batch(ids)

    assert vector.mapping() == exact.mapping()
    assert vector.local_id == exact.local_id
    assert vector.stats.inserts == exact.stats.inserts
    assert vector.stats.duplicate_hits == exact.stats.duplicate_hits
    assert vector.add_ops == exact.add_ops

    # every key is reachable from its home slot with no EMPTY gap, and
    # lookups agree with the oracle
    lookups = vector.lookup_batch(ids)
    for gid, local in zip(ids, lookups):
        assert exact.lookup(int(gid)) == int(local)


@settings(max_examples=30, deadline=None)
@given(workload=insert_workload(), split=st.integers(0, 200))
def test_batch_insert_is_incremental(workload, split):
    """Splitting one batch into two consecutive calls changes nothing:
    the table is a running map across mini-batches."""
    ids, capacity = workload
    split = min(split, len(ids))
    one_shot = VectorOpenAddressTable(capacity)
    one_shot.fused_map_insert_batch(ids)
    two_calls = VectorOpenAddressTable(capacity)
    two_calls.fused_map_insert_batch(ids[:split])
    two_calls.fused_map_insert_batch(ids[split:])
    assert two_calls.mapping() == one_shot.mapping()
    assert two_calls.local_id == one_shot.local_id


def test_batch_insert_edge_cases():
    table = VectorOpenAddressTable(8)
    table.fused_map_insert_batch(np.array([], dtype=np.int64))
    assert table.local_id == 0 and table.mapping() == {}

    # all-duplicates batch: one insert, rest hits
    table.fused_map_insert_batch(np.full(50, 7, dtype=np.int64))
    assert table.local_id == 1
    assert table.stats.inserts == 1
    assert table.stats.duplicate_hits == 49

    with np.testing.assert_raises(ValueError):
        table.fused_map_insert_batch(np.array([-1]))

    full = VectorOpenAddressTable(4)
    with np.testing.assert_raises(RuntimeError):
        full.fused_map_insert_batch(np.arange(5))

    # exactly-full table still works
    snug = VectorOpenAddressTable(4)
    snug.fused_map_insert_batch(np.arange(4))
    assert snug.local_id == 4
    assert np.count_nonzero(snug.keys == EMPTY) == 0
