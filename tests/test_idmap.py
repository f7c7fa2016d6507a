"""Tests for the ID-map strategies (baseline, fused, CPU) and the
simulated-concurrency harness for Algorithm 2."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.oracles import dense_first_occurrence_legacy
from repro.config import DEFAULT_COST_MODEL
from repro.sampling.idmap import (
    BaselineIdMap,
    CpuIdMap,
    FusedIdMap,
    IdMapReport,
)
from repro.sampling.idmap.base import (
    DENSE_ID_RATIO,
    first_occurrence_unique,
)
from repro.sampling.idmap.fused import simulate_concurrent_fused_map

ALL_MAPS = [BaselineIdMap(), FusedIdMap(), CpuIdMap()]


class TestFirstOccurrenceUnique:
    def test_order(self):
        ids = np.array([7, 3, 7, 9, 3, 1])
        unique, inverse = first_occurrence_unique(ids)
        np.testing.assert_array_equal(unique, [7, 3, 9, 1])
        np.testing.assert_array_equal(unique[inverse], ids)

    def test_already_unique(self):
        ids = np.array([5, 2, 8])
        unique, inverse = first_occurrence_unique(ids)
        np.testing.assert_array_equal(unique, ids)
        np.testing.assert_array_equal(inverse, [0, 1, 2])


def sorted_first_occurrence_reference(ids):
    """The sort-based formulation: ``np.unique``, then unique reordered
    by first index and the inverse ranked to match. It handles any ID
    range; the dense path must reproduce it exactly."""
    ids = np.asarray(ids, dtype=np.int64)
    unique_sorted, first_idx, inverse_sorted = np.unique(
        ids, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return unique_sorted[order], rank[inverse_sorted]


@st.composite
def ids_around_dense_threshold(draw):
    """IDs whose largest value sits below, exactly at, or above the
    dense/sort threshold ``DENSE_ID_RATIO * len(ids)``, optionally offset
    by 2**40 (always the sort path)."""
    n = draw(st.integers(1, 200))
    edge = DENSE_ID_RATIO * n
    high = draw(st.sampled_from([0, n - 1, edge - 1, edge, edge + 1,
                                 4 * edge]))
    ids = draw(st.lists(st.integers(0, high), min_size=n - 1,
                        max_size=n - 1))
    ids.insert(draw(st.integers(0, n - 1)), high)
    offset = draw(st.sampled_from([0, 2**40]))
    return np.array(ids, dtype=np.int64) + offset


class TestFirstOccurrenceIdentity:
    """Both paths of ``first_occurrence_unique`` against the sort-based
    reference: equal arrays, equal dtypes."""

    @staticmethod
    def assert_identical(ids):
        got = first_occurrence_unique(ids)
        want = sorted_first_occurrence_reference(ids)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and ids.max() < DENSE_ID_RATIO * ids.size:
            # The dense path also equals the gather-and-compare it replaced.
            for g, w in zip(got, dense_first_occurrence_legacy(ids)):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)

    @settings(max_examples=200, deadline=None)
    @given(ids_around_dense_threshold())
    def test_matches_sort_reference(self, ids):
        self.assert_identical(ids)

    @pytest.mark.parametrize("ids", [
        np.array([], dtype=np.int64),
        np.array([0]),
        np.array([12345]),
        np.full(50, 7),
        np.full(50, 2**40 + 7),
        np.array([2**40 + 5, 2**40 + 9, 2**40 + 5, 2**40 + 123456789]),
        [3, 1, 3, 2],
        np.array([4, 0, 4, 1], dtype=np.int32),
    ], ids=["empty", "zero", "single", "all-duplicate",
            "all-duplicate-2**40", "offset-2**40", "list", "int32"])
    def test_edge_cases(self, ids):
        self.assert_identical(ids)


@pytest.mark.parametrize("idmap", ALL_MAPS, ids=lambda m: type(m).__name__)
class TestNegativeIdsRejected:
    """-1 is the hash table's EMPTY sentinel; every map rejects negative
    IDs the way the exact and vectorized tables do."""

    @pytest.mark.parametrize("ids", [[-1, 3, -1], [5, -2], [-(2**40)]])
    def test_negative_id_raises(self, idmap, ids):
        with pytest.raises(ValueError, match="non-negative"):
            idmap.map(np.array(ids, dtype=np.int64))


@pytest.mark.parametrize("idmap", ALL_MAPS, ids=lambda m: type(m).__name__)
class TestMappingCorrectness:
    def test_bijection(self, idmap):
        ids = np.array([4, 4, 9, 0, 9, 9, 17])
        result = idmap.map(ids)
        assert len(result.unique_globals) == 4
        np.testing.assert_array_equal(
            result.unique_globals[result.locals_of_input], ids
        )

    def test_local_ids_consecutive(self, idmap):
        ids = np.random.default_rng(0).integers(0, 50, size=200)
        result = idmap.map(ids)
        n = len(result.unique_globals)
        assert set(result.locals_of_input) == set(range(n))

    def test_report_counts(self, idmap):
        ids = np.array([1, 1, 2, 3, 3, 3])
        report = idmap.map(ids).report
        assert report.num_input_ids == 6
        assert report.num_unique == 3


class TestDeviceWorkAccounting:
    def test_baseline_syncs_per_unique(self):
        report = BaselineIdMap().map(np.array([5, 5, 6, 7])).report
        assert report.sync_events == 3
        assert report.add_ops == 0
        assert report.kernel_launches == 3

    def test_fused_has_no_syncs(self):
        report = FusedIdMap().map(np.array([5, 5, 6, 7])).report
        assert report.sync_events == 0
        assert report.add_ops == 3  # one atomicAdd per fresh local ID
        assert report.kernel_launches == 2

    def test_cpu_device(self):
        report = CpuIdMap().map(np.array([1, 2])).report
        assert report.device == "cpu"

    def test_fused_faster_than_baseline(self):
        ids = np.random.default_rng(1).integers(0, 30_000, size=100_000)
        t_base = BaselineIdMap().map(ids).report.modeled_time()
        t_fused = FusedIdMap().map(ids).report.modeled_time()
        assert t_fused < t_base
        # Paper band: roughly 2-3x on realistic batches.
        assert 1.3 < t_base / t_fused < 4.0

    def test_report_addition(self):
        a = FusedIdMap().map(np.array([1, 2])).report
        b = FusedIdMap().map(np.array([2, 3, 3])).report
        total = a + b
        assert total.num_input_ids == 5
        assert total.cas_ops == a.cas_ops + b.cas_ops

    def test_report_addition_device_mismatch(self):
        a = FusedIdMap().map(np.array([1])).report
        b = CpuIdMap().map(np.array([1])).report
        with pytest.raises(ValueError):
            a + b

    def test_modeled_time_components(self):
        report = IdMapReport(num_input_ids=10, num_unique=5, cas_ops=10,
                             probe_retries=2, add_ops=5, sync_events=0,
                             lookups=10, kernel_launches=2, device="gpu")
        cost = DEFAULT_COST_MODEL
        expected = (2 * cost.kernel_launch_s
                    + 17 / cost.atomic_ops_per_s
                    + 10 / cost.table_lookups_per_s)
        assert report.modeled_time() == pytest.approx(expected)

    def test_invalid_load_factor(self):
        with pytest.raises(ValueError):
            FusedIdMap(load_factor=0.0)
        with pytest.raises(ValueError):
            BaselineIdMap(load_factor=0.95)


class TestConcurrentFusedMap:
    """The lock-free invariants of Algorithm 2 under interleavings."""

    def test_invariants_hold(self):
        ids = np.array([3, 7, 3, 3, 12, 7, 99, 3, 12])
        table = simulate_concurrent_fused_map(ids, num_threads=4, rng=0)
        mapping = table.mapping()
        assert set(mapping.keys()) == {3, 7, 12, 99}
        assert sorted(mapping.values()) == [0, 1, 2, 3]
        assert table.local_id == 4

    @settings(max_examples=25, deadline=None)
    @given(
        ids=st.lists(st.integers(0, 40), min_size=1, max_size=60),
        threads=st.integers(1, 8),
        seed=st.integers(0, 1000),
    )
    def test_invariants_property(self, ids, threads, seed):
        """Any interleaving yields a bijection with consecutive local IDs
        — the property the paper's synchronization-free design claims."""
        ids = np.array(ids)
        table = simulate_concurrent_fused_map(ids, num_threads=threads,
                                              rng=seed)
        mapping = table.mapping()
        distinct = set(int(i) for i in ids)
        assert set(mapping.keys()) == distinct
        assert sorted(mapping.values()) == list(range(len(distinct)))
        assert table.local_id == len(distinct)

    def test_lookup_after_concurrent_build(self):
        ids = np.random.default_rng(5).integers(0, 100, size=300)
        table = simulate_concurrent_fused_map(ids, num_threads=6, rng=2)
        mapping = table.mapping()
        for gid in np.unique(ids):
            assert table.lookup(int(gid)) == mapping[int(gid)]
