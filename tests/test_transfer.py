"""Tests for feature caches and loaders (the memory-IO strategies)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_COST_MODEL
from repro.gpu.pcie import PCIeLink
from repro.sampling import NeighborSampler
from repro.transfer.cache import (
    DegreeCachePolicy,
    PresampleCachePolicy,
    StaticFeatureCache,
    _top_ranked,
)
from repro.transfer.loader import (
    CachedLoader,
    MatchLoader,
    NaiveLoader,
    TransferReport,
)


@pytest.fixture()
def sampler(tiny_graph):
    return NeighborSampler(tiny_graph, (3, 4), rng=0)


@pytest.fixture()
def subgraphs(sampler, tiny_dataset):
    ids = tiny_dataset.train_ids
    return [sampler.sample(ids[i * 50:(i + 1) * 50]) for i in range(3)]


class TestStaticFeatureCache:
    def test_partition(self):
        cache = StaticFeatureCache(np.array([2, 4, 6]), bytes_per_node=8)
        hits, misses = cache.partition(np.array([1, 2, 3, 4]))
        np.testing.assert_array_equal(hits, [2, 4])
        np.testing.assert_array_equal(misses, [1, 3])
        assert cache.hits == 2 and cache.misses == 2
        assert cache.hit_rate == 0.5

    def test_empty_cache_all_miss(self):
        cache = StaticFeatureCache(np.array([], dtype=np.int64), 4)
        hits, misses = cache.partition(np.array([1, 2]))
        assert len(hits) == 0 and len(misses) == 2

    def test_capacity_bytes(self):
        cache = StaticFeatureCache(np.array([1, 2, 3]), bytes_per_node=100)
        assert cache.capacity_bytes == 300

    def test_reset_stats(self):
        cache = StaticFeatureCache(np.array([1]), 4)
        cache.partition(np.array([1, 2]))
        cache.reset_stats()
        assert cache.hits == 0 and cache.hit_rate == 0.0


class TestPolicies:
    def test_degree_policy_picks_hubs(self, tiny_graph, tiny_dataset):
        store = tiny_dataset.features
        budget = 50 * store.bytes_per_node
        cache = DegreeCachePolicy.build(tiny_graph, store, budget)
        assert cache.num_cached == 50
        threshold = np.sort(tiny_graph.degrees)[-50]
        assert tiny_graph.degrees[cache.cached_ids].min() >= threshold - 1

    def test_degree_policy_zero_budget(self, tiny_graph, tiny_dataset):
        cache = DegreeCachePolicy.build(tiny_graph, tiny_dataset.features, 0)
        assert cache.num_cached == 0

    def test_presample_policy_budget(self, sampler, tiny_dataset):
        store = tiny_dataset.features
        budget = 64 * store.bytes_per_node
        cache = PresampleCachePolicy.build(
            sampler, tiny_dataset.train_ids, store, budget, rng=0
        )
        assert cache.num_cached == 64
        assert cache.capacity_bytes <= budget

    def test_presample_policy_prefers_visited(self, sampler, tiny_dataset):
        """Cached nodes should be hit far more often than random ones."""
        store = tiny_dataset.features
        budget = 200 * store.bytes_per_node
        cache = PresampleCachePolicy.build(
            sampler, tiny_dataset.train_ids, store, budget, rng=0
        )
        sg = sampler.sample(tiny_dataset.train_ids[:50])
        hits, _ = cache.partition(sg.input_nodes)
        random_cache = StaticFeatureCache(
            np.random.default_rng(1).choice(tiny_dataset.num_nodes, 200,
                                            replace=False),
            store.bytes_per_node,
        )
        rhits, _ = random_cache.partition(sg.input_nodes)
        assert len(hits) > len(rhits)

    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=60),
           fractions=st.booleans(), data=st.data())
    def test_presample_ranking_matches_full_argsort(self, counts,
                                                    fractions, data):
        """The top-``k`` selection ranks exactly as the reversed stable
        argsort it replaced, ties at the cut included."""
        values = np.array(counts, dtype=np.float64)
        if fractions:
            values += np.arange(values.size) % 3 / 4
        k = data.draw(st.integers(1, values.size))
        np.testing.assert_array_equal(
            _top_ranked(values, k),
            np.argsort(values, kind="stable")[::-1][:k])


class TestNaiveLoader:
    def test_loads_everything(self, subgraphs, tiny_dataset):
        loader = NaiveLoader(tiny_dataset.features)
        report = loader.plan(subgraphs[0])
        assert report.num_loaded == subgraphs[0].num_nodes
        assert report.feature_bytes == (
            subgraphs[0].num_nodes * tiny_dataset.features.bytes_per_node
        )
        assert report.structure_bytes == subgraphs[0].structure_bytes()


class TestCachedLoader:
    def test_loads_only_misses(self, subgraphs, tiny_dataset):
        sg = subgraphs[0]
        cache = StaticFeatureCache(sg.input_nodes[:100],
                                   tiny_dataset.features.bytes_per_node)
        loader = CachedLoader(tiny_dataset.features, cache)
        report = loader.plan(sg)
        assert report.num_cache_hits == 100
        assert report.num_loaded == sg.num_nodes - 100


class TestMatchLoader:
    def test_reuses_previous_batch(self, subgraphs, tiny_dataset):
        loader = MatchLoader(tiny_dataset.features)
        first = loader.plan(subgraphs[0])
        second = loader.plan(subgraphs[1])
        assert first.num_reused == 0
        assert second.num_reused > 0
        assert second.num_loaded == subgraphs[1].num_nodes - second.num_reused

    def test_reset_epoch_clears_residency(self, subgraphs, tiny_dataset):
        loader = MatchLoader(tiny_dataset.features)
        loader.plan(subgraphs[0])
        loader.reset_epoch()
        report = loader.plan(subgraphs[0])
        assert report.num_reused == 0

    def test_cache_catches_non_resident(self, subgraphs, tiny_dataset):
        sg0, sg1 = subgraphs[0], subgraphs[1]
        full_cache = StaticFeatureCache(
            np.arange(tiny_dataset.num_nodes),
            tiny_dataset.features.bytes_per_node,
        )
        loader = MatchLoader(tiny_dataset.features, cache=full_cache)
        loader.plan(sg0)
        report = loader.plan(sg1)
        assert report.num_loaded == 0
        assert report.num_reused + report.num_cache_hits == sg1.num_nodes

    def test_never_loads_more_than_naive(self, subgraphs, tiny_dataset):
        naive = NaiveLoader(tiny_dataset.features)
        match = MatchLoader(tiny_dataset.features)
        for sg in subgraphs:
            assert match.plan(sg).num_loaded <= naive.plan(sg).num_loaded


class TestTransferReport:
    def test_merge(self):
        a = TransferReport(num_wanted=5, num_loaded=3, feature_bytes=300,
                           structure_bytes=10, num_transfers=1)
        b = TransferReport(num_wanted=4, num_loaded=4, feature_bytes=400,
                           structure_bytes=20, num_transfers=1)
        a.merge(b)
        assert a.num_wanted == 9
        assert a.total_bytes == 730
        assert a.num_transfers == 2

    def test_modeled_time_components(self):
        report = TransferReport(feature_bytes=32_000_000,
                                structure_bytes=0, num_transfers=1)
        link = PCIeLink(bandwidth=32e9, latency_s=1e-5)
        cost = DEFAULT_COST_MODEL
        expected = (32e6 / cost.host_gather_bytes_per_s + 1e-5
                    + 32e6 / 32e9)
        assert report.modeled_time(link, cost) == pytest.approx(expected)

    def test_zero_bytes_zero_time(self):
        assert TransferReport().modeled_time(PCIeLink()) == 0.0

    def test_contention_slows_transfer(self):
        report = TransferReport(feature_bytes=10**8, num_transfers=1)
        link = PCIeLink(bandwidth=32e9, host_aggregate=80e9)
        assert (report.modeled_time(link, concurrent_links=8)
                > report.modeled_time(link, concurrent_links=1))
