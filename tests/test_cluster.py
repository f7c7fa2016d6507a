"""Tests for the cluster tier: spec, fabric, halo exchange, run wiring."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.bench.oracles import FrequencyPageCacheLegacy
from repro.cluster import ClusterSpec, HaloExchange, NetworkFabric
from repro.cluster.halo import HaloReport, group_by_owner
from repro.cluster.fabric import LINK_LATENCY_S, NetworkFabric as Fabric
from repro.cluster.partitioner import random_partition
from repro.config import RunConfig
from repro.errors import ConfigError, NetworkStallError
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.faults.retry import RetryPolicy, call_with_faults
from repro.graph.datasets import Dataset
from repro.storage.cache import (
    FrequencyPageCache,
    PageCache,
    PartitionAwarePageCache,
)

import helpers


class TestClusterSpec:
    def test_defaults_valid(self):
        spec = ClusterSpec()
        assert spec.num_nodes == 4
        assert spec.partitioner == "greedy"

    @pytest.mark.parametrize("kwargs", [
        dict(num_nodes=0),
        dict(topology="torus"),
        dict(link_bandwidth=0.0),
        dict(nic_bandwidth=-5.0),
        dict(partitioner="metis-real"),
        dict(remote_cache="arc"),
        dict(remote_cache_ratio=1.5),
        # ``NaN <= 0`` is false: a NaN link bandwidth used to run with a
        # NaN network phase inside a finite epoch, and a NaN NIC
        # bandwidth was ignored by the fabric's ``min``; ``num_nodes=2.0``
        # used to fail mid-run with ``TypeError``.
        dict(link_bandwidth=float("nan")),
        dict(nic_bandwidth=float("nan")),
        dict(num_nodes=2.0),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ClusterSpec(**kwargs)

    def test_frozen_and_hashable(self):
        spec = ClusterSpec(num_nodes=8)
        assert hash(spec) == hash(ClusterSpec(num_nodes=8))
        with pytest.raises(AttributeError):
            spec.num_nodes = 2


class TestNetworkFabric:
    def test_fat_tree_penalizes_inter_pod(self):
        # Pods of POD_SIZE = 4 nodes, 2:1 oversubscribed spine.
        fabric = Fabric(num_nodes=8, topology="fat-tree",
                        link_bandwidth=10e9)
        assert fabric.pair_bandwidth(0, 3) == 10e9       # same pod
        assert fabric.pair_bandwidth(0, 4) == 5e9        # across pods
        alltoall = Fabric(num_nodes=8, topology="alltoall",
                          link_bandwidth=10e9)
        assert alltoall.pair_bandwidth(0, 4) == 10e9

    def test_gather_time_fluid_model(self):
        fabric = Fabric(num_nodes=4, link_bandwidth=10e9,
                        nic_bandwidth=10e9)
        # One dominant flow: bounded by total bytes over the NIC.
        skewed = fabric.gather_time({1: 10_000_000, 2: 1_000}, node=0)
        assert skewed == pytest.approx(LINK_LATENCY_S + 10_001_000 / 10e9)
        # The makespan never beats the largest single flow's own link.
        slow_link = Fabric(num_nodes=8, topology="fat-tree",
                           link_bandwidth=10e9, nic_bandwidth=100e9)
        t = slow_link.gather_time({4: 10_000_000}, node=0)
        assert t == pytest.approx(LINK_LATENCY_S + 10_000_000 / 5e9)

    def test_gather_ignores_self_and_empty(self):
        fabric = Fabric(num_nodes=4)
        assert fabric.gather_time({}, node=0) == 0.0
        assert fabric.gather_time({0: 1_000_000}, node=0) == 0.0
        assert fabric.gather_time({1: 0}, node=0) == 0.0

    def test_ring_allreduce_cost(self):
        fabric = Fabric(num_nodes=8, link_bandwidth=10e9,
                        nic_bandwidth=10e9)
        # 2(n-1) latency hops plus 2(n-1)/n of the payload on the ring.
        assert fabric.allreduce_time(1e9) == pytest.approx(
            14 * LINK_LATENCY_S + 1.75e9 / 10e9)
        # The slowest ring hop sets the pace: on a 2:1 fat-tree with
        # pods of 4, two hops of the 0..7 ring cross pods.
        fat_tree = Fabric(num_nodes=8, topology="fat-tree",
                          link_bandwidth=10e9, nic_bandwidth=10e9)
        assert fat_tree.allreduce_time(1e9) == pytest.approx(
            14 * LINK_LATENCY_S + 1.75e9 / 5e9)

    def test_allreduce_degenerate_cases(self):
        fabric = Fabric(num_nodes=1)
        assert fabric.allreduce_time(1_000_000) == 0.0
        many = Fabric(num_nodes=4)
        assert many.allreduce_time(0) == 0.0

    def test_from_spec_roundtrip(self):
        spec = ClusterSpec(num_nodes=8, topology="fat-tree",
                           link_bandwidth=1e9, nic_bandwidth=2e9)
        fabric = NetworkFabric.from_spec(spec)
        assert fabric.num_nodes == 8
        assert fabric.topology == "fat-tree"
        assert fabric.link_bandwidth == 1e9
        assert fabric.nic_bandwidth == 2e9
        assert (fabric.pod_of(3), fabric.pod_of(4)) == (0, 1)


class TestFrequencyCache:
    def test_admission_protects_hot_pages(self):
        cache = FrequencyPageCache(2)
        for _ in range(3):
            cache.access(np.array([1, 2]))
        # A once-seen page cannot displace established residents.
        assert cache.access(np.array([9])).tolist() == [True]
        assert cache.access(np.array([1, 2, 9])).tolist() == [
            False, False, True]
        assert cache.evictions == 0

    def test_hot_newcomer_evicts_coldest(self):
        cache = FrequencyPageCache(2)
        cache.access(np.array([1]))
        cache.access(np.array([2]))
        for _ in range(5):
            cache.access(np.array([9]))
        # Victim is the (count, id)-minimal resident: page 1.
        assert observed(cache)[0] == {2, 9}
        assert cache.evictions == 1

    def test_heap_matches_scan_reference(self):
        """The reference cache's lazy-heap victim selection is
        behaviorally identical to the full (count, id) min-scan it
        replaced, and the dense cache follows it page by page."""
        rng = np.random.default_rng(0)
        legacy = FrequencyPageCacheLegacy(16)
        cache = FrequencyPageCache(16)
        shadow: set = set()
        for page in rng.integers(0, 64, size=2000).tolist():
            resident = legacy.lookup(page)
            assert resident == (not cache.access(np.array([page]))[0])
            assert resident == (page in shadow)
            if resident:
                continue
            # Reference: exact min-scan over the shadow copy.
            if len(shadow) < 16:
                shadow.add(page)
            else:
                victim = min(shadow,
                             key=lambda p: (legacy._counts.get(p, 0), p))
                if (legacy._counts.get(page, 0)
                        > legacy._counts.get(victim, 0)):
                    shadow.remove(victim)
                    shadow.add(page)
            legacy.insert(page)
            assert legacy._pages == shadow
            assert observed(cache) == observed(legacy)

    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=32),
        universe=st.integers(min_value=1, max_value=256),
        hot_share=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_admission_floor_matches_reference(self, capacity, universe,
                                               hot_share, seed):
        """Rejecting at the admission floor leaves the same residents and
        counters as popping the coldest resident on every full miss."""
        rng = np.random.default_rng(seed)
        cache = FrequencyPageCacheLegacy(capacity)
        reference = FrequencyCacheReference(capacity)
        hot_pages = max(1, capacity // 2)
        for _ in range(600):
            bound = hot_pages if rng.random() < hot_share else universe
            page = int(rng.integers(0, bound))
            action = rng.random()
            if action < 0.1:  # admission without a prior lookup
                cache.insert(page)
                reference.insert(page)
                continue
            missed = not cache.lookup(page)
            assert missed == (not reference.lookup(page))
            if missed and action < 0.95:
                cache.insert(page)
                reference.insert(page)
        assert observed(cache) == observed(reference)


def observed(cache) -> tuple:
    """What a frequency cache shows: its resident pages, every page's
    access count and its hit/miss/eviction counters."""
    if isinstance(cache, FrequencyPageCacheLegacy):
        resident = set(cache._pages)
        counts = {page: n for page, n in cache._counts.items() if n}
    else:
        resident = set(np.flatnonzero(cache._resident).tolist())
        pages = np.flatnonzero(cache._counts)
        counts = dict(zip(pages.tolist(), cache._counts[pages].tolist()))
    return resident, counts, (cache.hits, cache.misses, cache.evictions)


def _batch_sequence(draw_rng, capacity, batches):
    universe = int(draw_rng.integers(1, 4 * capacity + 8))
    for _ in range(batches):
        hot = int(draw_rng.integers(1, universe + 1))
        size = int(draw_rng.integers(0, universe + 1))
        pool = draw_rng.permutation(hot if draw_rng.random() < 0.5
                                    else universe)
        yield pool[:size]


class TestFrequencyCacheBatch:
    """``FrequencyPageCache.access`` against the dict-based cache it
    replaced on the halo path, driven page by page."""

    @staticmethod
    def _pair(capacity):
        return FrequencyPageCache(capacity), FrequencyPageCacheLegacy(capacity)

    def _check(self, cache, legacy, ids):
        ids = np.asarray(ids, dtype=np.int64)
        got = cache.access(ids)
        want = PageCache.access(legacy, ids)
        assert got.dtype == bool and got.shape == ids.shape
        np.testing.assert_array_equal(got, want)
        assert observed(cache) == observed(legacy)
        return got

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(min_value=1, max_value=32),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_per_row_oracle(self, capacity, seed):
        rng = np.random.default_rng(seed)
        cache, legacy = self._pair(capacity)
        for ids in _batch_sequence(rng, capacity, 12):
            self._check(cache, legacy, ids)

    def test_victim_later_in_batch_is_a_miss_and_an_event(self):
        cache, legacy = self._pair(2)
        self._check(cache, legacy, [1, 2])   # fills: both at count 1
        self._check(cache, legacy, [5])      # count 1 loses: floor 1
        # Page 5 (count 2) evicts page 1, the coldest. The batch then
        # reaches page 1 as a miss at count 2, which evicts page 2.
        # Bumping page 1 before the first event would have made page 2
        # the first victim instead.
        assert self._check(cache, legacy, [5, 1]).tolist() == [True, True]
        assert cache.evictions == 2
        assert observed(cache)[0] == {1, 5}

    def test_cache_fills_mid_batch(self):
        cache, legacy = self._pair(3)
        self._check(cache, legacy, [7])
        # Two free slots go to the first two misses in batch order (9 and
        # 1); page 2 then finds the cache full, loses to page 1 and sets
        # the floor that turns pages 3 and 8 away unheard.
        got = self._check(cache, legacy, [9, 1, 7, 2, 3, 8])
        assert got.tolist() == [True, True, False, True, True, True]
        assert observed(cache)[0] == {1, 7, 9}
        self._check(cache, legacy, [3, 2, 1, 0, 8])

    def test_ties_break_on_the_lower_id(self):
        cache, legacy = self._pair(3)
        self._check(cache, legacy, [30, 10, 20])
        self._check(cache, legacy, [40])       # count 1: rejected
        # Page 40 now beats the three count-1 residents; the victim is
        # the lowest ID, page 10.
        self._check(cache, legacy, [40])
        assert observed(cache)[0] == {20, 30, 40}

    def test_zero_capacity_and_empty_batch(self):
        cache, legacy = self._pair(0)
        assert self._check(cache, legacy, [4, 2]).all()
        assert self._check(cache, legacy, []).size == 0
        with pytest.raises(ValueError):
            cache.access(np.array([3, -2]))


class FrequencyCacheReference(FrequencyPageCacheLegacy):
    """The frequency cache with no admission floor: every full-cache miss
    pops the coldest resident and pushes it back if the newcomer loses."""

    def insert(self, page_id):
        if self.capacity_pages == 0 or page_id in self._pages:
            return
        if len(self._pages) < self.capacity_pages:
            self._pages.add(page_id)
            heapq.heappush(self._heap,
                           (self._counts.get(page_id, 0), page_id))
            return
        victim = self._take_coldest()
        if self._counts.get(page_id, 0) > victim[0]:
            self._pages.remove(victim[1])
            self.evictions += 1
            self._pages.add(page_id)
            heapq.heappush(self._heap,
                           (self._counts.get(page_id, 0), page_id))
        else:
            heapq.heappush(self._heap, victim)


class PerRowHaloReference(HaloExchange):
    """The halo exchange with per-row miss accounting: one dict update per
    missed row, peers sorted at the end, and the dict-based frequency
    cache driven one row at a time."""

    def _build_cache(self, node, capacity, degrees, train_ids):
        cache = super()._build_cache(node, capacity, degrees, train_ids)
        if isinstance(cache, FrequencyPageCache):
            return FrequencyPageCacheLegacy(capacity)
        return cache

    def exchange(self, node, input_nodes):
        report = HaloReport(node=node)
        if self.num_nodes <= 1:
            return report
        ids = np.unique(np.asarray(input_nodes, dtype=np.int64))
        remote = ids[self.assignment[ids] != node]
        report.requested_rows = int(remote.size)
        if remote.size == 0:
            return report
        sorted_ids, _counts = group_by_owner(remote, self.assignment,
                                             self.num_nodes)
        cache = self._caches[node]
        misses_by_peer: dict = {}
        for node_id in sorted_ids.tolist():
            if cache is not None and cache.lookup(node_id):
                report.cache_hits += 1
                continue
            owner = int(self.assignment[node_id])
            misses_by_peer[owner] = misses_by_peer.get(owner, 0) + 1
            if cache is not None:
                cache.insert(node_id)
        report.fetched_rows = report.requested_rows - report.cache_hits
        report.bytes_by_peer = {
            peer: rows * self.bytes_per_row
            for peer, rows in sorted(misses_by_peer.items())
        }
        for peer, num_bytes in report.bytes_by_peer.items():
            self.traffic[peer, node] += num_bytes
            key = self.next_fault_key()
            _, stats = call_with_faults(
                lambda: None,
                site="net_stall",
                policy=self.retry_policy,
                key=key,
                exc_factory=lambda attempts, src=peer: NetworkStallError(
                    src=src, dst=node, attempts=attempts
                ),
            )
            report.retry_delay_s += stats.delay_s
            report.retries += stats.num_retries
        report.exchange_s = (
            self.fabric.gather_time(report.bytes_by_peer, node)
            + report.retry_delay_s
        )
        self._accumulate(report)
        return report


def _exchange(num_graph_nodes=400, num_cluster_nodes=4, seed=0,
              cache="freq", retry_policy=None,
              engine=HaloExchange) -> HaloExchange:
    spec = ClusterSpec(num_nodes=num_cluster_nodes, remote_cache=cache)
    assignment = random_partition(num_graph_nodes, num_cluster_nodes,
                                  seed=seed)
    fabric = NetworkFabric.from_spec(spec)
    return engine(assignment, fabric, spec, bytes_per_row=64,
                  retry_policy=retry_policy)


class TestHaloMatchesPerRowReference:
    @pytest.mark.parametrize("cache", ["freq", "lru", "partition", "none"])
    @pytest.mark.parametrize("num_cluster_nodes", [2, 4, 7])
    def test_identical_reports(self, cache, num_cluster_nodes):
        def run(engine):
            plan = FaultPlan(seed=3, sites={
                "net_stall": FaultSpec(probability=0.5, max_failures=2),
            })
            rng = np.random.default_rng(num_cluster_nodes)
            with fault_scope(plan):
                halo = _exchange(num_cluster_nodes=num_cluster_nodes,
                                 cache=cache, engine=engine)
                reports = [
                    halo.exchange(batch % num_cluster_nodes,
                                  rng.integers(0, 400, size=90))
                    for batch in range(40)
                ]
            return halo, reports

        halo, reports = run(HaloExchange)
        reference, want = run(PerRowHaloReference)
        assert reports == want
        # The exchange draws one net_stall key per peer in the dict's
        # order, so equal item order means the same key went to each peer.
        assert ([list(r.bytes_by_peer.items()) for r in reports]
                == [list(r.bytes_by_peer.items()) for r in want])
        assert halo._fault_seq == reference._fault_seq
        np.testing.assert_array_equal(halo.traffic, reference.traffic)
        assert halo.summary() == reference.summary()
        assert sum(report.retries for report in reports) > 0


class TestHaloPartitionCache:
    @pytest.mark.parametrize("variant", ["train", "empty_top", "no_train"])
    @pytest.mark.parametrize("num_cluster_nodes", [2, 4, 7])
    def test_pinned_ids_follow_the_bgl_score(self, num_cluster_nodes,
                                             variant):
        """Each node pins the remote rows ranked hottest by degree x
        (0.25 + train density normalized over every cluster node's
        partition), its own rows scored -1. The score is written out
        here as the reference."""
        num_graph_nodes = 400
        rng = np.random.default_rng(num_cluster_nodes)
        assignment = random_partition(num_graph_nodes, num_cluster_nodes,
                                      seed=0)
        if variant == "empty_top":
            assignment[assignment == num_cluster_nodes - 1] = 0
        degrees = rng.uniform(1.0, 20.0, num_graph_nodes)
        # Skewed seeds: partition 1 is train-dense, the rest are not, so
        # the normalization moves rows across the pinning cut.
        train_ids = (None if variant == "no_train" else np.flatnonzero(
            (assignment == 1) | (rng.random(num_graph_nodes) < 0.05)))
        spec = ClusterSpec(num_nodes=num_cluster_nodes,
                           remote_cache="partition",
                           remote_cache_ratio=0.2)
        halo = HaloExchange(assignment, NetworkFabric.from_spec(spec), spec,
                            bytes_per_row=64, degrees=degrees,
                            train_ids=train_ids)

        sizes = np.bincount(assignment, minlength=num_cluster_nodes)
        if train_ids is None:
            train_counts = np.zeros(num_cluster_nodes)
        else:
            train_counts = np.bincount(assignment[train_ids],
                                       minlength=num_cluster_nodes)
        density = train_counts / np.maximum(sizes, 1)
        if density.mean() > 0:
            density = density / density.mean()
        capacity = int(spec.remote_cache_ratio * num_graph_nodes)
        for node in range(num_cluster_nodes):
            hotness = degrees * (0.25 + density[assignment])
            hotness[assignment == node] = -1.0
            want = PartitionAwarePageCache(capacity, hotness).pinned_ids
            assert halo._caches[node].pinned_ids == want


class TestHaloConservation:
    def test_bytes_conserved_end_to_end(self):
        halo = _exchange()
        rng = np.random.default_rng(1)
        for batch in range(20):
            node = batch % halo.num_nodes
            ids = rng.integers(0, 400, size=80)
            report = halo.exchange(node, ids)
            # Per-batch double entry.
            assert report.fetched_rows == (report.requested_rows
                                           - report.cache_hits)
            assert report.bytes_total == report.fetched_rows * 64
        # Cumulative: bytes sent == bytes received == fetched rows paid
        # at row granularity (cache hits never touch the fabric).
        assert halo.bytes_sent_total == halo.bytes_received_total
        assert halo.bytes_sent_total == halo.fetched_rows * 64
        assert halo.fetched_rows == halo.requested_rows - halo.cache_hits
        assert 0.0 < halo.hit_rate < 1.0

    def test_no_self_traffic(self):
        halo = _exchange()
        rng = np.random.default_rng(2)
        for batch in range(12):
            halo.exchange(batch % halo.num_nodes,
                          rng.integers(0, 400, size=60))
        assert np.all(np.diag(halo.traffic) == 0)

    def test_local_only_batch_is_free(self):
        halo = _exchange(cache="none")
        local = np.flatnonzero(halo.assignment == 2)[:10]
        report = halo.exchange(2, local)
        assert report.requested_rows == 0
        assert report.exchange_s == 0.0

    def test_cache_policies_all_run(self):
        # Deliberate reuse: one requesting node, a small ID universe,
        # and enough capacity that repeats must hit for every policy.
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 120, size=60) for _ in range(10)]
        hit_rates = {}
        for cache in ("freq", "partition", "lru", "none"):
            spec = ClusterSpec(num_nodes=4, remote_cache=cache,
                               remote_cache_ratio=0.5)
            assignment = random_partition(400, 4, seed=0)
            halo = HaloExchange(assignment, NetworkFabric.from_spec(spec),
                                spec, bytes_per_row=64)
            for ids in batches:
                halo.exchange(0, ids)
            hit_rates[cache] = halo.hit_rate
        assert hit_rates["none"] == 0.0
        assert all(rate > 0 for name, rate in hit_rates.items()
                   if name != "none")


class TestNetStall:
    def _stall_plan(self, probability=1.0, max_failures=2, seed=7):
        return FaultPlan(seed=seed, sites={
            "net_stall": FaultSpec(probability=probability,
                                   max_failures=max_failures),
        })

    def test_recovered_stalls_add_backoff_delay(self):
        with fault_scope(self._stall_plan()):
            halo = _exchange(cache="none")
            rng = np.random.default_rng(4)
            report = halo.exchange(0, rng.integers(0, 400, size=80))
        assert report.retries > 0
        assert report.retry_delay_s > 0.0
        # The backoff is folded into the modeled exchange time.
        base = halo.fabric.gather_time(report.bytes_by_peer, 0)
        assert report.exchange_s == pytest.approx(
            base + report.retry_delay_s)

    def test_stalls_are_deterministic(self):
        def run():
            with fault_scope(self._stall_plan(probability=0.5)):
                halo = _exchange(cache="none")
                rng = np.random.default_rng(5)
                for i in range(10):
                    halo.exchange(i % halo.num_nodes,
                                  rng.integers(0, 400, size=60))
            return halo.retries, halo.retry_delay_s_total

        assert run() == run()

    def test_exhausted_budget_raises_network_stall(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0,
                             jitter_fraction=0.0)
        with fault_scope(self._stall_plan(max_failures=5)):
            halo = _exchange(cache="none", retry_policy=policy)
            rng = np.random.default_rng(6)
            with pytest.raises(NetworkStallError) as excinfo:
                halo.exchange(1, rng.integers(0, 400, size=80))
        assert excinfo.value.dst == 1
        assert excinfo.value.attempts == 2


class TestRunWithCluster:
    @pytest.fixture(scope="class")
    def dataset(self):
        return Dataset(helpers.make_spec(name="cluster-run",
                                         num_nodes=800, avg_degree=6.0,
                                         feature_dim=16, num_classes=4),
                       seed=3)

    @pytest.fixture(scope="class")
    def report(self, dataset):
        return api.run(
            "dgl", dataset,
            config=RunConfig(batch_size=64, fanouts=(3, 3), num_gpus=2,
                             seed=1),
            exec=api.ExecutionSpec(cluster=ClusterSpec(num_nodes=2)),
        )

    def test_network_phase_populated(self, report):
        assert report.phases.network > 0.0
        detail = report.phases.fractions(detail=True)
        assert detail["network"] > 0.0
        assert sum(detail.values()) == pytest.approx(1.0)

    def test_timeline_reconciles(self, report):
        spans = report.timeline()
        extent = max(span.end for span in spans)
        assert extent == pytest.approx(report.epoch_time, abs=1e-9)
        assert any(span.category == "network" for span in spans)

    def test_cluster_summary_in_extras(self, report):
        cluster = report.cluster
        assert cluster["num_nodes"] == 2
        assert cluster["partition"]["sizes"][0] > 0
        halo = cluster["halo"]
        assert halo["requested_rows"] > 0
        assert halo["bytes_moved"] == halo["fetched_rows"] * 16 * 4

    def test_owner_compute_batch_placement(self, dataset):
        """Each lane's seeds are owned by the lane's node."""
        from repro.cluster.engine import ClusterState

        config = RunConfig(batch_size=32, num_gpus=2, seed=1)
        state = ClusterState(dataset, config, ClusterSpec(num_nodes=2), 2)
        batches = [np.arange(0, 200), np.arange(200, 400)]
        chunks = state.place_batches(batches, config.batch_size)
        assert len(chunks) == 4  # 2 nodes x 2 lanes
        all_seeds = []
        for lane, chunk in enumerate(chunks):
            node = state.node_of_lane(lane)
            for batch in chunk:
                assert len(batch) <= config.batch_size
                assert np.all(state.assignment[batch] == node)
                all_seeds.append(batch)
        # Every seed still trained exactly once.
        np.testing.assert_array_equal(
            np.sort(np.concatenate(all_seeds)), np.arange(400))
