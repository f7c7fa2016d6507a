"""Tests for the cluster tier: spec, fabric, halo exchange, run wiring."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.cluster import ClusterSpec, HaloExchange, NetworkFabric
from repro.cluster.halo import HaloReport, group_by_owner
from repro.cluster.fabric import NetworkFabric as Fabric
from repro.cluster.partitioner import random_partition
from repro.config import RunConfig
from repro.errors import ConfigError, NetworkStallError
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.faults.retry import RetryPolicy, call_with_faults
from repro.graph.datasets import Dataset
from repro.storage.cache import MISS, FrequencyPageCache

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
        dict(link_latency_s=-1.0),
        dict(nic_bandwidth=-5.0),
        dict(oversubscription=0.5),
        dict(pod_size=0),
        dict(partitioner="metis-real"),
        dict(balance_slack=-0.1),
        dict(remote_cache="arc"),
        dict(remote_cache_ratio=1.5),
        dict(allreduce="butterfly"),
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
        fabric = Fabric(num_nodes=8, topology="fat-tree",
                        link_bandwidth=10e9, oversubscription=2.0,
                        pod_size=4)
        assert fabric.pair_bandwidth(0, 3) == 10e9       # same pod
        assert fabric.pair_bandwidth(0, 4) == 5e9        # across pods
        alltoall = Fabric(num_nodes=8, topology="alltoall",
                          link_bandwidth=10e9)
        assert alltoall.pair_bandwidth(0, 4) == 10e9

    def test_gather_time_fluid_model(self):
        fabric = Fabric(num_nodes=4, link_bandwidth=10e9,
                        link_latency_s=1e-6, nic_bandwidth=10e9)
        # One dominant flow: bounded by total bytes over the NIC.
        skewed = fabric.gather_time({1: 10_000_000, 2: 1_000}, node=0)
        assert skewed == pytest.approx(1e-6 + 10_001_000 / 10e9)
        # The makespan never beats the largest single flow's own link.
        slow_link = Fabric(num_nodes=8, topology="fat-tree",
                           link_bandwidth=10e9, link_latency_s=1e-6,
                           nic_bandwidth=100e9, oversubscription=2.0,
                           pod_size=4)
        t = slow_link.gather_time({4: 10_000_000}, node=0)
        assert t == pytest.approx(1e-6 + 10_000_000 / 5e9)

    def test_gather_ignores_self_and_empty(self):
        fabric = Fabric(num_nodes=4)
        assert fabric.gather_time({}, node=0) == 0.0
        assert fabric.gather_time({0: 1_000_000}, node=0) == 0.0
        assert fabric.gather_time({1: 0}, node=0) == 0.0

    def test_ring_vs_tree_crossover(self):
        fabric = Fabric(num_nodes=8, link_bandwidth=10e9,
                        link_latency_s=10e-6, nic_bandwidth=10e9)
        # Large payload: ring's 2(n-1)/n bandwidth term wins.
        big = 1_000_000_000
        assert (fabric.allreduce_time(big, "ring")
                < fabric.allreduce_time(big, "tree"))
        # Tiny payload: tree's 2*log2(n) latency steps beat 2(n-1).
        small = 1_000
        assert (fabric.allreduce_time(small, "tree")
                < fabric.allreduce_time(small, "ring"))

    def test_allreduce_degenerate_cases(self):
        fabric = Fabric(num_nodes=1)
        assert fabric.allreduce_time(1_000_000, "ring") == 0.0
        many = Fabric(num_nodes=4)
        assert many.allreduce_time(0, "ring") == 0.0
        with pytest.raises(ValueError):
            many.allreduce_time(100, "butterfly")

    def test_from_spec_roundtrip(self):
        spec = ClusterSpec(num_nodes=8, topology="fat-tree",
                           link_bandwidth=1e9, pod_size=2)
        fabric = NetworkFabric.from_spec(spec)
        assert fabric.num_nodes == 8
        assert fabric.topology == "fat-tree"
        assert fabric.pod_of(3) == 1


class TestFrequencyCache:
    def test_admission_protects_hot_pages(self):
        cache = FrequencyPageCache(2)
        for _ in range(3):
            cache.lookup(1)
            cache.lookup(2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        # A once-seen page cannot displace established residents.
        assert cache.lookup(9) is MISS
        cache.insert(9, "c")
        assert cache.lookup(1) == "a"
        assert cache.lookup(2) == "b"
        assert cache.lookup(9) is MISS

    def test_hot_newcomer_evicts_coldest(self):
        cache = FrequencyPageCache(2)
        cache.lookup(1)
        cache.insert(1, "a")
        cache.lookup(2)
        cache.insert(2, "b")
        for _ in range(5):
            cache.lookup(9)
        cache.insert(9, "c")
        # Victim is the (count, id)-minimal resident: page 1.
        assert cache.lookup(9) == "c"
        assert cache.lookup(1) is MISS
        assert cache.evictions == 1

    def test_heap_matches_scan_reference(self):
        """The lazy-heap victim selection is behaviorally identical to
        the full (count, id) min-scan it replaced."""
        rng = np.random.default_rng(0)
        cache = FrequencyPageCache(16)
        shadow_frames: dict = {}
        for page in rng.integers(0, 64, size=2000).tolist():
            resident = cache.lookup(page) is not MISS
            assert resident == (page in shadow_frames)
            if resident:
                continue
            # Reference: exact min-scan over the shadow copy.
            if len(shadow_frames) < 16:
                shadow_frames[page] = True
            else:
                victim = min(shadow_frames,
                             key=lambda p: (cache._counts.get(p, 0), p))
                if (cache._counts.get(page, 0)
                        > cache._counts.get(victim, 0)):
                    del shadow_frames[victim]
                    shadow_frames[page] = True
            cache.insert(page, True)
            assert set(cache._frames) == set(shadow_frames)


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
        cache = FrequencyPageCache(capacity)
        reference = FrequencyCacheReference(capacity)
        hot_pages = max(1, capacity // 2)
        for _ in range(600):
            bound = hot_pages if rng.random() < hot_share else universe
            page = int(rng.integers(0, bound))
            action = rng.random()
            if action < 0.1:  # admission without a prior lookup
                cache.insert(page, page)
                reference.insert(page, page)
                continue
            missed = cache.lookup(page) is MISS
            assert missed == (reference.lookup(page) is MISS)
            if missed and action < 0.95:
                cache.insert(page, page)
                reference.insert(page, page)
        assert cache._frames == reference._frames
        assert cache._counts == reference._counts
        assert ((cache.hits, cache.misses, cache.evictions)
                == (reference.hits, reference.misses, reference.evictions))


class FrequencyCacheReference(FrequencyPageCache):
    """The frequency cache with no admission floor: every full-cache miss
    pops the coldest resident and pushes it back if the newcomer loses."""

    def insert(self, page_id, frame):
        if self.capacity_pages == 0:
            return
        if page_id in self._frames:
            self._frames[page_id] = frame
            return
        if len(self._frames) < self.capacity_pages:
            self._frames[page_id] = frame
            heapq.heappush(self._heap,
                           (self._counts.get(page_id, 0), page_id))
            return
        victim = self._pop_coldest()
        if self._counts.get(page_id, 0) > victim[0]:
            del self._frames[victim[1]]
            self.evictions += 1
            self._frames[page_id] = frame
            heapq.heappush(self._heap,
                           (self._counts.get(page_id, 0), page_id))
        else:
            heapq.heappush(self._heap, victim)


class PerRowHaloReference(HaloExchange):
    """The halo exchange with per-row miss accounting: one dict update per
    missed row, peers sorted at the end."""

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
            if cache is not None and cache.lookup(node_id) is not MISS:
                report.cache_hits += 1
                continue
            owner = int(self.assignment[node_id])
            misses_by_peer[owner] = misses_by_peer.get(owner, 0) + 1
            if cache is not None:
                cache.insert(node_id, True)
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
        cluster = report.extras["cluster"]
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
