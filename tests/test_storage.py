"""Tests for the out-of-core storage tier (NVMe model, page store, page
caches, IO scheduler, storage-backed loader)."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.config import COST_MODEL, RunConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan, FaultSpec, fault_scope
from repro.gpu.pcie import PCIeLink
from repro.graph.features import HashFeatureStore
from repro.pipeline.graph import stage_graph_makespan, stage_graph_reference
from repro.sampling import NeighborSampler
from repro.storage import (
    IOScheduler,
    LRUPageCache,
    NVMeLink,
    PageStore,
    PartitionAwarePageCache,
    StorageBackedFeatureStore,
    build_page_cache,
    partition_page_hotness,
)
from repro.transfer.storage_loader import (
    StorageTransferReport,
    build_storage_loader,
    page_cache_budget_bytes,
)


@pytest.fixture()
def sampler(tiny_graph):
    return NeighborSampler(tiny_graph, (3, 4), rng=0)


@pytest.fixture()
def subgraphs(sampler, tiny_dataset):
    ids = tiny_dataset.train_ids
    return [sampler.sample(ids[i * 50:(i + 1) * 50]) for i in range(3)]


class TestNVMeLink:
    def test_zero_work_is_free(self):
        assert NVMeLink().read_time(0, 0) == 0.0

    def test_deep_queue_amortizes_latency(self):
        link = NVMeLink()
        shallow = link.read_time(1000, 4096 * 1000, queue_depth=1)
        deep = link.read_time(1000, 4096 * 1000, queue_depth=1000)
        assert deep < shallow
        # One wave: exactly one latency plus the stream term.
        stream = max(4096 * 1000 / link.bandwidth, 1000 / link.iops_limit)
        assert deep == pytest.approx(link.latency_s + stream)

    def test_bandwidth_bound_for_large_transfers(self):
        link = NVMeLink()
        t = link.read_time(1, 68e9, queue_depth=1)
        assert t == pytest.approx(link.latency_s + 68e9 / link.bandwidth)

    def test_bandwidth_cap_applies(self):
        link = NVMeLink(bandwidth=8e9)
        capped = link.read_time(1, 8e9, bandwidth_cap=4e9)
        uncapped = link.read_time(1, 8e9)
        assert capped > uncapped

    def test_iops_ceiling(self):
        link = NVMeLink(iops_limit=1e6)
        # 2M tiny commands cannot finish faster than 2 seconds.
        t = link.read_time(2_000_000, 2_000_000, queue_depth=100000)
        assert t >= 2.0

    def test_bad_queue_depth(self):
        with pytest.raises(ValueError):
            NVMeLink().read_time(1, 1, queue_depth=0)

    def test_from_cost_model(self):
        link = NVMeLink()
        assert link.bandwidth == COST_MODEL.nvme_read_bytes_per_s
        assert link.latency_s == COST_MODEL.nvme_read_latency_s
        assert link.iops_limit == COST_MODEL.nvme_iops_limit


class TestPageStore:
    def test_layout_math(self):
        backing = HashFeatureStore(100, 4)  # 16-byte rows
        store = PageStore(backing, page_bytes=64)
        assert store.rows_per_page == 4
        assert store.num_pages == 25
        assert store.total_bytes == 25 * 64

    def test_tail_page_partial(self):
        backing = HashFeatureStore(10, 4)
        store = PageStore(backing, page_bytes=64)  # 4 rows/page
        start, count = store.page_rows(2)
        assert (start, count) == (8, 2)
        store.read_page(2)
        # The full page still crosses the link.
        assert store.bytes_read == 64

    def test_page_rounds_up_to_row(self):
        backing = HashFeatureStore(8, 128)  # 512-byte rows
        store = PageStore(backing, page_bytes=64)
        assert store.page_bytes == 512
        assert store.rows_per_page == 1

    def test_page_of(self):
        backing = HashFeatureStore(100, 4)
        store = PageStore(backing, page_bytes=64)
        np.testing.assert_array_equal(
            store.page_of(np.array([0, 3, 4, 99])), [0, 0, 1, 24]
        )

    def test_stats_only_read(self):
        backing = HashFeatureStore(100, 4)
        store = PageStore(backing, page_bytes=64)
        assert store.read_page(0) is None
        assert store.pages_read == 1 and store.bytes_read == 64
        store.reset_stats()
        assert store.pages_read == 0

    def test_out_of_range_page(self):
        store = PageStore(HashFeatureStore(10, 4), page_bytes=64)
        with pytest.raises(IndexError):
            store.page_rows(99)
        with pytest.raises(IndexError):
            store.read_page(25)
        assert store.pages_read == 0


class TestLRUPageCache:
    def test_hit_miss_counting(self):
        cache = LRUPageCache(2)
        assert cache.lookup(1) is False
        cache.insert(1)
        assert cache.lookup(1) is True
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_evicts_least_recent(self):
        cache = LRUPageCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.lookup(1)  # 1 is now most recent
        cache.insert(3)
        assert not cache.lookup(2)
        assert cache.lookup(1)
        assert cache.evictions == 1

    def test_reinsert_refreshes_recency(self):
        cache = LRUPageCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.insert(1)  # resident: moves to the recent end, no eviction
        cache.insert(3)
        assert cache.evictions == 1 and cache.num_resident == 2
        assert not cache.lookup(2)
        assert cache.lookup(1) and cache.lookup(3)

    def test_zero_capacity(self):
        cache = LRUPageCache(0)
        cache.insert(1)
        assert cache.num_resident == 0

    def test_resident_bytes(self):
        cache = LRUPageCache(4)
        cache.insert(1)
        cache.insert(2)
        assert cache.resident_bytes(4096) == 2 * 4096


class TestPartitionAwarePageCache:
    def test_pinned_pages_survive_scans(self):
        hotness = np.array([5.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        cache = PartitionAwarePageCache(2, hotness, pinned_fraction=1.0)
        assert cache.pinned_ids == {0, 1}
        for pid in range(6):
            if not cache.lookup(pid):
                cache.insert(pid)
        # A full scan later, the hot pages are still resident.
        assert cache.lookup(0)
        assert cache.lookup(1)

    def test_cold_first_touch_is_miss(self):
        cache = PartitionAwarePageCache(1, np.array([1.0]),
                                        pinned_fraction=1.0)
        assert not cache.lookup(0)
        cache.insert(0)
        assert cache.lookup(0)

    def test_beats_lru_on_cyclic_scan(self):
        """The workload the tier exists for: a scan wider than capacity.
        LRU evicts every page before its reuse; pinning keeps the hot set."""
        num_pages, capacity = 10, 5
        hotness = np.arange(num_pages, 0, -1, dtype=float)

        def run(cache):
            for _ in range(4):
                for pid in range(num_pages):
                    if not cache.lookup(pid):
                        cache.insert(pid)
            return cache.hit_rate

        lru_rate = run(LRUPageCache(capacity))
        part_rate = run(PartitionAwarePageCache(capacity, hotness))
        assert lru_rate == 0.0
        assert part_rate > 0.25

    def test_bad_pinned_fraction(self):
        with pytest.raises(ValueError):
            PartitionAwarePageCache(2, np.ones(4), pinned_fraction=1.5)


class TestPartitionPageHotness:
    def test_train_dense_partition_is_hotter(self):
        backing = HashFeatureStore(8, 4)
        page_store = PageStore(backing, page_bytes=32)  # 2 rows/page
        # Nodes 0-3 in partition 0 (all train seeds), 4-7 in partition 1.
        partitions = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        hotness = partition_page_hotness(page_store, partitions,
                                         train_ids=np.array([0, 1, 2, 3]))
        assert hotness.shape == (4,)
        assert hotness[:2].min() > hotness[2:].max()

    def test_build_page_cache_factory(self):
        backing = HashFeatureStore(8, 4)
        page_store = PageStore(backing, page_bytes=32)
        assert isinstance(build_page_cache("lru", 2), LRUPageCache)
        cache = build_page_cache(
            "partition", 2, page_store=page_store,
            partition_of_node=np.zeros(8, dtype=np.int64),
            train_ids=np.array([0]),
        )
        assert isinstance(cache, PartitionAwarePageCache)
        with pytest.raises(ValueError):
            build_page_cache("partition", 2)
        with pytest.raises(ValueError):
            build_page_cache("fifo", 2)
        # The frequency policy caches the cluster tier's remote rows only.
        with pytest.raises(ValueError):
            build_page_cache("freq", 2)


class TestIOScheduler:
    def _scheduler(self, num_nodes=64, dim=4, page_bytes=64,
                   capacity=1000, max_coalesce=8):
        backing = HashFeatureStore(num_nodes, dim)
        page_store = PageStore(backing, page_bytes=page_bytes)
        return IOScheduler(page_store, LRUPageCache(capacity),
                           max_coalesce=max_coalesce)

    def test_coalescing_runs(self):
        sched = self._scheduler(max_coalesce=8)
        assert sched.coalesced_requests(np.array([], dtype=np.int64)) == 0
        assert sched.coalesced_requests(np.arange(8)) == 1
        assert sched.coalesced_requests(np.arange(9)) == 2
        # A gap splits the run: [0..3] and [5..8] are separate commands.
        assert sched.coalesced_requests(
            np.array([0, 1, 2, 3, 5, 6, 7, 8])
        ) == 2

    def test_submit_deduplicates_pages(self):
        sched = self._scheduler()  # 4 rows/page
        plan = sched.submit(np.array([0, 1, 2, 3, 0, 1]))
        assert plan.num_rows == 6
        assert plan.num_unique_pages == 1
        assert plan.page_misses == 1
        assert plan.ssd_bytes == sched.page_store.page_bytes

    def test_second_submit_hits(self):
        sched = self._scheduler()
        sched.submit(np.array([0, 1]))
        plan = sched.submit(np.array([2, 3]))
        assert plan.page_hits == 1 and plan.page_misses == 0
        assert plan.hit_rate == 1.0

    def test_stats_only_then_fetch_materializes_quietly(self):
        """A page the accounting admitted is a hit for a later functional
        gather: it does not cross the drive again, and the rows are the
        backing table's."""
        store = StorageBackedFeatureStore(HashFeatureStore(64, 4),
                                          page_bytes=64)
        store.scheduler.submit(np.array([0, 1]))
        pages_after_plan = store.page_store.pages_read
        rows = store.gather(np.array([0, 1]))
        assert store.last_plan.page_misses == 0
        assert store.page_store.pages_read == pages_after_plan
        np.testing.assert_array_equal(
            rows, store.backing.gather(np.array([0, 1])))

    def test_bad_max_coalesce(self):
        backing = HashFeatureStore(8, 4)
        with pytest.raises(ValueError):
            IOScheduler(PageStore(backing), LRUPageCache(1), max_coalesce=0)


#: Accounting of a seeded 50-submit stream (see ``TestAccountingPins``):
#: sha256 prefix of every plan's fields, the summed integer fields, the
#: summed fault delay, the cache's hits/misses/evictions/resident pages
#: and the page store's pages/bytes read. Recorded when the caches still
#: stored page frames; an accounting-only tier must reproduce them.
ACCOUNTING_PINS = {
    ("lru", False, "submit"): (
        "7b8c741af8774255", [2250, 1759, 671, 1088, 958, 278528, 0],
        "0x0.0p+0", [671, 1088, 1040, 48], [1088, 278528]),
    ("lru", True, "submit"): (
        "4bdb72c8f8a4fc5c", [2250, 1759, 671, 1088, 958, 278528, 259],
        "0x1.11be979636e1ep-5", [671, 1088, 1040, 48], [1088, 278528]),
    ("lru", True, "gather"): (
        "8438cfa8da694f35", [2250, 1759, 671, 1088, 958, 278528, 259],
        "0x1.0e0f3c518eb82p-5", [671, 1088, 1040, 48], [1088, 278528]),
    ("partition", False, "submit"): (
        "a01f6968e40bbfde", [2250, 1759, 451, 1308, 999, 334848, 0],
        "0x0.0p+0", [451, 1308, 1267, 41], [1308, 334848]),
    ("partition", True, "submit"): (
        "4655126f96e4a50a", [2250, 1759, 451, 1308, 999, 334848, 277],
        "0x1.1fb45340a6a4dp-5", [451, 1308, 1267, 41], [1308, 334848]),
    ("partition", True, "gather"): (
        "a5deb1bed4104ec2", [2250, 1759, 451, 1308, 999, 334848, 277],
        "0x1.1c04f7fbfe7b0p-5", [451, 1308, 1267, 41], [1308, 334848]),
}


class TestAccountingPins:
    """The scheduler's accounting over a long stream, pinned exactly.

    3,000 rows of 32 bytes on 256-byte pages (375 pages), a 48-page
    cache, and 50 submits of 45 rows (30 from a hot 40-page prefix): a
    batch fits in the cache, the stream's working set does not.
    Faults on means recovered ``storage_read`` errors plus
    ``storage_slow`` delays; the ``submit`` path keys the delay with the
    batch index on even submits, and ``gather`` (the functional store)
    draws sequence keys.
    """

    NUM_NODES, PAGE_BYTES, CAPACITY = 3000, 256, 48

    def _cache(self, policy, page_store):
        if policy == "lru":
            return LRUPageCache(self.CAPACITY)
        hotness = partition_page_hotness(
            page_store, np.arange(self.NUM_NODES) // 750,
            train_ids=np.arange(0, 900, 2),
            degrees=1.0 + np.arange(self.NUM_NODES) % 7)
        return PartitionAwarePageCache(self.CAPACITY, hotness)

    @pytest.mark.parametrize("policy, faults, path", list(ACCOUNTING_PINS))
    def test_stream_matches_pins(self, policy, faults, path):
        backing = HashFeatureStore(self.NUM_NODES, 8, seed=5)
        store = StorageBackedFeatureStore(backing, page_bytes=self.PAGE_BYTES,
                                          max_coalesce=4)
        store.attach_cache(self._cache(policy, store.page_store))
        fault_plan = FaultPlan(seed=7, sites={
            "storage_read": FaultSpec(probability=0.2, max_failures=2),
            "storage_slow": FaultSpec(probability=0.5, delay_s=2e-4),
        }) if faults else None
        rng = np.random.default_rng(2024)
        rows = []
        with fault_scope(fault_plan):
            for i in range(50):
                ids = np.concatenate([rng.integers(0, 320, size=30),
                                      rng.integers(0, self.NUM_NODES,
                                                   size=15)])
                if path == "gather":
                    np.testing.assert_array_equal(store.gather(ids),
                                                  backing.gather(ids))
                    plan = store.last_plan
                else:
                    plan = store.scheduler.submit(
                        ids, key=i if i % 2 == 0 else None)
                fields = dataclasses.astuple(plan)
                rows.append(list(fields[:-1]) + [fields[-1].hex()])
        cache, pages = store.cache, store.page_store
        got = (
            hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16],
            np.array([r[:-1] for r in rows]).sum(axis=0).tolist(),
            float(sum(float.fromhex(r[-1]) for r in rows)).hex(),
            [cache.hits, cache.misses, cache.evictions, cache.num_resident],
            [pages.pages_read, pages.bytes_read],
        )
        assert got == ACCOUNTING_PINS[policy, faults, path]
        # Every page read off the drive was admitted, so each one no
        # longer resident was evicted.
        assert cache.evictions == pages.pages_read - cache.num_resident


def storage_pipeline(samples, reads, trains, depth=None):
    """The out-of-core sample -> read -> train pipeline: three stages of
    the pipeline engine with the prefetch depth as its in-flight window,
    asserted equal to the closed-form oracle on the way out."""
    stages = [samples, reads, trains]
    span = stage_graph_makespan(stages,
                                names=("sample", "memory_io", "compute"),
                                max_in_flight=depth)
    assert span == stage_graph_reference(stages, max_in_flight=depth)
    return span


class TestStoragePipelineMakespan:
    def test_empty(self):
        assert storage_pipeline([], [], []) == 0.0

    def test_single_batch_is_serial(self):
        assert storage_pipeline([1.0], [2.0], [3.0], depth=4) == 6.0

    def test_overlap_beats_serial(self):
        samples, reads, trains = [1.0] * 4, [1.0] * 4, [1.0] * 4
        span = storage_pipeline(samples, reads, trains, depth=4)
        serial = sum(samples) + sum(reads) + sum(trains)
        assert span < serial
        # Steady state: one batch drains per stage time.
        assert span == pytest.approx(3.0 + 3 * 1.0)

    def test_bounded_queue_never_faster(self):
        samples, reads, trains = [0.1] * 6, [2.0] * 6, [0.1] * 6
        free = storage_pipeline(samples, reads, trains)
        tight = storage_pipeline(samples, reads, trains, depth=1)
        assert tight >= free
        assert free >= sum(reads)  # the bottleneck stage is exclusive

    def test_validation(self):
        with pytest.raises(ValueError):
            stage_graph_makespan([[1.0], [1.0], []])
        with pytest.raises(ValueError):
            stage_graph_makespan([[1.0], [1.0], [1.0]], max_in_flight=0)

    @pytest.mark.parametrize("depth", [0, -3])
    def test_config_rejects_prefetch_depth_below_one(self, depth):
        with pytest.raises(ConfigError, match="storage_prefetch_depth"):
            RunConfig(storage_prefetch_depth=depth)


class TestStorageTransferReport:
    def _report(self, access):
        return StorageTransferReport(
            num_wanted=100, num_loaded=100, num_transfers=1,
            feature_bytes=4096 * 10 if access == "direct" else 1600,
            structure_bytes=1000,
            page_hits=5, page_misses=10, ssd_pages=10,
            ssd_requests=4, ssd_bytes=4096 * 10,
            host_bounce_bytes=0 if access == "direct" else 4096 * 10 + 1600,
            access=access,
        )

    def test_direct_faster_than_bounce(self):
        link = PCIeLink()
        direct = self._report("direct").modeled_time(link)
        bounce = self._report("bounce").modeled_time(link)
        assert direct < bounce

    def test_merge_accumulates_storage_counters(self):
        total = StorageTransferReport()
        total.merge(self._report("bounce"))
        total.merge(self._report("bounce"))
        assert total.ssd_pages == 20
        assert total.ssd_bytes == 2 * 4096 * 10
        assert total.page_hit_rate == pytest.approx(10 / 30)
        # The accumulator adopted the merged reports' access path.
        assert total.access == "bounce"

    def test_plain_merge_partner_is_safe(self):
        from repro.transfer.loader import TransferReport

        total = StorageTransferReport(access="bounce")
        total.merge(TransferReport(num_wanted=5, feature_bytes=80))
        assert total.num_wanted == 5 and total.ssd_bytes == 0
        assert total.access == "bounce"


class TestStorageBackedLoader:
    def _config(self, **kw):
        return RunConfig(num_gpus=1, **kw)

    def test_direct_path_accounting(self, tiny_dataset, subgraphs):
        loader = build_storage_loader(tiny_dataset, self._config())
        report = loader.plan(subgraphs[0])
        assert report.access == "direct"
        assert report.host_bounce_bytes == 0
        assert report.feature_bytes == report.ssd_bytes
        assert report.ssd_pages == report.page_misses
        assert report.ssd_requests <= report.ssd_pages

    def test_bounce_path_accounting(self, tiny_dataset, subgraphs):
        loader = build_storage_loader(
            tiny_dataset, self._config(storage_access="bounce")
        )
        report = loader.plan(subgraphs[0])
        row_bytes = report.num_loaded * tiny_dataset.features.bytes_per_node
        assert report.feature_bytes == row_bytes
        assert report.host_bounce_bytes == report.ssd_bytes + row_bytes

    def test_match_excludes_resident_rows(self, tiny_dataset, subgraphs):
        loader = build_storage_loader(tiny_dataset, self._config(),
                                      use_match=True)
        loader.plan(subgraphs[0])
        second = loader.plan(subgraphs[1])
        assert second.num_reused > 0
        assert second.num_loaded == subgraphs[1].num_nodes - second.num_reused
        loader.reset_epoch()
        fresh = loader.plan(subgraphs[0])
        assert fresh.num_reused == 0

    def test_load_returns_true_rows(self, tiny_dataset, subgraphs):
        """A batch loaded through the tier (the loader's plan, then the
        store's gather) trains on the table's true rows."""
        loader = build_storage_loader(tiny_dataset, self._config())
        report = loader.plan(subgraphs[0])
        features = loader.store.gather(subgraphs[0].input_nodes)
        expected = tiny_dataset.features.gather(subgraphs[0].input_nodes)
        np.testing.assert_array_equal(features, expected)
        assert report.num_loaded == subgraphs[0].num_nodes

    def test_budget_defaults_to_tenth_of_table(self, tiny_dataset):
        config = self._config()
        budget = page_cache_budget_bytes(tiny_dataset, config)
        assert budget == int(0.1 * tiny_dataset.features.total_bytes)
        explicit = self._config(host_memory_bytes=12345)
        assert page_cache_budget_bytes(tiny_dataset, explicit) == 12345

    def test_cache_respects_budget(self, tiny_dataset, subgraphs):
        config = self._config(
            host_memory_bytes=int(0.05 * tiny_dataset.features.total_bytes)
        )
        loader = build_storage_loader(tiny_dataset, config)
        for sg in subgraphs:
            loader.plan(sg)
        page_bytes = loader.store.page_store.page_bytes
        assert loader.cache.resident_bytes(page_bytes) <= (
            config.host_memory_bytes
        )

    def test_rejects_unknown_access(self, tiny_dataset):
        from repro.transfer.storage_loader import StorageBackedLoader

        store = StorageBackedFeatureStore(tiny_dataset.features)
        with pytest.raises(ValueError):
            StorageBackedLoader(store, access="mmap")
