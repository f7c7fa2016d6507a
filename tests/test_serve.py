"""Online inference serving: batcher invariants, queueing properties,
timeline reconciliation, and the FastGL-vs-DGL serving gap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.graph.datasets import Dataset
from repro.serve import (
    MicroBatcher,
    RequestQueue,
    ServeConfig,
    bursty_arrivals,
    build_schedule,
    poisson_arrivals,
    select_next_batch,
    simulate,
)
from repro.serve.request import InferenceRequest
from repro.utils.rng import RngFactory

from helpers import make_spec

WINDOW_TOL = 1e-9


@pytest.fixture(scope="module")
def dataset():
    return Dataset(make_spec(name="serve-test", num_nodes=1500,
                             avg_degree=8.0, feature_dim=32), seed=0)


@pytest.fixture(scope="module")
def run_config():
    return RunConfig(num_gpus=1, fanouts=(5, 10), seed=0)


def _request(req_id, arrival, seeds=(1, 2, 3)):
    return InferenceRequest(req_id=req_id, arrival=arrival,
                            seeds=np.array(seeds, dtype=np.int64))


# ---------------------------------------------------------------------------
# Arrival processes


class TestArrivals:
    def test_poisson_positive_and_increasing(self):
        times = poisson_arrivals(100.0, 50, rng=RngFactory(0).child("a"))
        assert len(times) == 50
        assert np.all(times > 0)
        assert np.all(np.diff(times) >= 0)

    def test_bursty_mean_rate_matches_nominal(self):
        """Burst/calm normalization keeps the mean rate comparable."""
        rate = 1000.0
        times = bursty_arrivals(rate, 20_000, rng=RngFactory(1).child("b"))
        empirical = len(times) / times[-1]
        assert empirical == pytest.approx(rate, rel=0.05)

    def test_bursty_has_heavier_tail_than_poisson(self):
        rngs = RngFactory(2)
        poisson = np.diff(poisson_arrivals(100.0, 20_000,
                                           rng=rngs.child("p")))
        bursty = np.diff(bursty_arrivals(100.0, 20_000,
                                         rng=rngs.child("q")))
        assert np.var(bursty) > np.var(poisson)

    def test_build_schedule_deterministic(self):
        pool = np.arange(100, dtype=np.int64)
        a = build_schedule("poisson", 500.0, 20, pool, 4, slo_s=0.1, seed=3)
        b = build_schedule("poisson", 500.0, 20, pool, 4, slo_s=0.1, seed=3)
        for ra, rb in zip(a, b):
            assert ra.arrival == rb.arrival
            assert ra.deadline == pytest.approx(ra.arrival + 0.1)
            np.testing.assert_array_equal(ra.seeds, rb.seeds)

    def test_build_schedule_unknown_process(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            build_schedule("fractal", 1.0, 1, np.arange(10), 2, slo_s=0)


# ---------------------------------------------------------------------------
# Admission control


class TestRequestQueue:
    def test_sheds_beyond_capacity(self):
        queue = RequestQueue(capacity=2)
        requests = [_request(i, 0.0) for i in range(3)]
        assert queue.offer(requests[0], 0.0)
        assert queue.offer(requests[1], 0.0)
        assert not queue.offer(requests[2], 0.0)
        assert requests[2].outcome == "shed"
        assert queue.stats.shed == 1 and queue.stats.admitted == 2

    def test_take_frees_capacity(self):
        queue = RequestQueue(capacity=1)
        first, second = _request(0, 0.0), _request(1, 0.0)
        assert queue.offer(first, 0.0)
        assert not queue.offer(second, 0.0)
        assert queue.take(first, 0.1)
        assert queue.depth == 0
        third = _request(2, 0.2)
        assert queue.offer(third, 0.2)

    def test_take_drops_past_deadline(self):
        queue = RequestQueue(capacity=4)
        request = _request(0, 0.0)
        request.deadline = 0.05
        queue.offer(request, 0.0)
        assert not queue.take(request, 0.1)
        assert request.outcome == "dropped"
        assert queue.stats.dropped == 1


# ---------------------------------------------------------------------------
# Micro-batching


def _drive_batcher(max_batch, window, gaps):
    """Feed a request stream through the pure state machine the same way
    the server's event process does; return the closed batches."""
    batcher = MicroBatcher(max_batch, window)
    closed = []
    now = 0.0
    for i, gap in enumerate(gaps):
        now += gap
        request = _request(i, now)
        if batcher.has_open_batch and now > batcher.close_deadline:
            closed.append(batcher.close(now, trigger="window"))
        if not batcher.has_open_batch:
            full = batcher.open(request, now)
        else:
            full = batcher.add(request, now)
        if full:
            closed.append(batcher.close(now, trigger="size"))
    if batcher.has_open_batch:
        closed.append(batcher.close(now, trigger="flush"))
    return closed


class TestMicroBatcher:
    @settings(max_examples=60, deadline=None)
    @given(
        max_batch=st.integers(1, 8),
        window=st.floats(0.0, 0.05, allow_nan=False),
        gaps=st.lists(st.floats(0.0, 0.02, allow_nan=False),
                      min_size=1, max_size=60),
    )
    def test_never_violates_window_or_size(self, max_batch, window, gaps):
        """PROPERTY: for any arrival pattern, no batch is held open past
        the window and no batch exceeds the size trigger."""
        closed = _drive_batcher(max_batch, window, gaps)
        assert sum(b.size for b in closed) == len(gaps)
        for batch in closed:
            assert 1 <= batch.size <= max_batch
            if batch.trigger != "flush":
                assert batch.batching_delay <= window + WINDOW_TOL
            if batch.trigger == "size":
                assert batch.size == max_batch

    def test_size_trigger_fires_exactly_at_max(self):
        batcher = MicroBatcher(max_batch=3, window_s=1.0)
        batcher.open(_request(0, 0.0), 0.0)
        assert not batcher.add(_request(1, 0.1), 0.1)
        assert batcher.add(_request(2, 0.2), 0.2)
        batch = batcher.close(0.2, trigger="size")
        assert batch.size == 3 and batch.trigger == "size"

    def test_add_past_window_raises(self):
        batcher = MicroBatcher(max_batch=8, window_s=0.01)
        batcher.open(_request(0, 0.0), 0.0)
        with pytest.raises(RuntimeError, match="batching window"):
            batcher.add(_request(1, 0.5), 0.5)

    def test_seeds_union_sorted_unique(self):
        batcher = MicroBatcher(max_batch=4, window_s=1.0)
        batcher.open(_request(0, 0.0, seeds=(5, 3)), 0.0)
        batcher.add(_request(1, 0.1, seeds=(3, 9)), 0.1)
        batch = batcher.close(0.1)
        np.testing.assert_array_equal(batch.seeds, [3, 5, 9])

    def test_seeds_follow_the_requests_list(self):
        """The union is computed once per ``requests`` list, read-only,
        and recomputed when the server replaces the list."""
        batcher = MicroBatcher(max_batch=4, window_s=1.0)
        batcher.open(_request(0, 0.0, seeds=(5, 3)), 0.0)
        batcher.add(_request(1, 0.1, seeds=(3, 9)), 0.1)
        batch = batcher.close(0.1)
        assert batch.seeds is batch.seeds
        assert not batch.seeds.flags.writeable
        batch.requests = batch.requests[1:]
        np.testing.assert_array_equal(batch.seeds, [3, 9])
        batch.requests = []
        assert batch.seeds.size == 0 and batch.seeds.dtype == np.int64

    def test_select_next_batch_prefers_match_degree(self):
        resident = np.array([10, 11, 12, 13], dtype=np.int64)
        batcher = MicroBatcher(max_batch=4, window_s=1.0)
        pending = []
        for seeds in ((1, 2, 3), (10, 11, 12), (11, 40)):
            batcher.open(_request(0, 0.0, seeds=seeds), 0.0)
            pending.append(batcher.close(0.0))
        assert select_next_batch(pending, resident) == 1
        # cold start (nothing resident) falls back to FIFO
        assert select_next_batch(pending, np.empty(0, dtype=np.int64)) == 0


# ---------------------------------------------------------------------------
# End-to-end serving simulation


class TestServerSim:
    @pytest.fixture(scope="class")
    def reports(self, dataset, run_config):
        config = ServeConfig(rate=80_000.0, num_requests=300,
                             seeds_per_request=8, max_batch=16,
                             batch_window_s=0.002, queue_capacity=10_000,
                             slo_s=0.0, seed=0)
        return {
            name: simulate(name, dataset, run_config=run_config,
                           serve_config=config)
            for name in ("dgl", "fastgl")
        }

    def test_every_request_accounted_for(self, reports):
        for report in reports.values():
            outcomes = {r.outcome for r in report.requests}
            assert outcomes <= {"completed", "shed", "dropped"}
            total = (report.num_completed + report.num_shed
                     + report.num_dropped)
            assert total == len(report.requests)

    def test_batches_respect_window_and_size(self, reports):
        """The in-simulation batches obey the same invariants the pure
        state machine guarantees."""
        for report in reports.values():
            assert report.batches
            for batch in report.batches:
                assert 1 <= batch.size <= report.config.max_batch
                assert (batch.batching_delay
                        <= report.config.batch_window_s + WINDOW_TOL)
                assert batch.service_end >= batch.service_start >= batch.closed_at

    def test_timeline_reconciles_with_makespan(self, reports):
        for report in reports.values():
            assert report.reconciles(1e-6), (
                f"{report.framework}: extent {report.timeline_extent} vs "
                f"makespan {report.makespan}")

    def test_latencies_positive_and_percentiles_ordered(self, reports):
        for report in reports.values():
            assert np.all(report.latencies > 0)
            assert report.p50 <= report.p95 <= report.p99
            assert report.throughput > 0
            assert 0 < report.occupancy <= 1.0 + 1e-9

    def test_fastgl_strictly_faster_than_dgl_at_equal_load(self, reports):
        """The acceptance comparison: same schedule, FastGL's fused map +
        match-reorder + memory-aware path wins every summary statistic."""
        dgl, fastgl = reports["dgl"], reports["fastgl"]
        assert dgl.num_shed == fastgl.num_shed == 0
        assert fastgl.p50 < dgl.p50
        assert fastgl.p95 < dgl.p95
        assert fastgl.p99 < dgl.p99
        assert fastgl.throughput > dgl.throughput

    def test_deterministic_across_runs(self, dataset, run_config, reports):
        config = reports["fastgl"].config
        again = simulate("fastgl", dataset, run_config=run_config,
                         serve_config=config)
        assert again.makespan == reports["fastgl"].makespan
        np.testing.assert_array_equal(again.latencies,
                                      reports["fastgl"].latencies)

    def test_chrome_trace_export(self, reports, tmp_path):
        path = tmp_path / "serve.json"
        count = reports["fastgl"].write_chrome_trace(path)
        assert count > 0
        assert path.exists()


class TestQueueingProperties:
    def test_p99_monotone_in_arrival_rate(self, dataset, run_config):
        """PROPERTY: with singleton batches (window 0), no shedding and no
        deadlines, compressing the same trace can only increase every
        request's latency — so p99 is non-decreasing in load. One seed's
        Poisson stream at ``f`` times the rate is the base trace divided
        by ``f`` exactly (a power-of-two scale), request seeds included."""
        base = None
        p99s, means = [], []
        for factor in (1.0, 2.0, 4.0, 8.0):
            config = ServeConfig(
                rate=20_000.0 * factor, num_requests=120, arrival="poisson",
                seeds_per_request=6, max_batch=16, batch_window_s=0.0,
                queue_capacity=10**6, slo_s=0.0, seed=0)
            report = simulate("dgl", dataset, run_config=run_config,
                              serve_config=config)
            arrivals = np.array([r.arrival for r in report.requests])
            if base is None:
                base = arrivals
            np.testing.assert_array_equal(arrivals, base / factor)
            assert report.num_completed == 120
            p99s.append(report.p99)
            means.append(report.mean_latency)
        assert p99s == sorted(p99s)
        assert means == sorted(means)

    def test_max_batch_one_serves_singletons(self, dataset, run_config):
        """Regression: max_batch=1 means open() itself fires the size
        trigger; the batching process must not try to add a second."""
        config = ServeConfig(rate=2_000.0, num_requests=30,
                             seeds_per_request=4, max_batch=1,
                             batch_window_s=0.004, queue_capacity=10_000,
                             slo_s=0.0, seed=0)
        report = simulate("dgl", dataset, run_config=run_config,
                          serve_config=config)
        assert report.num_completed == 30
        assert all(batch.size == 1 for batch in report.batches)

    def test_small_queue_sheds_under_overload(self, dataset, run_config):
        config = ServeConfig(rate=500_000.0, num_requests=200,
                             seeds_per_request=8, max_batch=4,
                             batch_window_s=0.0005, queue_capacity=8,
                             slo_s=0.0, seed=0)
        report = simulate("dgl", dataset, run_config=run_config,
                          serve_config=config)
        assert report.num_shed > 0
        assert report.shed_rate == report.num_shed / 200

    def test_tight_slo_causes_deadline_drops(self, dataset, run_config):
        config = ServeConfig(rate=200_000.0, num_requests=200,
                             seeds_per_request=8, max_batch=16,
                             batch_window_s=0.002, queue_capacity=10_000,
                             slo_s=0.002, seed=0)
        report = simulate("dgl", dataset, run_config=run_config,
                          serve_config=config)
        assert report.num_dropped > 0
        for request in report.requests:
            if request.outcome == "dropped":
                assert request.completion > request.deadline
