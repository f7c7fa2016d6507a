"""Tests for the fault-injection layer and the resilience it exercises.

Property tests (Hypothesis) pin the retry/backoff schedule contract and
:class:`FaultPlan` determinism; the unit tests drive the storage
scheduler, the feature loaders, the Match residency invalidation, and
the serving admission controller through injected faults.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.config import RunConfig
from repro.core.match import MatchState
from repro.errors import (
    FaultError,
    StorageReadError,
    TransferStallError,
)
from repro.faults import (
    KNOWN_SITES,
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    call_with_faults,
    fault_scope,
    get_fault_plan,
    set_fault_plan,
)
from repro.obs import get_registry, set_registry
from repro.obs.exporters import flatten_snapshot, to_snapshot
from repro.obs.registry import MetricsRegistry
from repro.sampling import NeighborSampler
from repro.graph.features import HashFeatureStore
from repro.storage import IOScheduler, LRUPageCache, PageStore
from repro.transfer.loader import MatchLoader


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with fault injection disabled."""
    set_fault_plan(None)
    yield
    set_fault_plan(None)


# ---------------------------------------------------------------------------
# Retry policy / backoff schedule (Hypothesis)


policies = st.builds(
    RetryPolicy,
    max_attempts=st.integers(min_value=1, max_value=8),
    base_delay_s=st.floats(min_value=1e-6, max_value=1e-2),
    multiplier=st.floats(min_value=1.0, max_value=4.0),
    max_delay_s=st.floats(min_value=1e-5, max_value=1.0),
    jitter_fraction=st.floats(min_value=0.0, max_value=0.5),
)


class TestRetryPolicyProperties:
    @given(policy=policies, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_schedule_contract(self, policy, seed):
        """PROPERTY: the jittered schedule has one delay per possible
        retry, stays monotone non-decreasing, and each delay is within
        the jitter envelope of its nominal value."""
        rng = np.random.default_rng(seed)
        schedule = policy.schedule(rng)
        assert len(schedule) == policy.max_attempts - 1
        previous = 0.0
        for k, delay in enumerate(schedule):
            nominal = policy.nominal_delay(k)
            assert delay >= previous  # monotone non-decreasing
            lo = nominal * (1.0 - policy.jitter_fraction)
            hi = nominal * (1.0 + policy.jitter_fraction)
            # max-with-previous can only raise a delay toward an earlier
            # (smaller-nominal) bound, never above this step's ceiling.
            assert lo - 1e-12 <= delay <= hi + 1e-12
            previous = delay

    @given(policy=policies)
    @settings(max_examples=100, deadline=None)
    def test_nominal_is_capped_and_monotone(self, policy):
        delays = [policy.nominal_delay(k) for k in range(8)]
        assert all(d <= policy.max_delay_s for d in delays)
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    def test_unjittered_schedule_is_nominal(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.01,
                             multiplier=2.0, max_delay_s=1.0)
        assert policy.schedule() == [0.01, 0.02, 0.04]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)


# ---------------------------------------------------------------------------
# FaultPlan determinism (Hypothesis)


class TestFaultPlanProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        probability=st.floats(min_value=0.0, max_value=1.0),
        max_failures=st.integers(min_value=0, max_value=5),
        keys=st.lists(st.integers(min_value=0, max_value=10_000),
                      min_size=1, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_seed_same_decisions(self, seed, probability,
                                      max_failures, keys):
        """PROPERTY: fault decisions are pure in (seed, site, key)."""
        def build():
            return FaultPlan(seed=seed, sites={
                "storage_read": FaultSpec(probability=probability,
                                          max_failures=max_failures),
            })

        a, b = build(), build()
        for key in keys:
            fa = a.failures_planned("storage_read", key)
            fb = b.failures_planned("storage_read", key)
            assert fa == fb
            assert 0 <= fa <= max_failures
            if probability == 0.0:
                assert fa == 0

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        keys=st.lists(st.integers(min_value=0, max_value=1000),
                      min_size=1, max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_seed_same_trace(self, seed, keys):
        """PROPERTY: the same call sequence replays the same trace."""
        def run():
            plan = FaultPlan.chaos(seed, probability=0.5, delay_s=1e-3)
            for key in keys:
                plan.failures_planned("storage_read", key)
                if plan.should_crash("worker_crash", key, 0):
                    plan.record("worker_crash", key, 0, "crash")
                plan.stall("storage_slow", key=key)
            return plan.trace()

        assert run() == run()

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        key=st.integers(min_value=0, max_value=10_000),
        delay=st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_stall_bounds(self, seed, key, delay):
        """PROPERTY: a fired stall is in [0.5, 1.5) x delay_s."""
        plan = FaultPlan(seed=seed, sites={
            "storage_slow": FaultSpec(probability=1.0, delay_s=delay),
        })
        stall = plan.stall("storage_slow", key=key)
        assert 0.5 * delay <= stall < 1.5 * delay
        assert stall == FaultPlan(seed=seed, sites=plan.sites).stall(
            "storage_slow", key=key)

    def test_chaos_covers_every_known_site(self):
        plan = FaultPlan.chaos(1)
        assert set(plan.sites) == set(KNOWN_SITES)
        assert plan.enabled

    def test_disabled_plan(self):
        plan = FaultPlan.disabled()
        assert not plan.enabled
        assert plan.failures_planned("storage_read", 0) == 0
        assert plan.stall("storage_slow") == 0.0

    def test_should_crash_matches_failures_planned(self):
        plan = FaultPlan(seed=3, sites={
            "worker_crash": FaultSpec(probability=0.8, max_failures=3),
        })
        for key in range(50):
            planned = plan.failures_planned("worker_crash", key)
            for attempt in range(planned + 2):
                assert plan.should_crash("worker_crash", key, attempt) \
                    == (attempt < planned)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(delay_s=-1.0)
        with pytest.raises(TypeError):
            FaultPlan(sites={"storage_read": 0.5})

    def test_fault_scope_restores(self):
        plan = FaultPlan.chaos(7)
        before = get_fault_plan()
        with fault_scope(plan) as active:
            assert active is plan
            assert get_fault_plan() is plan
        assert get_fault_plan() is before

    def test_next_key_sequences_per_site(self):
        plan = FaultPlan.chaos(0)
        assert [plan.next_key("storage_read") for _ in range(3)] == [0, 1, 2]
        assert plan.next_key("pcie_stall") == 0
        plan.reset_trace()
        assert plan.next_key("storage_read") == 0


# ---------------------------------------------------------------------------
# call_with_faults


class TestCallWithFaults:
    def test_disabled_plan_is_passthrough(self):
        result, stats = call_with_faults(
            lambda: 42, site="storage_read", plan=FaultPlan.disabled())
        assert result == 42
        assert stats.num_retries == 0 and stats.delay_s == 0.0

    def test_recovered_failures_accumulate_backoff(self):
        plan = FaultPlan(seed=0, sites={
            "storage_read": FaultSpec(probability=1.0, max_failures=2),
        })
        calls = []
        result, stats = call_with_faults(
            lambda: calls.append(1) or "ok",
            site="storage_read", key=5, plan=plan)
        assert result == "ok"
        assert calls == [1]  # fn ran exactly once
        assert stats.num_retries == 2
        assert stats.attempts == 3
        assert stats.delay_s > 0
        assert plan.fired("storage_read") == 2

    def test_exhaustion_raises_without_running_fn(self):
        policy = RetryPolicy(max_attempts=2)
        plan = FaultPlan(seed=0, sites={
            "storage_read": FaultSpec(probability=1.0, max_failures=5),
        })
        calls = []
        with pytest.raises(StorageReadError) as excinfo:
            call_with_faults(
                lambda: calls.append(1),
                site="storage_read", key=9, policy=policy, plan=plan,
                exc_factory=lambda attempts: StorageReadError(9, attempts))
        assert calls == []  # no partial result can leak
        assert excinfo.value.page_id == 9
        assert excinfo.value.attempts == policy.max_attempts

    def test_default_exhaustion_error_is_fault_error(self):
        plan = FaultPlan(seed=0, sites={
            "pcie_stall": FaultSpec(probability=1.0, max_failures=9),
        })
        with pytest.raises(FaultError, match="pcie_stall"):
            call_with_faults(lambda: None, site="pcie_stall",
                             policy=RetryPolicy(max_attempts=2), plan=plan)

    def test_retry_metrics_recorded(self):
        registry = MetricsRegistry()
        previous = get_registry()
        set_registry(registry)
        try:
            plan = FaultPlan(seed=1, sites={
                "storage_read": FaultSpec(probability=1.0, max_failures=1),
            })
            call_with_faults(lambda: 1, site="storage_read", key=0,
                             plan=plan)
        finally:
            set_registry(previous)
        flat = flatten_snapshot(to_snapshot(registry))
        assert flat['repro_faults_retries_total{site="storage_read"}'] == 1.0
        assert flat[
            'repro_faults_injected_total{kind="fail",site="storage_read"}'
        ] == 1.0


# ---------------------------------------------------------------------------
# Storage scheduler under injected NVMe errors


def _scheduler(num_nodes=64, dim=4, page_bytes=64, capacity=1000,
               retry_policy=None):
    backing = HashFeatureStore(num_nodes, dim)
    page_store = PageStore(backing, page_bytes=page_bytes)
    return IOScheduler(page_store, LRUPageCache(capacity),
                       retry_policy=retry_policy)


class TestSchedulerFaults:
    def test_recovered_read_errors_are_accounted(self):
        sched = _scheduler()
        plan = FaultPlan(seed=2, sites={
            "storage_read": FaultSpec(probability=1.0, max_failures=2),
        })
        with fault_scope(plan):
            io_plan = sched.submit(np.arange(16))
        assert io_plan.page_misses > 0
        # Every missed page failed twice before succeeding.
        assert io_plan.num_retries == 2 * io_plan.page_misses
        assert io_plan.fault_delay_s > 0
        # Each page was read (and counted) once, and became resident.
        assert sched.page_store.pages_read == io_plan.page_misses
        assert sched.cache.num_resident == io_plan.page_misses

    def test_exhausted_read_raises_and_pollutes_nothing(self):
        sched = _scheduler(retry_policy=RetryPolicy(max_attempts=2))
        plan = FaultPlan(seed=2, sites={
            "storage_read": FaultSpec(probability=1.0, max_failures=5),
        })
        with fault_scope(plan):
            with pytest.raises(StorageReadError) as excinfo:
                sched.submit(np.arange(8))
        # The failed page never reached the cache: a later batch reads it
        # off the drive again.
        assert not sched.cache.lookup(excinfo.value.page_id)

    def test_storage_slow_adds_delay_only(self):
        sched = _scheduler()
        plan = FaultPlan(seed=4, sites={
            "storage_slow": FaultSpec(probability=1.0, delay_s=1e-3),
        })
        with fault_scope(plan):
            io_plan = sched.submit(np.arange(16))
        assert io_plan.num_retries == 0
        assert io_plan.fault_delay_s > 0

    def test_no_faults_means_zero_overhead_fields(self):
        io_plan = _scheduler().submit(np.arange(16))
        assert io_plan.num_retries == 0
        assert io_plan.fault_delay_s == 0.0


# ---------------------------------------------------------------------------
# Loader faults + Match residency invalidation


class TestLoaderFaults:
    @pytest.fixture()
    def subgraphs(self, tiny_graph, tiny_dataset):
        sampler = NeighborSampler(tiny_graph, (3, 4), rng=0)
        ids = tiny_dataset.train_ids
        return [sampler.sample(ids[i * 50:(i + 1) * 50]) for i in range(2)]

    def test_recovered_stall_keeps_plan_and_adds_delay(self, tiny_dataset,
                                                       subgraphs):
        loader = MatchLoader(tiny_dataset.features)
        baseline = MatchLoader(tiny_dataset.features).plan(subgraphs[0])
        plan = FaultPlan(seed=0, sites={
            "pcie_stall": FaultSpec(probability=1.0, max_failures=2),
        })
        with fault_scope(plan):
            report = loader.plan(subgraphs[0])
        assert report.num_retries == 2
        assert report.retry_delay_s > 0
        assert report.feature_bytes == baseline.feature_bytes
        assert report.num_loaded == baseline.num_loaded

    def test_exhausted_stall_invalidates_residency(self, tiny_dataset,
                                                   subgraphs):
        loader = MatchLoader(tiny_dataset.features)
        loader.plan(subgraphs[0])  # warm residency
        assert len(loader._state.resident) > 0
        plan = FaultPlan(seed=0, sites={
            "pcie_stall": FaultSpec(probability=1.0, max_failures=9),
        })
        with fault_scope(plan):
            with pytest.raises(TransferStallError):
                loader.plan(subgraphs[1])
        # The failed DMA wiped residency: nothing may be reused.
        assert len(loader._state.resident) == 0
        report = loader.plan(subgraphs[1])
        assert report.num_reused == 0
        assert report.num_loaded == subgraphs[1].num_nodes


class TestTypedErrorsFromApi:
    """An unrecovered fault leaves ``api.run`` as its own typed
    :class:`FaultError`, whichever framework's lane raised it."""

    @staticmethod
    def _run(framework, dataset, site):
        plan = FaultPlan(seed=0, sites={
            site: FaultSpec(probability=1.0, max_failures=9)})
        config = RunConfig(num_gpus=2, batch_size=64, fanouts=(3, 4))
        with fault_scope(plan):
            return api.run(framework, dataset, config=config)

    @pytest.mark.parametrize("framework", ["dgl", "dgl-ooc"])
    def test_pcie_stall_raises_transfer_stall(self, framework,
                                              tiny_dataset):
        with pytest.raises(TransferStallError) as excinfo:
            self._run(framework, tiny_dataset, "pcie_stall")
        assert isinstance(excinfo.value, FaultError)

    def test_storage_read_raises_storage_read_error(self, tiny_dataset):
        with pytest.raises(StorageReadError) as excinfo:
            self._run("dgl-ooc", tiny_dataset, "storage_read")
        assert isinstance(excinfo.value, FaultError)


class TestMatchInvalidation:
    def test_invalidate_all(self):
        state = MatchState()
        state.step(np.array([3, 1, 2]))
        assert len(state.resident) == 3
        state.invalidate()
        assert len(state.resident) == 0
        assert len(state.last_load_ids) == 0

    def test_invalidate_subset(self):
        state = MatchState()
        state.step(np.array([1, 2, 3, 4]))
        state.invalidate(np.array([2, 4, 99]))
        np.testing.assert_array_equal(state.resident, [1, 3])

    def test_invalidate_pending_keeps_reused_rows(self):
        state = MatchState()
        state.step(np.array([1, 2, 3]))
        result = state.step(np.array([2, 3, 4, 5]))
        np.testing.assert_array_equal(result.load_ids, [4, 5])
        state.invalidate_pending()
        # Rows 2 and 3 were already on the device; only the in-flight
        # rows 4 and 5 lose residency.
        np.testing.assert_array_equal(state.resident, [2, 3])

    def test_step_tracks_last_load_ids(self):
        state = MatchState()
        result = state.step(np.array([5, 6]))
        np.testing.assert_array_equal(state.last_load_ids, result.load_ids)
        state.reset()
        assert len(state.last_load_ids) == 0


# ---------------------------------------------------------------------------
# Serving degradation + distinct exit counters


from repro.serve import ServeConfig, simulate  # noqa: E402
from repro.serve.request import InferenceRequest, RequestQueue  # noqa: E402

from helpers import make_spec  # noqa: E402


def _request(req_id, arrival, deadline=float("inf")):
    request = InferenceRequest(req_id=req_id, arrival=arrival,
                               seeds=np.array([1, 2], dtype=np.int64))
    request.deadline = deadline
    return request


class TestServeDegradation:
    def test_drop_burst_trips_degraded_mode(self):
        queue = RequestQueue(capacity=8, degrade_after_drops=2,
                             degrade_window_s=1.0,
                             degrade_capacity_factor=0.25)
        assert not queue.degraded(0.0)
        for i in range(2):
            request = _request(i, 0.0, deadline=0.1)
            queue.offer(request, 0.0)
            assert not queue.take(request, 0.5)  # deadline drop
        assert queue.degraded(0.5)
        assert queue.effective_capacity(0.5) == 2

    def test_degraded_shed_counted_separately(self):
        queue = RequestQueue(capacity=8, degrade_after_drops=1,
                             degrade_window_s=1.0,
                             degrade_capacity_factor=0.25)
        victim = _request(0, 0.0, deadline=0.1)
        queue.offer(victim, 0.0)
        queue.take(victim, 0.5)  # trips degradation; queue empty again
        for i in range(1, 4):
            queue.offer(_request(i, 0.5), 0.5)
        # Effective capacity is 2: the third arrival is shed even though
        # the real queue has room — a degraded-mode shed.
        assert queue.stats.shed == 1
        assert queue.stats.degraded_shed == 1
        assert queue.stats.dropped == 1

    def test_window_drains_and_capacity_recovers(self):
        queue = RequestQueue(capacity=8, degrade_after_drops=1,
                             degrade_window_s=0.01)
        request = _request(0, 0.0, deadline=0.001)
        queue.offer(request, 0.0)
        queue.take(request, 0.005)
        assert queue.degraded(0.005)
        assert not queue.degraded(1.0)
        assert queue.effective_capacity(1.0) == 8

    def test_degradation_off_by_default(self):
        queue = RequestQueue(capacity=4)
        request = _request(0, 0.0, deadline=0.0)
        queue.offer(request, 0.0)
        queue.take(request, 1.0)
        assert not queue.degraded(1.0)
        assert queue.effective_capacity(1.0) == 4

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=4, degrade_capacity_factor=0.0)

    def test_serve_stall_faults_shed_instead_of_stalling(self):
        """Under injected serving stalls, degradation sheds at the door;
        shed vs deadline-dropped stay distinct in the metrics."""
        dataset = __import__("repro.graph.datasets",
                             fromlist=["Dataset"]).Dataset(
            make_spec(name="faulty-serve", num_nodes=800, avg_degree=6.0,
                      feature_dim=8), seed=3)
        from repro.config import RunConfig

        serve_config = ServeConfig(
            rate=2000.0, num_requests=120, queue_capacity=8, slo_s=0.01,
            degrade_after_drops=2, degrade_window_s=0.05,
            degrade_capacity_factor=0.25, seed=1,
        )
        plan = FaultPlan(seed=11, sites={
            "serve_stall": FaultSpec(probability=0.5, delay_s=0.02),
        })
        registry = MetricsRegistry()
        previous = get_registry()
        set_registry(registry)
        try:
            with fault_scope(plan):
                report = simulate(
                    "dgl", dataset,
                    run_config=RunConfig(num_gpus=1, fanouts=(3, 3), seed=0),
                    serve_config=serve_config,
                )
        finally:
            set_registry(previous)
        assert plan.fired("serve_stall") > 0
        assert report.num_dropped > 0
        assert report.num_degraded_shed > 0
        assert report.reconciles()
        stalls = [s for s in report.timeline if s["cat"] == "fault_stall"]
        assert len(stalls) == plan.fired("serve_stall")
        assert report.phase_busy["fault_stall"] == pytest.approx(
            sum(s["dur"] for s in stalls))
        # Distinct counters: shed != dropped, both present.
        flat = flatten_snapshot(to_snapshot(registry))
        shed = flat.get('repro_serve_shed_requests_total{framework="dgl"}',
                        0.0)
        dropped = flat.get(
            'repro_serve_deadline_dropped_total{framework="dgl"}', 0.0)
        assert shed == report.num_shed > 0
        assert dropped == report.num_dropped > 0
