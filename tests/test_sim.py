"""Tests for the event loop and the two-stage pipeline it runs.

GNNLab's sampler -> trainer pipeline is the two-stage configuration of
the pipeline engine (:func:`stage_graph_makespan`); every case here is
checked against the engine's one closed-form oracle,
:func:`stage_graph_reference`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.graph import stage_graph_makespan, stage_graph_reference
from repro.sim.events import EventLoop


class TestEventLoop:
    def test_delays_accumulate(self):
        loop = EventLoop()
        log = []

        def proc():
            yield 1.0
            log.append(loop.now)
            yield 2.5
            log.append(loop.now)

        loop.spawn(proc())
        end = loop.run()
        assert log == [1.0, 3.5]
        assert end == 3.5

    def test_two_processes_interleave(self):
        loop = EventLoop()
        log = []

        def proc(name, delay):
            yield delay
            log.append((name, loop.now))

        loop.spawn(proc("slow", 2.0))
        loop.spawn(proc("fast", 1.0))
        loop.run()
        assert log == [("fast", 1.0), ("slow", 2.0)]

    def test_resource_exclusive(self):
        loop = EventLoop()
        gate = loop.resource("gpu")
        log = []

        def worker(name):
            yield gate.acquire()
            log.append((name, "start", loop.now))
            yield 1.0
            gate.release()
            log.append((name, "end", loop.now))

        loop.spawn(worker("a"))
        loop.spawn(worker("b"))
        end = loop.run()
        assert end == 2.0  # serialized, not parallel
        assert log[1] == ("a", "end", 1.0)
        assert log[2] == ("b", "start", 1.0)

    def test_release_idle_resource_raises(self):
        loop = EventLoop()
        gate = loop.resource()
        with pytest.raises(RuntimeError):
            gate.release()

    def test_run_until(self):
        loop = EventLoop()

        def proc():
            yield 10.0

        loop.spawn(proc())
        assert loop.run(until=5.0) == 5.0

    def test_bad_yield_type(self):
        loop = EventLoop()

        def proc():
            yield "nonsense"

        loop.spawn(proc())
        with pytest.raises(TypeError):
            loop.run()

    def test_negative_delay_rejected(self):
        loop = EventLoop()

        def proc():
            yield -1.0

        loop.spawn(proc())
        with pytest.raises(ValueError):
            loop.run()


#: Per-item stage seconds for the agreement properties: zero-length
#: service times are legal (an all-cache-hit IO stage, an empty halo)
#: and must not desynchronize the recurrence from the event simulation,
#: so they are drawn often rather than never.
_stage_seconds = st.one_of(st.just(0.0), st.floats(0.01, 5.0))


def two_stage(produce, consume, queue_depth=None):
    """The engine's makespan of a producer/consumer pipeline, asserted
    equal to the closed-form recurrence on the way out."""
    span = stage_graph_makespan([produce, consume], queue_depth=queue_depth)
    assert span == stage_graph_reference([produce, consume],
                                         queue_depth=queue_depth)
    return span


class TestTwoStageMakespan:
    def test_producer_bound(self):
        # Slow producer, instant consumer: makespan ~ total production.
        assert two_stage([2, 2, 2], [0.1, 0.1, 0.1]) == pytest.approx(6.1)

    def test_consumer_bound(self):
        # Fast producer: consumer streams back-to-back after first batch.
        assert two_stage([0.1, 0.1, 0.1], [2, 2, 2]) == pytest.approx(6.1)

    def test_empty(self):
        assert two_stage([], []) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stage_graph_makespan([[1], [1, 2]])
        with pytest.raises(ValueError):
            stage_graph_reference([[1], [1, 2]])

    def test_backpressure(self):
        # depth 1: producer can only run one batch ahead.
        free = two_stage([1, 1, 1], [3, 3, 3])
        constrained = two_stage([1, 1, 1], [3, 3, 3], queue_depth=1)
        assert constrained >= free  # never faster with backpressure

    @settings(max_examples=40, deadline=None)
    @given(
        times=st.lists(
            st.tuples(_stage_seconds, _stage_seconds),
            min_size=1, max_size=12,
        )
    )
    def test_recurrence_matches_event_sim(self, times):
        """Property: the closed form equals the event simulation —
        including items with zero-length service at either stage."""
        two_stage([p for p, _ in times], [c for _, c in times])

    @pytest.mark.parametrize("depth", [1, 2, 3, 7])
    def test_recurrence_matches_event_sim_bounded(self, depth):
        two_stage([1.0, 0.5, 2.0, 0.25, 1.5, 0.75],
                  [3.0, 0.1, 1.0, 2.5, 0.2, 1.25], queue_depth=depth)

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.tuples(_stage_seconds, _stage_seconds),
            min_size=1, max_size=12,
        ),
        depth=st.integers(1, 6),
    )
    def test_bounded_agreement_property(self, times, depth):
        """Property: recurrence and slot-ring simulation agree for any
        finite queue depth (including the fully serialized depth 1 and
        zero-length stage times), and deeper queues never slow the
        pipeline."""
        produce = [p for p, _ in times]
        consume = [c for _, c in times]
        bounded = two_stage(produce, consume, queue_depth=depth)
        assert bounded >= two_stage(produce, consume) - 1e-9

    def test_depth_one_serializes_against_consumer(self):
        # One slot: the producer may only start item i+1 once the
        # consumer has *finished* item i — the makespan degenerates to
        # the chained recurrence, not the unbounded overlap.
        bounded = two_stage([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], queue_depth=1)
        # items start at 0, 3, 6 (wait for consume(i-1)); last ends 6+1+2.
        assert bounded == pytest.approx(9.0)

    def test_zero_length_stage_times_agree(self):
        # All-zero producer (pure cache hits) and sparse zero consumers.
        for depth in (None, 1, 2):
            span = two_stage([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0],
                             queue_depth=depth)
            assert span == pytest.approx(3.0)

    def test_sim_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            stage_graph_makespan([[1.0], [1.0]], queue_depth=0)
        with pytest.raises(ValueError):
            stage_graph_reference([[1.0], [1.0]], queue_depth=0)

    def test_lower_bounds(self):
        produce = [1.0, 2.0]
        consume = [3.0, 1.0]
        span = two_stage(produce, consume)
        assert span >= sum(consume)
        assert span >= produce[0] + consume[0]
