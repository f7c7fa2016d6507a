"""The pipeline engine: N exclusive stages, bounded buffers.

Every overlapped epoch layout runs on this one engine: the pipelined
epoch (:mod:`repro.pipeline.epoch`), GNNLab's sampler → trainer
pipeline and the out-of-core sample → read → train pipeline. Items flow
in index order through a linear stage graph on :mod:`repro.sim.events`;
every stage is an exclusive resource (the sampler stream, the DMA
engine, the NIC, the training stream). Two optional bounds:

* ``queue_depth`` slots per stage-to-stage edge — a stage may only
  *start* item ``i`` once a slot in its output buffer is free, and the
  slot stays occupied until the downstream stage *finishes* the item
  (double buffering at 2), so backpressure propagates upstream;
* ``max_in_flight`` items in the whole graph — item ``i`` is admitted
  once item ``i - max_in_flight`` has left the last stage (the
  out-of-core prefetch window).

The engine publishes no metrics; callers emit their own through the
``record``, ``stall_record`` and ``admit`` hooks.
:func:`stage_graph_reference` is the closed-form oracle.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.sim.events import EventLoop

#: ``record``/``stall_record`` callbacks receive these 4-tuples.
Interval = tuple  # (stage_name, item_index, start, end)


def _validated(stage_times, queue_depth, max_in_flight) -> list:
    times = [list(map(float, stage)) for stage in stage_times]
    if not times:
        raise ValueError("at least one stage is required")
    if any(len(stage) != len(times[0]) for stage in times):
        raise ValueError("stage time lists must have equal length")
    if queue_depth is not None and queue_depth < 1:
        raise ValueError("queue_depth must be >= 1 or None")
    if max_in_flight is not None and max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1 or None")
    return times


def stage_graph_makespan(
    stage_times: Sequence[Sequence[float]],
    *,
    names: Sequence[str] | None = None,
    queue_depth: int | None = None,
    max_in_flight: int | None = None,
    record: Callable[[Interval], None] | None = None,
    stall_record: Callable[[Interval], None] | None = None,
    admit: Callable[[int], None] | None = None,
) -> float:
    """Makespan of ``n`` items flowing through the linear stage graph.

    ``stage_times[s][i]`` is the service time of item ``i`` at stage
    ``s``. ``record`` gets ``(stage_name, item, start, end)`` for every
    executed interval, ``stall_record`` the same for every interval a
    stage spent waiting (starved, backpressured, or stage 0 waiting for
    a window slot; the pipeline fill counts). ``admit`` gets the number
    of items in flight at each admission: with ``max_in_flight``, when
    the item is granted a window slot (the first ``max_in_flight`` all
    at t=0); without, when stage 0 takes the item.
    """
    times = _validated(stage_times, queue_depth, max_in_flight)
    n = len(times[0])
    num_stages = len(times)
    if names is None:
        names = [f"stage{s}" for s in range(num_stages)]
    elif len(names) != num_stages:
        raise ValueError("one name per stage required")
    if n == 0:
        return 0.0

    loop = EventLoop()
    queues = [loop.queue(f"edge{s}") for s in range(num_stages - 1)]
    slots = None
    if queue_depth is not None:
        slots = [
            [loop.resource(f"slot{s}.{j}") for j in range(queue_depth)]
            for s in range(num_stages - 1)
        ]
    in_flight = [0]

    def enter() -> None:
        in_flight[0] += 1
        if admit is not None:
            admit(in_flight[0])

    window = None
    if max_in_flight is not None:
        window = [loop.resource(f"window{j}") for j in range(max_in_flight)]
        admitted = loop.queue("admitted")

        def admitter():
            for i in range(n):
                yield window[i % max_in_flight].acquire()
                enter()
                admitted.put(i)

        loop.spawn(admitter())

    def stage_proc(s: int):
        name = names[s]
        for i in range(n):
            wait_from = loop.now
            if s > 0:
                yield queues[s - 1].get()
            elif window is not None:
                yield admitted.get()
            else:
                enter()
            if slots is not None and s + 1 < num_stages:
                # Claim the output-buffer slot before starting: a full
                # buffer stalls this stage (backpressure).
                yield slots[s][i % queue_depth].acquire()
            start = loop.now
            if start > wait_from and stall_record is not None:
                stall_record((name, i, wait_from, start))
            yield times[s][i]
            if record is not None:
                record((name, i, start, loop.now))
            if s > 0 and slots is not None:
                # The upstream buffer slot frees only now: the item was
                # read out of the buffer for the whole service time.
                slots[s - 1][i % queue_depth].release()
            if s + 1 < num_stages:
                queues[s].put(i)
                continue
            in_flight[0] -= 1
            if window is not None:
                window[i % max_in_flight].release()

    for s in range(num_stages):
        loop.spawn(stage_proc(s))
    return loop.run()


def stage_graph_reference(
    stage_times: Sequence[Sequence[float]],
    queue_depth: int | None = None,
    max_in_flight: int | None = None,
) -> float:
    """Closed-form recurrence cross-checking :func:`stage_graph_makespan`.

    ``start[s][i] = max(finish[s][i-1], finish[s-1][i],
    finish[s+1][i-queue_depth])`` — the stage is serial, the item must
    have left the previous stage, and (with a bounded buffer) the output
    slot it reuses must have been drained by the downstream stage — and
    ``start[0][i] >= finish[S-1][i-max_in_flight]``: the item's window
    slot frees when an earlier item leaves the last stage.
    """
    times = _validated(stage_times, queue_depth, max_in_flight)
    n = len(times[0])
    if n == 0:
        return 0.0
    num_stages = len(times)
    finish = [[0.0] * n for _ in range(num_stages)]
    for i in range(n):
        for s in range(num_stages):
            start = finish[s][i - 1] if i > 0 else 0.0
            if s > 0:
                start = max(start, finish[s - 1][i])
            elif max_in_flight is not None and i >= max_in_flight:
                start = max(start, finish[-1][i - max_in_flight])
            if (queue_depth is not None and s + 1 < num_stages
                    and i >= queue_depth):
                start = max(start, finish[s + 1][i - queue_depth])
            finish[s][i] = start + times[s][i]
    return finish[-1][-1]
