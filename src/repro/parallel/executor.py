"""Fork-based process pool with deterministic semantics.

The engine behind ``--jobs N``: :func:`parallel_map` shards a list of
independent tasks (experiment figures, serving sweep points) across
worker processes while keeping every observable output — results and
merged metrics — **independent of the job count**. ``jobs=4`` must be a
pure wall-clock optimization; the determinism tests in
``tests/test_parallel.py`` hold it to that.

How jobs-independence is achieved:

* **Item-derived randomness.** A task that draws random numbers seeds
  its generator from its item, never from the worker that happens to
  run it.
* **Inherited closures, queued indices.** Workers are forked, so the
  function and items are inherited memory — only *task indices* go to
  workers and only results come back. This lets callers pass closures
  over datasets without pickling either.
* **Ordered metric folding.** Every task — serial or forked — runs
  against a fresh :class:`~repro.obs.registry.MetricsRegistry` whose
  snapshot the parent merges *in task order* after all tasks finish.
  The serial fallback runs the exact same fresh-registry protocol, so
  ``jobs=1`` and ``jobs=N`` fold identical floating-point sums in
  identical order.

Results travel pickled over each worker's own pipe, and the parent
counts every byte it sends and receives in
``repro_parallel_ipc_bytes_total`` (task indices, results, metric
snapshots). That counter is the one deliberate exception to the
jobs-determinism contract — it measures the transport itself, so it is
zero under the serial fallback; comparisons across job counts strip it
with :func:`strip_transport_metrics`.

The serial fallback engages when ``jobs <= 1``, when the platform lacks
the ``fork`` start method (the pool never pickles the task function, so
``spawn`` cannot substitute), or when there is at most one task.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import pickle
import traceback

from repro.errors import ParallelTaskError, WorkerCrashError
from repro.faults import get_fault_plan
from repro.obs.exporters import to_snapshot
from repro.obs.registry import MetricsRegistry, get_registry, set_registry

#: Exit code an injected worker crash dies with (keeps real segfaults,
#: which report negative signal codes, distinguishable in logs).
CRASH_EXIT_CODE = 73

#: Times one task may lose its worker before
#: :class:`~repro.errors.WorkerCrashError` is raised.
MAX_CRASHES = 2

#: How often (seconds) the supervisor checks worker liveness while
#: waiting for results.
_LIVENESS_POLL_S = 0.05

#: Metric names that measure the transport layer itself. They are the
#: deliberate exception to jobs-determinism (serial runs move zero IPC
#: bytes); strip them before comparing metrics across job counts.
TRANSPORT_METRICS = ("repro_parallel_ipc_bytes_total",)


def strip_transport_metrics(flat: dict) -> dict:
    """A copy of a flat metrics mapping without the transport counters
    (:data:`TRANSPORT_METRICS`) — the keys that legitimately differ
    between job counts."""
    return {
        key: value for key, value in flat.items()
        if not any(key.startswith(name) for name in TRANSPORT_METRICS)
    }


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in mp.get_all_start_methods()


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean all cores,
    negatives raise, anything else passes through."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = all cores)")
    return jobs


def _run_task(fn, item, index, obs_enabled):
    """Run one task under a fresh registry; return (value, snapshot).

    Both the serial path and the forked workers funnel through this, so
    the metric-folding structure is identical in both modes — and so is
    the failure contract: a task exception surfaces as a
    :class:`~repro.errors.ParallelTaskError` carrying the task index.
    """
    parent = get_registry()
    registry = MetricsRegistry(enabled=obs_enabled)
    set_registry(registry)
    try:
        value = fn(item)
    except Exception as exc:
        raise ParallelTaskError(index, repr(exc)) from exc
    finally:
        set_registry(parent)
    # Snapshot only when there is something to fold: skip when obs is
    # off, when the task disabled its registry mid-run, and when no
    # metric was touched — an empty snapshot pickles to real pipe bytes
    # per task and merges as a no-op, so dropping it is free and
    # bit-identical.
    snapshot = None
    if obs_enabled and registry.enabled:
        candidate = to_snapshot(registry)
        if candidate["metrics"]:
            snapshot = candidate
    return value, snapshot


def _dumps(message) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def parallel_map(fn, items, jobs: int | None) -> list:
    """Apply ``fn`` to every item across ``jobs`` forked workers (after
    :func:`resolve_jobs`); results in item order.

    Each task's metric snapshot is merged into the current registry in
    item order. A task exception raises
    :class:`~repro.errors.ParallelTaskError` (with the worker traceback
    when forked).
    """
    items = list(items)
    if not items:
        return []
    registry = get_registry()
    obs_enabled = bool(registry.enabled)
    workers = min(resolve_jobs(jobs), len(items))
    if workers <= 1 or not fork_available():
        outcomes = [_run_task(fn, item, index, obs_enabled)
                    for index, item in enumerate(items)]
    else:
        outcomes, ipc_bytes = _map_forked(fn, items, obs_enabled, workers)
        if registry.enabled:
            registry.counter(
                "repro_parallel_ipc_bytes_total",
                "Bytes moved through executor pipes (task indices, "
                "results, metric snapshots)",
            ).inc(ipc_bytes)
    results: list = []
    for value, snapshot in outcomes:
        results.append(value)
        if snapshot is not None:
            registry.merge(snapshot)
    return results


def _map_forked(fn, items, obs_enabled, workers) -> tuple:
    """Supervised worker pool; returns ``(outcomes, ipc_bytes)``.

    The parent dispatches one task at a time to each worker's private
    inbox, so it always knows which task a worker holds, and each worker
    returns results on its own pipe. Per-worker pipes (rather than one
    shared result queue) are what makes the pool crash-safe:
    ``Connection.send`` has no feeder thread and no cross-process write
    lock, so a worker that dies mid-task (a real segfault/OOM kill, or
    an injected ``worker_crash`` fault) can never wedge its peers — its
    death just closes the last write end of its pipe, which the parent
    sees as ``EOFError``. The lost task is reassigned to a fresh
    replacement worker — up to :data:`MAX_CRASHES` times per task, after
    which :class:`~repro.errors.WorkerCrashError` raises. Tasks are pure
    functions of their item, so a re-run is bit-identical to the run
    that was lost.
    """
    ctx = mp.get_context("fork")
    fault_plan = get_fault_plan()
    ipc_bytes = 0

    def worker_loop(inbox, conn) -> None:
        while True:
            message = inbox.get()
            if message is None:
                conn.close()
                return
            index, attempt = message
            if fault_plan.enabled and fault_plan.should_crash(
                    "worker_crash", index, attempt):
                # Modeled worker loss: die without flushing anything
                # (exactly what a kill -9 / XID error looks like).
                os._exit(CRASH_EXIT_CODE)
            try:
                body = _run_task(fn, items[index], index, obs_enabled)
                conn.send_bytes(_dumps((index, "ok", body)))
            except BaseException as exc:  # noqa: BLE001 - re-raised
                cause = exc.__cause__ if isinstance(
                    exc, ParallelTaskError) else exc
                conn.send_bytes(_dumps((
                    index, "error", (repr(cause), traceback.format_exc()),
                )))

    def spawn():
        inbox = ctx.SimpleQueue()
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=worker_loop, args=(inbox, writer),
                           daemon=True)
        proc.start()
        # Close the parent's copy immediately: the worker now holds the
        # only write end, so worker death == EOF on `reader`, and later
        # forks cannot inherit a stray write end that would mask it.
        writer.close()
        return {"proc": proc, "inbox": inbox, "reader": reader,
                "task": None, "attempt": 0}

    pool = [spawn() for _ in range(workers)]
    pending = list(range(len(items) - 1, -1, -1))  # pop() -> in order
    attempts = [0] * len(items)
    outcomes: list = [None] * len(items)
    completed = 0
    try:
        while completed < len(items):
            for state in pool:
                if state["task"] is None and pending:
                    index = pending.pop()
                    state["task"] = index
                    state["attempt"] = attempts[index]
                    message = (index, attempts[index])
                    ipc_bytes += len(_dumps(message))
                    state["inbox"].put(message)
            ready = mp_connection.wait(
                [state["reader"] for state in pool],
                timeout=_LIVENESS_POLL_S)
            crashed = not ready
            for state in pool:
                if state["reader"] not in ready:
                    continue
                try:
                    data = state["reader"].recv_bytes()
                except EOFError:
                    # Worker died (possibly mid-send); only its own pipe
                    # is affected. Reap below.
                    crashed = True
                    continue
                ipc_bytes += len(data)
                index, status, payload = pickle.loads(data)
                if status == "error":
                    cause, worker_tb = payload
                    raise ParallelTaskError(index, cause,
                                            worker_traceback=worker_tb)
                state["task"] = None
                if outcomes[index] is None:
                    outcomes[index] = payload
                    completed += 1
            if crashed:
                _reap_crashed(pool, pending, attempts, fault_plan, spawn)
        for state in pool:
            ipc_bytes += len(_dumps(None))
            state["inbox"].put(None)
        for state in pool:
            state["proc"].join(timeout=5.0)
    finally:
        for state in pool:
            if state["proc"].is_alive():
                state["proc"].terminate()
                state["proc"].join()
            if not state["reader"].closed:
                state["reader"].close()
    return outcomes, ipc_bytes


def _reap_crashed(pool, pending, attempts, fault_plan, spawn) -> None:
    """Replace dead workers in place; requeue and re-budget their tasks.
    Replacements take the dead worker's pool slot *before* any
    budget-exhaustion raise, so the caller's cleanup always sees every
    process it must terminate."""
    for slot, state in enumerate(pool):
        if state["proc"].is_alive():
            continue
        state["proc"].join()
        if not state["reader"].closed:
            state["reader"].close()
        pool[slot] = spawn()
        index = state["task"]
        if index is None:
            continue
        attempts[index] += 1
        if fault_plan.enabled:
            fault_plan.record("worker_crash", index, state["attempt"],
                              "crash")
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_parallel_worker_crashes_total",
                "Worker processes lost and replaced mid-map",
            ).inc()
        if attempts[index] > MAX_CRASHES:
            raise WorkerCrashError(index, attempts[index])
        pending.append(index)
