"""Multi-core execution engine (``--jobs N``).

See :mod:`repro.parallel.executor` for the determinism contract: job
count changes wall-clock only, never results, random streams, or merged
metrics (transport byte counters excepted — they measure the transport
itself; see :func:`strip_transport_metrics`). The supervised pool also
survives worker loss: crashed workers (real or injected via the
``worker_crash`` fault site) are replaced and their chunks reassigned,
bit-identically, up to a per-chunk crash budget.

Results come back pickled over one pipe per worker, and the executor
counts those bytes (:class:`TransportStats`).
"""

from repro.errors import ParallelTaskError, WorkerCrashError
from repro.parallel.executor import (
    CRASH_EXIT_CODE,
    TRANSPORT_METRICS,
    ParallelExecutor,
    TransportStats,
    fork_available,
    parallel_map,
    resolve_jobs,
    strip_transport_metrics,
    task_rng,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ParallelExecutor",
    "ParallelTaskError",
    "TRANSPORT_METRICS",
    "TransportStats",
    "WorkerCrashError",
    "fork_available",
    "parallel_map",
    "resolve_jobs",
    "strip_transport_metrics",
    "task_rng",
]
